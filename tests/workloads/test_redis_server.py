"""The in-guest mini-Redis: RESP protocol and command semantics."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.workloads.redis import (
    RedisServer,
    resp_array,
    resp_bulk,
    resp_decode_command,
    resp_encode_command,
    resp_integer,
    resp_simple,
)


@pytest.fixture
def server():
    return RedisServer()


def run(server, *parts):
    return server.execute([p.encode() if isinstance(p, str) else p for p in parts])


class TestResp:
    def test_encode_command(self):
        assert resp_encode_command(["GET", "k"]) == b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"

    def test_decode_command(self):
        assert resp_decode_command(b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") == [b"GET", b"k"]

    def test_decode_rejects_non_array(self):
        with pytest.raises(ValueError):
            resp_decode_command(b"+OK\r\n")

    def test_bulk_null(self):
        assert resp_bulk(None) == b"$-1\r\n"

    def test_reply_builders(self):
        assert resp_simple("OK") == b"+OK\r\n"
        assert resp_integer(42) == b":42\r\n"
        assert resp_array([b"a", b"bb"]) == b"*2\r\n$1\r\na\r\n$2\r\nbb\r\n"


class TestStringCommands:
    def test_set_get(self, server):
        assert run(server, "SET", "k", "v") == b"+OK\r\n"
        assert run(server, "GET", "k") == b"$1\r\nv\r\n"

    def test_get_missing(self, server):
        assert run(server, "GET", "nope") == b"$-1\r\n"

    def test_incr_from_zero_and_existing(self, server):
        assert run(server, "INCR", "c") == b":1\r\n"
        assert run(server, "INCR", "c") == b":2\r\n"
        run(server, "SET", "c", "41")
        assert run(server, "INCR", "c") == b":42\r\n"

    def test_mset(self, server):
        assert run(server, "MSET", "a", "1", "b", "2") == b"+OK\r\n"
        assert run(server, "GET", "b") == b"$1\r\n2\r\n"

    def test_ping(self, server):
        assert run(server, "PING") == b"+PONG\r\n"


class TestListCommands:
    def test_push_pop_order(self, server):
        run(server, "RPUSH", "l", "a")
        run(server, "RPUSH", "l", "b")
        run(server, "LPUSH", "l", "z")
        assert run(server, "LPOP", "l") == b"$1\r\nz\r\n"
        assert run(server, "RPOP", "l") == b"$1\r\nb\r\n"
        assert run(server, "LPOP", "l") == b"$1\r\na\r\n"
        assert run(server, "LPOP", "l") == b"$-1\r\n"

    def test_push_returns_length(self, server):
        assert run(server, "RPUSH", "l", "a", "b", "c") == b":3\r\n"

    def test_lrange(self, server):
        run(server, "RPUSH", "l", *[str(i) for i in range(5)])
        reply = run(server, "LRANGE", "l", "1", "3")
        assert reply == resp_array([b"1", b"2", b"3"])

    def test_lrange_to_end(self, server):
        run(server, "RPUSH", "l", "a", "b")
        assert run(server, "LRANGE", "l", "0", "-1") == resp_array([b"a", b"b"])


class TestSetHashCommands:
    def test_sadd_dedups(self, server):
        assert run(server, "SADD", "s", "x", "y") == b":2\r\n"
        assert run(server, "SADD", "s", "x") == b":0\r\n"

    def test_spop_drains(self, server):
        run(server, "SADD", "s", "only")
        assert run(server, "SPOP", "s") == b"$4\r\nonly\r\n"
        assert run(server, "SPOP", "s") == b"$-1\r\n"

    def test_spop_ignores_hash_seed(self):
        """SPOP's choice must not follow PYTHONHASHSEED (hash-ordered sets do)."""
        script = (
            "from repro.workloads.redis import RedisServer\n"
            "server = RedisServer()\n"
            "members = [b'member:%d' % i for i in range(32)]\n"
            "server.execute([b'SADD', b's', *members])\n"
            "print([server.execute([b'SPOP', b's']) for _ in range(33)])\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        replies = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            replies.append(done.stdout)
        assert replies[0] == replies[1]
        assert replies[0].count("$-1") == 1  # drained after 32 pops

    def test_hset(self, server):
        assert run(server, "HSET", "h", "f", "1") == b":1\r\n"
        assert run(server, "HSET", "h", "f", "2") == b":0\r\n"


class TestDispatch:
    def test_unknown_command_is_error(self, server):
        assert run(server, "FLUSHALL").startswith(b"-ERR")

    def test_empty_command_is_error(self, server):
        assert server.execute([]).startswith(b"-ERR")

    def test_case_insensitive(self, server):
        assert run(server, "set", "k", "v") == b"+OK\r\n"
        assert run(server, "GeT", "k") == b"$1\r\nv\r\n"

    def test_commands_served_counter(self, server):
        run(server, "PING")
        run(server, "PING")
        assert server.commands_served == 2
