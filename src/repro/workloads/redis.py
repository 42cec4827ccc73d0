"""Redis benchmark over virtio-net (paper Fig. 3).

A functional mini-Redis runs *inside the guest*: real RESP protocol
parsing, a real keyspace (strings, lists, sets, hashes), with per-command
compute costs calibrated to the paper's 100 MHz platform.  The
redis-benchmark client runs host-side: it injects request frames through
the virtio-net device whenever the idle server WFIs, and timestamps each
reply at the device's TX handler -- so throughput and latency are emergent
machine-cycle measurements that include every world switch, bounce copy,
and interrupt the I/O path really takes.
"""

from __future__ import annotations

import dataclasses

from repro.cycles import Category
from repro.mem.physmem import PAGE_SIZE


# ---------------------------------------------------------------------------
# RESP protocol (real bytes on the wire)
# ---------------------------------------------------------------------------

def resp_encode_command(parts) -> bytes:
    """Encode a command as a RESP array of bulk strings."""
    out = [b"*%d\r\n" % len(parts)]
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        out.append(b"$%d\r\n%s\r\n" % (len(part), part))
    return b"".join(out)


def resp_decode_command(data: bytes):
    """Decode a RESP array of bulk strings into a list of bytes."""
    if not data.startswith(b"*"):
        raise ValueError("not a RESP array")
    lines = data.split(b"\r\n")
    count = int(lines[0][1:])
    parts = []
    index = 1
    for _ in range(count):
        if not lines[index].startswith(b"$"):
            raise ValueError("expected bulk string")
        parts.append(lines[index + 1])
        index += 2
    return parts


def resp_simple(text: str) -> bytes:
    """RESP simple-string reply (+OK style)."""
    return b"+%s\r\n" % text.encode()


def resp_error(text: str) -> bytes:
    """RESP error reply (-ERR style)."""
    return b"-ERR %s\r\n" % text.encode()


def resp_integer(value: int) -> bytes:
    """RESP integer reply."""
    return b":%d\r\n" % value


def resp_bulk(value) -> bytes:
    """RESP bulk string (None encodes the nil reply)."""
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, str):
        value = value.encode()
    return b"$%d\r\n%s\r\n" % (len(value), value)


def resp_array(values) -> bytes:
    """RESP array of bulk strings."""
    return b"*%d\r\n" % len(values) + b"".join(resp_bulk(v) for v in values)


def resp_decode_reply(data: bytes, offset: int = 0):
    """Decode one RESP reply starting at ``offset``.

    Returns ``(value, next_offset)`` where ``value`` is ``str`` for a
    simple string, :class:`ValueError`-free ``bytes``/``None`` for bulk
    strings, ``int`` for integers, a ``list`` for arrays, and a
    ``ResponseError`` instance for ``-ERR`` replies (returned, not
    raised, so pipelined clients can pair errors with their requests).
    """
    end = data.index(b"\r\n", offset)
    marker, line = data[offset:offset + 1], data[offset + 1:end]
    offset = end + 2
    if marker == b"+":
        return line.decode(), offset
    if marker == b"-":
        return ResponseError(line.decode()), offset
    if marker == b":":
        return int(line), offset
    if marker == b"$":
        length = int(line)
        if length == -1:
            return None, offset
        value = data[offset:offset + length]
        if len(value) != length:
            raise ValueError("truncated bulk string")
        return value, offset + length + 2
    if marker == b"*":
        values = []
        for _ in range(int(line)):
            value, offset = resp_decode_reply(data, offset)
            values.append(value)
        return values, offset
    raise ValueError(f"unknown RESP reply marker {marker!r}")


class ResponseError:
    """A decoded ``-ERR`` reply (value object, comparable by message)."""

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other):
        return isinstance(other, ResponseError) and other.message == self.message

    def __repr__(self):
        return f"ResponseError({self.message!r})"


# ---------------------------------------------------------------------------
# The in-guest server
# ---------------------------------------------------------------------------

#: Guest-side cycle costs per command (command execution only; RESP parse,
#: reply build and the network stack are charged separately).
COMMAND_CYCLES = {
    "PING": 1_200,
    "SET": 5_200,
    "GET": 4_600,
    "INCR": 5_000,
    "LPUSH": 5_600,
    "RPUSH": 5_600,
    "LPOP": 5_400,
    "RPOP": 5_400,
    "SADD": 5_800,
    "SPOP": 5_600,
    "HSET": 6_200,
    "LRANGE": 52_000,
    "MSET": 26_000,
    "MGET": 7_800,
    "DEL": 4_800,
    "EXISTS": 4_200,
    "APPEND": 5_600,
    "GETSET": 5_400,
    "EXPIRE": 5_000,
    "TTL": 4_400,
    "LLEN": 4_200,
    "SCARD": 4_200,
    "HGET": 5_000,
    "HGETALL": 18_000,
}

#: Fixed guest costs along the request path.
PARSE_DISPATCH_CYCLES = 9_000
NET_STACK_RX_CYCLES = 100_000
NET_STACK_TX_CYCLES = 86_000
#: Marginal stack cost for additional messages in the same TCP segment
#: (pipelined batches amortise the fixed per-segment processing).
NET_STACK_EXTRA_MSG_CYCLES = 7_000

#: Server-resident pages touched per request (dict/list internals).
SERVER_WS_PAGES = 64
SERVER_TOUCH_PER_REQUEST = 10


class RedisServer:
    """A functional subset of Redis, running as a guest workload.

    ``clock`` supplies the server's notion of seconds (the machine's
    cycle ledger divided by the clock rate) so EXPIRE/TTL are driven by
    simulated time, not host wall-clock.
    """

    def __init__(self, clock=None):
        self.strings: dict[bytes, bytes] = {}
        self.lists: dict[bytes, list] = {}
        #: Set members as insertion-ordered dict keys: a Python ``set`` of
        #: bytes iterates in hash order, which follows PYTHONHASHSEED, so
        #: SPOP's choice (and the cycles it costs) would vary per process.
        self.sets: dict[bytes, dict] = {}
        self.hashes: dict[bytes, dict] = {}
        self.expiries: dict[bytes, float] = {}
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.commands_served = 0

    def _expire_if_due(self, key: bytes) -> None:
        deadline = self.expiries.get(key)
        if deadline is not None and self.clock() >= deadline:
            for store in (self.strings, self.lists, self.sets, self.hashes):
                store.pop(key, None)
            del self.expiries[key]

    # -- command execution --------------------------------------------------

    def execute(self, parts) -> bytes:
        """Run one decoded command; returns the RESP reply."""
        if not parts:
            return resp_error("empty command")
        name = parts[0].decode().upper()
        handler = getattr(self, f"_cmd_{name.lower()}", None)
        if handler is None:
            return resp_error(f"unknown command '{name}'")
        self.commands_served += 1
        return handler(parts[1:])

    def _cmd_ping(self, args):
        return resp_simple("PONG")

    def _cmd_set(self, args):
        self.strings[bytes(args[0])] = bytes(args[1])
        return resp_simple("OK")

    def _cmd_get(self, args):
        key = bytes(args[0])
        self._expire_if_due(key)
        return resp_bulk(self.strings.get(key))

    def _cmd_del(self, args):
        removed = 0
        for arg in args:
            key = bytes(arg)
            for store in (self.strings, self.lists, self.sets, self.hashes):
                if key in store:
                    del store[key]
                    removed += 1
                    break
            self.expiries.pop(key, None)
        return resp_integer(removed)

    def _cmd_exists(self, args):
        key = bytes(args[0])
        self._expire_if_due(key)
        present = any(
            key in store
            for store in (self.strings, self.lists, self.sets, self.hashes)
        )
        return resp_integer(int(present))

    def _cmd_append(self, args):
        key = bytes(args[0])
        self.strings[key] = self.strings.get(key, b"") + bytes(args[1])
        return resp_integer(len(self.strings[key]))

    def _cmd_getset(self, args):
        key = bytes(args[0])
        old_value = self.strings.get(key)
        self.strings[key] = bytes(args[1])
        return resp_bulk(old_value)

    def _cmd_expire(self, args):
        key = bytes(args[0])
        present = any(
            key in store
            for store in (self.strings, self.lists, self.sets, self.hashes)
        )
        if not present:
            return resp_integer(0)
        self.expiries[key] = self.clock() + int(args[1])
        return resp_integer(1)

    def _cmd_ttl(self, args):
        key = bytes(args[0])
        self._expire_if_due(key)
        if key not in self.expiries:
            present = any(
                key in store
                for store in (self.strings, self.lists, self.sets, self.hashes)
            )
            return resp_integer(-1 if present else -2)
        return resp_integer(int(self.expiries[key] - self.clock()))

    def _cmd_llen(self, args):
        return resp_integer(len(self.lists.get(bytes(args[0]), [])))

    def _cmd_scard(self, args):
        return resp_integer(len(self.sets.get(bytes(args[0]), ())))

    def _cmd_hget(self, args):
        return resp_bulk(self.hashes.get(bytes(args[0]), {}).get(bytes(args[1])))

    def _cmd_hgetall(self, args):
        target = self.hashes.get(bytes(args[0]), {})
        flat = []
        for field, value in target.items():
            flat.append(field)
            flat.append(value)
        return resp_array(flat)

    def _cmd_incr(self, args):
        key = bytes(args[0])
        value = int(self.strings.get(key, b"0")) + 1
        self.strings[key] = str(value).encode()
        return resp_integer(value)

    def _cmd_lpush(self, args):
        lst = self.lists.setdefault(bytes(args[0]), [])
        for item in args[1:]:
            lst.insert(0, bytes(item))
        return resp_integer(len(lst))

    def _cmd_rpush(self, args):
        lst = self.lists.setdefault(bytes(args[0]), [])
        lst.extend(bytes(i) for i in args[1:])
        return resp_integer(len(lst))

    def _cmd_lpop(self, args):
        lst = self.lists.get(bytes(args[0]), [])
        return resp_bulk(lst.pop(0) if lst else None)

    def _cmd_rpop(self, args):
        lst = self.lists.get(bytes(args[0]), [])
        return resp_bulk(lst.pop() if lst else None)

    def _cmd_sadd(self, args):
        target = self.sets.setdefault(bytes(args[0]), {})
        added = 0
        for item in args[1:]:
            if bytes(item) not in target:
                target[bytes(item)] = None
                added += 1
        return resp_integer(added)

    def _cmd_spop(self, args):
        target = self.sets.get(bytes(args[0]))
        if not target:
            return resp_bulk(None)
        return resp_bulk(target.popitem()[0])  # the newest member

    def _cmd_hset(self, args):
        target = self.hashes.setdefault(bytes(args[0]), {})
        created = int(bytes(args[1]) not in target)
        target[bytes(args[1])] = bytes(args[2])
        return resp_integer(created)

    def _cmd_lrange(self, args):
        lst = self.lists.get(bytes(args[0]), [])
        start, stop = int(args[1]), int(args[2])
        stop = len(lst) - 1 if stop == -1 else stop
        return resp_array(lst[start : stop + 1])

    def _cmd_mset(self, args):
        for i in range(0, len(args), 2):
            self.strings[bytes(args[i])] = bytes(args[i + 1])
        return resp_simple("OK")

    def _cmd_mget(self, args):
        values = []
        for arg in args:
            key = bytes(arg)
            self._expire_if_due(key)
            values.append(self.strings.get(key))
        return resp_array(values)


# ---------------------------------------------------------------------------
# The host-side benchmark client
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpSpec:
    """One redis-benchmark operation type."""

    name: str
    command: list  # parts; "{i}" expands to the request counter
    setup: list = dataclasses.field(default_factory=list)  # untimed preload


REDIS_OPS = {
    "SET": OpSpec("SET", ["SET", "key:{i}", "xxx"]),
    "GET": OpSpec("GET", ["GET", "key:{i}"],
                  setup=[["SET", f"key:{i}", "xxx"] for i in range(0, 64)]),
    "INCR": OpSpec("INCR", ["INCR", "counter"]),
    "LPUSH": OpSpec("LPUSH", ["LPUSH", "mylist", "xxx"]),
    "RPUSH": OpSpec("RPUSH", ["RPUSH", "mylist", "xxx"]),
    "LPOP": OpSpec("LPOP", ["LPOP", "mylist"],
                   setup=[["RPUSH", "mylist"] + ["xxx"] * 64]),
    "RPOP": OpSpec("RPOP", ["RPOP", "mylist"],
                   setup=[["RPUSH", "mylist"] + ["xxx"] * 64]),
    "SADD": OpSpec("SADD", ["SADD", "myset", "el:{i}"]),
    "HSET": OpSpec("HSET", ["HSET", "myhash", "f:{i}", "xxx"]),
    "SPOP": OpSpec("SPOP", ["SPOP", "myset"],
                   setup=[["SADD", "myset"] + [f"el:{i}" for i in range(64)]]),
    "LRANGE_100": OpSpec("LRANGE_100", ["LRANGE", "mylist", "0", "99"],
                         setup=[["RPUSH", "mylist"] + ["xxx"] * 100]),
    "MSET": OpSpec("MSET", ["MSET"] + [x for i in range(10) for x in (f"k{i}:{{i}}", "xxx")]),
}


class RedisBenchmarkClient:
    """Host-side request generator + latency recorder.

    ``pipeline`` mirrors redis-benchmark's ``-P``: that many requests are
    delivered per guest wake-up, so the WFI round trip amortises across
    the batch (replies still time individually, in order).
    """

    def __init__(self, machine, spec: OpSpec, requests: int, pipeline: int = 1):
        self.machine = machine
        self.spec = spec
        self.requests = requests
        self.pipeline = max(1, pipeline)
        self.sent = 0
        self.replies = 0
        self._issue_cycles: list[int] = []
        self.latencies: list[int] = []
        self.errors: list[bytes] = []

    # The session's host_work hook: called while the guest WFIs.
    def pump(self, machine, session) -> bool:
        """host_work hook: deliver the next request batch while the guest WFIs."""
        if self.sent >= self.requests:
            return False
        batch = min(self.pipeline, self.requests - self.sent)
        for _ in range(batch):
            parts = [
                part.replace("{i}", str(self.sent)) if isinstance(part, str) else part
                for part in self.spec.command
            ]
            frame = resp_encode_command(parts)
            self._issue_cycles.append(machine.ledger.total)
            session.virtio_net.host_deliver(frame)
            self.sent += 1
        return True

    # The device's TX handler: the guest's reply arrives here.
    def on_reply(self, frame, header):
        """Device TX handler: record a reply's latency and any error."""
        if isinstance(frame, (bytes, bytearray)) and frame == b"+WARMUP\r\n":
            return []
        if isinstance(frame, (bytes, bytearray)) and frame.startswith(b"-"):
            self.errors.append(bytes(frame))
        if self._issue_cycles:
            self.latencies.append(
                self.machine.ledger.total - self._issue_cycles.pop(0)
            )
        self.replies += 1
        return []


def redis_server_workload(client: RedisBenchmarkClient, spec: OpSpec):
    """The guest side: serve RESP requests until the client is done."""

    def workload(ctx):
        clock_hz = ctx.machine.config.clock_hz
        server = RedisServer(clock=lambda: ctx.ledger.total / clock_hz)
        for setup_cmd in spec.setup:
            server.execute([
                part.encode() if isinstance(part, str) else part for part in setup_cmd
            ])
        base = ctx.session.layout.dram_base + (64 << 20)
        pages = [base + i * PAGE_SIZE for i in range(SERVER_WS_PAGES)]
        ctx.touch_seq(pages)

        driver = ctx.net_driver()
        driver.post_rx_buffers(max(8, min(32, client.pipeline)))
        # Warm the TX bounce slots so the timed phase measures steady
        # state (the paper's 10,000-request rounds dwarf server warm-up;
        # a scaled run must exclude it -- same reasoning as the RV8
        # workload's untimed start-up).
        driver.send_many([b"+WARMUP\r\n"] * 2)
        serving_start = ctx.ledger.total
        served = 0
        idle_polls = 0
        while served < client.requests:
            # Drain everything the device delivered (a pipelined client's
            # whole batch arrives as one segment): one batched pass over
            # the used ring, one bounce charge, one RX buffer re-post.
            frames = driver.recv_many()
            if not frames:
                if not ctx.wfi():
                    idle_polls += 1
                    if idle_polls > 3:
                        break  # client is done / wedged
                ctx.deliver_pending_irqs()
                continue
            idle_polls = 0
            ctx.compute(
                NET_STACK_RX_CYCLES + (len(frames) - 1) * NET_STACK_EXTRA_MSG_CYCLES
            )
            replies = []
            for frame in frames:
                parts = resp_decode_command(bytes(frame))
                name = parts[0].decode().upper()
                ctx.compute(PARSE_DISPATCH_CYCLES)
                ctx.compute(COMMAND_CYCLES.get(name, 5_000))
                offset = (served * SERVER_TOUCH_PER_REQUEST) % len(pages)
                count = len(pages)
                ctx.touch_seq(
                    pages[(offset + k) % count]
                    for k in range(SERVER_TOUCH_PER_REQUEST)
                )
                replies.append(server.execute(parts))
                served += 1
            ctx.compute(
                NET_STACK_TX_CYCLES + (len(replies) - 1) * NET_STACK_EXTRA_MSG_CYCLES
            )
            driver.send_many(replies)
        return {"served": served, "serving_cycles": ctx.ledger.total - serving_start}

    return workload


def redis_benchmark(machine, session, op_name: str, requests: int, pipeline: int = 1) -> dict:
    """Run one redis-benchmark operation; returns throughput and latency.

    The session must have a virtio-net device attached
    (:meth:`repro.Machine.attach_virtio_net`).  ``pipeline`` is
    redis-benchmark's ``-P`` (requests in flight per wake-up).
    """
    spec = REDIS_OPS[op_name]
    client = RedisBenchmarkClient(machine, spec, requests, pipeline=pipeline)
    session.virtio_net.host_handler = client.on_reply
    session.host_work = client.pump
    result = machine.run(session, redis_server_workload(client, spec))
    cycles = result["workload_result"]["serving_cycles"]
    clock = machine.config.clock_hz
    if client.errors:
        raise AssertionError(f"server returned errors: {client.errors[:3]}")
    seconds = cycles / clock
    return {
        "op": op_name,
        "pipeline": pipeline,
        "requests": client.replies,
        "cycles": cycles,
        "throughput_rps": client.replies / seconds if seconds else 0.0,
        "avg_latency_us": (
            sum(client.latencies) / len(client.latencies) / (clock / 1e6)
            if client.latencies
            else 0.0
        ),
        "breakdown": result["breakdown"],
    }
