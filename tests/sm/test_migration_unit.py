"""Migration module internals: keystream, framing, key derivation."""

import hashlib
import hmac
import struct

import pytest

from repro import Machine, MachineConfig
from repro.sm.migration import _keystream, _mac, _xor, derive_migration_key


def keystream_per_block(key: bytes, length: int) -> bytes:
    """The keystream with one ``hmac.new`` object per 32-byte block."""
    out = bytearray()
    counter = 0
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    while len(out) < length:
        out += hmac.new(enc_key, struct.pack("<Q", counter), hashlib.sha256).digest()
        counter += 1
    return bytes(out[:length])


class TestKeystream:
    @pytest.mark.parametrize("key", [b"k" * 32, derive_migration_key(b"fleet", b"src", b"dst")])
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1_000, 17_567, 400_000])
    def test_matches_the_per_block_hmac_form(self, key, length):
        assert _keystream(key, length) == keystream_per_block(key, length)

    def test_deterministic(self):
        assert _keystream(b"k" * 32, 100) == _keystream(b"k" * 32, 100)

    def test_prefix_property(self):
        """Longer streams extend shorter ones (CTR construction)."""
        short = _keystream(b"k" * 32, 40)
        long = _keystream(b"k" * 32, 200)
        assert long[:40] == short

    def test_key_separation(self):
        assert _keystream(b"a" * 32, 64) != _keystream(b"b" * 32, 64)

    def test_xor_is_involutive(self):
        stream = _keystream(b"k" * 32, 32)
        data = bytes(range(32))
        assert _xor(_xor(data, stream), stream) == data

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1_000, 400_000])
    def test_xor_matches_the_per_byte_form(self, length):
        data = hashlib.sha256(b"plain").digest() * (length // 32 + 1)
        data = data[:length]
        stream = _keystream(b"k" * 32, length)
        assert _xor(data, stream) == bytes(a ^ b for a, b in zip(data, stream))


class TestSealedBlob:
    def test_export_blob_is_pinned(self):
        """The sealed bytes of a fixed CVM under a fixed key never drift.

        The digest was recorded before the whole-buffer XOR and the bulk
        table scan replaced the per-byte XOR and the per-PTE walk.
        """
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=b"pin" * 1000)
        base = session.layout.dram_base + (8 << 20)
        machine.run(
            session, lambda ctx: ctx.write_bytes(base, bytes(range(256)) * 40)
        )
        key = derive_migration_key(b"fleet", b"src", b"dst")
        blob = machine.export_confidential_vm(session, key)
        assert len(blob) == 17_567
        assert hashlib.sha256(blob).hexdigest() == (
            "11ebb83c51720699d07da51c983061a9cdbbc379ada31ea5f5f2f8c947579d78"
        )


class TestMac:
    def test_deterministic_and_key_bound(self):
        assert _mac(b"k", b"data") == _mac(b"k", b"data")
        assert _mac(b"k", b"data") != _mac(b"K", b"data")
        assert _mac(b"k", b"data") != _mac(b"k", b"datb")

    def test_mac_key_differs_from_enc_key(self):
        """Encrypt and MAC must not share a key (domain separation)."""
        key = b"k" * 32
        assert _keystream(key, 32) != _mac(key, b"")


class TestKeyDerivation:
    def test_output_is_256_bit(self):
        assert len(derive_migration_key(b"s", b"a", b"b")) == 32

    def test_nonce_order_matters(self):
        assert derive_migration_key(b"s", b"a", b"b") != derive_migration_key(
            b"s", b"b", b"a"
        )
