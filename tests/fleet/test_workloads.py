"""Fleet serving bursts: the file burst's payload bytes."""

import pytest

from repro.fleet.workloads import _payloads


@pytest.mark.parametrize("chunk", [1, 100, 4096, 5000])
def test_payload_matches_the_per_byte_form(chunk):
    payload_at = _payloads(chunk)
    for n in range(601):
        assert payload_at(n) == bytes((n + i) & 0xFF for i in range(chunk)), n
