"""A fixed probe of host speed, for normalising host-time metrics.

On a shared virtual machine other tenants can slow every Python program
by half or more for minutes at a time, which would swamp any change to
the simulator.  :class:`HostProbe` times a frozen pure-Python kernel
shaped like the simulator's hot paths (a bounded LRU dict keyed by
tuples, method calls and attribute counters, bytearray slices, a large
dict).  It never changes with the simulator, so the ratio of its time to
:data:`REFERENCE_PROBE_S` measures the host and nothing else, and
:func:`at_reference_speed` turns a host time into the time the
reference host would have shown.

Measured next to each episode, the probe tracked the host's slow
periods, but more steeply than the simulator's timed sections: between
the slowest and the fastest quarter of 2-to-10-minute traces the probe
slowed ×1.49–1.57, ``kv_virtio`` and ``mem_balloon`` episodes ×1.30–1.40
and set-up ×1.38–1.61.  Timed sections therefore scale with the probe
ratio raised to :data:`TIMED_EXPONENT`, set-up with the ratio itself.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict

#: The probe's time on the reference host (the 2-vCPU Xeon virtual
#: machine this benchmark was built on, at its faster speed).
REFERENCE_PROBE_S = 0.02

#: log(simulator slow-down) / log(probe slow-down) over the traces above.
TIMED_EXPONENT = 0.7


def at_reference_speed(seconds: float, probe_s: float, exponent: float = 1.0) -> float:
    """``seconds`` measured when the probe took ``probe_s``, at reference speed."""
    return seconds / (probe_s / REFERENCE_PROBE_S) ** exponent


class _Lru:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vmid: int, page: int) -> int:
        key = (vmid, page)
        entry = self.entries.get(key)
        if entry is not None:
            self.hits += 1
            self.entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = self.entries[key] = page ^ 0x5A5A
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return entry


class HostProbe:
    """The probe kernel and its data (built once, about 10 MB)."""

    def __init__(self):
        self._memory = bytearray(1 << 22)
        self._table = {i * 7919: i for i in range(100_000)}

    def _kernel(self, steps: int = 8_000) -> int:
        memory = self._memory
        table = self._table
        lru = _Lru(512)
        rng = random.Random(2)
        total = 0
        for i in range(steps):
            page = rng.randrange(2048)
            offset = (lru.lookup(1, page) * 64) & ((1 << 22) - 64)
            memory[offset:offset + 8] = (i & 0xFFFFFFFF).to_bytes(8, "little")
            total += int.from_bytes(memory[offset:offset + 8], "little")
            total += table.get(page * 7919, 0)
        return total

    def measure(self, repeats: int = 3) -> float:
        """Seconds the kernel takes, best of ``repeats``."""
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best
