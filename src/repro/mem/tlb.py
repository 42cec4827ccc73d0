"""A small TLB model.

Caches successful guest-physical translations keyed by ``(vmid, page)``.
Capacity-bounded with LRU replacement (both ``lookup`` and ``insert``
refresh an entry's recency, and eviction takes the least recently used)
-- enough fidelity to express the performance effect ZION's world
switches have (the PMP toggle forces an ``hfence.gvma``, so a resumed
guest re-walks its hot pages), without modelling associativity.

Statistics distinguish whole-TLB / per-VMID flushes (``flushes``, the
``hfence``-scale events the experiments care about) from single-page
invalidations (``page_flushes``).
"""

from __future__ import annotations

from collections import OrderedDict


class Tlb:
    """Translation cache: (vmid, virtual page) -> (physical page, flags)."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        #: Per-VMID key index so ``flush_vmid`` (the world-switch
        #: ``hfence.gvma`` path) drops exactly one VMID's keys instead of
        #: scanning all ``capacity`` entries.
        self._by_vmid: dict = {}
        self.hits = 0
        self.misses = 0
        #: Whole-TLB and per-VMID flushes (hfence.gvma-scale events).
        self.flushes = 0
        #: Single-page invalidations, counted separately from ``flushes``.
        self.page_flushes = 0

    def lookup(self, vmid: int, vpage: int):
        """Cached (ppage, flags) or ``None``."""
        key = (vmid, vpage)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def insert(self, vmid: int, vpage: int, ppage: int, flags: int) -> None:
        """Cache a translation, evicting the least recently used at capacity."""
        entries = self._entries
        key = (vmid, vpage)
        entries[key] = (ppage, flags)
        entries.move_to_end(key)
        index = self._by_vmid.get(vmid)
        if index is None:
            index = self._by_vmid[vmid] = set()
        index.add(key)
        while len(entries) > self.capacity:
            evicted, _ = entries.popitem(last=False)
            victim_index = self._by_vmid[evicted[0]]
            victim_index.discard(evicted)
            if not victim_index:
                del self._by_vmid[evicted[0]]

    def flush_all(self) -> None:
        """Drop every cached translation."""
        self._entries.clear()
        self._by_vmid.clear()
        self.flushes += 1

    def flush_vmid(self, vmid: int) -> None:
        """Drop all translations of one VMID (O(entries of that VMID))."""
        for key in self._by_vmid.pop(vmid, ()):
            del self._entries[key]
        self.flushes += 1

    def flush_page(self, vmid: int, vpage: int) -> None:
        """Drop one page's translation (counted even if absent)."""
        key = (vmid, vpage)
        if self._entries.pop(key, None) is not None:
            index = self._by_vmid[vmid]
            index.discard(key)
            if not index:
                del self._by_vmid[vmid]
        self.page_flushes += 1

    def __len__(self):
        return len(self._entries)
