"""Cycle ledger: where simulated time accrues.

A :class:`CycleLedger` is the single clock of a simulated machine.  Every
component charges cycles to it, tagged with a :class:`Category` so that
experiments can break a total down (e.g. how much of a world switch was PMP
reprogramming vs. register save).  Scoped spans (:meth:`CycleLedger.span`)
measure the emergent cost of a compound operation without the operation
having to thread counters through its call tree.

The ledger sits on the hottest path in the simulator (every guest access
charges it several times), so the implementation is wall-clock-optimized:
counters live in a flat int list indexed by a precomputed per-category
index (no enum hashing), and spans track only the categories actually
charged inside them (a dirty set per open span, propagated to the parent
on close) instead of snapshotting and diffing whole category dicts.  None
of this changes what is charged -- the cycle model is identical.

The ledger also owns the machine's always-on event ring of plain tuples
``(cycle, kind, *fields)``, written at the one site of each event and
read by :class:`repro.trace.Tracer`.
"""

from __future__ import annotations

import enum


class Category(enum.Enum):
    """What a charge of cycles was spent on."""

    COMPUTE = "compute"  # guest useful work
    TRAP = "trap"  # hardware trap entry/exit
    REG_SAVE = "reg_save"  # GPR/CSR save+restore
    VALIDATE = "validate"  # check-after-load / sanitising copies
    PMP = "pmp"  # PMP / IOPMP reprogramming + fences
    TLB = "tlb"  # TLB flushes and refills
    PAGE_WALK = "page_walk"  # page-table walks
    SM_LOGIC = "sm_logic"  # secure monitor bookkeeping
    HYP_LOGIC = "hyp_logic"  # hypervisor / KVM / QEMU bookkeeping
    ALLOC = "alloc"  # memory allocation paths
    COPY = "copy"  # bulk data movement (bounce buffers, DMA)
    DEVICE = "device"  # device model processing
    GUEST_KERNEL = "guest_kernel"  # guest kernel trap/syscall handling
    IDLE = "idle"  # time waiting (e.g. device latency)


#: Categories in definition order; ``Category.index`` maps back.
_CATEGORIES: tuple = tuple(Category)
for _index, _category in enumerate(_CATEGORIES):
    _category.index = _index
del _index, _category

#: Records the event ring holds (a power of two).  A full ring of
#: 4,096 small tuples is about 0.6 MB per machine.
EVENT_RING_CAPACITY = 4096
_RING_MASK = EVENT_RING_CAPACITY - 1


class CycleLedger:
    """Accumulates simulated cycles, tagged by category.

    The ledger is deliberately append-only: nothing ever subtracts cycles,
    mirroring a hardware cycle counter.
    """

    __slots__ = ("_total", "_counts", "_charged_mask", "_span_stack",
                 "_event_ring", "_event_seq")

    def __init__(self):
        self._total = 0
        self._counts = [0] * len(_CATEGORIES)
        #: Bitmask of category indices ever charged (zero charges
        #: included), preserving ``by_category``'s historical contract of
        #: listing every category that has been touched.
        self._charged_mask = 0
        #: Dirty sets of the currently-open spans, innermost last.
        self._span_stack: list = []
        #: Record ``n`` lives at ``_event_ring[n & _RING_MASK]``; later
        #: records overwrite earlier ones once the ring is full.
        self._event_ring: list = [None] * EVENT_RING_CAPACITY
        #: Records ever written: the sequence number of the next one.
        self._event_seq = 0

    @property
    def total(self) -> int:
        """All cycles charged so far (the simulated ``mcycle``)."""
        return self._total

    def by_category(self) -> dict:
        """A snapshot of per-category totals."""
        counts = self._counts
        mask = self._charged_mask
        return {
            cat: counts[i]
            for i, cat in enumerate(_CATEGORIES)
            if mask >> i & 1
        }

    @property
    def event_count(self) -> int:
        """Records ever written to the event ring (overwritten ones too)."""
        return self._event_seq

    def events(self, start: int = 0) -> tuple:
        """``(records, dropped)``: the ring's records from number ``start``
        on, oldest first, and how many of those it has overwritten."""
        stop = self._event_seq
        first = max(start, stop - EVENT_RING_CAPACITY)
        ring = self._event_ring
        return [ring[seq & _RING_MASK] for seq in range(first, stop)], first - start

    def _record(self, kind: str, *fields) -> None:
        """Write one event record stamped with the current total."""
        seq = self._event_seq
        self._event_ring[seq & _RING_MASK] = (self._total, kind, *fields)
        self._event_seq = seq + 1

    def charge(self, category: Category, cycles) -> None:
        """Charge ``cycles`` (int or float, floored at >=0) to ``category``."""
        if type(cycles) is not int:
            cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles: {cycles}")
        index = category.index
        self._total += cycles
        self._counts[index] += cycles
        self._charged_mask |= 1 << index
        stack = self._span_stack
        if stack:
            stack[-1].add(index)

    def charger(self, category: Category, cycles):
        """Precompile a zero-argument charge of fixed ``(category, cycles)``.

        Hot paths that charge the same cost on every call (the page
        walker's per-PTE cost, the TLB-hit cost, the per-access compute
        cycle) validate and resolve the charge once and get back a
        closure that only performs the counter updates.  Calling the
        closure is exactly ``charge(category, cycles)``.
        """
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles: {cycles}")
        index = category.index
        bit = 1 << index

        def fire(self=self, cycles=cycles, index=index, bit=bit):
            self._total += cycles
            self._counts[index] += cycles
            self._charged_mask |= bit
            stack = self._span_stack
            if stack:
                stack[-1].add(index)

        return fire

    def span(self):
        """Measure the cycles charged inside a ``with`` block.

        Returns a :class:`Span` usable as a context manager; its
        ``cycles`` and ``breakdown`` are valid after the block exits (or
        after an explicit :meth:`Span.close`).
        """
        return Span(self)


class Span:
    """A window over a ledger measuring one compound operation.

    Spans nest LIFO (the ``with`` discipline): closing a span folds its
    dirty-category set into the enclosing span so that parents observe
    everything charged inside children.
    """

    __slots__ = (
        "_ledger", "_start_total", "_start_counts", "_end_counts",
        "_dirty", "_closed", "_breakdown", "cycles",
    )

    def __init__(self, ledger: CycleLedger):
        self._ledger = ledger
        self._start_total = ledger._total
        self._start_counts = tuple(ledger._counts)
        self._end_counts = None
        self._dirty: set = set()
        self._closed = False
        self._breakdown = None
        ledger._span_stack.append(self._dirty)
        self.cycles = 0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Finalize the span's cycle count and category breakdown."""
        if self._closed:
            return
        self._closed = True
        ledger = self._ledger
        stack = ledger._span_stack
        stack.pop()
        if stack:
            # Propagate to the parent: charges inside this span happened
            # inside the enclosing span too.
            stack[-1].update(self._dirty)
        self.cycles = ledger._total - self._start_total
        self._end_counts = tuple(ledger._counts)

    @property
    def breakdown(self) -> dict:
        """Per-category cycles charged inside the span (lazily built).

        Most spans (one per SM-handled stage-2 fault) are measured only
        for ``cycles``; building the dict eagerly on every close was pure
        overhead, so it materialises on first access.
        """
        if not self._closed:
            return {}
        if self._breakdown is None:
            start = self._start_counts
            ends = self._end_counts
            self._breakdown = {
                _CATEGORIES[i]: ends[i] - start[i]
                for i in sorted(self._dirty)
                if ends[i] != start[i]
            }
        return self._breakdown
