"""Event tracing: a cycle-timestamped log of architectural events.

Every :class:`~repro.cycles.CycleLedger` keeps an always-on event ring
of :data:`~repro.cycles.ledger.EVENT_RING_CAPACITY` plain tuples.  World
switches, stage-2 faults (SM and KVM) and ECALLs each write one at the
site of the event, stamped with the ledger total; a :class:`Tracer`
reads the window written since it was attached.  Useful for tests that
assert event *ordering*, for per-exit breakdowns, and for debugging
("why did this exit happen at cycle 2,401,733?").

Attaching a tracer runs no other code.  Writing a record costs about
0.3 µs of host time (0.25--0.42 µs under ``timeit``, CPython 3.11 on an
Intel Xeon), against 60--1,000 µs per benchmark operation of 1--4
records.  Totals come from counters (``fault_stage_counts`` and the
like), never from the ring, so a long run loses no samples.
"""

from __future__ import annotations

import dataclasses

#: Detail keys of each record kind, in the record's field order.
_FIELDS = {
    "cvm_exit": ("cvm", "vcpu", "reason", "hart"),
    "cvm_enter": ("cvm", "vcpu", "hart"),
    "fault": ("path", "stage", "cycles"),
    "ecall": ("function",),
}


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    kind: str  # "cvm_exit", "cvm_enter", "fault", "ecall"
    detail: dict

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"<{self.cycle:>12,} {self.kind} {inner}>"


def _event(record: tuple) -> TraceEvent:
    cycle, kind, *fields = record
    detail = dict(zip(_FIELDS[kind], fields))
    if detail.get("stage") is not None:
        # The SM records the AllocStage itself: Enum.name is a slow
        # property lookup that the fault path should not pay.
        detail["stage"] = detail["stage"].name
    return TraceEvent(cycle=cycle, kind=kind, detail=detail)


class Tracer:
    """Reads the machine's event ring from attach until detach."""

    def __init__(self, machine):
        self.machine = machine
        self._start = machine.ledger.event_count
        #: ``(events, dropped)`` captured by :meth:`detach`.
        self._frozen = None

    def _window(self) -> tuple:
        if self._frozen is not None:
            return self._frozen
        records, dropped = self.machine.ledger.events(self._start)
        return [_event(record) for record in records], dropped

    @property
    def events(self) -> list:
        """The window's events still held by the ring, in order."""
        return self._window()[0]

    @property
    def dropped(self) -> int:
        """Events of the window the ring has overwritten -- a non-zero
        value means the timeline is a suffix, not the whole window."""
        return self._window()[1]

    def detach(self) -> None:
        """Freeze the window: later events are not part of it."""
        if self._frozen is None:
            self._frozen = self._window()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False

    # -- queries --------------------------------------------------------------

    def of_kind(self, kind: str) -> list:
        """All recorded events of the given kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def timeline(self) -> str:
        """Human-readable event dump (notes any events lost to the ring)."""
        events, dropped = self._window()
        lines = [repr(event) for event in events]
        if dropped:
            lines.insert(0, f"... {dropped} events dropped: the ring overwrote them")
        return "\n".join(lines)

    def exit_latencies(self) -> list:
        """Cycle gaps between each cvm_exit and the following cvm_enter."""
        gaps = []
        pending = None
        for event in self.events:
            if event.kind == "cvm_exit":
                pending = event.cycle
            elif event.kind == "cvm_enter" and pending is not None:
                gaps.append(event.cycle - pending)
                pending = None
        return gaps
