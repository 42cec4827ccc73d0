"""Event tracer: the engine's event ring, ordering, queries, detach."""

import ast
import inspect

import pytest

from repro.cycles.ledger import EVENT_RING_CAPACITY
from repro.sm.monitor import SecureMonitor
from repro.trace import Tracer
from repro.workloads.memstress import sequential_write_stress


@pytest.fixture
def traced(machine):
    session = machine.launch_confidential_vm(image=b"traced" * 100)
    tracer = Tracer(machine)
    return machine, session, tracer


def test_records_world_switches_in_order(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_500_000))
    kinds = [event.kind for event in tracer.events]
    assert kinds[0] == "cvm_enter"
    # Strict alternation: every exit is followed by an enter (timer ticks)
    # except the final halt.
    exits = tracer.of_kind("cvm_exit")
    enters = tracer.of_kind("cvm_enter")
    assert len(enters) == len(exits)  # final halt has no re-enter... but
    # the initial enter has no preceding exit -- they balance.


def test_exit_detail_carries_reason(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(1_500_000))
    reasons = {event.detail["reason"] for event in tracer.of_kind("cvm_exit")}
    assert "timer" in reasons
    assert "halt" in reasons


def test_fault_events_with_stage(traced):
    machine, session, tracer = traced
    base = session.layout.dram_base + (8 << 20)
    machine.run(session, lambda ctx: ctx.store(base, 1))
    faults = tracer.of_kind("fault")
    assert faults
    assert faults[0].detail["path"] == "sm"
    assert faults[0].detail["stage"] in ("PAGE_CACHE", "NEW_BLOCK")
    assert faults[0].detail["cycles"] > 0


def test_ecall_events_name_the_function(machine):
    tracer = Tracer(machine)
    machine.monitor.ecall_create_cvm()
    functions = [event.detail["function"] for event in tracer.of_kind("ecall")]
    assert "ecall_create_cvm" in functions


def test_timestamps_monotonic(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_000_000))
    cycles = [event.cycle for event in tracer.events]
    assert cycles == sorted(cycles)


def test_exit_latencies_measurable(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_500_000))
    latencies = tracer.exit_latencies()
    assert latencies
    # A timer-exit -> re-enter round trip is several thousand cycles.
    assert all(2_000 < latency < 60_000 for latency in latencies)


def test_detach_stops_recording(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    count = len(tracer.events)
    tracer.detach()
    machine.run(session, lambda ctx: ctx.compute(100))
    assert len(tracer.events) == count


def test_context_manager_detaches(machine):
    session = machine.launch_confidential_vm(image=b"x")
    with Tracer(machine) as tracer:
        machine.run(session, lambda ctx: ctx.compute(50))
        inside = len(tracer.events)
        assert inside > 0
    machine.run(session, lambda ctx: ctx.compute(50))
    assert len(tracer.events) == inside


def _overflow_the_ring(machine, extra):
    """Write ``EVENT_RING_CAPACITY + extra`` ECALL records into the window
    of a freshly attached tracer."""
    session = machine.launch_confidential_vm(image=b"x")
    tracer = Tracer(machine)
    cvm_id = session.cvm.cvm_id
    for _ in range(EVENT_RING_CAPACITY + extra):
        machine.monitor.ecall_describe_cvm(cvm_id)
    return tracer


def test_limit_bounds_memory(machine):
    """The ring's fixed capacity is the bound: a window longer than the
    ring keeps its newest records and the ring itself never grows."""
    tracer = _overflow_the_ring(machine, 5)
    events = tracer.events
    assert len(events) == EVENT_RING_CAPACITY
    assert len(machine.ledger._event_ring) == EVENT_RING_CAPACITY
    assert {event.detail["function"] for event in events} == {"ecall_describe_cvm"}


def test_dropped_counter_and_timeline_note(machine):
    tracer = _overflow_the_ring(machine, 5)
    assert tracer.dropped == 5
    assert tracer.timeline().startswith("... 5 events dropped")
    assert f"{tracer.dropped} events dropped" in tracer.timeline()


def test_timeline_renders(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    text = tracer.timeline()
    assert "cvm_enter" in text


def test_window_starts_at_attach(traced):
    """Events written before a tracer is attached are not in its window."""
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    late = Tracer(machine)
    assert late.events == []
    machine.run(session, lambda ctx: ctx.compute(100))
    assert late.events == tracer.events[-len(late.events):]
    assert late.events[0].kind == "cvm_enter"


def test_kvm_fault_events_match_the_counters(machine):
    tracer = Tracer(machine)
    session = machine.launch_normal_vm()
    machine.run(session, sequential_write_stress(pages=8))
    faults = tracer.of_kind("fault")
    assert faults
    assert {(e.detail["path"], e.detail["stage"]) for e in faults} == {("kvm", None)}
    assert len(faults) == machine.kvm_fault_count
    assert sum(e.detail["cycles"] for e in faults) == machine.kvm_fault_cycles


def test_sm_fault_events_match_the_counters(machine):
    tracer = Tracer(machine)
    session = machine.launch_confidential_vm(image=b"x")
    machine.run(session, sequential_write_stress(pages=8))
    faults = tracer.of_kind("fault")
    monitor = machine.monitor
    assert len(faults) == sum(monitor.fault_stage_counts.values()) > 0
    assert sum(e.detail["cycles"] for e in faults) == (
        sum(monitor.fault_stage_cycles.values())
    )


def test_every_ecall_entry_point_names_itself():
    """The ABI's ECALL records are mechanically checkable: every
    ``_charge_ecall`` call passes the name of the method it sits in."""
    tree = ast.parse(inspect.getsource(SecureMonitor))
    named = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_charge_ecall"
            ):
                assert [arg.value for arg in node.args] == [fn.name]
                named.append(fn.name)
    assert len(named) == 20
    assert all(name.startswith("ecall_") for name in named)


def test_ecall_hook_names_nested_callers(machine):
    """An ECALL reached through a deep guest call chain (sbi dispatch ->
    monitor method) is recorded under its SM entry point."""
    tracer = Tracer(machine)
    session = machine.launch_confidential_vm(image=b"deep" * 100)
    machine.run(session, lambda ctx: ctx.sbi_ecall(0x5A4E_0002, 2, 8))
    functions = [event.detail["function"] for event in tracer.of_kind("ecall")]
    assert "ecall_get_random" in functions
    assert all(func.startswith("ecall_") for func in functions)


def test_nothing_dropped_reports_clean_timeline(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    assert tracer.dropped == 0
    assert "dropped" not in tracer.timeline()
