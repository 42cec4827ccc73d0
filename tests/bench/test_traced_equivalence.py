"""Attaching a tracer never changes what a machine does.

Every quick perf scenario (``repro.bench.perf.SCENARIOS``) and the
normal-VM memstress run twice: untraced, and with a :class:`Tracer`
attached to every machine the run builds.  Both runs must agree on the
ledger (total and per category), the TLB statistics and the fault
counters and cycle sums of every machine, and on the scenario's own
report.  The tracer only reads the machine's always-on event ring, so
there is no second code path for it to take.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.bench.perf import QUICK_PARAMS, SCENARIOS
from repro.trace import Tracer
from repro.workloads.memstress import sequential_write_stress


def _normal_memstress():
    machine = Machine(MachineConfig())
    session = machine.launch_normal_vm()
    machine.run(session, sequential_write_stress(pages=128))


def _fingerprint(machine) -> dict:
    tlb = machine.translator.tlb
    monitor = machine.monitor
    return {
        "total": machine.ledger.total,
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes, len(tlb)),
        "sm_faults": dict(monitor.fault_stage_counts),
        "sm_fault_cycles": dict(monitor.fault_stage_cycles),
        "kvm_faults": (machine.kvm_fault_count, machine.kvm_fault_cycles),
    }


def _run(monkeypatch, run, traced: bool):
    """``run()``'s result, the fingerprints of its machines, its tracers."""
    machines, tracers = [], []
    original_init = Machine.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        machines.append(self)
        if traced:
            tracers.append(Tracer(self))

    with monkeypatch.context() as patch:
        patch.setattr(Machine, "__init__", init)
        result = run()
    if result is not None:
        result = (result.total_cycles, result.cycles, result.breakdown, result.extra)
    return result, [_fingerprint(machine) for machine in machines], tracers


RUNS = {
    name: (lambda name=name: SCENARIOS[name](**QUICK_PARAMS[name]))
    for name in SCENARIOS
}
RUNS["normal_memstress"] = _normal_memstress


@pytest.mark.parametrize("name", list(RUNS))
def test_traced_run_matches_untraced(monkeypatch, name):
    plain = _run(monkeypatch, RUNS[name], traced=False)
    result, fingerprints, tracers = _run(monkeypatch, RUNS[name], traced=True)
    assert (result, fingerprints) == plain[:2]
    assert any(tracer.events for tracer in tracers)
    for tracer, fingerprint in zip(tracers, fingerprints):
        if tracer.dropped:
            continue
        faults = tracer.of_kind("fault")
        sm = [event.detail["cycles"] for event in faults if event.detail["path"] == "sm"]
        kvm = [event.detail["cycles"] for event in faults if event.detail["path"] == "kvm"]
        assert (len(sm), sum(sm)) == (
            sum(fingerprint["sm_faults"].values()),
            sum(fingerprint["sm_fault_cycles"].values()),
        )
        assert (len(kvm), sum(kvm)) == fingerprint["kvm_faults"]
