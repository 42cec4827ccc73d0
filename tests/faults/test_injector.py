"""Forced single-fault injections: every class must be contained."""

import pytest

from repro.errors import SecurityViolation
from repro.faults.campaign import page_stress, tolerant_client, tolerant_server
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.machine import Machine, MachineConfig
from repro.sm.alloc import PoolExhausted
from repro.workloads.memstress import sequential_write_stress
from tests.generic_path import force_generic_path

IMAGE = b"forced-fault-guest" * 60


def _small_machine(**overrides):
    machine = Machine(MachineConfig(initial_pool_bytes=2 << 20, **overrides))
    machine.hypervisor.expand_chunk = 1 << 20
    return machine


def _run_pair_with_plan(plan, rounds=3):
    """Tolerant server/client ping-pong under a forced plan.

    The short timer tick makes timer exit/entry cycles (the enter seam
    with a pending exit context) happen early even in a light workload.
    """
    machine = _small_machine(timer_tick_cycles=50_000)
    server = machine.launch_confidential_vm(image=IMAGE)
    client = machine.launch_confidential_vm(image=IMAGE)
    measurement = server.cvm.measurement
    box = {}
    pairs = [
        (server, tolerant_server(measurement, rounds, box)),
        (client, tolerant_client(box, measurement, rounds)),
    ]
    with FaultInjector(machine, plan) as injector:
        results = machine.run_concurrent(pairs, on_error="contain")
    return injector, results, server, client


def _sites(injector):
    return [entry["site"] for entry in injector.applied]


class TestChannelFaults:
    def test_poisoned_length_prefix_is_detected(self):
        # Occurrence 1 of the notify seam is the client's first send
        # doorbell: its message sits queued in ring 1 (client tx), so the
        # poison lands on a live prefix the server reads next.
        plan = FaultPlan.single("window_length", at=1, params=(1,))
        injector, results, server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["window_length"]
        assert results[server] == {"echoed": 0, "corrupt_detected": True}
        assert injector.violations == []

    def test_torn_ring_counter_is_detected(self):
        plan = FaultPlan.single("ring_tear", at=1, params=(1, 1 << 20))
        injector, results, server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["ring_tear"]
        assert results[server]["corrupt_detected"] is True
        assert injector.violations == []

    def test_dropped_doorbell_does_not_wedge_tolerant_guests(self):
        plan = FaultPlan.single("doorbell_drop", at=1)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["doorbell_drop"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []

    def test_duplicated_doorbell_is_harmless(self):
        plan = FaultPlan.single("doorbell_dup", at=1)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["doorbell_dup"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []


class TestVcpuCorruption:
    def test_corrupt_gpr_reply_is_refused_by_check_after_load(self):
        # A GPR result on a non-MMIO exit is exactly what Check-after-Load
        # exists to catch; the refusal must surface as a typed violation.
        plan = FaultPlan.single("vcpu_corrupt", at=1,
                                params=("gpr_value", 0xDEAD))
        injector, results, _server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["vcpu_corrupt"]
        refusals = [r for r in results.values()
                    if isinstance(r, SecurityViolation)]
        assert len(refusals) == 1
        assert "check-after-load" in str(refusals[0])
        assert injector.violations == []


class TestExpansionFaults:
    def test_single_failed_expansion_absorbed_by_monitor_retry(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan.single("expand_fail", at=1)
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert _sites(injector) == ["expand_fail"]
        assert results[stress] == {"touched": 600}
        assert injector.violations == []

    def test_persistent_expansion_failure_is_typed_exhaustion(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan(-1, tuple(
            FaultEvent("expand_fail", at) for at in (1, 2, 3)
        ))
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert isinstance(results[stress], PoolExhausted)
        assert "expand" in str(results[stress])
        assert injector.violations == []

    def test_short_donation_is_absorbed(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan.single("expand_short", at=1)
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert _sites(injector) == ["expand_short"]
        assert results[stress] == {"touched": 600}
        assert injector.violations == []


class TestTimerFaults:
    def test_spurious_timer_cycle_preserves_progress(self):
        plan = FaultPlan.single("timer_spurious", at=2)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["timer_spurious"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []

    @pytest.mark.parametrize("at", [20, 40])
    def test_timer_seam_counts_due_ticks_on_either_access_path(self, at):
        """The generic path calls check_timer on every access, the engine
        step only when the tick is due; a plan must inject identically."""
        outcomes = []
        for generic in (False, True):
            machine = Machine(MachineConfig(timer_tick_cycles=50_000))
            if generic:
                force_generic_path(machine)
            session = machine.launch_confidential_vm(image=IMAGE)
            plan = FaultPlan.single("timer_spurious", at=at)
            with FaultInjector(machine, plan) as injector:
                machine.run(session, sequential_write_stress(64))
            outcomes.append(
                (injector._counters["timer"], injector.applied, machine.ledger.total)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 32
        assert len(outcomes[0][1]) == (1 if at <= 32 else 0)


class TestLifecycle:
    def test_detach_restores_every_seam(self):
        machine = Machine(MachineConfig())
        ws = machine.monitor.world_switch
        manager = machine.monitor.channels
        originals = (
            ws.enter_cvm,
            ws.exit_to_normal,
            manager.notify,
            machine.hypervisor.on_pool_expand_request,
            machine.check_timer,
        )
        with FaultInjector(machine, FaultPlan.single("doorbell_drop")):
            assert ws.enter_cvm != originals[0]
            assert ws.exit_to_normal != originals[1]
            assert manager.notify != originals[2]
            assert machine.check_timer != originals[4]
        # Bound-method equality: same underlying function, same receiver.
        assert ws.enter_cvm == originals[0]
        assert ws.exit_to_normal == originals[1]
        assert manager.notify == originals[2]
        assert machine.hypervisor.on_pool_expand_request == originals[3]
        assert machine.check_timer == originals[4]

    def test_unknown_site_is_rejected_at_plan_time(self):
        from repro.faults.plan import _draw_event
        import random

        with pytest.raises(ValueError):
            _draw_event(random.Random(0), "bogus_site")
