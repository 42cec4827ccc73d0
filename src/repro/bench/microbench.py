"""Microbenchmark runners: E1 (shared vCPU), E2 (switch path), E3 (faults).

Each runner repeats the paper's measurement procedure (200 trials) on a
fresh machine and returns mean cycle counts with the relevant structure.
"""

from __future__ import annotations

import statistics

from repro import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage
from repro.workloads.memstress import sequential_write_stress

DEFAULT_ITERATIONS = 200

_MMIO_EXIT = {
    "kind": "mmio_load",
    "cause": 21,
    "htval": 0x1000_0000,
    "htinst": 0x503,
    "gpr_index": 10,
    "gpr_value": 0,
}
_TIMER_EXIT = {"kind": "timer", "cause": 7}


def _measure_switches(machine: Machine, exit_info: dict, iterations: int) -> dict:
    """Mean entry/exit switching cycles over ``iterations`` round trips."""
    session = machine.launch_confidential_vm(image=b"bench" * 100)
    cvm, vcpu = session.cvm, session.cvm.vcpu(0)
    ws = machine.monitor.world_switch
    ws.enter_cvm(machine.hart, cvm, vcpu)
    entry_samples, exit_samples = [], []
    is_mmio = exit_info["kind"].startswith("mmio")
    for _ in range(iterations):
        with machine.ledger.span() as exit_span:
            ws.exit_to_normal(machine.hart, cvm, vcpu, dict(exit_info))
        if is_mmio:
            # The hypervisor/QEMU services the MMIO exit (untimed: the
            # paper measures the switching time, not device emulation).
            machine.hypervisor.handle_cvm_exit(
                machine.hart, machine.monitor, cvm, 0
            )
        with machine.ledger.span() as entry_span:
            ws.enter_cvm(machine.hart, cvm, vcpu)
        exit_samples.append(exit_span.cycles)
        entry_samples.append(entry_span.cycles)
    return {
        "entry_cycles": statistics.mean(entry_samples),
        "exit_cycles": statistics.mean(exit_samples),
        "iterations": iterations,
    }


def run_vcpu_switch_experiment(iterations: int = DEFAULT_ITERATIONS) -> dict:
    """E1: MMIO-triggered switches with and without the shared vCPU."""
    with_shared = _measure_switches(
        Machine(MachineConfig(use_shared_vcpu=True)), _MMIO_EXIT, iterations
    )
    without_shared = _measure_switches(
        Machine(MachineConfig(use_shared_vcpu=False)), _MMIO_EXIT, iterations
    )

    def improvement(before, after):
        return 100.0 * (before - after) / before

    return {
        "entry_with_shared": with_shared["entry_cycles"],
        "entry_without_shared": without_shared["entry_cycles"],
        "entry_improvement_pct": improvement(
            without_shared["entry_cycles"], with_shared["entry_cycles"]
        ),
        "exit_with_shared": with_shared["exit_cycles"],
        "exit_without_shared": without_shared["exit_cycles"],
        "exit_improvement_pct": improvement(
            without_shared["exit_cycles"], with_shared["exit_cycles"]
        ),
    }


def run_switch_path_experiment(iterations: int = DEFAULT_ITERATIONS) -> dict:
    """E2: timer-triggered switches, ZION short path vs secure-hypervisor
    long path (no vCPU state update involved, as in the paper)."""
    short = _measure_switches(
        Machine(MachineConfig(long_path=False)), _TIMER_EXIT, iterations
    )
    long = _measure_switches(
        Machine(MachineConfig(long_path=True)), _TIMER_EXIT, iterations
    )

    def improvement(before, after):
        return 100.0 * (before - after) / before

    return {
        "entry_short_path": short["entry_cycles"],
        "entry_long_path": long["entry_cycles"],
        "entry_improvement_pct": improvement(
            long["entry_cycles"], short["entry_cycles"]
        ),
        "exit_short_path": short["exit_cycles"],
        "exit_long_path": long["exit_cycles"],
        "exit_improvement_pct": improvement(
            long["exit_cycles"], short["exit_cycles"]
        ),
    }


def run_page_fault_experiment(pages: int = 512, small_pool: bool = True) -> dict:
    """E3: stage-2 fault handling, normal KVM path vs the SM's 3 stages.

    ``pages`` sequential first-touch faults per VM.  With ``small_pool``
    the CVM's pool starts small enough that the sweep triggers stage-3
    expansion, so all three stages appear (as in the paper's Fig. 2
    discussion).
    """
    # Normal VM.
    machine = Machine(MachineConfig())
    session = machine.launch_normal_vm()
    machine.run(session, sequential_write_stress(pages))
    normal_vm = machine.kvm_fault_cycles / machine.kvm_fault_count

    # Confidential VM.
    pool = (2 << 20) if small_pool else (64 << 20)
    machine = Machine(MachineConfig(initial_pool_bytes=pool))
    session = machine.launch_confidential_vm(image=b"pf" * 100)
    machine.run(session, sequential_write_stress(pages))

    counts = machine.monitor.fault_stage_counts
    cycles = machine.monitor.fault_stage_cycles
    result = {
        "normal_vm": normal_vm,
        "cvm_average": sum(cycles.values()) / sum(counts.values()),
        "pages": pages,
        "stage_counts": {s.name: counts[s] for s in AllocStage},
    }
    for stage, key in (
        (AllocStage.PAGE_CACHE, "cvm_stage1"),
        (AllocStage.NEW_BLOCK, "cvm_stage2"),
        (AllocStage.POOL_EXPANSION, "cvm_stage3"),
    ):
        result[key] = cycles[stage] / counts[stage] if counts[stage] else None
    return result
