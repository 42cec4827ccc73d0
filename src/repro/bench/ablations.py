"""Ablation runners for ZION's design choices (DESIGN.md section 7).

Each ablation flips one design decision and measures what the paper's
corresponding mechanism buys:

- **secure-block size** (default 256 KB): larger blocks amortise stage-2
  refills over more stage-1 hits but waste memory per vCPU;
- **page cache** (stage 1): disabling it (1-page blocks) sends every
  fault through the block list;
- **shared-window premapping**: demand-faulting the shared region turns
  first-touch I/O setup into extra world switches;
- **TLB-flush policy**: the world-switch ``hfence`` is the dominant term
  of CPU-bound overhead; this quantifies its contribution.

Three sweeps sit beside them: redis ``-P`` pipelining depth, concurrent
CVM count against the PMP budget (the CURE/VirTEE contrast), and
migration cost against guest memory footprint.  The experiment registry
(:mod:`repro.bench.experiments`) renders and checks all of them.
"""

from __future__ import annotations

import dataclasses

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage
from repro.sm.migration import derive_migration_key
from repro.workloads.memstress import sequential_write_stress
from repro.workloads.redis import redis_benchmark


def run_block_size_ablation(block_sizes=(64 << 10, 256 << 10, 1 << 20), pages: int = 512) -> dict:
    """Average CVM fault cost and stage mix per secure-block size."""
    rows = {}
    for block_size in block_sizes:
        machine = Machine(MachineConfig(secure_block_size=block_size))
        session = machine.launch_confidential_vm(image=b"abl" * 100)
        machine.run(session, sequential_write_stress(pages))
        counts = machine.monitor.fault_stage_counts
        faults = sum(counts.values())
        rows[block_size] = {
            "avg_fault_cycles": sum(machine.monitor.fault_stage_cycles.values()) / faults,
            "stage1_share_pct": 100.0 * counts[AllocStage.PAGE_CACHE] / faults,
            "stage2_count": counts[AllocStage.NEW_BLOCK],
            "pool_bytes_held": sum(
                block.size
                for block in machine.monitor._cvm_blocks[session.cvm.cvm_id]
            ),
        }
    return rows


def run_page_cache_ablation(pages: int = 256) -> dict:
    """With vs. without the per-vCPU page cache (allocator ablation).

    Without it, every fault takes the global pool list under its lock --
    the contention-and-walk cost stage 1 exists to avoid (paper IV-D).
    """
    rows = {}
    for label, use_cache in (("with_cache", True), ("no_cache", False)):
        machine = Machine(MachineConfig(use_page_cache=use_cache))
        session = machine.launch_confidential_vm(image=b"abl" * 100)
        machine.run(session, sequential_write_stress(pages))
        monitor = machine.monitor
        rows[label] = (
            sum(monitor.fault_stage_cycles.values())
            / sum(monitor.fault_stage_counts.values())
        )
    rows["cache_benefit_pct"] = 100.0 * (rows["no_cache"] - rows["with_cache"]) / rows["no_cache"]
    return rows


def run_shared_premap_ablation(io_requests: int = 32) -> dict:
    """Premapped vs. demand-faulted shared window under virtio traffic."""
    rows = {}
    for label, window in (("premapped", 4 << 20), ("demand_faulted", None)):
        machine = Machine(MachineConfig())
        kwargs = {} if window is None else {"shared_window": window}
        if window is None:
            # Minimal window: just the virtqueue rings + first slots.
            kwargs = {"shared_window": 64 << 10}
        session = machine.launch_confidential_vm(image=b"abl" * 100, **kwargs)
        machine.attach_virtio_block(session)

        def workload(ctx):
            blk = ctx.blk_driver()
            for i in range(io_requests):
                blk.write(i * 64, 16 << 10)

        exits_before = session.cvm.exit_count
        result = machine.run(session, workload)
        rows[label] = {
            "cycles": result["cycles"],
            "cvm_exits": session.cvm.exit_count - exits_before,
        }
    return rows


def run_tlb_flush_ablation(compute_cycles: int = 20_000_000) -> dict:
    """World-switch hfence cost: default vs. a hypothetical free flush.

    Quantifies how much of the CPU-bound overhead the conservative
    PMP-toggle flush policy accounts for (both the flush instruction and
    the guest's TLB re-walks afterward are included by construction).
    """
    from repro.hyp.devices import ConsoleDevice
    from repro.workloads.cpu import CONSOLE_GPA, cpu_bound_workload
    from repro.workloads.profiles import RV8_PROFILES

    profile = RV8_PROFILES["aes"]
    rows = {}
    for label, costs in (
        ("default", DEFAULT_COSTS),
        ("free_hfence", dataclasses.replace(DEFAULT_COSTS, tlb_flush_gvma=0)),
    ):
        cycles = {}
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig(costs=costs))
            machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
            if kind == "cvm":
                session = machine.launch_confidential_vm(image=b"abl" * 100)
            else:
                session = machine.launch_normal_vm()
            result = machine.run(session, cpu_bound_workload(profile, compute_cycles))
            cycles[kind] = result["workload_result"]["cycles"]
        rows[label] = 100.0 * (cycles["cvm"] - cycles["normal"]) / cycles["normal"]
    return rows


def run_redis_pipelining(depths=(1, 4, 16)) -> dict:
    """redis-benchmark -P sweep: exit amortisation shrinks the overhead."""
    rows = {}
    for depth in depths:
        samples = {}
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig())
            if kind == "cvm":
                session = machine.launch_confidential_vm(image=b"p" * 400)
            else:
                session = machine.launch_normal_vm()
            machine.attach_virtio_net(session)
            samples[kind] = redis_benchmark(
                machine, session, "GET", requests=300, pipeline=depth
            )
        rows[depth] = {
            "normal_rps": samples["normal"]["throughput_rps"],
            "cvm_rps": samples["cvm"]["throughput_rps"],
            "drop_pct": 100.0
            * (1 - samples["cvm"]["throughput_rps"] / samples["normal"]["throughput_rps"]),
        }
    return rows


def run_scalability(tenant_counts=(1, 4, 13, 32)) -> dict:
    """PMP entries, launch cost and interleaved run cost per CVM count.

    ZION's CVM count is bounded by memory, not by PMP entries: CURE and
    VirTEE top out at 13 VM enclaves on dedicated hardware resources.
    """
    rows = {}
    for count in tenant_counts:
        machine = Machine(MachineConfig(initial_pool_bytes=96 << 20))
        with machine.ledger.span() as launch_span:
            sessions = [
                machine.launch_confidential_vm(
                    image=b"tenant" * 64, shared_window=256 << 10
                )
                for _ in range(count)
            ]

        def make_workload(session):
            def workload(ctx):
                for _ in range(3):
                    ctx.compute(20_000)
                    yield
                return True

            return workload

        results = machine.run_concurrent(
            [(s, make_workload(s)) for s in sessions]
        )
        assert all(results[s] for s in sessions)
        rows[count] = {
            "pmp_entries": machine.pmp_controller.pmp_entries_used,
            "launch_cycles_per_cvm": launch_span.cycles / count,
            "run_cycles": results["cycles"],
            "pool_regions": len(machine.monitor.pool.regions),
        }
    return rows


def run_migration_cost(footprints=(256 << 10, 1 << 20, 4 << 20)) -> dict:
    """Export + import cycles ("downtime") and blob size per footprint.

    Migration is stop-and-copy (DESIGN.md section 7), so its cost should
    grow with the guest's resident memory and the sealed blob should be
    that memory plus O(KB) of metadata.
    """
    key = derive_migration_key(b"fleet", b"bench-src", b"bench-dst")
    rows = {}
    for footprint in footprints:
        source = Machine(MachineConfig())
        session = source.launch_confidential_vm(image=b"mig" * 300)
        source.run(session, sequential_write_stress(footprint // PAGE_SIZE))
        with source.ledger.span() as export_span:
            blob = source.export_confidential_vm(session, key)
        destination = Machine(MachineConfig())
        with destination.ledger.span() as import_span:
            migrated = destination.import_confidential_vm(blob, key)
        # The migrated guest must be immediately runnable.
        destination.run(migrated, lambda ctx: ctx.compute(1000))
        rows[footprint] = {
            "blob_bytes": len(blob),
            "export_cycles": export_span.cycles,
            "import_cycles": import_span.cycles,
            "downtime_ms": (export_span.cycles + import_span.cycles) / 100_000,
        }
    return rows
