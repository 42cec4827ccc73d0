"""Metric declarations and the arithmetic behind them.

``END_TO_END`` and ``PER_LAYER`` are the metric names the benchmark
prints, each with its unit; ``BENCHMARK.json`` declares the same lists
(with the bounds) and the tests keep the two in step.
"""

from __future__ import annotations

import hashlib
import math

from repro.cycles import Category
from repro.sm.alloc import AllocStage

#: (name, unit): measured with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_p50_cycles", "cycles"),
    ("sim_tail_cycles", "cycles"),
)

#: The tracked fault stages, in allocation order.
STAGES = (
    ("stage1", AllocStage.PAGE_CACHE),
    ("stage2", AllocStage.NEW_BLOCK),
    ("stage3", AllocStage.POOL_EXPANSION),
)

#: (name, unit): measured in the traced run.
PER_LAYER = (
    ("machine.self_s", "s"),
    ("machine.guest_access.calls", "count"),
    ("machine.run_seq.calls", "count"),
    ("mem.self_s", "s"),
    ("mem.tlb.hits", "count"),
    ("mem.tlb.misses", "count"),
    ("mem.tlb.hit_ratio", "ratio"),
    ("mem.tlb.flushes", "count"),
    ("mem.resident_pages", "count"),
    ("mem.tracecache.lookups", "count"),
    ("mem.tracecache.records", "count"),
    ("mem.tracecache.hit_ratio", "ratio"),
    ("sm.self_s", "s"),
    *((f"sm.faults.{name}", "count") for name, _stage in STAGES),
    ("sm.fault_fast_ratio", "ratio"),
    ("sm.world_switches", "count"),
    ("sm.world_switch.self_s", "s"),
    ("sm.ecalls", "count"),
    ("isa.self_s", "s"),
    ("sm.migration.self_s", "s"),
    ("sm.migration.blob_bytes", "bytes"),
    ("fleet.self_s", "s"),
    ("fleet.migrations", "count"),
    ("fleet.migrations_failed", "count"),
    ("verify.self_s", "s"),
    ("verify.total_s", "s"),
    ("verify.sweeps", "count"),
    ("verify.violations", "count"),
    ("hyp.self_s", "s"),
    ("hyp.mmio_exits", "count"),
    ("hyp.virtio.kicks", "count"),
    ("hyp.virtio.irqs", "count"),
    ("hyp.pool_expansions", "count"),
    ("hyp.sched.parks", "count"),
    ("guest.self_s", "s"),
    ("ipc.self_s", "s"),
    ("ipc.messages", "count"),
    ("ipc.doorbells", "count"),
    ("ipc.doorbell_suppress_ratio", "ratio"),
    ("ipc.recv_empty_ratio", "ratio"),
    ("cycles.self_s", "s"),
    *((f"cycles.{category.name}", "cycles/op") for category in Category),
    ("workloads.self_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: Percentiles the tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, pct: float):
    """Nearest-rank percentile of ``samples`` (not necessarily sorted)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def digest(values) -> str:
    """A short stable fingerprint of a sequence of integers."""
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def counters(workload) -> dict:
    """The simulator's own public counters, summed over the episode's machines.

    Read before and after the timed section; their difference must be
    identical in the untraced and the traced run.
    """
    out = {
        "tlb.hits": 0, "tlb.misses": 0, "tlb.flushes": 0,
        "resident_pages": 0, "mmio_exits": 0, "pool_expansions": 0,
        "virtio.kicks": 0, "virtio.irqs": 0,
        **{f"faults.{name}": 0 for name, _stage in STAGES},
        **{f"cycles.{category.name}": 0 for category in Category},
    }
    for machine in workload.machines:
        tlb = machine.translator.tlb
        out["tlb.hits"] += tlb.hits
        out["tlb.misses"] += tlb.misses
        out["tlb.flushes"] += tlb.flushes
        out["resident_pages"] += machine.dram.resident_pages()
        out["mmio_exits"] += machine.hypervisor.mmio_exits
        out["pool_expansions"] += machine.hypervisor.pool_expansions
        for name, stage in STAGES:
            out[f"faults.{name}"] += machine.monitor.fault_stage_counts[stage]
        for category, cycles in machine.ledger.by_category().items():
            out[f"cycles.{category.name}"] += cycles
    out["resident_pages"] = max(out["resident_pages"], workload.resident_peak)
    for device in workload.devices():
        out["virtio.kicks"] += device.kicks
        out["virtio.irqs"] += device.irqs_raised
    return out


def delta(before: dict, after: dict) -> dict:
    """Per-counter growth over the timed section (resident pages as level)."""
    out = {key: after[key] - before[key] for key in after}
    out["resident_pages"] = after["resident_pages"]
    return out
