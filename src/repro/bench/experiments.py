"""The experiment registry: every paper experiment, extension and ablation.

One ordered table, :data:`EXPERIMENTS`, is the only place that says how
big each experiment runs and what its result must satisfy.  Each entry
names its runner, the quick and ``--full`` keyword arguments, a
``report`` that renders the measured-vs-paper table, and a ``check``
that asserts the paper's claims (shape, and closeness to
:mod:`repro.bench.paper_data`) on the result.  ``python -m repro
experiments`` runs the entries in order, prints each report and runs
each check (INTERNALS §7).

The quick sizes are the documented scaled-down loads whose reported
percentages are scale-invariant; the full sizes are paper scale.  The
simulation is deterministic, so one run per entry is the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import paper_data
from repro.bench.ablations import (
    run_block_size_ablation,
    run_migration_cost,
    run_page_cache_ablation,
    run_redis_pipelining,
    run_scalability,
    run_shared_premap_ablation,
    run_tlb_flush_ablation,
)
from repro.bench.ipc import DEFAULT_MESSAGE_SIZES, run_ipc_experiment
from repro.bench.macro import (
    run_coremark_experiment,
    run_iozone_experiment,
    run_redis_experiment,
    run_rv8_experiment,
)
from repro.bench.microbench import (
    run_page_fault_experiment,
    run_switch_path_experiment,
    run_vcpu_switch_experiment,
)
from repro.bench.redis_cluster import run_cluster_experiment
from repro.bench.tables import format_comparison_table, human_bytes


@dataclass(frozen=True)
class Experiment:
    """One registry entry: how to run it, render it and check it."""

    name: str
    run: Callable[..., dict]
    quick: dict
    full: dict
    report: Callable[[dict], str]
    #: ``check(result, full)`` raises ``AssertionError`` on a failed claim
    check: Callable[[dict, bool], None]

    def kwargs(self, full: bool) -> dict:
        """The runner's keyword arguments at quick or full scale."""
        return self.full if full else self.quick


# -- E1 (paper section V-B.1): shared-vCPU world-switch optimization ---------


def _report_e1(result: dict) -> str:
    paper = paper_data.VCPU_SWITCH
    rows = [
        (
            "CVM entry",
            {
                "measured_without": result["entry_without_shared"],
                "measured_with": result["entry_with_shared"],
                "paper_without": paper["entry_without_shared"],
                "paper_with": paper["entry_with_shared"],
                "impr": result["entry_improvement_pct"],
                "paper_impr": paper["entry_improvement_pct"],
            },
        ),
        (
            "CVM exit",
            {
                "measured_without": result["exit_without_shared"],
                "measured_with": result["exit_with_shared"],
                "paper_without": paper["exit_without_shared"],
                "paper_with": paper["exit_with_shared"],
                "impr": result["exit_improvement_pct"],
                "paper_impr": paper["exit_improvement_pct"],
            },
        ),
    ]
    return format_comparison_table(
        "E1 shared vCPU",
        rows,
        [
            ("measured_without", "no-shared (cyc)", ".0f"),
            ("measured_with", "shared (cyc)", ".0f"),
            ("impr", "impr %", ".1f"),
            ("paper_without", "paper no-shared", ".0f"),
            ("paper_with", "paper shared", ".0f"),
            ("paper_impr", "paper impr %", ".1f"),
        ],
    )


def _check_e1(result: dict, full: bool) -> None:
    paper = paper_data.VCPU_SWITCH
    # Shape assertions: the optimization helps on both directions, by
    # roughly the paper's factor (within a third of the reported gain).
    assert result["entry_with_shared"] < result["entry_without_shared"]
    assert result["exit_with_shared"] < result["exit_without_shared"]
    assert abs(result["entry_improvement_pct"] - paper["entry_improvement_pct"]) < 7
    assert abs(result["exit_improvement_pct"] - paper["exit_improvement_pct"]) < 8
    # Absolute counts within 15% of the calibration targets.
    for key in ("entry_with_shared", "entry_without_shared",
                "exit_with_shared", "exit_without_shared"):
        assert abs(result[key] - paper[key]) / paper[key] < 0.15, key


# -- E2 (paper section V-B.2): short-path vs long-path CVM mode switching ----


def _report_e2(result: dict) -> str:
    paper = paper_data.SWITCH_PATH
    rows = [
        (
            "CVM entry",
            {
                "long": result["entry_long_path"],
                "short": result["entry_short_path"],
                "impr": result["entry_improvement_pct"],
                "paper_long": paper["entry_long_path"],
                "paper_short": paper["entry_short_path"],
                "paper_impr": paper["entry_improvement_pct"],
            },
        ),
        (
            "CVM exit",
            {
                "long": result["exit_long_path"],
                "short": result["exit_short_path"],
                "impr": result["exit_improvement_pct"],
                "paper_long": paper["exit_long_path"],
                "paper_short": paper["exit_short_path"],
                "paper_impr": paper["exit_improvement_pct"],
            },
        ),
    ]
    return format_comparison_table(
        "E2 switch path",
        rows,
        [
            ("long", "long (cyc)", ".0f"),
            ("short", "short (cyc)", ".0f"),
            ("impr", "impr %", ".1f"),
            ("paper_long", "paper long", ".0f"),
            ("paper_short", "paper short", ".0f"),
            ("paper_impr", "paper impr %", ".1f"),
        ],
    )


def _check_e2(result: dict, full: bool) -> None:
    paper = paper_data.SWITCH_PATH
    assert result["entry_short_path"] < result["entry_long_path"]
    assert result["exit_short_path"] < result["exit_long_path"]
    # The paper's headline factors: ~45% entry, ~55% exit improvement.
    assert abs(result["entry_improvement_pct"] - paper["entry_improvement_pct"]) < 7
    assert abs(result["exit_improvement_pct"] - paper["exit_improvement_pct"]) < 7
    for key in ("entry_long_path", "entry_short_path",
                "exit_long_path", "exit_short_path"):
        assert abs(result[key] - paper[key]) / paper[key] < 0.15, key


# -- E3 (paper section V-C): stage-2 page-fault handling ---------------------

_E3_LABELS = [
    ("normal VM (KVM)", "normal_vm"),
    ("CVM stage 1", "cvm_stage1"),
    ("CVM stage 2", "cvm_stage2"),
    ("CVM stage 3", "cvm_stage3"),
    ("CVM average", "cvm_average"),
]


def _report_e3(result: dict) -> str:
    paper = paper_data.PAGE_FAULT
    rows = [
        (label, {"measured": result[key], "paper": paper[key],
                 "ratio": (result[key] / paper[key]) if result[key] else None})
        for label, key in _E3_LABELS
    ]
    return format_comparison_table(
        "E3 stage-2 faults",
        rows,
        [
            ("measured", "measured (cyc)", ".0f"),
            ("paper", "paper (cyc)", ".0f"),
            ("ratio", "ratio", ".3f"),
        ],
    )


def _check_e3(result: dict, full: bool) -> None:
    paper = paper_data.PAGE_FAULT
    # Shape: CVM stages 1/2 beat KVM; stage 3 is much slower; the average
    # sits near stage 1 because the cache absorbs most faults.
    assert result["cvm_stage1"] < result["normal_vm"]
    assert result["cvm_stage2"] < result["normal_vm"]
    assert result["cvm_stage3"] > result["normal_vm"]
    assert result["cvm_stage1"] < result["cvm_stage2"] < result["cvm_stage3"]
    assert abs(result["cvm_average"] - result["cvm_stage1"]) / result["cvm_stage1"] < 0.05
    for _label, key in _E3_LABELS:
        assert abs(result[key] - paper[key]) / paper[key] < 0.15, key


# -- E4 (paper Table I): RV8, normal vs confidential VM ----------------------


def _report_e4(result: dict) -> str:
    rows = []
    for name, row in result["benchmarks"].items():
        rows.append(
            (
                name,
                {
                    "normal_1e9": row["normal_1e9_extrapolated"],
                    "cvm_1e9": row["cvm_1e9_extrapolated"],
                    "overhead": row["overhead_pct"],
                    "paper": row["paper_overhead_pct"],
                },
            )
        )
    rows.append(
        (
            "Average",
            {
                "overhead": result["average_overhead_pct"],
                "paper": paper_data.RV8_AVERAGE_OVERHEAD_PCT,
            },
        )
    )
    return format_comparison_table(
        "E4 RV8 (Table I)",
        rows,
        [
            ("normal_1e9", "normal (1e9 cyc)", ".3f"),
            ("cvm_1e9", "CVM (1e9 cyc)", ".3f"),
            ("overhead", "overhead %", "+.2f"),
            ("paper", "paper %", "+.2f"),
        ],
    )


def _check_e4(result: dict, full: bool) -> None:
    for name, row in result["benchmarks"].items():
        # The paper's claim: every RV8 overhead stays within 3%.
        assert 0 < row["overhead_pct"] < 3.2, name
        # And each lands near the reported per-benchmark number.
        assert abs(row["overhead_pct"] - row["paper_overhead_pct"]) < 0.8, name
    assert abs(result["average_overhead_pct"] - paper_data.RV8_AVERAGE_OVERHEAD_PCT) < 0.5


# -- E5 (paper section V-D): CoreMark score ----------------------------------


def _report_e5(result: dict) -> str:
    paper = paper_data.COREMARK
    rows = [
        ("normal VM", {"measured": result["normal_score"], "paper": paper["normal_score"]}),
        ("confidential VM", {"measured": result["cvm_score"], "paper": paper["cvm_score"]}),
        ("drop %", {"measured": result["overhead_pct"], "paper": paper["overhead_pct"]}),
    ]
    return format_comparison_table(
        "E5 CoreMark",
        rows,
        [("measured", "measured", ".2f"), ("paper", "paper", ".2f")],
    )


def _check_e5(result: dict, full: bool) -> None:
    paper = paper_data.COREMARK
    # Scores within 5% of the paper's; drop within half a point of 2.77%.
    assert abs(result["normal_score"] - paper["normal_score"]) / paper["normal_score"] < 0.05
    assert abs(result["cvm_score"] - paper["cvm_score"]) / paper["cvm_score"] < 0.05
    assert abs(result["overhead_pct"] - paper["overhead_pct"]) < 0.5


# -- E6 (paper Fig. 3): Redis throughput and latency per operation type ------


def _report_e6(result: dict) -> str:
    rows = [
        (
            op,
            {
                "normal_tp": row["normal_throughput_rps"],
                "cvm_tp": row["cvm_throughput_rps"],
                "tp_drop": row["throughput_drop_pct"],
                "normal_lat": row["normal_latency_us"],
                "cvm_lat": row["cvm_latency_us"],
                "lat_inc": row["latency_increase_pct"],
            },
        )
        for op, row in result["ops"].items()
    ]
    table = format_comparison_table(
        "E6 Redis (Fig. 3)",
        rows,
        [
            ("normal_tp", "normal rps", ".0f"),
            ("cvm_tp", "CVM rps", ".0f"),
            ("tp_drop", "drop %", "+.2f"),
            ("normal_lat", "normal us", ".0f"),
            ("cvm_lat", "CVM us", ".0f"),
            ("lat_inc", "lat %", "+.2f"),
        ],
    )
    averages = (
        "avg throughput drop: {:+.2f}% (paper {:+.2f}%)   "
        "avg latency increase: {:+.2f}% (paper {:+.2f}%)".format(
            result["avg_throughput_drop_pct"],
            paper_data.REDIS["avg_throughput_drop_pct"],
            result["avg_latency_increase_pct"],
            paper_data.REDIS["avg_latency_increase_pct"],
        )
    )
    return table + "\n\n" + averages


def _check_e6(result: dict, full: bool) -> None:
    # Shape: every op loses throughput and gains latency, within a
    # "reasonable range" (the paper's words) of the averages.
    for op, row in result["ops"].items():
        assert 0 < row["throughput_drop_pct"] < 10, op
        assert 0 < row["latency_increase_pct"] < 10, op
    assert abs(
        result["avg_throughput_drop_pct"] - paper_data.REDIS["avg_throughput_drop_pct"]
    ) < 1.5
    assert abs(
        result["avg_latency_increase_pct"] - paper_data.REDIS["avg_latency_increase_pct"]
    ) < 1.5


# -- E7 (paper Fig. 4): IOZone sequential read/write throughput --------------


def _report_e7(result: dict) -> str:
    rows = [
        (
            f"{human_bytes(cell['file_bytes'])}/{human_bytes(cell['record_bytes'])}",
            {
                "w_normal": cell["write_normal_kb_s"],
                "w_cvm": cell["write_cvm_kb_s"],
                "w_over": cell["write_overhead_pct"],
                "r_normal": cell["read_normal_kb_s"],
                "r_cvm": cell["read_cvm_kb_s"],
                "r_over": cell["read_overhead_pct"],
            },
        )
        for cell in result["cells"]
    ]
    return format_comparison_table(
        "E7 IOZone (Fig. 4)",
        rows,
        [
            ("w_normal", "wr normal KB/s", ".0f"),
            ("w_cvm", "wr CVM KB/s", ".0f"),
            ("w_over", "wr over %", "+.2f"),
            ("r_normal", "rd normal KB/s", ".0f"),
            ("r_cvm", "rd CVM KB/s", ".0f"),
            ("r_over", "rd over %", "+.2f"),
        ],
    )


def _check_e7(result: dict, full: bool) -> None:
    cache = 128 << 20
    by_record: dict = {}
    for cell in result["cells"]:
        by_record.setdefault(cell["record_bytes"], []).append(cell)
        for op in ("write", "read"):
            over = cell[f"{op}_overhead_pct"]
            if cell["file_bytes"] <= cache // 2:
                # Paper: "for smaller files, the performance difference is
                # minimal (under 5%)".
                assert over < 5.0, (cell["file_bytes"], op)
            assert over < paper_data.IOZONE["large_file_overhead_pct_max"] + 2.0
    # Paper: overhead grows with file size ("as file sizes grow, the
    # confidential VM's overhead increases, reaching up to 20%").
    for record_bytes, cells in by_record.items():
        cells.sort(key=lambda c: c["file_bytes"])
        small = cells[0]["write_overhead_pct"]
        large = cells[-1]["write_overhead_pct"]
        assert large > small + 5, record_bytes
        assert large > 8.0, record_bytes
    # Paper: "throughput [is] lower when the record size is small".
    records = sorted(by_record)
    biggest_file = max(c["file_bytes"] for c in result["cells"])
    tp = {
        r: next(
            c["write_normal_kb_s"] for c in by_record[r]
            if c["file_bytes"] == biggest_file
        )
        for r in records
    }
    assert tp[records[0]] < tp[records[-1]]


# -- E8 (extension): inter-CVM transport, SM channel vs virtio + SWIOTLB -----


def _report_e8(result: dict) -> str:
    rows = [
        (
            f"{size} B",
            {
                "channel": cell["channel"]["cycles_per_round_trip"],
                "polling": cell["polling"]["cycles_per_round_trip"],
                "virtio": cell["virtio"]["cycles_per_round_trip"],
                "speedup": cell["speedup"],
                "saved_us": cell["latency_saved_us"],
                "chan_mbps": cell["channel"]["throughput_mbps"],
                "virtio_mbps": cell["virtio"]["throughput_mbps"],
            },
        )
        for size, cell in result["sizes"].items()
    ]
    table = format_comparison_table(
        "E8 inter-CVM transport (cycles / round trip)",
        rows,
        [
            ("channel", "channel", ".0f"),
            ("polling", "polling", ".0f"),
            ("virtio", "virtio", ".0f"),
            ("speedup", "speedup", ".2f"),
            ("saved_us", "saved us/rt", ".1f"),
            ("chan_mbps", "chan MB/s", ".1f"),
            ("virtio_mbps", "virtio MB/s", ".1f"),
        ],
    )
    doorbells = {
        size: (cell["channel"]["doorbells"], cell["polling"]["doorbells"])
        for size, cell in result["sizes"].items()
    }
    ablation = (
        "ablation: doorbell arm rings {} bells/run, polling arm rings {} "
        "(spins through the scheduler instead); polling saves the notify "
        "ECALLs while both sides stay busy, doorbells let an idle side "
        "park off the run queue.".format(
            next(iter(doorbells.values()))[0], next(iter(doorbells.values()))[1]
        )
    )
    return table + "\n\n" + ablation


def _check_e8(result: dict, full: bool) -> None:
    rounds = result["rounds"]
    for size, cell in result["sizes"].items():
        # The point of the subsystem: the channel must beat the
        # two-bounce-copy virtio path at every message size.
        assert cell["channel"]["cycles"] < cell["virtio"]["cycles"], size
        assert cell["speedup"] > 1.0, size
        assert cell["latency_saved_us"] > 0, size
        # Ablation sanity: the polling arm never touches the doorbell
        # path, the doorbell arm rings twice per round trip.
        assert cell["polling"]["doorbells"] == 0, size
        assert cell["channel"]["doorbells"] == 2 * rounds, size
        assert cell["polling"]["cycles"] <= cell["channel"]["cycles"], size
    # The copy savings grow with the payload: virtio's advantage-loss
    # (absolute cycles saved per round trip) must increase with size.
    saved = [
        cell["virtio"]["cycles_per_round_trip"]
        - cell["channel"]["cycles_per_round_trip"]
        for cell in result["sizes"].values()
    ]
    assert saved == sorted(saved)


# -- E9 (extension): sharded redis cluster over SM channels vs virtio --------

_E9_QUICK = {"clients": 2, "requests": 16}
_E9_FULL = {"clients": 4, "requests": 64}


def _report_e9(result: dict) -> str:
    cluster = result["cluster"]
    baseline = result["virtio_baseline"]
    rows = [
        (
            f"{row['shards']} shard x P{row['pipeline']}",
            {
                "cpr": row["cycles_per_request"],
                "rps": row["throughput_rps"],
                "p99": row["p99_latency_us"],
                "balance": row["shard_balance"],
                "busy": row["max_shard_busy_per_request"],
            },
        )
        for row in result["ablation"]
    ]
    rows.append((
        "virtio 1 CVM x P1",
        {"cpr": baseline["unpipelined"]["cycles_per_request"],
         "rps": baseline["unpipelined"]["throughput_rps"]},
    ))
    rows.append((
        f"virtio 1 CVM x P{baseline['pipelined']['pipeline']}",
        {"cpr": baseline["pipelined"]["cycles_per_request"],
         "rps": baseline["pipelined"]["throughput_rps"]},
    ))
    table = format_comparison_table(
        "E9 sharded cluster",
        rows,
        [
            ("cpr", "cycles/req", ".0f"),
            ("rps", "req/s", ".0f"),
            ("p99", "p99 us", ".1f"),
            ("balance", "balance", ".3f"),
            ("busy", "shard busy/req", ".0f"),
        ],
    )
    headline = (
        "headline: {:.2f}x fewer cycles/request than the unpipelined "
        "virtio baseline ({:.0f} vs {:.0f}); wake policy: front-wake "
        "p99 {:.0f} us vs tail-wake {:.0f} us".format(
            result["speedup_vs_virtio_unpipelined"],
            cluster["cycles_per_request"],
            baseline["unpipelined"]["cycles_per_request"],
            result["wake_policy"]["front_wake"]["p99_latency_us"],
            result["wake_policy"]["tail_wake"]["p99_latency_us"],
        )
    )
    return table + "\n\n" + headline


def _check_e9(result: dict, full: bool) -> None:
    sizes = _E9_FULL if full else _E9_QUICK
    clients, requests = sizes["clients"], sizes["requests"]
    cluster = result["cluster"]
    baseline = result["virtio_baseline"]

    # -- acceptance: the channel data plane must beat the virtio baseline
    # by >= 1.5x cycles/request at 4 shards + pipelining (it measures
    # ~3x; 1.5x is the regression floor).
    assert result["speedup_vs_virtio_unpipelined"] >= 1.5
    assert cluster["errors"] == 0
    assert cluster["requests"] == clients * requests

    # -- the device path collapses: no MMIO exits, no virtio interrupt
    # delivery anywhere in the cluster's data plane.
    assert cluster["breakdown"].get("DEVICE", 0) == 0
    assert baseline["breakdown"]["DEVICE"] > 0
    baseline_per_request = baseline["unpipelined"]["cycles_per_request"]
    cluster_trap_dev = (
        cluster["breakdown"].get("TRAP", 0)
        + cluster["breakdown"].get("DEVICE", 0)
        + cluster["breakdown"].get("GUEST_KERNEL", 0)
    ) / cluster["requests"]
    baseline_total = sum(baseline["breakdown"].values())
    baseline_trap_dev = baseline_per_request * (
        baseline["breakdown"]["TRAP"]
        + baseline["breakdown"]["DEVICE"]
        + baseline["breakdown"].get("GUEST_KERNEL", 0)
    ) / baseline_total
    assert cluster_trap_dev < baseline_trap_dev

    # -- pipelining must win at fixed shard count (the per-hop fixed
    # costs amortize across the batch)...
    by_config = {
        (row["shards"], row["pipeline"]): row for row in result["ablation"]
    }
    deepest = max(p for _s, p in by_config)
    for shards in sorted({s for s, _p in by_config}):
        assert (
            by_config[(shards, deepest)]["cycles_per_request"]
            < by_config[(shards, 1)]["cycles_per_request"]
        ), f"pipelining did not pay at {shards} shards"
    # ...and deeper pipelines trade tail latency for it.
    assert cluster["p99_latency_us"] >= cluster["p50_latency_us"]

    # -- the shard tier scales: the busiest shard's serving cycles per
    # request (the N-hart critical path) must drop superlinearly past
    # half the ideal at 4 shards, with the slot space evenly spread.
    busy_1 = by_config[(1, deepest)]["max_shard_busy_per_request"]
    busy_4 = by_config[(4, deepest)]["max_shard_busy_per_request"]
    assert busy_4 <= busy_1 / 2, (busy_1, busy_4)
    # At quick scale only ~8 requests land per shard, so the CRC16 spread
    # is necessarily lumpier than the full-scale run's ~0.95.
    min_balance = 0.8 if full else 0.7
    assert by_config[(4, deepest)]["shard_balance"] >= min_balance

    # -- wake-policy ablation: front-wake is the latency policy,
    # tail-wake the throughput policy.
    front = result["wake_policy"]["front_wake"]
    tail = result["wake_policy"]["tail_wake"]
    assert front["p99_latency_us"] <= tail["p99_latency_us"]
    assert tail["cycles_per_request"] <= front["cycles_per_request"]


# -- ablations (DESIGN.md section 7): what each design choice buys -----------


def _report_block_size(result: dict) -> str:
    rows = [
        (
            human_bytes(block_size),
            {
                "avg": row["avg_fault_cycles"],
                "stage1": row["stage1_share_pct"],
                "held": row["pool_bytes_held"] / 1024,
            },
        )
        for block_size, row in result.items()
    ]
    return format_comparison_table(
        "block-size ablation",
        rows,
        [
            ("avg", "avg fault (cyc)", ".0f"),
            ("stage1", "stage-1 share %", ".1f"),
            ("held", "pool held (KB)", ".0f"),
        ],
    )


def _check_block_size(result: dict, full: bool) -> None:
    sizes = sorted(result)
    # Bigger blocks -> more stage-1 hits -> cheaper average fault...
    assert (
        result[sizes[0]]["stage1_share_pct"]
        < result[sizes[1]]["stage1_share_pct"]
        < result[sizes[2]]["stage1_share_pct"]
    )
    assert result[sizes[2]]["avg_fault_cycles"] < result[sizes[0]]["avg_fault_cycles"]
    # ...at the cost of more pool memory held per vCPU.
    assert result[sizes[2]]["pool_bytes_held"] >= result[sizes[0]]["pool_bytes_held"]


def _report_page_cache(result: dict) -> str:
    return (
        "page-cache ablation: with {:.0f} cyc/fault, without {:.0f} cyc/fault "
        "({:.1f}% saved by the hierarchical design)".format(
            result["with_cache"], result["no_cache"], result["cache_benefit_pct"]
        )
    )


def _check_page_cache(result: dict, full: bool) -> None:
    # The saving is bounded by the fault path's fixed cost (the M-mode
    # handler dominates); the allocation-stage cycles themselves roughly
    # halve, which shows up as a 1-2% whole-fault improvement.
    assert result["with_cache"] < result["no_cache"]
    assert result["cache_benefit_pct"] > 1.0


def _report_shared_premap(result: dict) -> str:
    premapped = result["premapped"]
    demand = result["demand_faulted"]
    return (
        "shared-window ablation: premapped {} exits / {:,} cyc, "
        "demand-faulted {} exits / {:,} cyc".format(
            premapped["cvm_exits"], premapped["cycles"],
            demand["cvm_exits"], demand["cycles"],
        )
    )


def _check_shared_premap(result: dict, full: bool) -> None:
    premapped = result["premapped"]
    demand = result["demand_faulted"]
    # Demand faulting costs extra shared-fault exits for the same I/O.
    assert demand["cvm_exits"] > premapped["cvm_exits"]
    assert demand["cycles"] > premapped["cycles"]


def _report_redis_pipelining(result: dict) -> str:
    rows = [
        (f"-P {depth}", dict(row)) for depth, row in result.items()
    ]
    return format_comparison_table(
        "redis pipelining",
        rows,
        [
            ("normal_rps", "normal rps", ".0f"),
            ("cvm_rps", "CVM rps", ".0f"),
            ("drop_pct", "drop %", "+.2f"),
        ],
    )


def _check_redis_pipelining(result: dict, full: bool) -> None:
    depths = sorted(result)
    # Throughput rises with depth; confidential overhead falls.
    assert result[depths[-1]]["cvm_rps"] > result[depths[0]]["cvm_rps"] * 1.5
    assert result[depths[-1]]["drop_pct"] < result[depths[0]]["drop_pct"]


def _report_tlb_flush(result: dict) -> str:
    return (
        "TLB-flush ablation (aes profile): default overhead {:+.2f}%, "
        "free-hfence overhead {:+.2f}%".format(
            result["default"], result["free_hfence"]
        )
    )


def _check_tlb_flush(result: dict, full: bool) -> None:
    # The flush instruction itself is a minor term; the induced re-walks
    # (still present with a free hfence) dominate -- both stay positive.
    assert result["free_hfence"] < result["default"]
    assert result["free_hfence"] > 0


def _report_scalability(result: dict) -> str:
    rows = [
        (
            f"{count} CVMs",
            {
                "pmp": row["pmp_entries"],
                "launch": row["launch_cycles_per_cvm"],
                "run": row["run_cycles"],
            },
        )
        for count, row in result.items()
    ]
    return format_comparison_table(
        "scalability",
        rows,
        [
            ("pmp", "PMP entries", "d"),
            ("launch", "launch cyc/CVM", ".0f"),
            ("run", "interleaved cyc", ".0f"),
        ],
    )


def _check_scalability(result: dict, full: bool) -> None:
    counts = sorted(result)
    # PMP budget is flat in tenant count (the CURE/VirTEE contrast).
    budgets = {result[c]["pmp_entries"] for c in counts}
    assert max(budgets) <= 4
    # 32 tenants must simply work (beyond the 13-enclave ceiling)...
    assert 32 in result
    # ...with roughly constant per-CVM launch cost.
    per_cvm = [result[c]["launch_cycles_per_cvm"] for c in counts]
    assert max(per_cvm) < 3 * min(per_cvm)


def _report_migration_cost(result: dict) -> str:
    rows = [
        (
            human_bytes(footprint),
            {
                "blob": row["blob_bytes"] / 1024,
                "export": row["export_cycles"],
                "import": row["import_cycles"],
                "downtime": row["downtime_ms"],
            },
        )
        for footprint, row in result.items()
    ]
    return format_comparison_table(
        "migration cost",
        rows,
        [
            ("blob", "blob (KB)", ".0f"),
            ("export", "export (cyc)", ".0f"),
            ("import", "import (cyc)", ".0f"),
            ("downtime", "downtime (ms)", ".2f"),
        ],
    )


def _check_migration_cost(result: dict, full: bool) -> None:
    footprints = sorted(result)
    # Cost scales with resident memory (stop-and-copy), roughly linearly.
    small, large = result[footprints[0]], result[footprints[-1]]
    ratio = footprints[-1] / footprints[0]
    cost_ratio = (large["export_cycles"] + large["import_cycles"]) / (
        small["export_cycles"] + small["import_cycles"]
    )
    assert 0.3 * ratio < cost_ratio < 1.7 * ratio
    # Sealing overhead is bounded: blob ~= memory + O(KB) of metadata.
    for footprint in footprints:
        assert result[footprint]["blob_bytes"] < footprint + (64 << 10) + footprint // 8


#: Every experiment, in run order: the paper's E1-E7, the E8/E9
#: extensions, then the design ablations.  Entries without size knobs
#: run their runner's defaults at both scales.
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("E1", run_vcpu_switch_experiment,
               {"iterations": 50}, {"iterations": 200}, _report_e1, _check_e1),
    Experiment("E2", run_switch_path_experiment,
               {"iterations": 50}, {"iterations": 200}, _report_e2, _check_e2),
    Experiment("E3", run_page_fault_experiment,
               {"pages": 512}, {"pages": 2048}, _report_e3, _check_e3),
    Experiment("E4", run_rv8_experiment,
               {"scale": 0.01}, {"scale": 0.1}, _report_e4, _check_e4),
    Experiment("E5", run_coremark_experiment,
               {"iterations": 1_500}, {"iterations": 10_000}, _report_e5, _check_e5),
    Experiment("E6", run_redis_experiment,
               {"requests": 300, "rounds": 1}, {"requests": 2_000, "rounds": 3},
               _report_e6, _check_e6),
    # The quick grid scales file and cache sizes jointly, which keeps
    # the streamed fraction that drives the overhead.
    Experiment("E7", run_iozone_experiment,
               {"size_scale": 4}, {"size_scale": 1}, _report_e7, _check_e7),
    Experiment("E8", run_ipc_experiment,
               {"message_sizes": DEFAULT_MESSAGE_SIZES, "rounds": 16},
               {"message_sizes": DEFAULT_MESSAGE_SIZES, "rounds": 64},
               _report_e8, _check_e8),
    Experiment("E9", run_cluster_experiment,
               _E9_QUICK, _E9_FULL, _report_e9, _check_e9),
    Experiment("block_size", run_block_size_ablation, {}, {},
               _report_block_size, _check_block_size),
    Experiment("page_cache", run_page_cache_ablation, {}, {},
               _report_page_cache, _check_page_cache),
    Experiment("shared_premap", run_shared_premap_ablation, {}, {},
               _report_shared_premap, _check_shared_premap),
    Experiment("redis_pipelining", run_redis_pipelining, {}, {},
               _report_redis_pipelining, _check_redis_pipelining),
    Experiment("tlb_flush", run_tlb_flush_ablation, {}, {},
               _report_tlb_flush, _check_tlb_flush),
    Experiment("scalability", run_scalability, {}, {},
               _report_scalability, _check_scalability),
    Experiment("migration_cost", run_migration_cost, {}, {},
               _report_migration_cost, _check_migration_cost),
)
