#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 zionbench/run.py --workload kv_cluster --seed 1 --seconds 10 --trace 0

Runs one full-size episode of the workload (fresh machines; see
``workloads.py``) for the simulated metrics, then, with ``--trace 0``,
smaller speed episodes until ``--seconds`` have passed for the host-time
metrics, or, with ``--trace 1``, traced full-size episodes (alternating
with untraced ones) for the per-layer metrics.  It checks every
episode's outputs and that episodes of one size agree bit for bit on the
simulated results, then prints one line per metric and, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed.  See README.md in this
directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where the traced run writes its spans (inside the checkout).
OUTPUT_DIR = ROOT / ".zionbench"
#: Speed episodes per untraced run, at least.
MIN_SPEED_EPISODES = 5


def import_simulator() -> None:
    """Put the checkout's ``src`` on the path, or exit if it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"zionbench: simulator sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


@dataclasses.dataclass
class Episode:
    """One measured episode.

    ``fingerprint`` holds everything simulated, which must be identical
    for a given seed and size.  ``workload`` (with its machines) is kept
    only when asked for, so that speed episodes do not pile up memory.
    """

    scale: float
    setup_s: float
    wall_s: float
    ops: int
    attempted: int
    failed: int
    failures: list
    counters: dict
    fingerprint: dict
    workload: object = None
    tracer: object = None
    #: Process peak memory right after this episode (the full-size one).
    peak_rss_mb: float = 0.0
    #: Host-speed probe taken just before the episode (0 when not probed).
    probe_s: float = 0.0

    def at_reference_speed(self, seconds: float, exponent: float) -> float:
        """``seconds`` of this episode as the reference host would take them."""
        from zionbench.hostspeed import at_reference_speed

        return at_reference_speed(seconds, self.probe_s, exponent)


def run_episode(cls, seed: int, scale: float, tracer=None, keep: bool = False,
                probe=None) -> Episode:
    """Set up, run (timed) and check one episode, optionally traced.

    With a :class:`~zionbench.hostspeed.HostProbe`, the host's speed is
    measured just before the episode.
    """
    from zionbench import workloads
    from zionbench.metrics import counters, delta, digest

    gc.collect()
    probe_s = probe.measure() if probe is not None else 0.0
    workload = cls(seed, scale)
    if tracer is not None:
        tracer.install(workloads, workloads.GUEST_NAMES, (REPLAY,))
    try:
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        before = counters(workload)
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        ops = workload.run()
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        grown = delta(before, counters(workload))
        workload.check()
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.remove()
    fingerprint = {
        "ops": ops,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "sim_cycles": workload.sim_cycles,
        "latencies": digest(workload.latencies),
        "counters": grown,
        "fidelity": workload.fidelity(),
    }
    return Episode(
        scale, setup_s, wall_s, ops, workload.attempted, workload.failed,
        workload.failures[:5], grown, fingerprint,
        workload if keep or tracer is not None else None, tracer,
        probe_s=probe_s,
    )


#: The trace cache keeps no counters of its own, so the traced run counts
#: the outcomes of the machine's replay step, the one private method it wraps.
REPLAY = "repro.machine.Machine._replay_seq"


def make_tracer():
    """A :class:`LayerTracer` with the outcome hooks the metrics read."""
    from zionbench.tracing import LayerTracer

    tracer = LayerTracer()
    tracer.endpoints = []

    def add(name, amount):
        tracer.tally[name] += amount

    from repro import machine

    hooks = {
        REPLAY: lambda t, r: add("tracecache.replays", r is not machine._REPLAY_REJECT),
        "repro.sm.monitor.SecureMonitor.fault_fix_fast":
            lambda t, r: add("fault_fast", bool(r)),
        "repro.sm.migration.export_cvm":
            lambda t, r: add("blob_bytes", len(r)),
        "repro.verify.check_invariants":
            lambda t, r: add("violations", len(r)),
        "repro.faults.invariants.check_postconditions":
            lambda t, r: add("violations", len(r)),
        "repro.ipc.endpoint.ChannelEndpoint.create":
            lambda t, r: t.endpoints.append(r),
        "repro.ipc.endpoint.ChannelEndpoint.connect":
            lambda t, r: t.endpoints.append(r),
        "repro.ipc.endpoint.ChannelEndpoint.send":
            lambda t, r: add("ipc.messages", bool(r)),
        "repro.ipc.endpoint.ChannelEndpoint.send_many":
            lambda t, r: add("ipc.messages", r),
        "repro.ipc.endpoint.ChannelEndpoint.recv":
            lambda t, r: add("ipc.recv_empty", r is None),
        "repro.ipc.endpoint.ChannelEndpoint.recv_many":
            lambda t, r: add("ipc.recv_empty", not r),
    }
    for key, fn in hooks.items():
        tracer.hook(key, fn)
    return tracer


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(reference, speed) -> dict:
    """Simulated metrics of the full-size episode, host ones of the speed episodes.

    Host times are taken at reference host speed (see ``hostspeed.py``),
    episode by episode, and the medians reported.
    """
    from zionbench.hostspeed import TIMED_EXPONENT
    from zionbench.metrics import percentile, tail_percentile
    from zionbench.workloads import CYCLES_PER_US

    first = reference[0]
    samples = first.workload.latencies
    tail = tail_percentile(len(samples))
    p50 = percentile(samples, 50.0)
    p_tail = percentile(samples, tail)
    return {
        "setup_s": statistics.median(e.at_reference_speed(e.setup_s, 1.0) for e in speed),
        "ops_per_s": statistics.median(
            e.ops / e.at_reference_speed(e.wall_s, TIMED_EXPONENT) for e in speed
        ),
        "peak_rss_mb": first.peak_rss_mb,
        "sim_cycles_per_op": first.workload.sim_cycles / first.ops,
        "sim_p50_cycles": p50,
        "sim_tail_cycles": p_tail,
    }, {
        "speed_episodes": len(speed),
        "speed_scale": speed[0].scale,
        "speed_episode_ops": speed[0].ops,
        "host_probe_s_median": statistics.median(e.probe_s for e in speed),
        "raw_ops_per_s_median": statistics.median(e.ops / e.wall_s for e in speed),
        "raw_setup_s_median": statistics.median(e.setup_s for e in speed),
        "latency_samples": len(samples),
        "tail_percentile": tail,
        "sim_p50_us": p50 / CYCLES_PER_US,
        "sim_tail_us": p_tail / CYCLES_PER_US,
    }


def per_layer(untraced, traced) -> dict:
    """The per-layer metrics: traced self times, counters, call tallies."""
    from repro.cycles import Category
    from zionbench.hostspeed import TIMED_EXPONENT as EXP
    from zionbench.metrics import STAGES, ratio

    runs = len(traced)
    episode = traced[0]
    ops = episode.ops
    c = episode.counters
    self_s: dict = {}
    units: dict = {}
    for e in traced:
        for layer, seconds in e.tracer.layer_self_seconds().items():
            self_s[layer] = self_s.get(layer, 0.0) + e.at_reference_speed(seconds, EXP) / runs
        for unit in ("sm.world_switch", "sm.migration"):
            seconds = e.tracer.unit_self_seconds(unit)
            units[unit] = units.get(unit, 0.0) + e.at_reference_speed(seconds, EXP) / runs
    verify_total = sum(
        e.at_reference_speed(e.tracer.unit_total_seconds("verify"), EXP) for e in traced
    ) / runs
    # Call counts and tallies are deterministic: read them off one episode.
    tracer = episode.tracer
    calls = tracer.count
    tally = tracer.tally
    endpoints = tracer.endpoints
    faults = sum(c[f"faults.{name}"] for name, _stage in STAGES)
    rung = sum(ep.doorbells_rung for ep in endpoints)
    suppressed = sum(ep.doorbells_suppressed for ep in endpoints)
    recv_calls = calls("repro.ipc.endpoint.ChannelEndpoint.recv",
                       "repro.ipc.endpoint.ChannelEndpoint.recv_many")
    lookups = calls("repro.mem.tracecache.TraceCache.get")
    fleet = getattr(episode.workload, "orchestrator", None)
    untraced_wall = statistics.median(
        e.at_reference_speed(e.wall_s, EXP) for e in untraced if e.probe_s
    )
    traced_wall = statistics.median(e.at_reference_speed(e.wall_s, EXP) for e in traced)
    out = {
        "machine.self_s": self_s["machine"],
        "machine.guest_access.calls": calls("repro.machine.Machine.guest_access"),
        "machine.run_seq.calls": calls("repro.machine.Machine.run_seq"),
        "mem.self_s": self_s["mem"],
        "mem.tlb.hits": c["tlb.hits"],
        "mem.tlb.misses": c["tlb.misses"],
        "mem.tlb.hit_ratio": ratio(c["tlb.hits"], c["tlb.hits"] + c["tlb.misses"]),
        "mem.tlb.flushes": c["tlb.flushes"],
        "mem.resident_pages": c["resident_pages"],
        "mem.tracecache.lookups": lookups,
        "mem.tracecache.records": calls("repro.mem.tracecache.TraceCache.put"),
        "mem.tracecache.hit_ratio": ratio(tally["tracecache.replays"], lookups),
        "sm.self_s": self_s["sm"],
        **{f"sm.faults.{name}": c[f"faults.{name}"] for name, _stage in STAGES},
        "sm.fault_fast_ratio": ratio(tally["fault_fast"], faults),
        "sm.world_switches": calls(
            "repro.sm.world_switch.WorldSwitch.enter_cvm",
            "repro.sm.world_switch.WorldSwitch.exit_to_normal",
        ),
        "sm.world_switch.self_s": units["sm.world_switch"],
        "sm.ecalls": tracer.count_prefix("repro.sm.monitor.SecureMonitor.ecall_"),
        "isa.self_s": self_s["isa"],
        "sm.migration.self_s": units["sm.migration"],
        "sm.migration.blob_bytes": tally["blob_bytes"],
        "fleet.self_s": self_s["fleet"],
        "fleet.migrations": fleet.migrations if fleet else 0,
        "fleet.migrations_failed": len(fleet.failed) if fleet else 0,
        "verify.self_s": self_s["verify"],
        "verify.total_s": verify_total,
        "verify.sweeps": calls("repro.verify.check_invariants",
                               "repro.faults.invariants.check_postconditions"),
        "verify.violations": tally["violations"],
        "hyp.self_s": self_s["hyp"],
        "hyp.mmio_exits": c["mmio_exits"],
        "hyp.virtio.kicks": c["virtio.kicks"],
        "hyp.virtio.irqs": c["virtio.irqs"],
        "hyp.pool_expansions": c["pool_expansions"],
        "hyp.sched.parks": calls("repro.hyp.scheduler.RoundRobinScheduler.block"),
        "guest.self_s": self_s["guest"],
        "ipc.self_s": self_s["ipc"],
        "ipc.messages": tally["ipc.messages"],
        "ipc.doorbells": rung,
        "ipc.doorbell_suppress_ratio": ratio(suppressed, rung + suppressed),
        "ipc.recv_empty_ratio": ratio(tally["ipc.recv_empty"], recv_calls),
        "cycles.self_s": self_s["cycles"],
        **{f"cycles.{cat.name}": c[f"cycles.{cat.name}"] / ops for cat in Category},
        "workloads.self_s": self_s["workloads"],
        "trace.overhead_pct": (traced_wall / untraced_wall - 1.0) * 100.0,
    }
    return out, {
        "spans_dropped": tracer.spans_dropped,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        # The checker's time (callees included) apart from the system's.
        "system_under_test_s": traced_wall - verify_total,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float):
    """Run the episodes; returns (reference, traced, speed) episode lists.

    ``reference`` holds the untraced full-size episodes, ``traced`` the
    traced ones, ``speed`` the smaller episodes the host-time metrics
    come from.
    """
    from zionbench.hostspeed import HostProbe
    from zionbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    start = time.perf_counter()
    reference = [run_episode(cls, seed, scale, keep=True)]
    # The process has run only this workload so far: its peak memory.
    reference[0].peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    probe = HostProbe()
    traced, speed = [], []
    if trace:
        while not traced or time.perf_counter() - start < seconds:
            if traced:
                # Only the first traced workload and the last spans are
                # read; dropping the rest keeps later episodes as light.
                traced[-1].tracer.spans = []
                if len(traced) > 1:
                    traced[-1].workload = None
            traced.append(run_episode(cls, seed, scale, make_tracer(), probe=probe))
            reference.append(run_episode(cls, seed, scale, probe=probe))
    else:
        speed_scale = min(scale, cls.SPEED_SCALE)
        while len(speed) < MIN_SPEED_EPISODES or time.perf_counter() - start < seconds:
            speed.append(run_episode(cls, seed, speed_scale, probe=probe))
    return reference, traced, speed


def determinism_problems(*groups) -> list:
    """Episodes of one seed and size, traced or not, must simulate identically."""
    problems = []
    for group in groups:
        if not group:
            continue
        reference = group[0].fingerprint
        for index, episode in enumerate(group[1:], 1):
            got = episode.fingerprint
            diff = sorted(k for k in reference if reference[k] != got[k])
            if diff:
                label = "traced" if episode.tracer else "untraced"
                problems.append(
                    f"{label} episode {index} differs from the first in {', '.join(diff)}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every episode (smoke runs); default 1")
    args = parser.parse_args(argv)
    import_simulator()
    from zionbench.metrics import END_TO_END, PER_LAYER
    from zionbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    reference, traced, speed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    episodes = reference + traced + speed
    problems = []
    for index, episode in enumerate(episodes):
        problems += [f"episode {index}: {p}" for p in episode.failures]
    problems += determinism_problems(reference + traced, speed)

    print(f"workload {args.workload}  seed {args.seed}  episodes: {len(reference)} full-size,"
          f" {len(traced)} traced, {len(speed)} speed  (caches start empty in every episode)")
    if args.trace:
        values, notes = per_layer(reference, traced)
        declared = PER_LAYER
        OUTPUT_DIR.mkdir(exist_ok=True)
        spans_path = OUTPUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        traced[-1].tracer.write_spans(spans_path)
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values, notes = end_to_end(reference, speed)
        declared = END_TO_END
    fidelity = reference[0].workload.fidelity()
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    notes["error_rate"] = failed / attempted if attempted else 0.0
    for key, value in {**notes, **fidelity}.items():
        print(f"  {key:<32} {value}")
    for name, unit in declared:
        print(f"  {name:<32} {values[name]:<24.10g} {unit}")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
