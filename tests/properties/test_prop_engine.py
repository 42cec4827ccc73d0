"""Differential fuzzing of the guest-access engine against the generic path.

Hypothesis generates guest access programs over one confidential VM:
strided ``load_seq``/``store_seq``/``touch_seq`` and single loads and
stores, page-crossing shapes, balloon reclaims followed by a refault, and
MMIO and shared-region addresses, all under a short scheduler tick and
with integral or non-integral costs.  Each program runs on three machines:

- the engine step (``Machine._access_one``), falling back when it declines;
- every access through ``Machine.guest_access`` (``force_generic_path``);
- the engine step with a ``fault_observer`` installed.

All three must agree on the ledger (total and per category), the TLB
statistics, the SM's per-stage fault counts, the values the guest read
and the bytes of every page it touched.  The observer must be called once
per SM fault, without changing anything it observes.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS
from repro.errors import ReproError
from repro.mem.physmem import PAGE_SIZE
from tests.generic_path import force_generic_path

IMAGE = b"engine-differential" * 16
#: Private pages the programs aim at (8 MB into guest DRAM, past the image).
PRIVATE_OFF = 8 << 20
WINDOW_PAGES = 12
#: Pages whose contents are compared: the window plus the longest stride run.
CHECKED_PAGES = WINDOW_PAGES + 48

regions = st.sampled_from(["private", "private", "private", "shared", "mmio"])
offsets = st.integers(min_value=0, max_value=WINDOW_PAGES * PAGE_SIZE - 1)
sizes = st.sampled_from([1, 4, 8])
strides = st.sampled_from([None, 8, 24, 509, PAGE_SIZE, PAGE_SIZE + 8])
counts = st.integers(min_value=1, max_value=40)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
addresses = st.tuples(regions, offsets)

ops = st.one_of(
    st.tuples(st.just("load"), addresses, sizes),
    st.tuples(st.just("store"), addresses, u64, sizes),
    st.tuples(st.just("load_seq"), addresses, counts, sizes, strides),
    st.tuples(st.just("store_seq"), addresses, counts, sizes, strides, u64),
    st.tuples(st.just("touch_seq"), st.lists(addresses, min_size=1, max_size=24)),
    st.tuples(
        st.just("reclaim"),
        st.integers(min_value=0, max_value=WINDOW_PAGES - 1),
        st.integers(min_value=1, max_value=4),
    ),
    st.tuples(st.just("compute"), st.integers(min_value=1, max_value=30_000)),
)
programs = st.lists(ops, min_size=1, max_size=12)
ticks = st.sampled_from([15_000, 40_000, 120_000])
costs = st.sampled_from([
    DEFAULT_COSTS,
    dataclasses.replace(DEFAULT_COSTS, tlb_hit=0.5, page_walk_level=2.7),
])


def _address(layout, where) -> int:
    region, offset = where
    if region == "private":
        return layout.dram_base + PRIVATE_OFF + offset
    if region == "shared":
        return layout.shared_base + offset
    return layout.mmio_base + (offset & ~7)


def _execute(ctx, program) -> list:
    """Run ``program`` once; returns everything the guest observed."""
    layout = ctx.session.layout
    seen = []
    for op in program:
        kind = op[0]
        if kind == "load":
            seen.append(ctx.load(_address(layout, op[1]), op[2]))
        elif kind == "store":
            ctx.store(_address(layout, op[1]), op[2], op[3])
        elif kind == "load_seq":
            _, where, count, size, stride = op
            seen.append(ctx.load_seq(_address(layout, where), count, size, stride))
        elif kind == "store_seq":
            _, where, count, size, stride, seed = op
            values = [(seed * (i + 1) + i) & (1 << 64) - 1 for i in range(count)]
            ctx.store_seq(_address(layout, where), values, size, stride)
        elif kind == "touch_seq":
            ctx.touch_seq(_address(layout, where) for where in op[1])
        elif kind == "reclaim":
            gpa = layout.dram_base + PRIVATE_OFF + op[1] * PAGE_SIZE
            seen.append(ctx.reclaim_pages(gpa, op[2]))
            seen.append(ctx.load(gpa))  # refault the first reclaimed page
        else:
            ctx.compute(op[1])
    return seen


def _run(program, tick, cost_model, generic, observe):
    machine = Machine(MachineConfig(timer_tick_cycles=tick, costs=cost_model))
    if generic:
        force_generic_path(machine)
    calls = []
    if observe:
        machine.fault_observer = lambda kind, stage, cycles: calls.append(kind)
    session = machine.launch_confidential_vm(image=IMAGE)

    def workload(ctx):
        # Twice per run, and two runs: later passes are all TLB hits within
        # a run and re-walks after the exit's TLB flush.
        try:
            return _execute(ctx, program) + _execute(ctx, program)
        except ReproError as error:
            return [repr(error)]

    results = [machine.run(session, workload)["workload_result"] for _ in range(2)]
    tlb = machine.translator.tlb
    pages = []
    for base in (session.layout.dram_base + PRIVATE_OFF, session.layout.shared_base):
        for index in range(CHECKED_PAGES):
            pa = machine.translator.probe_gpa(
                session.hgatp_root, base + index * PAGE_SIZE
            )[0]
            pages.append(None if pa is None else bytes(machine.dram.read(pa, PAGE_SIZE)))
    fingerprint = {
        "results": results,
        "total": machine.ledger.total,
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes, len(tlb)),
        "fault_stages": dict(machine.monitor.fault_stage_counts),
        "pages": pages,
    }
    return fingerprint, calls


@settings(max_examples=40, deadline=None)
@given(program=programs, tick=ticks, cost_model=costs)
def test_engine_matches_generic_path(program, tick, cost_model):
    engine, _ = _run(program, tick, cost_model, generic=False, observe=False)
    generic, _ = _run(program, tick, cost_model, generic=True, observe=False)
    observed, calls = _run(program, tick, cost_model, generic=False, observe=True)
    assert engine == generic
    assert observed == engine
    assert calls == ["sm"] * sum(engine["fault_stages"].values())
