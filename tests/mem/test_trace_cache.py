"""Engine equivalence: the engine step must be bit-identical to the generic path.

Every guest access runs the engine step (``Machine._access_one``) and
falls back to ``Machine.guest_access`` when the step declines.  The
contract: every ledger total, per-category count, TLB statistic, and
byte of guest memory matches a machine whose every access takes the
generic path.  These tests run the same workload on both machines and
diff the full architectural fingerprint, across strides, sizes,
page-crossing shapes, first-touch fault storms, timer ticks landing
mid-sequence, flushes, remaps and non-integral costs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS
from repro.mem.physmem import PAGE_SIZE
from tests.generic_path import force_generic_path

IMAGE = b"trace-cache-equivalence" * 8


def _fingerprint(machine):
    tlb = machine.translator.tlb
    return {
        "total": machine.ledger.total,
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes, len(tlb)),
    }


def _page_bytes(machine, session, gva):
    """Current contents of the page backing ``gva`` (uncharged probe)."""
    pa, _flags, _levels, _slot = machine.translator.probe_gpa(
        session.hgatp_root, gva & ~(PAGE_SIZE - 1)
    )
    assert pa is not None, f"page at {gva:#x} not mapped"
    return bytes(machine.dram.read(pa & ~(PAGE_SIZE - 1), PAGE_SIZE))


def _count_steps(machine) -> list:
    """Record the PA of every access the engine step completes on ``machine``."""
    steps = []
    step = machine._access_one

    def counted(session, gva, access):
        pa = step(session, gva, access)
        if pa is not None:
            steps.append(pa)
        return pa

    machine._access_one = counted
    return steps


def _run_pair(workload, repeats=1, kind="cvm", check_pages=(), **cfg):
    """Run ``workload`` on an engine and a generic-path machine; diff everything.

    Returns ``(engine_machine, engine_session, workload_results)``.
    """
    outcomes = []
    for generic in (False, True):
        machine = Machine(MachineConfig(**cfg))
        if generic:
            force_generic_path(machine)
        else:
            steps = _count_steps(machine)
        if kind == "cvm":
            session = machine.launch_confidential_vm(image=IMAGE)
        else:
            session = machine.launch_normal_vm("equiv")
        results = [
            machine.run(session, workload)["workload_result"]
            for _ in range(repeats)
        ]
        outcomes.append((machine, session, results))
    (engine, engine_session, engine_results) = outcomes[0]
    (generic, generic_session, generic_results) = outcomes[1]
    assert steps, "the engine step completed no access"
    assert engine_results == generic_results
    assert _fingerprint(engine) == _fingerprint(generic)
    for gva in check_pages:
        assert _page_bytes(engine, engine_session, gva) == _page_bytes(
            generic, generic_session, gva
        )
    return engine, engine_session, engine_results


class TestSeqEquivalence:
    @pytest.mark.parametrize(
        "size,stride,count",
        [
            (8, None, 200),            # dense aligned
            (8, 24, 300),              # unaligned crossings inside pages
            (8, PAGE_SIZE, 64),        # one access per page, first-touch faults
            (4, 4, 256),               # sub-word dense
            (1, 509, 400),             # byte accesses striding across pages
            (8, PAGE_SIZE + 8, 48),    # page-crossing stride, misaligned pages
        ],
    )
    def test_store_then_load_seq(self, size, stride, count):
        base_off = 24 << 20

        def workload(ctx):
            base = ctx.session.layout.dram_base + base_off
            values = [(i * 2654435761) & 0xFFFF_FFFF for i in range(count)]
            ctx.store_seq(base, values, size=size, stride=stride)
            # Same shape twice more: the later passes are all TLB hits.
            first = ctx.load_seq(base, count, size=size, stride=stride)
            second = ctx.load_seq(base, count, size=size, stride=stride)
            third = ctx.load_seq(base, count, size=size, stride=stride)
            assert first == second == third
            return first

        step = size if stride is None else stride
        pages = {base_off + i * step for i in range(count)}
        cached, session, results = _run_pair(
            workload,
            repeats=3,  # later runs re-walk: each run's exit flushes the TLB
            check_pages=[
                0x8000_0000 + off for off in sorted(pages)[:8]
            ],
        )
        mask = (1 << (8 * min(size, 8))) - 1
        assert results[0][:4] == [(i * 2654435761) & 0xFFFF_FFFF & mask for i in range(4)]

    def test_touch_seq_rotating_working_set(self):
        """The redis shape: touch a fixed set, then rotating 10-page windows."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (64 << 20)
            pages = [base + i * PAGE_SIZE for i in range(64)]
            ctx.touch_seq(pages)
            for request in range(120):
                offset = (request * 10) % 64
                ctx.touch_seq(pages[(offset + k) % 64] for k in range(10))
                ctx.compute(5_000)
            return ctx.ledger.total

        _run_pair(workload, repeats=2)

    @pytest.mark.parametrize("padding", [1, 3, 17, 999, 65_521])
    def test_timer_tick_lands_mid_sequence(self, padding):
        """A tick firing inside an all-hit sequence lands on the same access."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (32 << 20)
            # Warm the pages and the TLB.
            warm = ctx.load_seq(base, 256, size=8, stride=PAGE_SIZE // 4)
            tick = ctx.machine.config.timer_tick_cycles
            # Park just short of the next tick so it fires mid-sequence.
            until = ctx.machine.clint.read_mtimecmp(ctx.session.hart.hart_id) - ctx.ledger.total
            ctx.compute(max(1, until - padding))
            replay = ctx.load_seq(base, 256, size=8, stride=PAGE_SIZE // 4)
            assert warm == replay
            return ctx.ledger.total

        _run_pair(workload)

    def test_store_seq_replay_with_fresh_values(self):
        """A repeated store sequence writes the *new* values."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (40 << 20)
            ctx.store_seq(base, [0xAA] * 32, stride=PAGE_SIZE)
            ctx.store_seq(base, [0xBB] * 32, stride=PAGE_SIZE)  # same shape, new values
            return ctx.load_seq(base, 32, stride=PAGE_SIZE)

        _, _, results = _run_pair(
            workload, check_pages=[(40 << 20) + 0x8000_0000]
        )
        assert results[0] == [0xBB] * 32

    def test_normal_vm_sequences(self):
        """Normal VMs take KVM fault paths; the engine must match those too."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (8 << 20)
            ctx.store_seq(base, list(range(96)), stride=PAGE_SIZE // 2)
            out = ctx.load_seq(base, 96, stride=PAGE_SIZE // 2)
            out2 = ctx.load_seq(base, 96, stride=PAGE_SIZE // 2)
            assert out == out2
            return out

        _, _, results = _run_pair(workload, repeats=2, kind="normal")
        assert results[0] == list(range(96))

    def test_single_access_fast_path(self):
        """load/store/read_bytes/write_bytes ride the one-access engine."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (48 << 20)
            for i in range(64):
                ctx.store(base + i * 8, i * 3)
            total = sum(ctx.load(base + i * 8) for i in range(64))
            blob = bytes(range(256)) * 40  # crosses pages
            ctx.write_bytes(base + 0x3F00, blob)
            assert ctx.read_bytes(base + 0x3F00, len(blob)) == blob
            return total

        _, _, results = _run_pair(workload, repeats=2)
        assert results[0] == sum(i * 3 for i in range(64))


class TestInvalidation:
    def test_remap_invalidates_traces(self):
        """A table mutation between sequences must reach the next one."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (56 << 20)
            ctx.store_seq(base, [7] * 16, stride=PAGE_SIZE)
            first = ctx.load_seq(base, 16, stride=PAGE_SIZE)
            # Balloon the pages back to the SM (unmaps + scrubs), then
            # re-touch: the faults must remap fresh zeroed frames, not
            # resurrect the old PAs.
            freed = ctx.reclaim_pages(base, 16)
            assert freed == 16
            second = ctx.load_seq(base, 16, stride=PAGE_SIZE)
            return first, second

        _, _, results = _run_pair(workload, check_pages=[(56 << 20) + 0x8000_0000])
        first, second = results[0]
        assert first == [7] * 16
        assert second == [0] * 16

    def test_flush_between_replays(self):
        """World-switch hfences between runs turn hit runs into miss runs."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (20 << 20)
            out = ctx.load_seq(base, 48, stride=PAGE_SIZE)
            out2 = ctx.load_seq(base, 48, stride=PAGE_SIZE)
            assert out == out2
            return out

        # Each machine.run() exits and re-enters the CVM, flushing the
        # TLB: run 1 faults the pages in, later runs re-walk them.
        _run_pair(workload, repeats=3)

    def test_non_integral_costs_run_the_engine(self):
        """Fractional costs floor the same way on the engine and generic paths."""
        costs = dataclasses.replace(DEFAULT_COSTS, tlb_hit=0.5, page_walk_level=2.7)

        def workload(ctx):
            base = ctx.session.layout.dram_base + (16 << 20)
            pages = [base + i * PAGE_SIZE for i in range(96)]
            ctx.store_seq(base, list(range(96)), stride=PAGE_SIZE)  # first-touch faults
            for _ in range(50):
                ctx.touch_seq(pages)  # all TLB hits
            return ctx.load_seq(base, 96, stride=PAGE_SIZE)

        _, _, results = _run_pair(workload, repeats=2, costs=costs)
        assert results[0] == list(range(96))
