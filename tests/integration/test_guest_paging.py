"""Integration: a confidential guest running with its own stage-1 paging.

The compatibility claim of VM-based TEEs: the guest kernel's virtual
memory management works unmodified.  The guest builds Sv39 tables in its
own (secure) memory with ordinary stores; the translator then performs
real two-stage walks (VS-stage over G-stage) for every access.
"""

import pytest

from repro import Machine, MachineConfig
from repro.errors import SecurityViolation
from repro.guest.paging import GuestPageTableBuilder
from repro.mem.physmem import PAGE_SIZE
from tests.generic_path import force_generic_path


@pytest.fixture
def paged_guest(machine):
    session = machine.launch_confidential_vm(image=b"paging-guest" * 100)
    return machine, session


def test_identity_plus_high_mapping(paged_guest):
    machine, session = paged_guest
    dram = session.layout.dram_base

    def workload(ctx):
        builder = GuestPageTableBuilder(ctx, table_region_gpa=dram + (64 << 20))
        data_gpa = dram + (32 << 20)
        ctx.store(data_gpa, 0xD47A)  # populate while still Bare
        # A kernel-style high virtual mapping onto that physical page,
        # plus identity mappings so the table region stays reachable.
        kva = 0x20_0000_0000  # within 39 bits
        builder.map(kva, data_gpa)
        for offset in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            builder.map(dram + (64 << 20) + offset, dram + (64 << 20) + offset)
        builder.map(data_gpa, data_gpa)
        builder.enable()
        value = ctx.load(kva)
        also = ctx.load(data_gpa)
        builder.disable()
        return value, also

    result = machine.run(session, workload)
    assert result["workload_result"] == (0xD47A, 0xD47A)


def test_sequences_through_high_mapping_match_generic_path():
    """load_seq/store_seq/touch_seq with vsatp set take the generic path.

    The engine step declines every access of a paging guest, so each
    sequence must be bit-identical to a machine forced onto the generic
    path -- and read back what it wrote through the kernel mapping and
    through a low alias whose GVA is itself a (different) guest-DRAM GPA.
    """
    kva = 0x20_0000_0000  # within 39 bits
    values = [0xC0DE_0000 + i for i in range(16)]

    def workload(ctx):
        dram = ctx.session.layout.dram_base
        table_region = dram + (64 << 20)
        data_gpa = dram + (32 << 20)
        alias = data_gpa + (1 << 20)
        builder = GuestPageTableBuilder(ctx, table_region_gpa=table_region)
        ctx.touch_seq(data_gpa + page * PAGE_SIZE for page in range(2))  # rest fault under paging
        for page in range(4):
            builder.map(kva + page * PAGE_SIZE, data_gpa + page * PAGE_SIZE)
            builder.map(alias + page * PAGE_SIZE, data_gpa + page * PAGE_SIZE)
        for offset in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            builder.map(table_region + offset, table_region + offset)
        builder.enable()
        ctx.store_seq(kva, values, size=8, stride=PAGE_SIZE // 4)
        paged = ctx.load_seq(kva, 16, size=8, stride=PAGE_SIZE // 4)
        ctx.touch_seq(kva + page * PAGE_SIZE for page in range(4))
        aliased = ctx.load_seq(alias, 16, size=8, stride=PAGE_SIZE // 4)
        builder.disable()
        bare = ctx.load_seq(data_gpa, 16, size=8, stride=PAGE_SIZE // 4)
        return paged, aliased, bare

    outcomes = []
    for generic in (False, True):
        machine = Machine(MachineConfig())
        if generic:
            force_generic_path(machine)
        session = machine.launch_confidential_vm(image=b"paging-guest" * 100)
        result = machine.run(session, workload)["workload_result"]
        tlb = machine.translator.tlb
        outcomes.append((
            result,
            machine.ledger.total,
            machine.ledger.by_category(),
            (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes, len(tlb)),
            dict(machine.monitor.fault_stage_counts),
        ))
    assert outcomes[0][0] == (values, values, values)
    assert outcomes[0] == outcomes[1]


def test_unmapped_gva_faults_to_guest_not_host(paged_guest):
    """A VS-stage miss is the guest's own problem: CVM delegation sends it
    to VS mode, never to the hypervisor or the SM's exit path."""
    machine, session = paged_guest
    dram = session.layout.dram_base

    def workload(ctx):
        builder = GuestPageTableBuilder(ctx, table_region_gpa=dram + (64 << 20))
        for offset in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            builder.map(dram + (64 << 20) + offset, dram + (64 << 20) + offset)
        builder.enable()
        exits_before = session.cvm.exit_count
        try:
            ctx.load(0x30_0000_0000)  # never mapped
        except SecurityViolation as violation:
            # Our Bare-oriented guest kernel model cannot demand-page, so
            # the engine reports the would-be guest-internal fault; what
            # matters here is that no CVM exit happened for it.
            assert "VS-delegated" in str(violation)
        builder.disable()
        return session.cvm.exit_count - exits_before

    result = machine.run(session, workload)
    assert result["workload_result"] == 0


def test_write_protection_enforced_by_guest_tables(paged_guest):
    machine, session = paged_guest
    dram = session.layout.dram_base

    def workload(ctx):
        builder = GuestPageTableBuilder(ctx, table_region_gpa=dram + (64 << 20))
        ro_gpa = dram + (40 << 20)
        ctx.store(ro_gpa, 7)
        builder.map(0x10_0000_0000, ro_gpa, writable=False)
        for offset in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            builder.map(dram + (64 << 20) + offset, dram + (64 << 20) + offset)
        builder.enable()
        readable = ctx.load(0x10_0000_0000)
        try:
            ctx.store(0x10_0000_0000, 9)
            stored = True
        except SecurityViolation:
            stored = False  # guest-internal store page fault (VS-delegated)
        builder.disable()
        return readable, stored

    result = machine.run(session, workload)
    assert result["workload_result"] == (7, False)


def test_guest_tables_live_in_secure_memory(paged_guest):
    """The guest's own page tables are guest data: secure-pool frames."""
    machine, session = paged_guest
    dram = session.layout.dram_base
    table_region = dram + (64 << 20)

    def workload(ctx):
        builder = GuestPageTableBuilder(ctx, table_region_gpa=table_region)
        builder.map(0x10_0000_0000, dram + (40 << 20))
        return builder.root_gpa

    machine.run(session, workload)
    from repro.mem.pagetable import Sv39x4

    class Raw:
        def read_u64(self, addr):
            return machine.dram.read_u64(addr)

    result = Sv39x4().walk(Raw(), session.cvm.hgatp_root, table_region)
    assert machine.monitor.pool.contains(result.pa, PAGE_SIZE)
