"""The shared-subtree range mapper against the per-page loop it replaced.

``map_per_page`` is the hypervisor's former one-page mapper, verbatim,
and ``use_per_page_mapper`` shadows a machine's range mapper with the
loop its callers used to run over it.  Every scenario runs on two fresh
machines, one per mapper, and must leave the same DRAM bytes (subtree
and leaf-table pages included), the same allocation order and the same
ledger.
"""

import dataclasses

import pytest

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS, Category
from repro.errors import TrapRaised
from repro.hyp.hypervisor import _SHARED_FLAGS, _HypAccessor
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause
from repro.mem.physmem import PAGE_SIZE


def map_per_page(self, accessor, hart, subtree_pa, gpa, pa, flags):
    """Map a page under a shared level-1 table the hypervisor owns.

    The subtree root covers 1 GiB (a stage-2 root slot); levels below
    it are normal Sv39x4 geometry.
    """
    level1_index = (gpa >> 21) & 0x1FF
    slot = subtree_pa + 8 * level1_index
    pte = accessor.read_u64(slot)
    if not pte & 1:
        leaf_table = self._alloc_table_page(hart)
        accessor.write_u64(slot, (leaf_table >> 12) << 10 | 1)
        pte = accessor.read_u64(slot)
    leaf_table = (pte >> 10) << 12
    leaf_index = (gpa >> 12) & 0x1FF
    accessor.write_u64(leaf_table + 8 * leaf_index, (pa >> 12) << 10 | flags | 1)
    self.ledger.charge(Category.PAGE_WALK, 2 * self.costs.page_walk_level)


def use_per_page_mapper(machine):
    """Route ``machine``'s shared mappings through the per-page loop."""
    hyp = machine.hypervisor

    def map_range(hart, subtree, gpa, pa, size, flags):
        accessor = _HypAccessor(hyp.bus, hart)
        for offset in range(0, size, PAGE_SIZE):
            map_per_page(hyp, accessor, hart, subtree, gpa + offset, pa + offset, flags)

    hyp._map_range_in_subtree = map_range
    return machine


def record_allocations(machine):
    """Log every frame the hypervisor's allocator hands out, in order."""
    allocator = machine.hypervisor.allocator
    log = []
    alloc = allocator.alloc

    def logged(*args, **kwargs):
        log.append(alloc(*args, **kwargs))
        return log[-1]

    allocator.alloc = logged
    return log


def dram_bytes(machine):
    return {index: bytes(page) for index, page in machine.dram._pages.items()}


def state(machine, log):
    return (
        dram_bytes(machine),
        list(log),
        machine.ledger.total,
        machine.ledger.by_category(),
    )


def launch(machine, window):
    return machine.hypervisor.host_create_cvm(
        machine.monitor, machine.hart, image=b"x", shared_window=window
    )


def premapped(window):
    def scenario(machine):
        launch(machine, window)

    return scenario


def extension_across_a_table_boundary(machine):
    """1 MiB premapped, then 2 MiB more: starts mid-table, crosses 2 MiB."""
    handle = launch(machine, 1 << 20)
    gpa = machine.hypervisor.on_share_request(machine.monitor, handle.cvm_id, 2 << 20)
    assert gpa == handle.layout.shared_base + (1 << 20)


def shared_faults(machine):
    """One demand-mapped page in a covered table, one in a new table."""
    handle = launch(machine, 1 << 20)
    base = handle.layout.shared_base
    for gpa in (base + (1 << 20) + 0x18, base + (5 << 20) + 0x123):
        machine.hypervisor._fix_shared_fault(machine.hart, handle, gpa)


SCENARIOS = {
    "window_4k": premapped(4 << 10),
    "window_2m": premapped(2 << 20),
    "window_2m_4k": premapped((2 << 20) + (4 << 10)),
    "window_4m": premapped(4 << 20),
    "share_request": extension_across_a_table_boundary,
    "fix_shared_fault": shared_faults,
}


#: Fractional costs: each charge floors, so a per-run charge must equal
#: the sum of the per-page charges it replaced, not their real total.
FRACTIONAL_COSTS = dataclasses.replace(DEFAULT_COSTS, page_walk_level=2.7)


@pytest.mark.parametrize("costs", [DEFAULT_COSTS, FRACTIONAL_COSTS], ids=["costs", "fractional"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_range_mapper_matches_the_per_page_loop(name, costs):
    runs = []
    for reference in (False, True):
        machine = Machine(MachineConfig(costs=costs))
        if reference:
            use_per_page_mapper(machine)
        log = record_allocations(machine)
        SCENARIOS[name](machine)
        runs.append(state(machine, log))
    assert runs[0] == runs[1]


def _plant_secure_leaf_table(machine):
    """Point an unused level-1 slot of a CVM's subtree into the pool."""
    handle = launch(machine, 1 << 20)
    subtree = handle.shared_subtrees[handle.layout.shared_base >> 30]
    secure_page = machine.monitor.pool.regions[0][0]
    machine.dram.write_u64(subtree + 8 * 3, (secure_page >> 12) << 10 | 1)
    machine.hart.mode = PrivilegeMode.HS
    return handle, subtree, secure_page


@pytest.mark.parametrize("reference", [False, True], ids=["range", "per_page"])
def test_leaf_store_into_secure_memory_faults(reference):
    """A leaf table planted in the pool: the PTE store is denied by PMP.

    Both mappers raise the same store access fault at the table's first
    PTE and leave DRAM untouched.
    """
    machine = Machine(MachineConfig())
    if reference:
        use_per_page_mapper(machine)
    handle, subtree, secure_page = _plant_secure_leaf_table(machine)
    gpa = handle.layout.shared_base + (6 << 20)
    backing = machine.host_allocator.alloc(size=4 * PAGE_SIZE)
    before = dram_bytes(machine)
    with pytest.raises(TrapRaised) as trap:
        machine.hypervisor._map_range_in_subtree(
            machine.hart, subtree, gpa, backing, 4 * PAGE_SIZE, _SHARED_FLAGS
        )
    assert trap.value.cause is ExceptionCause.STORE_ACCESS_FAULT
    assert trap.value.tval == secure_page
    assert dram_bytes(machine) == before


def test_range_leaving_its_subtree_is_refused():
    machine = Machine(MachineConfig())
    handle = launch(machine, 1 << 20)
    subtree = handle.shared_subtrees[handle.layout.shared_base >> 30]
    last_page = handle.layout.shared_base + (1 << 30) - PAGE_SIZE
    with pytest.raises(ValueError, match="1 GiB subtree"):
        machine.hypervisor._map_range_in_subtree(
            machine.hart, subtree, last_page, handle.shared_window_base,
            2 * PAGE_SIZE, _SHARED_FLAGS,
        )
