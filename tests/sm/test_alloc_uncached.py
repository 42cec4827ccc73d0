"""The no-page-cache allocator ablation path."""

import pytest

from repro.cycles import Category, CycleLedger, DEFAULT_COSTS
from repro.sm.alloc import AllocStage, HierarchicalAllocator, PoolExhausted
from repro.sm.secmem import SECURE_BLOCK_SIZE, SecureMemoryPool

BASE = 0x9000_0000


@pytest.fixture
def env():
    pool = SecureMemoryPool()
    pool.register_region(BASE, 2 * SECURE_BLOCK_SIZE)
    ledger = CycleLedger()
    allocator = HierarchicalAllocator(pool, ledger, DEFAULT_COSTS, use_page_cache=False)
    return pool, ledger, allocator


def test_every_allocation_is_stage_two(env):
    pool, ledger, allocator = env
    for _ in range(10):
        _pa, stage = allocator.alloc_page(1, 0)
        assert stage is AllocStage.NEW_BLOCK


def test_pages_unique_and_owned(env):
    pool, ledger, allocator = env
    seen = set()
    for _ in range(100):
        pa, _ = allocator.alloc_page(7, 0)
        assert pa not in seen
        seen.add(pa)
        assert pool.owner_of(pa) == 7


def test_every_allocation_pays_the_lock(env):
    pool, ledger, allocator = env
    allocator.alloc_page(1, 0)
    before = ledger.by_category()[Category.ALLOC]
    allocator.alloc_page(1, 0)
    delta = ledger.by_category()[Category.ALLOC] - before
    assert delta >= DEFAULT_COSTS.pool_lock_cost + DEFAULT_COSTS.block_unlink


def test_uncached_costs_more_than_cached_per_page():
    pool = SecureMemoryPool()
    pool.register_region(BASE, 2 * SECURE_BLOCK_SIZE)
    ledger = CycleLedger()
    cached = HierarchicalAllocator(pool, ledger, DEFAULT_COSTS, use_page_cache=True)
    cached.alloc_page(1, 0)  # absorb the stage-2 refill
    with ledger.span() as cached_span:
        cached.alloc_page(1, 0)

    pool2 = SecureMemoryPool()
    pool2.register_region(BASE, 2 * SECURE_BLOCK_SIZE)
    uncached = HierarchicalAllocator(pool2, ledger, DEFAULT_COSTS, use_page_cache=False)
    uncached.alloc_page(1, 0)
    with ledger.span() as uncached_span:
        uncached.alloc_page(1, 0)
    assert cached_span.cycles < uncached_span.cycles


def test_exhaustion_still_raises(env):
    pool, ledger, allocator = env
    pages = 2 * SECURE_BLOCK_SIZE // 4096
    for _ in range(pages):
        allocator.alloc_page(1, 0)
    with pytest.raises(PoolExhausted):
        allocator.alloc_page(1, 0)


def test_machine_level_plumbing():
    from repro import Machine, MachineConfig
    from repro.trace import Tracer
    from repro.workloads.memstress import sequential_write_stress

    machine = Machine(MachineConfig(use_page_cache=False))
    session = machine.launch_confidential_vm(image=b"x")
    tracer = Tracer(machine)
    machine.run(session, sequential_write_stress(16))
    stages = [event.detail["stage"] for event in tracer.of_kind("fault")]
    assert stages == [AllocStage.NEW_BLOCK.name] * 16


def test_release_all_returns_the_global_block(env):
    pool, ledger, allocator = env
    allocator.alloc_page(1, 0)
    assert pool.free_blocks == 1
    blocks = allocator.release_all(1)
    assert len(blocks) == 1
    for block in blocks:
        pool.free_block(block)
    assert pool.free_blocks == 2


def test_release_all_only_returns_the_owners_blocks(env):
    pool, ledger, allocator = env
    allocator.alloc_page(1, 0)
    assert allocator.release_all(2) == []  # foreign CVM: nothing to recycle
    # The allocator still works afterwards (stale reference was dropped).
    pa, _ = allocator.alloc_page(1, 0)
    assert pool.owner_of(pa) == 1


def test_destroy_recovers_blocks_without_page_cache():
    """Regression: teardown under the uncached ablation must return the
    global block, or every destroyed CVM leaks 256 KB of secure pool."""
    from repro import Machine, MachineConfig
    from repro.trace import Tracer
    from repro.workloads.memstress import sequential_write_stress

    machine = Machine(MachineConfig(use_page_cache=False))
    free_before = machine.monitor.pool.free_blocks
    session = machine.launch_confidential_vm(image=b"u" * 4096)
    machine.run(session, sequential_write_stress(16))
    machine.monitor.ecall_destroy(session.cvm.cvm_id)
    # Data blocks return; only SM metadata blocks may stay consumed
    # (same tolerance as the cached-path destroy test).
    assert machine.monitor.pool.free_blocks >= free_before - 1
