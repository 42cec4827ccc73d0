"""Property-based tests: page-table map/walk/unmap invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.mem.pagetable import PTE_R, PTE_V, PTE_W, PTE_X, Sv39, Sv39x4, pte_pack
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory

BASE = 0x8000_0000


class Raw:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, addr):
        return self.dram.read_u64(addr)

    def write_u64(self, addr, value):
        self.dram.write_u64(addr, value)


def _env(scheme):
    dram = PhysicalMemory(BASE, 64 << 20)
    root = BASE
    dram.zero_range(root, scheme.root_size)
    cursor = [BASE + (1 << 20)]

    def alloc():
        pa = cursor[0]
        cursor[0] += PAGE_SIZE
        dram.zero_range(pa, PAGE_SIZE)
        return pa

    return dram, Raw(dram), root, alloc


def _assert_scan_matches(scheme, dram, acc, root):
    """The one-pass bulk scan returns exactly what the accessor walks yield."""
    assert scheme.scan(dram, root) == (
        list(scheme.iter_tables(acc, root)),
        list(scheme.iter_leaves(acc, root)),
    )


va_pages_39 = st.integers(min_value=0, max_value=(1 << 27) - 1)
va_pages_41 = st.integers(min_value=0, max_value=(1 << 29) - 1)
pa_pages = st.integers(min_value=1 << 20, max_value=(1 << 20) + 4096)


@settings(max_examples=50, deadline=None)
@given(mapping=st.dictionaries(va_pages_41, pa_pages, min_size=1, max_size=24))
def test_walk_returns_exactly_what_was_mapped(mapping):
    scheme = Sv39x4()
    dram, acc, root, alloc = _env(scheme)
    for va_page, pa_page in mapping.items():
        scheme.map(acc, root, va_page << 12, BASE + (pa_page << 12) - BASE + 0x200_0000,
                   PTE_R | PTE_W, alloc)
    for va_page, pa_page in mapping.items():
        result = scheme.walk(acc, root, va_page << 12)
        assert result is not None
        assert result.pa == BASE + (pa_page << 12) - BASE + 0x200_0000
    leaves = dict(
        (va >> 12, pa) for va, pa, _f, _l in scheme.iter_leaves(acc, root)
    )
    assert set(leaves) == set(mapping)
    _assert_scan_matches(scheme, dram, acc, root)


@settings(max_examples=50, deadline=None)
@given(
    va_pages=st.sets(va_pages_39, min_size=2, max_size=16),
    data=st.data(),
)
def test_unmap_removes_only_the_target(va_pages, data):
    scheme = Sv39()
    dram, acc, root, alloc = _env(scheme)
    va_pages = sorted(va_pages)
    for i, va_page in enumerate(va_pages):
        scheme.map(acc, root, va_page << 12, BASE + 0x200_0000 + i * PAGE_SIZE,
                   PTE_R, alloc)
    victim = data.draw(st.sampled_from(va_pages))
    scheme.unmap(acc, root, victim << 12)
    assert scheme.walk(acc, root, victim << 12) is None
    for va_page in va_pages:
        if va_page != victim:
            assert scheme.walk(acc, root, va_page << 12) is not None
    _assert_scan_matches(scheme, dram, acc, root)  # emptied tables remain


@settings(max_examples=50, deadline=None)
@given(va_page=va_pages_39, offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1))
def test_offset_preserved_through_translation(va_page, offset):
    scheme = Sv39()
    dram, acc, root, alloc = _env(scheme)
    scheme.map(acc, root, va_page << 12, BASE + 0x200_0000, PTE_R, alloc)
    result = scheme.walk(acc, root, (va_page << 12) | offset)
    assert result.pa == BASE + 0x200_0000 + offset
    _assert_scan_matches(scheme, dram, acc, root)


@settings(max_examples=30, deadline=None)
@given(va_pages=st.sets(va_pages_41, min_size=1, max_size=16))
def test_tables_and_leaves_never_alias(va_pages):
    """No leaf target is also used as a table page."""
    scheme = Sv39x4()
    dram, acc, root, alloc = _env(scheme)
    for i, va_page in enumerate(sorted(va_pages)):
        scheme.map(acc, root, va_page << 12, BASE + 0x300_0000 + i * PAGE_SIZE,
                   PTE_R | PTE_X, alloc)
    tables = set(scheme.iter_tables(acc, root))
    leaves = {pa for _va, pa, _f, _l in scheme.iter_leaves(acc, root)}
    assert not tables & leaves
    _assert_scan_matches(scheme, dram, acc, root)


@pytest.mark.parametrize("scheme", [Sv39(), Sv39x4()], ids=["sv39", "sv39x4"])
@settings(max_examples=40, deadline=None)
@given(
    maps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=(1 << 29) - 1),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=24,
    ),
    dangling=st.sets(st.integers(min_value=0, max_value=2047), max_size=6),
)
def test_scan_matches_the_accessor_walks(scheme, maps, dangling):
    """4 KB pages and superpages, plus root pointers to table pages that
    were never written (so never materialised in the sparse DRAM)."""
    dram, acc, root, alloc = _env(scheme)
    for i, (va_page, level) in enumerate(maps):
        span_pages = 1 << 9 * level
        va = (va_page % (1 << scheme.va_bits - 12)) // span_pages * span_pages << 12
        pa = (i + 1) * span_pages << 12
        try:
            scheme.map(acc, root, va, pa, PTE_R | PTE_W, alloc, level=level)
        except MemoryError_:
            pass  # overlaps an earlier leaf or superpage
    for index in sorted(dangling):
        slot = root + 8 * (index % scheme.root_entries)
        if not acc.read_u64(slot) & PTE_V:
            acc.write_u64(slot, pte_pack(alloc(), PTE_V))
    _assert_scan_matches(scheme, dram, acc, root)
