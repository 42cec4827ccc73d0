"""Split-page-table memory sharing (paper section IV-E).

The CVM's stage-2 root (16 KB, in secure memory, writable only by the SM)
is split at a root-index boundary:

- indexes covering the **private** region point at SM-managed subtrees
  whose table pages live inside the secure pool;
- indexes covering the **shared** region point at **hypervisor-provided**
  level-1 tables in normal memory.  The hypervisor edits those subtrees
  directly -- no SM synchronisation -- which is the whole point of the
  design: shared-memory updates (virtio rings, SWIOTLB bounce buffers)
  bypass the SM entirely.

Security comes from two facts this module enforces/validates:

1. the SM only links a shared subtree after checking the donated table
   does *not* live in secure memory (else the hypervisor couldn't edit it,
   and worse, linking would let it leak pool contents);
2. a shared-subtree leaf must never target secure-pool memory.  The SM
   validates donated mappings, and the walk-time check in the machine
   models the PMP backstop for the hypervisor's own accesses.
"""

from __future__ import annotations

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import MemoryError_, SecurityViolation
from repro.mem.pagetable import (
    PTE_D, PTE_R, PTE_U, PTE_V, PTE_W, PTE_X, Sv39x4, pte_is_leaf, pte_pack, pte_target,
)
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import ConfidentialVm
from repro.sm.secmem import SecureMemoryPool


class SplitTableManager:
    """SM-side management of the private/shared stage-2 split."""

    def __init__(self, pool: SecureMemoryPool, dram, ledger: CycleLedger, costs: CycleCosts):
        self._pool = pool
        self._dram = dram
        self._ledger = ledger
        self._costs = costs
        self._sv39x4 = Sv39x4()
        # One raw accessor for every table edit: stateless, so building a
        # fresh one per map/unmap (stage-2 fault path!) was pure overhead.
        self._accessor = _RawAccessor(dram)
        # Precompiled fixed-cost charges (map/unmap run once per stage-2
        # fault; the charges themselves are unchanged).
        self._charge_ownership = ledger.charger(
            Category.SM_LOGIC, costs.ownership_check
        )
        self._charge_map_walk = ledger.charger(
            Category.PAGE_WALK, costs.page_walk_level * self._sv39x4.levels
        )
        #: Monotonic epoch bumped on every SM-side stage-2 table mutation
        #: (map/unmap/subtree link).  Together with the hypervisor's own
        #: epoch it proves to the access trace cache that no mapping a
        #: recorded trace depends on can have changed.  Flush counters are
        #: NOT a substitute: subtree links and hypervisor shared-window
        #: extensions mutate tables without a fence.
        self.map_generation = 0

    def shared_root_index_base(self, cvm: ConfidentialVm) -> int:
        """First stage-2 root index belonging to the shared region."""
        return cvm.layout.shared_base >> 30  # each root entry spans 1 GiB

    def root_index_of(self, gpa: int) -> int:
        """The stage-2 root slot covering this GPA (1 GiB per slot)."""
        return gpa >> 30

    # -- linking hypervisor-provided subtrees ------------------------------

    def link_shared_subtree(self, cvm: ConfidentialVm, root_index: int, table_pa: int) -> None:
        """Install a hypervisor-donated level-1 table under the shared split.

        Validates: the index is in the shared half; the table lives in
        normal memory; the table is page-aligned and currently holds no
        mapping that reaches secure memory.
        """
        if cvm.hgatp_root is None:
            raise SecurityViolation("CVM has no stage-2 root yet")
        if root_index < self.shared_root_index_base(cvm):
            raise SecurityViolation(
                f"root index {root_index} is in the private half; the "
                "hypervisor may only provide shared-region subtrees"
            )
        if table_pa % PAGE_SIZE:
            raise SecurityViolation("shared subtree table must be page-aligned")
        if self._pool.contains(table_pa, PAGE_SIZE):
            raise SecurityViolation(
                "shared subtree table lies inside the secure pool"
            )
        self._validate_subtree(table_pa, depth=1)
        self._charge_ownership()
        slot = cvm.hgatp_root + 8 * root_index
        self._dram.write_u64(slot, (table_pa >> 12) << 10 | 1)  # non-leaf PTE
        cvm.shared_subtrees[root_index] = table_pa
        self.map_generation += 1

    def _validate_subtree(self, table_pa: int, depth: int) -> None:
        """Reject any existing PTE in a donated subtree that reaches the pool.

        The sweep reads all 512 PTEs of the donated table; that is real
        modelled DRAM traffic, charged in bulk up front (per-PTE charger
        calls were measurable on the link path, and the loop never exits
        early without raising).
        """
        self._ledger.charge(
            Category.PAGE_WALK, 512 * self._costs.page_walk_level
        )
        for index in range(512):
            pte = self._dram.read_u64(table_pa + 8 * index)
            if not pte & 1:
                continue
            target = pte_target(pte)
            if pte_is_leaf(pte):
                if self._pool.contains(target, PAGE_SIZE):
                    raise SecurityViolation(
                        f"donated shared subtree maps secure memory at {target:#x}"
                    )
            elif depth < 2:
                if self._pool.contains(target, PAGE_SIZE):
                    raise SecurityViolation(
                        "donated shared subtree points into the secure pool"
                    )
                self._validate_subtree(target, depth + 1)

    # -- walk-time backstop -------------------------------------------------

    def shared_leaf_is_safe(self, pa: int) -> bool:
        """Whether a shared-region leaf target is acceptable (normal memory)."""
        return not self._pool.contains(pa, PAGE_SIZE)

    # -- SM-side private mapping ----------------------------------------------

    def map_private(
        self,
        cvm: ConfidentialVm,
        gpa: int,
        pa: int,
        alloc_table,
        writable: bool = True,
        executable: bool = True,
        leaf_slot: int = 0,
    ) -> None:
        """Map a private-region GPA to a secure frame (SM raw access).

        ``alloc_table`` must return zeroed secure-pool pages (the paper's
        controlled-channel defence: CVM page tables never leave the pool).
        Enforces CVM-disjointness: the frame must be owned by this CVM.

        A non-zero ``leaf_slot`` is the physical address of ``gpa``'s
        full-depth leaf PTE under this CVM's root, as the faulting
        hardware walk found it (every intermediate table present): the
        PTE is written there directly instead of walking the table again.
        """
        if not cvm.layout.in_private_dram(gpa):
            raise SecurityViolation(
                f"GPA {gpa:#x} is not in CVM {cvm.cvm_id}'s private DRAM"
            )
        owner = self._pool.owner_of(pa & ~(PAGE_SIZE - 1))
        self._charge_ownership()
        if owner != cvm.cvm_id:
            raise SecurityViolation(
                f"frame {pa:#x} is owned by {owner!r}, not CVM {cvm.cvm_id}"
            )
        flags = PTE_R | PTE_U | PTE_D | (PTE_W if writable else 0) | (PTE_X if executable else 0)
        if leaf_slot:
            if self._dram.read_u64(leaf_slot) & PTE_V:
                raise MemoryError_(f"{gpa:#x} is already mapped")
            self._dram.write_u64(leaf_slot, pte_pack(pa, flags | PTE_V))
            tables = ()
        else:
            tables = self._sv39x4.map(
                self._accessor, cvm.hgatp_root, gpa, pa, flags, alloc_table
            )
        self.map_generation += 1
        for table in tables:
            if not self._pool.contains(table, PAGE_SIZE):
                raise SecurityViolation(
                    "private page-table page allocated outside the secure pool"
                )
        self._charge_map_walk()

    # -- SM-side channel mapping -------------------------------------------

    def map_channel(
        self,
        cvm: ConfidentialVm,
        gpa: int,
        pa: int,
        alloc_table,
        owner_token,
    ) -> None:
        """Map one page of an SM-brokered channel window into a CVM.

        Channel windows live in the secure pool but are owned by the
        *channel* (``owner_token``), not by either endpoint CVM -- the one
        deliberate exception to per-CVM frame disjointness, and it is
        SM-arbitrated: only this path may map a channel-owned frame, only
        into the private region, and never executable.
        """
        if not cvm.layout.in_private_dram(gpa):
            raise SecurityViolation(
                f"channel GPA {gpa:#x} is not in CVM {cvm.cvm_id}'s private DRAM"
            )
        owner = self._pool.owner_of(pa & ~(PAGE_SIZE - 1))
        self._charge_ownership()
        if owner != owner_token:
            raise SecurityViolation(
                f"frame {pa:#x} is owned by {owner!r}, not channel {owner_token!r}"
            )
        flags = PTE_R | PTE_W | PTE_U | PTE_D  # data window: never executable
        tables = self._sv39x4.map(
            self._accessor, cvm.hgatp_root, gpa, pa, flags, alloc_table
        )
        self.map_generation += 1
        for table in tables:
            if not self._pool.contains(table, PAGE_SIZE):
                raise SecurityViolation(
                    "private page-table page allocated outside the secure pool"
                )
        self._charge_map_walk()

    def unmap_channel(self, cvm: ConfidentialVm, gpa: int, owner_token) -> int:
        """Remove one channel-window mapping; returns the frame.

        Validates the frame really belongs to the channel being torn down
        so a confused teardown can never unmap (and later scrub) a frame
        the CVM owns privately.
        """
        pa = self._sv39x4.unmap(self._accessor, cvm.hgatp_root, gpa)
        self.map_generation += 1
        owner = self._pool.owner_of(pa & ~(PAGE_SIZE - 1))
        self._charge_ownership()
        if owner != owner_token:
            raise SecurityViolation(
                f"channel teardown of frame {pa:#x} owned by {owner!r}"
            )
        self._charge_map_walk()
        return pa

    def unmap_private(self, cvm: ConfidentialVm, gpa: int) -> int:
        """Remove a private mapping; returns the frame for scrubbing."""
        pa = self._sv39x4.unmap(self._accessor, cvm.hgatp_root, gpa)
        self.map_generation += 1
        self._charge_map_walk()
        return pa


class _RawAccessor:
    """M-mode (unchecked) PTE accessor for the SM's own table edits."""

    def __init__(self, dram):
        self._dram = dram

    def read_u64(self, addr: int) -> int:
        return self._dram.read_u64(addr)

    def write_u64(self, addr: int, value: int) -> None:
        self._dram.write_u64(addr, value)
