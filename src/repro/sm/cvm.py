"""Confidential VM objects: lifecycle state and GPA layout.

The SM tracks each CVM's state machine, its secure vCPUs, its stage-2 root
(which physically lives inside the secure pool), and its guest-physical
address layout.  Per the split-page-table design (paper section IV-E), the
GPA space is partitioned into a **private** region (SM-managed mappings
into secure memory) and a **shared** region (hypervisor-managed mappings
into normal memory), plus an MMIO window that is never mapped and whose
guest-page faults become device emulation exits.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import EcallError
from repro.sm.attestation import MeasurementLog
from repro.sm.vcpu import SecureVcpu, SharedVcpu


@dataclasses.dataclass(frozen=True)
class GpaLayout:
    """Guest-physical address map of a confidential VM.

    Defaults mirror the conventional RISC-V ``virt`` machine: DRAM at
    2 GiB, an MMIO window below it.  The shared region sits high in the
    41-bit Sv39x4 space so that the root-table split is a clean index
    boundary (everything at or above ``shared_base`` belongs to the
    hypervisor-managed shared subtree).
    """

    dram_base: int = 0x8000_0000
    dram_size: int = 256 << 20
    mmio_base: int = 0x1000_0000
    mmio_size: int = 0x3000_0000
    shared_base: int = 1 << 38
    shared_size: int = 64 << 20

    def __post_init__(self):
        if self.dram_base % 4096 or self.dram_size % 4096:
            raise ValueError("DRAM window must be page-aligned")
        if self.shared_base % (1 << 30):
            raise ValueError(
                "shared_base must be 1 GiB-aligned (a stage-2 root-index boundary)"
            )
        if self.dram_base + self.dram_size > self.shared_base:
            raise ValueError("private DRAM overlaps the shared region")
        # The hypervisor links one 1 GiB subtree at ``shared_base``: a
        # larger region would wrap its level-1 index onto its own start.
        if self.shared_size > 1 << 30:
            raise ValueError("shared region exceeds its one 1 GiB subtree")
        if self.shared_base + self.shared_size > 1 << 41:
            raise ValueError("shared region ends above the 41-bit Sv39x4 GPA space")

    def in_private_dram(self, gpa: int) -> bool:
        """Whether the GPA lies in the SM-managed private DRAM window."""
        return self.dram_base <= gpa < self.dram_base + self.dram_size

    def in_mmio(self, gpa: int) -> bool:
        """Whether the GPA lies in the emulated-device window."""
        return self.mmio_base <= gpa < self.mmio_base + self.mmio_size

    def in_shared(self, gpa: int) -> bool:
        """Whether the GPA lies in the hypervisor-managed shared region."""
        return self.shared_base <= gpa < self.shared_base + self.shared_size


class CvmState(enum.Enum):
    """Lifecycle of a confidential VM."""

    CREATED = "created"  # accepting image loads and configuration
    FINALIZED = "finalized"  # measured; runnable
    RUNNING = "running"  # at least one vCPU in CVM mode
    SUSPENDED = "suspended"
    DESTROYED = "destroyed"


class ConfidentialVm:
    """SM-side record of one confidential VM."""

    def __init__(self, cvm_id: int, vmid: int, layout: GpaLayout, vcpu_count: int = 1):
        self.cvm_id = cvm_id
        self.vmid = vmid
        self.layout = layout
        self.state = CvmState.CREATED
        self.vcpus = [SecureVcpu(i) for i in range(vcpu_count)]
        #: Shared vCPU structures; populated by the monitor once the
        #: hypervisor donates normal memory for them.
        self.shared_vcpus: list[SharedVcpu | None] = [None] * vcpu_count
        #: Physical address of the 16 KB stage-2 root, inside the pool.
        self.hgatp_root: int | None = None
        self.measurement_log = MeasurementLog()
        self.measurement: bytes | None = None
        #: Runtime measurement registers (TDX-RTMR-style): the guest
        #: extends these after launch (boot stages, loaded modules); they
        #: are reported alongside the launch measurement.
        self.rtmrs: list[bytes] = [bytes(32) for _ in range(4)]
        #: Hypervisor-owned level-1 tables linked under the shared split
        #: (root index -> table PA in normal memory).
        self.shared_subtrees: dict[int, int] = {}
        #: Statistics for the experiment harness.
        self.exit_count = 0
        self.entry_count = 0
        #: Exit-reason histogram (kind string -> count).
        self.exit_reasons: dict[str, int] = {}

    def vcpu(self, vcpu_id: int) -> SecureVcpu:
        """The secure vCPU record with the given id (bounds-checked).

        Callers frequently pass register-supplied ids; rejecting here
        keeps a bad id an ``INVALID_PARAM`` at the ABI instead of a
        negative-index wrap or an IndexError unwinding the simulator.
        """
        if not 0 <= vcpu_id < len(self.vcpus):
            raise EcallError(f"CVM {self.cvm_id} has no vCPU {vcpu_id}")
        return self.vcpus[vcpu_id]

    def require_state(self, *allowed: CvmState) -> None:
        """Raise unless the CVM is in one of the allowed states."""
        if self.state not in allowed:
            raise ValueError(
                f"CVM {self.cvm_id} is {self.state.value}; "
                f"operation requires {[s.value for s in allowed]}"
            )

    def __repr__(self):
        return (
            f"<ConfidentialVm id={self.cvm_id} vmid={self.vmid} "
            f"state={self.state.value} vcpus={len(self.vcpus)}>"
        )
