"""CVM records: GPA layout and lifecycle state machine."""

import pytest

from repro.sm.cvm import ConfidentialVm, CvmState, GpaLayout


class TestGpaLayout:
    def test_defaults(self):
        layout = GpaLayout()
        assert layout.dram_base == 0x8000_0000
        assert layout.shared_base == 1 << 38

    def test_region_predicates_disjoint(self):
        layout = GpaLayout()
        probes = [
            layout.dram_base,
            layout.dram_base + layout.dram_size - 1,
            layout.mmio_base,
            layout.shared_base,
            layout.shared_base + layout.shared_size - 1,
        ]
        for gpa in probes:
            count = sum(
                (layout.in_private_dram(gpa), layout.in_mmio(gpa), layout.in_shared(gpa))
            )
            assert count == 1, hex(gpa)

    def test_boundaries_exclusive(self):
        layout = GpaLayout()
        assert not layout.in_private_dram(layout.dram_base - 1)
        assert not layout.in_private_dram(layout.dram_base + layout.dram_size)
        assert not layout.in_shared(layout.shared_base - 1)
        assert not layout.in_shared(layout.shared_base + layout.shared_size)

    def test_shared_base_must_be_root_slot_aligned(self):
        with pytest.raises(ValueError):
            GpaLayout(shared_base=(1 << 38) + 4096)

    def test_private_dram_must_not_reach_shared(self):
        with pytest.raises(ValueError):
            GpaLayout(dram_base=0x8000_0000, dram_size=(1 << 38))

    def test_page_alignment_required(self):
        with pytest.raises(ValueError):
            GpaLayout(dram_size=(256 << 20) + 1)

    def test_shared_region_fits_one_subtree(self):
        """The hypervisor links one 1 GiB subtree at ``shared_base``."""
        assert GpaLayout(shared_size=1 << 30).shared_size == 1 << 30
        with pytest.raises(ValueError, match="1 GiB subtree"):
            GpaLayout(shared_size=(1 << 30) + 4096)

    def test_shared_region_ends_inside_the_gpa_space(self):
        assert GpaLayout(shared_base=(1 << 41) - (1 << 30), shared_size=1 << 30)
        with pytest.raises(ValueError, match="41-bit"):
            GpaLayout(shared_base=1 << 41)


class TestConfidentialVm:
    def test_initial_state(self):
        cvm = ConfidentialVm(1, 10, GpaLayout(), vcpu_count=2)
        assert cvm.state is CvmState.CREATED
        assert len(cvm.vcpus) == 2
        assert cvm.shared_vcpus == [None, None]
        assert cvm.hgatp_root is None

    def test_vcpu_lookup(self):
        cvm = ConfidentialVm(1, 10, GpaLayout(), vcpu_count=3)
        assert cvm.vcpu(2).vcpu_id == 2

    def test_require_state(self):
        cvm = ConfidentialVm(1, 10, GpaLayout())
        cvm.require_state(CvmState.CREATED)
        with pytest.raises(ValueError):
            cvm.require_state(CvmState.RUNNING)
        cvm.state = CvmState.RUNNING
        cvm.require_state(CvmState.FINALIZED, CvmState.RUNNING)

    def test_repr_mentions_state(self):
        cvm = ConfidentialVm(5, 11, GpaLayout())
        assert "created" in repr(cvm)
