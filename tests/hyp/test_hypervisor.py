"""The KVM-like hypervisor: normal VMs, CVM hosting, pool expansion."""

import pytest

from repro.cycles import Category
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE


class Raw:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, a):
        return self.dram.read_u64(a)

    def write_u64(self, a, v):
        self.dram.write_u64(a, v)


class TestNormalVmPath:
    def test_create_allocates_root_in_normal_memory(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        assert vm.hgatp_root is not None
        assert not machine.monitor.pool.contains(vm.hgatp_root, 16 * 1024)

    def test_stage2_fault_maps_frame(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        gpa = vm.layout.dram_base + 0x5000
        pa = machine.hypervisor.handle_normal_stage2_fault(machine.hart, vm, gpa)
        result = Sv39x4().walk(Raw(machine.dram), vm.hgatp_root, gpa)
        assert result.pa == pa
        assert vm.fault_count == 1

    def test_fault_cost_dominated_by_gup(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        with machine.ledger.span() as span:
            machine.hypervisor.handle_normal_stage2_fault(
                machine.hart, vm, vm.layout.dram_base
            )
        assert span.cycles > machine.costs.kvm_fault_fixed

    def test_exit_enter_mode_transitions(self, machine):
        from repro.isa.privilege import PrivilegeMode

        machine.hypervisor.normal_vm_enter(machine.hart)
        assert machine.hart.mode is PrivilegeMode.VS
        machine.hypervisor.normal_vm_exit(machine.hart)
        assert machine.hart.mode is PrivilegeMode.HS


class TestCvmHosting:
    def test_host_create_provisions_everything(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"img" * 100
        )
        assert handle.shared_vcpu_pages[0]
        assert handle.shared_subtrees
        assert handle.shared_window_base is not None
        cvm = machine.monitor.cvms[handle.cvm_id]
        assert cvm.measurement is not None

    def test_shared_window_translation(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x"
        )
        layout = handle.layout
        hpa = machine.hypervisor.shared_gpa_to_hpa(handle, layout.shared_base + 0x2345)
        assert hpa == handle.shared_window_base + 0x2345

    def test_shared_translation_rejects_private_gpa(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x"
        )
        with pytest.raises(ValueError):
            machine.hypervisor.shared_gpa_to_hpa(handle, handle.layout.dram_base)

    def test_shared_window_mapped_in_subtree(self, machine):
        """The premapped window is really present in the shared tables."""
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x", shared_window=1 << 20
        )
        cvm = machine.monitor.cvms[handle.cvm_id]
        result = Sv39x4().walk(
            Raw(machine.dram), cvm.hgatp_root, handle.layout.shared_base + 0x8000
        )
        assert result is not None
        assert result.pa == handle.shared_window_base + 0x8000

    def test_window_larger_than_region_rejected(self, machine):
        from repro.sm.cvm import GpaLayout

        with pytest.raises(ValueError):
            machine.hypervisor.host_create_cvm(
                machine.monitor, machine.hart,
                layout=GpaLayout(shared_size=1 << 20), shared_window=2 << 20,
            )

    def test_window_of_partial_pages_rejected(self, machine):
        with pytest.raises(ValueError, match="whole number of pages"):
            machine.hypervisor.host_create_cvm(
                machine.monitor, machine.hart, shared_window=(1 << 20) + 100
            )


class TestPoolExpansion:
    def test_expansion_registers_contiguous_chunk(self, machine):
        regions_before = len(machine.monitor.pool.regions)
        free_before = machine.monitor.pool.free_blocks
        machine.hypervisor.on_pool_expand_request(machine.monitor)
        assert len(machine.monitor.pool.regions) == regions_before + 1
        assert machine.monitor.pool.free_blocks > free_before
        assert machine.hypervisor.pool_expansions >= 1

    def test_expansion_charges_hyp_cost(self, machine):
        with machine.ledger.span() as span:
            machine.hypervisor.on_pool_expand_request(machine.monitor)
        assert span.breakdown[Category.HYP_LOGIC] >= machine.costs.hyp_expand_cost
