"""The register-level ECALL ABI (repro.sm.abi)."""

import pytest

from repro.isa.privilege import PrivilegeMode
from repro.sm.abi import (
    EXT_ZION_GUEST,
    EXT_ZION_HOST,
    GuestFunction,
    HostFunction,
    SbiError,
)


@pytest.fixture
def iface(machine):
    return machine.ecall_interface


def _host_call(machine, fid, *args):
    machine.hart.mode = PrivilegeMode.HS
    return machine.ecall_interface.call(machine.hart, EXT_ZION_HOST, int(fid), list(args) + [0] * (6 - len(args)))


class TestHostAbi:
    def test_create_cvm_returns_id(self, machine):
        error, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        assert error == SbiError.SUCCESS
        assert cvm_id in machine.monitor.cvms

    def test_full_lifecycle_through_registers(self, machine):
        error, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        page = machine.host_allocator.alloc()
        assert _host_call(machine, HostFunction.ASSIGN_SHARED_VCPU, cvm_id, 0, page)[0] == 0
        # Stage an image page in normal memory and load it by address.
        src = machine.host_allocator.alloc()
        machine.dram.write(src, b"ABI-LOADED-IMAGE" + bytes(4096 - 16))
        dram_base = machine.monitor.cvms[cvm_id].layout.dram_base
        assert _host_call(machine, HostFunction.LOAD_IMAGE_PAGE, cvm_id, dram_base, src)[0] == 0
        assert _host_call(machine, HostFunction.SET_ENTRY_POINT, cvm_id, 0, dram_base)[0] == 0
        assert _host_call(machine, HostFunction.FINALIZE, cvm_id)[0] == 0
        assert machine.monitor.cvms[cvm_id].measurement is not None
        assert _host_call(machine, HostFunction.SUSPEND, cvm_id)[0] == 0
        assert _host_call(machine, HostFunction.RESUME, cvm_id)[0] == 0
        assert _host_call(machine, HostFunction.DESTROY, cvm_id)[0] == 0

    def test_host_calls_denied_from_guest_mode(self, machine):
        machine.hart.mode = PrivilegeMode.VS
        error, _ = machine.ecall_interface.call(
            machine.hart, EXT_ZION_HOST, int(HostFunction.CREATE_CVM), [1, 0, 0, 0, 0, 0]
        )
        assert error == SbiError.DENIED

    def test_unknown_extension(self, machine):
        machine.hart.mode = PrivilegeMode.HS
        error, _ = machine.ecall_interface.call(machine.hart, 0x999, 0, [0] * 6)
        assert error == SbiError.NOT_SUPPORTED

    def test_unknown_function(self, machine):
        error, _ = _host_call(machine, 99)
        assert error == SbiError.NOT_SUPPORTED

    def test_invalid_params_surface_as_error_code(self, machine):
        error, _ = _host_call(machine, HostFunction.FINALIZE, 424242)
        assert error == SbiError.INVALID_PARAM

    def test_security_violations_surface_as_denied(self, machine):
        error, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        pool_page = machine.monitor.pool.regions[0][0]
        error, _ = _host_call(
            machine, HostFunction.ASSIGN_SHARED_VCPU, cvm_id, 0, pool_page
        )
        assert error == SbiError.DENIED

    def test_host_cannot_feed_sm_secure_bytes(self, machine):
        """LOAD_IMAGE_PAGE reads the source through the host's PMP view."""
        error, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        page = machine.host_allocator.alloc()
        _host_call(machine, HostFunction.ASSIGN_SHARED_VCPU, cvm_id, 0, page)
        pool_page = machine.monitor.pool.regions[0][0]
        dram_base = machine.monitor.cvms[cvm_id].layout.dram_base
        from repro.errors import TrapRaised

        with pytest.raises(TrapRaised):
            _host_call(machine, HostFunction.LOAD_IMAGE_PAGE, cvm_id, dram_base, pool_page)


class TestGuestAbi:
    def test_get_measurement_into_guest_buffer(self, machine):
        session = machine.launch_confidential_vm(image=b"abi-guest" * 100)
        buf = session.layout.dram_base + 0x5000

        def workload(ctx):
            ctx.touch(buf)  # fault the buffer in first
            error, length = ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_MEASUREMENT), buf
            )
            return error, length, ctx.read_bytes(buf, 32)

        error, length, measurement = machine.run(session, workload)["workload_result"]
        assert error == SbiError.SUCCESS
        assert length == 32
        assert measurement == session.cvm.measurement

    def test_get_random_via_registers(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        buf = session.layout.dram_base + 0x6000

        def workload(ctx):
            ctx.touch(buf)
            error, count = ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM), buf, 16
            )
            return error, ctx.read_bytes(buf, 16)

        error, random = machine.run(session, workload)["workload_result"]
        assert error == SbiError.SUCCESS
        assert random != bytes(16)

    def test_attestation_report_via_registers(self, machine):
        session = machine.launch_confidential_vm(image=b"measured" * 10)
        data_buf = session.layout.dram_base + 0x7000
        out_buf = session.layout.dram_base + 0x8000

        def workload(ctx):
            ctx.write_bytes(data_buf, b"nonce-64")
            ctx.touch(out_buf)
            error, length = ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_ATTESTATION_REPORT),
                data_buf, 8, out_buf,
            )
            return error, length, ctx.read_bytes(out_buf, 32)

        error, length, prefix = machine.run(session, workload)["workload_result"]
        assert error == SbiError.SUCCESS
        assert length == 32 + 16 + 32  # measurement + nonce + signature
        assert prefix == session.cvm.measurement

    def test_reclaim_via_registers(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        target = session.layout.dram_base + (8 << 20)

        def workload(ctx):
            ctx.store(target, 1)
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.RECLAIM_PAGES), target, 1
            )

        error, freed = machine.run(session, workload)["workload_result"]
        assert error == SbiError.SUCCESS
        assert freed == 1

    def test_guest_calls_denied_from_host_mode(self, machine):
        machine.hart.mode = PrivilegeMode.HS
        error, _ = machine.ecall_interface.call(
            machine.hart, EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM), [0] * 6
        )
        assert error == SbiError.DENIED

    def test_unmapped_guest_buffer_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM),
                session.layout.dram_base + (100 << 20), 16,
            )

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_PARAM

    def test_cross_page_buffer_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        buf = session.layout.dram_base + 0x5FF8  # 8 bytes before a boundary

        def workload(ctx):
            ctx.touch(buf)
            ctx.touch(buf + 0x1000)
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM), buf, 32
            )

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_PARAM


class TestAbiErrorPaths:
    """Hostile register values must come back as error codes, not tracebacks
    (the SM's dispatch surface is reachable by both adversaries)."""

    def test_unknown_extension_from_guest_mode(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            return ctx.sbi_ecall(0xDEAD_BEEF, 0)

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.NOT_SUPPORTED

    def test_unknown_guest_function(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            return ctx.sbi_ecall(EXT_ZION_GUEST, 99)

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.NOT_SUPPORTED

    def test_every_host_function_denied_from_guest_mode(self, machine):
        machine.launch_confidential_vm(image=b"x")
        machine.hart.mode = PrivilegeMode.VS
        for fid in HostFunction:
            error, _ = machine.ecall_interface.call(
                machine.hart, EXT_ZION_HOST, int(fid), [0] * 6
            )
            assert error == SbiError.DENIED, fid

    def test_every_guest_function_denied_from_host_mode(self, machine):
        machine.hart.mode = PrivilegeMode.HS
        for fid in GuestFunction:
            error, _ = machine.ecall_interface.call(
                machine.hart, EXT_ZION_GUEST, int(fid), [0] * 6
            )
            assert error == SbiError.DENIED, fid

    def test_misaligned_buffer_address_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        buf = session.layout.dram_base + 0x5004  # 4-byte aligned only

        def workload(ctx):
            ctx.touch(buf)
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM), buf, 16
            )

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_PARAM

    def test_negative_buffer_length_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        buf = session.layout.dram_base + 0x5000

        def workload(ctx):
            ctx.touch(buf)
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.GET_RANDOM), buf, -8
            )

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_PARAM

    def test_misaligned_channel_measurement_buffer_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        window = session.layout.dram_base + 0x200_0000
        meas = session.layout.dram_base + 0x5001  # unaligned scratch

        def workload(ctx):
            ctx.touch(meas & ~0xFFF)
            return ctx.sbi_ecall(
                EXT_ZION_GUEST, int(GuestFunction.CHANNEL_CREATE),
                window, 4 * 4096, meas,
            )

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_PARAM

    def test_garbage_channel_ids_never_raise(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            results = []
            for fid in (GuestFunction.CHANNEL_NOTIFY, GuestFunction.CHANNEL_CLOSE):
                for channel_id in (-1, 0, 2**63):
                    error, _ = ctx.sbi_ecall(EXT_ZION_GUEST, int(fid), channel_id)
                    results.append(error)
            return results

        results = machine.run(session, workload)["workload_result"]
        assert all(
            error in (SbiError.INVALID_PARAM, SbiError.DENIED) for error in results
        )


    #: Each guest call that takes a buffer, with that buffer's GPA set to
    #: ``bad`` and every other argument valid.
    BUFFER_CALLS = {
        GuestFunction.GET_MEASUREMENT: lambda base, bad: (bad,),
        GuestFunction.GET_ATTESTATION_REPORT: lambda base, bad: (bad, 8, base + 0x8000),
        GuestFunction.CHANNEL_CREATE: lambda base, bad: (base + 0x200_0000, 4 * 4096, bad),
        GuestFunction.CHANNEL_CONNECT: lambda base, bad: (0, base + 0x200_0000, bad),
    }

    @pytest.mark.parametrize("bad_gpa", [2**41, 2**64 - 8])
    @pytest.mark.parametrize("fid", list(BUFFER_CALLS), ids=lambda fid: fid.name)
    def test_buffer_gpa_outside_the_guest_space_is_invalid_address(
        self, machine, fid, bad_gpa
    ):
        """A buffer GPA at or above 2^41 returns -5 instead of raising."""
        session = machine.launch_confidential_vm(image=b"x")
        args = self.BUFFER_CALLS[fid](session.layout.dram_base, bad_gpa)

        def workload(ctx):
            ctx.touch(session.layout.dram_base + 0x8000)
            return ctx.sbi_ecall(EXT_ZION_GUEST, int(fid), *args)

        error, _ = machine.run(session, workload)["workload_result"]
        assert error == SbiError.INVALID_ADDRESS == -5


class TestDescribeCvm:
    """DESCRIBE_CVM: the sanctioned host view of a CVM's shape."""

    def test_describe_returns_vcpu_count_in_registers(self, machine):
        _, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 2)
        error, count = _host_call(machine, HostFunction.DESCRIBE_CVM, cvm_id)
        assert error == SbiError.SUCCESS
        assert count == 2

    def test_describe_unknown_cvm_is_invalid_param(self, machine):
        error, _ = _host_call(machine, HostFunction.DESCRIBE_CVM, 999)
        assert error == SbiError.INVALID_PARAM

    def test_descriptor_exposes_shape_not_secrets(self, machine):
        _, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        descriptor = machine.monitor.ecall_describe_cvm(cvm_id)
        cvm = machine.monitor.cvms[cvm_id]
        assert descriptor.cvm_id == cvm_id
        assert descriptor.layout == cvm.layout
        assert descriptor.state == "created"
        # No table roots, secure vCPU state, or pool geometry leak out.
        assert not hasattr(descriptor, "hgatp_root")
        assert not hasattr(descriptor, "vcpus")


class TestRegisterArgumentValidation:
    """Check-after-Load on register-supplied ids and lengths."""

    def test_assign_shared_vcpu_rejects_out_of_range_id(self, machine):
        _, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        page = machine.host_allocator.alloc()
        error, _ = _host_call(
            machine, HostFunction.ASSIGN_SHARED_VCPU, cvm_id, 7, page
        )
        assert error == SbiError.INVALID_PARAM

    def test_assign_shared_vcpu_rejects_negative_id(self, machine):
        # Pre-fix, -1 silently wrapped to shared_vcpus[-1].
        _, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        page = machine.host_allocator.alloc()
        error, _ = _host_call(
            machine, HostFunction.ASSIGN_SHARED_VCPU, cvm_id, -1, page
        )
        assert error == SbiError.INVALID_PARAM

    def test_set_entry_point_rejects_bad_vcpu_id(self, machine):
        # Pre-fix this raised IndexError straight through the ABI.
        _, cvm_id = _host_call(machine, HostFunction.CREATE_CVM, 1)
        error, _ = _host_call(
            machine, HostFunction.SET_ENTRY_POINT, cvm_id, 5, 0x8000_0000
        )
        assert error == SbiError.INVALID_PARAM

    def test_reclaim_count_is_bounded(self, machine):
        import pytest

        from repro.errors import EcallError

        session = machine.launch_confidential_vm(image=b"x")
        with pytest.raises(EcallError):
            machine.monitor.ecall_reclaim_pages(
                session.cvm.cvm_id, 0, session.layout.dram_base, 1 << 40
            )
