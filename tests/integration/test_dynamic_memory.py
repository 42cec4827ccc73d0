"""Integration: dynamic shared-memory growth and page reclamation."""

import pytest

from repro.errors import EcallError, SecurityViolation
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage
from repro.trace import Tracer


class TestShareRequest:
    def test_guest_grows_shared_window(self, machine):
        session = machine.launch_confidential_vm(image=b"x", shared_window=1 << 20)
        handle = session.handle
        size_before = handle.shared_window_size

        def workload(ctx):
            new_gpa = ctx.request_shared_memory(512 * 1024)
            # The new range is immediately usable for guest I/O staging.
            ctx.store(new_gpa, 0xABCD)
            return new_gpa, ctx.load(new_gpa)

        result = machine.run(session, workload)
        new_gpa, value = result["workload_result"]
        assert value == 0xABCD
        assert new_gpa == session.layout.shared_base + size_before
        assert handle.shared_window_size == size_before + 512 * 1024

    def test_new_range_is_device_reachable(self, machine):
        """DMA translation covers the grown window (non-contiguous backing)."""
        session = machine.launch_confidential_vm(image=b"x", shared_window=1 << 20)
        # Fragment the host allocator so the extension is non-adjacent.
        machine.host_allocator.alloc()

        def workload(ctx):
            return ctx.request_shared_memory(256 * 1024)

        new_gpa = machine.run(session, workload)["workload_result"]
        hpa = machine.hypervisor.shared_gpa_to_hpa(session.handle, new_gpa)
        assert hpa != 0
        machine.bus.dram.write(hpa, b"dma-ok")
        # The guest sees the same bytes through its stage-2 view.
        result = machine.run(session, lambda ctx: ctx.read_bytes(new_gpa, 6))
        assert result["workload_result"] == b"dma-ok"

    def test_share_request_is_a_world_switch(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        exits_before = session.cvm.exit_count

        def workload(ctx):
            ctx.request_shared_memory(64 * 1024)

        machine.run(session, workload)
        assert session.cvm.exit_count - exits_before >= 2  # request + halt

    def test_request_bounded_by_shared_region(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        too_much = session.layout.shared_size

        def workload(ctx):
            with pytest.raises(EcallError):
                ctx.request_shared_memory(too_much)

        machine.run(session, workload)

    def test_unaligned_request_rejected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            with pytest.raises(EcallError):
                ctx.request_shared_memory(100)

        machine.run(session, workload)


class TestReclaim:
    def test_reclaimed_pages_are_scrubbed_and_reused(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        base = session.layout.dram_base + (8 << 20)

        def workload(ctx):
            ctx.write_bytes(base, b"ephemeral" * 500)  # faults ~2 pages
            freed = ctx.reclaim_pages(base, 2)
            # The GPAs fault again on next touch -- and read back zeroed.
            data = ctx.read_bytes(base, 16)
            return freed, data

        freed, data = machine.run(session, workload)["workload_result"]
        assert freed == 2
        assert data == bytes(16)

    def test_reclaim_feeds_the_page_cache(self, machine):
        """Freed pages come back at stage-1 cost."""
        session = machine.launch_confidential_vm(image=b"x")
        base = session.layout.dram_base + (8 << 20)
        tracers = []

        def workload(ctx):
            for i in range(4):
                ctx.store(base + i * PAGE_SIZE, i)
            ctx.reclaim_pages(base, 4)
            tracers.append(Tracer(machine))
            for i in range(4):
                ctx.store(base + i * PAGE_SIZE, i)

        machine.run(session, workload)
        stages = [event.detail["stage"] for event in tracers[0].of_kind("fault")]
        assert stages == [AllocStage.PAGE_CACHE.name] * 4

    def test_reclaim_outside_private_region_refused(self, machine):
        session = machine.launch_confidential_vm(image=b"x")

        def workload(ctx):
            with pytest.raises(SecurityViolation):
                ctx.reclaim_pages(session.layout.shared_base, 1)

        machine.run(session, workload)

    def test_reclaim_of_unmapped_pages_is_noop(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        base = session.layout.dram_base + (64 << 20)

        def workload(ctx):
            return ctx.reclaim_pages(base, 3)

        assert machine.run(session, workload)["workload_result"] == 0
