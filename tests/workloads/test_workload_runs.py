"""End-to-end workload sanity: small runs of every experiment workload."""

import pytest

from repro import Machine, MachineConfig
from repro.hyp.devices import ConsoleDevice
from repro.workloads.coremark import coremark_workload, score_from
from repro.workloads.cpu import CONSOLE_GPA, cpu_bound_workload
from repro.workloads.iozone import IozoneResult, iozone_run
from repro.workloads.memstress import sequential_write_stress
from repro.workloads.profiles import RV8_PROFILES
from repro.workloads.redis import redis_benchmark


def _cvm(machine, image=b"wl" * 100):
    return machine.launch_confidential_vm(image=image)


class TestCpuWorkload:
    def test_runs_on_both_vm_kinds(self):
        profile = RV8_PROFILES["qsort"]
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig())
            machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
            session = _cvm(machine) if kind == "cvm" else machine.launch_normal_vm()
            result = machine.run(session, cpu_bound_workload(profile, 5_000_000))
            inner = result["workload_result"]
            assert inner["compute_cycles"] == 5_000_000
            assert inner["cycles"] >= 5_000_000

    def test_cvm_steady_state_slower_than_normal(self):
        profile = RV8_PROFILES["aes"]
        cycles = {}
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig())
            machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
            session = _cvm(machine) if kind == "cvm" else machine.launch_normal_vm()
            result = machine.run(session, cpu_bound_workload(profile, 20_000_000))
            cycles[kind] = result["workload_result"]["cycles"]
        overhead = (cycles["cvm"] - cycles["normal"]) / cycles["normal"]
        assert 0.005 < overhead < 0.05

    def test_profiles_cover_table_i(self):
        assert set(RV8_PROFILES) == {
            "aes", "bigint", "dhrystone", "miniz", "norx", "primes", "qsort", "sha512"
        }
        for profile in RV8_PROFILES.values():
            assert profile.total_cycles > 1_000_000_000
            assert 0 < profile.ws_pages < 512


class TestCoremarkWorkload:
    def test_score_computation(self):
        machine = Machine(MachineConfig())
        machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
        result = machine.run(machine.launch_normal_vm(), coremark_workload(200))
        score = score_from(result["workload_result"], machine.config.clock_hz)
        # ~48.5k cycles/iteration + touches -> score near 2000 at 100 MHz.
        assert 1800 < score < 2300


class TestRedisWorkload:
    def test_all_requests_served_and_answered(self):
        machine = Machine(MachineConfig())
        session = _cvm(machine)
        machine.attach_virtio_net(session)
        stats = redis_benchmark(machine, session, "SET", requests=50)
        assert stats["requests"] == 50
        assert stats["throughput_rps"] > 0
        assert stats["avg_latency_us"] > 0

    def test_setup_commands_not_timed(self):
        """LPOP needs a preloaded list; replies must all be non-errors."""
        machine = Machine(MachineConfig())
        session = _cvm(machine)
        machine.attach_virtio_net(session)
        stats = redis_benchmark(machine, session, "LPOP", requests=30)
        assert stats["requests"] == 30

    def test_throughput_latency_inverse_relation(self):
        """A heavier command trades throughput for latency, on one VM."""

        def measure(op):
            machine = Machine(MachineConfig())
            session = _cvm(machine)
            machine.attach_virtio_net(session)
            return redis_benchmark(machine, session, op, requests=30)

        heavy = measure("LRANGE_100")
        cheap = measure("GET")
        assert heavy["throughput_rps"] < cheap["throughput_rps"]
        assert heavy["avg_latency_us"] > cheap["avg_latency_us"]


class TestIozoneWorkload:
    def test_result_math(self):
        result = IozoneResult(
            file_bytes=1 << 20, record_bytes=8 << 10,
            write_cycles=100_000_000, read_cycles=50_000_000,
        )
        assert result.throughput_kb_s("write", 100_000_000) == pytest.approx(1024.0)
        assert result.throughput_kb_s("read", 100_000_000) == pytest.approx(2048.0)

    def test_small_file_never_touches_device(self):
        machine = Machine(MachineConfig())
        session = _cvm(machine)
        device = machine.attach_virtio_block(session)
        iozone_run(machine, session, file_bytes=256 << 10, record_bytes=8 << 10,
                   cache_bytes=4 << 20)
        # Cached write + cached read: only the untimed sync hits the disk.
        assert device.reads == 0

    def test_large_file_streams_through_device(self):
        machine = Machine(MachineConfig())
        session = _cvm(machine)
        device = machine.attach_virtio_block(session)
        iozone_run(machine, session, file_bytes=4 << 20, record_bytes=128 << 10,
                   cache_bytes=1 << 20)
        assert device.writes > 0
        assert device.reads > 0

    def test_smaller_records_are_slower(self):
        machine = Machine(MachineConfig())
        session = _cvm(machine)
        machine.attach_virtio_block(session)
        small = iozone_run(machine, session, 1 << 20, 8 << 10, cache_bytes=4 << 20)
        big = iozone_run(machine, session, 1 << 20, 256 << 10, cache_bytes=4 << 20)
        clock = machine.config.clock_hz
        assert small.throughput_kb_s("write", clock) < big.throughput_kb_s("write", clock)


class TestMemstress:
    def test_one_fault_per_page(self, machine):
        session = _cvm(machine)
        before = sum(machine.monitor.fault_stage_counts.values())
        machine.run(session, sequential_write_stress(pages=32))
        assert sum(machine.monitor.fault_stage_counts.values()) - before == 32
