"""The simulated machine: platform wiring plus the guest execution engine.

A :class:`Machine` assembles the paper's platform (4 harts, 1 GB DRAM,
PMP/IOPMP, the SM in firmware, a KVM-like host) and executes *guest
workloads*: plain Python callables driving a :class:`GuestContext` whose
methods perform architecturally-faithful operations -- every load/store is
translated through real page tables with a TLB, every fault is routed by
the live delegation CSRs, every CVM exit runs the SM's world-switch code,
and every cycle lands in the machine's ledger.

Timer interrupts fire on a fixed cycle period (the host scheduler tick);
for a confidential VM each tick is a full short-path world switch through
the SM, for a normal VM a conventional KVM exit -- which is exactly the
asymmetry the paper's macrobenchmarks measure.
"""

from __future__ import annotations

import dataclasses

from repro.cycles import Category, CycleCosts, CycleLedger, DEFAULT_COSTS
from repro.errors import (
    ConfigurationError,
    ReproError,
    SecurityViolation,
    TrapRaised,
)
from repro.hyp.hypervisor import Hypervisor
from repro.hyp.vm import NormalVm, VmKind
from repro.isa.hart import Hart
from repro.isa.iopmp import IopmpUnit
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import (
    AccessType,
    ExceptionCause,
    guest_page_fault_for,
    route_exception,
)
from repro.mem.frames import FrameAllocator
from repro.mem.physmem import PAGE_SIZE, MemoryBus, PhysicalMemory
from repro.mem.tlb import Tlb
from repro.mem.translation import AddressTranslator
from repro.sm.cvm import CvmState, GpaLayout
from repro.sm.monitor import SecureMonitor
from repro.sm.pmp_plan import PmpController

#: GPR index the synthetic MMIO instructions use (a0).
_MMIO_GPR_INDEX = 10

#: Yielded by a concurrent workload to park its session until an
#: inter-CVM channel doorbell targets its CVM (see :meth:`Machine.run_concurrent`).
WAIT_DOORBELL = object()

_MASK64 = (1 << 64) - 1


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Platform configuration (defaults mirror the paper's Genesys2 setup)."""

    dram_base: int = 0x8000_0000
    dram_size: int = 1 << 30  # 1 GB
    firmware_size: int = 2 << 20  # OpenSBI + SM + metadata seed
    hart_count: int = 4
    clock_hz: int = 100_000_000  # 100 MHz Rocket cores
    #: Host scheduler tick period in cycles (100 Hz at 100 MHz).
    timer_tick_cycles: int = 1_000_000
    #: Secure pool registered at boot.
    initial_pool_bytes: int = 16 << 20
    tlb_capacity: int = 512
    #: ZION knobs (the ablation baselines flip these).
    use_shared_vcpu: bool = True
    long_path: bool = False
    #: Secure-memory block size (paper default 256 KB).
    secure_block_size: int | None = None
    #: Ablation switch: stage-1 per-vCPU page caches (paper IV-D).
    use_page_cache: bool = True
    costs: CycleCosts = DEFAULT_COSTS


class GuestSession:
    """One VM being executed (normal or confidential)."""

    def __init__(self, machine, kind: VmKind, *, cvm=None, handle=None, normal_vm=None):
        self.machine = machine
        self.kind = kind
        self.cvm = cvm
        self.handle = handle
        self.normal_vm = normal_vm
        self.vcpu_id = 0
        #: The hart this session executes on (settable before running;
        #: each hart has its own PMP state and delegation CSRs).
        self.hart = machine.harts[0]
        #: Guest stage-1 root (a GPA) once the guest kernel enables paging;
        #: ``None`` means vsatp is Bare (GVA == GPA), the boot state.
        self.vsatp_root = None
        #: VS-level interrupt bits pending delivery to the guest kernel.
        self.pending_irq_bits = 0
        #: Host-side work poller: ``callable(machine, session) -> bool``;
        #: invoked when the guest WFIs.  Returns True if it produced work.
        self.host_work = None
        self.active = False
        # Fixed once the VM is launched; plain attributes because the
        # engine step reads them on every guest access.
        vm = cvm if kind is VmKind.CONFIDENTIAL else normal_vm
        self.vmid: int = vm.vmid
        self.layout: GpaLayout = vm.layout
        self.hgatp_root: int = vm.hgatp_root


class Machine:
    """The simulated platform."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        cfg = self.config
        self.ledger = CycleLedger()
        self.costs = cfg.costs
        self.dram = PhysicalMemory(cfg.dram_base, cfg.dram_size)
        self.iopmp = IopmpUnit()
        self.bus = MemoryBus(self.dram, self.iopmp)
        self.harts = [Hart(i, self.ledger) for i in range(cfg.hart_count)]
        self.translator = AddressTranslator(
            self.bus, self.costs, self.ledger, Tlb(cfg.tlb_capacity)
        )
        self.pmp_controller = PmpController(
            self.harts,
            self.iopmp,
            firmware_base=cfg.dram_base,
            firmware_size=cfg.firmware_size,
            dram_base=cfg.dram_base,
            dram_size=cfg.dram_size,
            ledger=self.ledger,
            costs=self.costs,
        )
        self.monitor = SecureMonitor(
            self.bus,
            self.translator,
            self.pmp_controller,
            self.ledger,
            self.costs,
            use_shared_vcpu=cfg.use_shared_vcpu,
            long_path=cfg.long_path,
            block_size=cfg.secure_block_size,
            use_page_cache=cfg.use_page_cache,
        )
        host_base = cfg.dram_base + cfg.firmware_size
        self.host_allocator = FrameAllocator(host_base, cfg.dram_size - cfg.firmware_size)
        self.hypervisor = Hypervisor(
            self.bus, self.translator, self.host_allocator, self.ledger, self.costs
        )
        self.monitor.connect_hypervisor(self.hypervisor)
        self.hypervisor.hart = self.harts[0]
        if cfg.initial_pool_bytes:
            self.hypervisor.expand_chunk = cfg.initial_pool_bytes
            self.hypervisor.on_pool_expand_request(self.monitor)
            self.hypervisor.expand_chunk = 8 << 20
            # Boot-time registration is not an on-demand expansion.
            self.hypervisor.pool_expansions = 0
        # Boot-time delegation: the SM (like OpenSBI) configures the
        # conventional hosted profile; world switches swap it thereafter.
        from repro.sm import delegation

        for hart in self.harts:
            delegation.NORMAL_MODE.apply(hart)
        from repro.isa.clint import Clint
        from repro.isa.plic import Plic

        #: Core-local interruptor: mtime tracks the cycle ledger; the SM
        #: arms each hart's scheduler tick here.
        self.clint = Clint(cfg.hart_count, lambda: self.ledger.total)
        for hart_id in range(cfg.hart_count):
            self.clint.arm_after(hart_id, cfg.timer_tick_cycles)
        #: Platform interrupt controller (device IRQs -> host claims).
        self.plic = Plic()
        self.hypervisor.plic = self.plic
        self.monitor.clint = self.clint
        #: The hart guest sessions execute on.
        self.hart = self.harts[0]
        #: Currently-executing session (guest ECALL attribution).
        self._active_session: GuestSession | None = None
        from repro.sm.abi import EcallInterface

        self.ecall_interface = EcallInterface(
            self.monitor, running_cvm_of=self._running_cvm_of
        )
        # Engine step state: the per-access compute charge, and the walk
        # cost per PTE read floored as the walker's own charger floors it.
        self._charge_seq_compute = self.ledger.charger(Category.COMPUTE, 1)
        self._walk_cost = int(self.costs.page_walk_level)

    def _running_cvm_of(self, hart):
        """ABI helper: which CVM/vCPU is executing on this hart, if any."""
        session = self._active_session
        if session is None or session.kind is not VmKind.CONFIDENTIAL:
            return None
        return session.cvm, session.vcpu_id

    # ------------------------------------------------------------------
    # VM launch
    # ------------------------------------------------------------------

    def launch_confidential_vm(
        self,
        image: bytes = b"",
        layout: GpaLayout | None = None,
        vcpu_count: int = 1,
        shared_window: int | None = None,
    ) -> GuestSession:
        """Create + finalize a CVM via the host's ECALL sequence."""
        handle = self.hypervisor.host_create_cvm(
            self.monitor,
            self.hart,
            layout=layout,
            vcpu_count=vcpu_count,
            image=image,
            shared_window=shared_window,
        )
        cvm = self.monitor.cvms[handle.cvm_id]
        return GuestSession(self, VmKind.CONFIDENTIAL, cvm=cvm, handle=handle)

    def launch_normal_vm(self, name: str = "vm", layout: GpaLayout | None = None) -> GuestSession:
        """Create a conventional KVM guest managed by the hypervisor."""
        vm = self.hypervisor.create_normal_vm(name, self.hart, layout)
        return GuestSession(self, VmKind.NORMAL, normal_vm=vm)

    # ------------------------------------------------------------------
    # CVM migration (extension; see repro.sm.migration)
    # ------------------------------------------------------------------

    def export_confidential_vm(self, session: GuestSession, key: bytes) -> bytes:
        """Seal a session's CVM into a migration blob (destroys it here).

        The CVM must not be running; the SM suspends, serialises under
        ``key``, scrubs, and hands the opaque blob to the host.
        """
        if session.kind is not VmKind.CONFIDENTIAL:
            raise ConfigurationError("only confidential VMs migrate through the SM")
        from repro.sm.migration import export_cvm

        cvm_id = session.cvm.cvm_id
        if session.cvm.state is not CvmState.SUSPENDED:
            self.monitor.ecall_suspend(cvm_id)
        return export_cvm(self.monitor, cvm_id, key)

    def import_confidential_vm(self, blob: bytes, key: bytes) -> GuestSession:
        """Re-instantiate a migrated CVM on this machine.

        Verifies + decrypts through the SM, then the local hypervisor
        provisions shared vCPU pages and the shared window.  Returns a
        runnable session with all guest state intact.
        """
        from repro.sm.migration import import_cvm

        cvm_id = import_cvm(self.monitor, blob, key)
        handle = self.hypervisor.host_adopt_cvm(self.monitor, self.hart, cvm_id)
        cvm = self.monitor.cvms[cvm_id]
        return GuestSession(self, VmKind.CONFIDENTIAL, cvm=cvm, handle=handle)

    # ------------------------------------------------------------------
    # Virtio device wiring
    # ------------------------------------------------------------------

    def attach_virtio_block(self, session: GuestSession, mmio_base: int = 0x1000_1000, source_id: int = 1,
                            event_idx: bool = True):
        """Create a virtio-blk device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioBlockDevice

        device = VirtioBlockDevice(mmio_base, source_id, self.bus, self.ledger, self.costs,
                                   event_idx=event_idx)
        self._wire_device(session, device)
        session.virtio_blk = device
        return device

    def attach_virtio_net(self, session: GuestSession, mmio_base: int = 0x1000_2000, source_id: int = 2,
                          event_idx: bool = True):
        """Create a virtio-net device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioNetDevice

        device = VirtioNetDevice(mmio_base, source_id, self.bus, self.ledger, self.costs,
                                 event_idx=event_idx)
        self._wire_device(session, device)
        session.virtio_net = device
        return device

    def attach_virtio_rng(self, session: GuestSession, mmio_base: int = 0x1000_3000, source_id: int = 3):
        """Create a virtio-rng device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioRngDevice

        device = VirtioRngDevice(mmio_base, source_id, self.bus, self.ledger, self.costs)
        self._wire_device(session, device)
        session.virtio_rng = device
        return device

    def _wire_device(self, session: GuestSession, device) -> None:
        self.hypervisor.devices.add(device)
        source = device.source_id
        self.plic.set_priority(source, 1)
        self.plic.enable(0, source)
        self.hypervisor.plic_bindings[source] = device
        device.irq_sink = lambda _dev: self.plic.raise_irq(source)
        if session.kind is VmKind.CONFIDENTIAL:
            handle = session.handle
            device.dma_translate = lambda gpa: self.hypervisor.shared_gpa_to_hpa(handle, gpa)
        else:
            vm = session.normal_vm

            def translate(gpa, _vm=vm):
                pa, _flags = self.translator.gpa_to_pa(_vm.hgatp_root, gpa, AccessType.LOAD)
                return pa

            device.dma_translate = translate

    def swiotlb_window(self, session: GuestSession) -> tuple:
        """(base_gpa, size) where the session's SWIOTLB pool should live.

        Confidential VMs place it in the shared region (after a 64 KB
        reservation for virtqueue rings); normal VMs carve it from the top
        of their own DRAM -- SWIOTLB is enabled on both, per the paper's
        experimental setup.
        """
        layout = session.layout
        if session.kind is VmKind.CONFIDENTIAL:
            return layout.shared_base + 0x10000, 2 << 20
        return layout.dram_base + layout.dram_size - (2 << 20) - 0x10000, 2 << 20

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------

    def run(self, session: GuestSession, workload) -> dict:
        """Run ``workload(ctx)`` to completion inside the session's VM.

        Returns a result dict with the cycle span and category breakdown
        of the guest's execution (world switches included).
        """
        with self.ledger.span() as span:
            self._enter_guest(session)
            ctx = GuestContext(self, session)
            try:
                result = workload(ctx)
            finally:
                self._leave_guest(session)
        return {
            "cycles": span.cycles,
            "breakdown": span.breakdown,
            "workload_result": result,
        }

    def run_concurrent(self, pairs, on_error: str = "raise",
                       wake_priority: bool = False) -> dict:
        """Interleave several VMs' workloads on the hart, round-robin.

        ``pairs`` is a list of ``(session, generator_workload)`` where each
        workload is a *generator function* taking a :class:`GuestContext`
        and yielding at its preemption points.  Every rotation performs
        the full architectural switch sequence: the outgoing VM exits (a
        CVM through the SM's short path, a normal VM through KVM), the
        hypervisor's scheduler runs, and the incoming VM enters.

        A workload may yield :data:`WAIT_DOORBELL` to park itself until an
        inter-CVM channel doorbell targets its CVM (the hypervisor's
        :meth:`on_channel_doorbell` wakes it); if every remaining workload
        is parked, all are woken -- the single-hart executor's progress
        backstop against lost doorbells.

        ``on_error`` selects what happens when a session raises a typed
        :class:`~repro.errors.ReproError` (an architectural refusal such
        as ``SecurityViolation`` or ``ChannelCorrupt``): ``"raise"`` (the
        default) propagates it, aborting the whole run; ``"contain"``
        records the exception object as that session's result, drops the
        session from the rotation, and keeps the other VMs running --
        the fault-injection campaigns run in this mode, where a typed
        error is precisely a *contained* fault.

        ``wake_priority`` selects the doorbell wake policy: ``False``
        (default, the recorded-golden behaviour) returns a woken session
        to the rotation *tail*; ``True`` puts it at the *head*, so the
        session a doorbell targets runs on the next dispatch -- the
        latency-oriented policy the sharded redis cluster uses for its
        router<->shard hops (see docs/DATA_PLANE.md).

        Returns ``{session: workload_return_value}`` plus the total cycle
        span under the key ``"cycles"`` and the scheduler's park/resume
        accounting under ``"sched"``.
        """
        from repro.hyp.scheduler import RoundRobinScheduler

        scheduler = RoundRobinScheduler()
        state = {}
        wake_keys: dict[int, int] = {}  # cvm_id -> session key
        for session, workload in pairs:
            ctx = GuestContext(self, session)
            state[id(session)] = (session, workload(ctx))
            scheduler.add(id(session))
            if session.kind is VmKind.CONFIDENTIAL:
                wake_keys[session.cvm.cvm_id] = id(session)

        def wake(cvm_id: int) -> None:
            key = wake_keys.get(cvm_id)
            if key is not None:
                scheduler.wake(key, front=wake_priority)

        previous_wake = self.hypervisor.scheduler_wake
        self.hypervisor.scheduler_wake = wake
        results = {}
        try:
            with self.ledger.span() as span:
                while len(scheduler) or scheduler.blocked_count:
                    key = scheduler.next()
                    if key is None:
                        scheduler.wake_all()
                        continue
                    session, generator = state[key]
                    yielded = None
                    try:
                        self._enter_guest(session)
                        try:
                            yielded = next(generator)
                        except StopIteration as stop:
                            results[session] = stop.value
                            scheduler.remove(key)
                        finally:
                            self._leave_guest(session)
                    except ReproError as error:
                        if on_error != "contain":
                            raise
                        # Typed architectural refusal: the session is dead
                        # but the fault is contained -- record it, drop the
                        # session, keep every other VM running.
                        results[session] = error
                        scheduler.remove(key)
                        session.active = False
                        if self._active_session is session:
                            self._active_session = None
                    self.hypervisor.sched_tick()
                    if yielded is WAIT_DOORBELL:
                        scheduler.block(key)
        finally:
            self.hypervisor.scheduler_wake = previous_wake
        results["cycles"] = span.cycles
        results["sched"] = scheduler.stats()
        return results

    def _enter_guest(self, session: GuestSession) -> None:
        if session.active:
            raise ConfigurationError("session is already active")
        if session.kind is VmKind.CONFIDENTIAL:
            session.cvm.require_state(CvmState.FINALIZED, CvmState.RUNNING)
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            session.cvm.state = CvmState.RUNNING
        else:
            self.hypervisor.normal_vm_enter(session.hart)
        session.active = True
        self._active_session = session

    def _leave_guest(self, session: GuestSession) -> None:
        if not session.active:
            return
        if session.kind is VmKind.CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "halt", "cause": 0}
            )
            vcpu.exit_context = None
            session.cvm.state = CvmState.FINALIZED
        else:
            self.hypervisor.normal_vm_exit(session.hart)
        session.active = False
        self._active_session = None

    # ------------------------------------------------------------------
    # Timer
    # ------------------------------------------------------------------

    def check_timer(self, session: GuestSession) -> None:
        """Fire the host scheduler tick when this hart's MTIP asserts."""
        hart_id = session.hart.hart_id
        # Inline timer_pending: mtime is the ledger total (the CLINT's time
        # source) and totals never approach the 64-bit wrap, so the idle
        # case -- checked once per guest access -- is a single compare.
        if self.ledger._total < self.clint._mtimecmp[hart_id]:
            return
        if not self.clint.timer_pending(hart_id):
            return
        self.clint.arm_after(hart_id, self.config.timer_tick_cycles)
        if session.kind is VmKind.CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "timer", "cause": 7}
            )
            self.hypervisor.sched_tick()
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            self._collect_injected_irqs(session)
        else:
            self.hypervisor.normal_vm_exit(session.hart)
            self.hypervisor.sched_tick()
            self.hypervisor.normal_vm_enter(session.hart)

    # ------------------------------------------------------------------
    # Guest memory access (the heart of the engine)
    # ------------------------------------------------------------------

    def guest_access(self, session: GuestSession, gva: int, access: AccessType, size: int = 8):
        """Translate-and-perform one guest access, handling faults.

        Returns ``(pa, 'memory')`` when the access hit RAM, or
        ``(value, 'mmio')`` when it was emulated as MMIO.
        """
        self.check_timer(session)
        for _attempt in range(8):
            try:
                result = self.translator.translate(
                    session.hart,
                    session.vmid,
                    gva,
                    access,
                    session.hgatp_root,
                    vsatp_root=session.vsatp_root,
                )
            except TrapRaised as trap:
                outcome = self._dispatch_trap(session, trap, access, gva)
                if outcome is not None:
                    return outcome, "mmio"
                continue
            self._check_shared_leaf(session, result)
            return result.pa, "memory"
        raise ConfigurationError(
            f"guest access at {gva:#x} did not make progress after 8 faults"
        )

    def _check_shared_leaf(self, session: GuestSession, result) -> None:
        """Split-table backstop: shared-region leaves must target normal memory.

        A malicious hypervisor controls the shared subtree; if it aliases a
        shared GPA onto a secure frame, the SM's walk-time validation
        refuses the access (modelled here; see DESIGN.md section 6).
        """
        if session.kind is not VmKind.CONFIDENTIAL:
            return
        if not session.layout.in_shared(result.gpa):
            return
        if not self.monitor.split.shared_leaf_is_safe(result.pa):
            raise SecurityViolation(
                f"shared GPA {result.gpa:#x} resolves into the secure pool "
                f"(PA {result.pa:#x}); hypervisor-controlled alias refused"
            )

    # ------------------------------------------------------------------
    # Batched guest-access engine (load_seq / store_seq / touch_seq)
    # ------------------------------------------------------------------

    def run_seq(self, session: GuestSession, op: str, gva0: int, step: int,
                count: int, size: int, values, gvas):
        """Execute one access sequence; returns the loaded values for ``"L"``.

        ``op`` is ``"L"``/``"S"``/``"T"`` (load_seq / store_seq /
        touch_seq).  Strided sequences address ``gva0 + i*step``; touch
        sequences carry their literal ``gvas``.  Each access goes through
        :meth:`_access_one`; one it declines takes :meth:`guest_access`
        instead, so every access performs exactly what the per-element
        loop would.
        """
        access_one = self._access_one
        charge_compute = self._charge_seq_compute
        dram = self.dram
        access = AccessType.STORE if op == "S" else AccessType.LOAD
        small = min(size, 8)
        small_mask = (1 << (8 * small)) - 1
        aligned8 = size == 8
        out = [] if op == "L" else None
        for i in range(count):
            gva = gvas[i] if gvas is not None else gva0 + i * step
            pa = access_one(session, gva, access)
            if pa is None:
                if op == "S":
                    self._pending_store_value = values[i] & _MASK64
                pa, kind = self.guest_access(session, gva, access, size)
                if kind == "mmio":
                    charge_compute()
                    if op == "L":
                        out.append(pa)
                    continue
            charge_compute()
            if op == "L":
                if aligned8 and not pa & 7:
                    out.append(dram.read_u64(pa))
                else:
                    out.append(int.from_bytes(dram.read(pa, small), "little"))
            elif op == "S":
                value = values[i]
                if aligned8 and not pa & 7:
                    dram.write_u64(pa, value)
                else:
                    dram.write(pa, (value & small_mask).to_bytes(small, "little"))
        if op == "S" and count > 0:
            # Residual-state parity: the per-access loop leaves the last
            # store value latched for MMIO emulation.
            self._pending_store_value = values[count - 1] & _MASK64
        return out

    def _access_one(self, session: GuestSession, gva: int, access: AccessType):
        """The engine's per-access step: the access's PA, or ``None``.

        Performs what :meth:`guest_access` performs for an ordinary
        memory access -- timer check, TLB probe, stage-2 walk on a miss,
        and, when the walk faults into M mode, the SM's fault fix and a
        retry -- with identical charges, statistics and LRU motion.

        Returns ``None`` *before* charging or mutating anything (a due
        timer tick aside, which :meth:`guest_access` fires first as well)
        whenever the access needs the generic machinery: a guest with
        stage-1 paging on, an address outside guest DRAM (MMIO, the
        shared region), an entry or leaf lacking the access's permission,
        or a fault the SM does not handle.  The caller then falls back to
        :meth:`guest_access` with nothing to undo.
        """
        if session.vsatp_root is not None:
            return None
        hart = session.hart
        if self.ledger._total >= self.clint._mtimecmp[hart.hart_id]:
            self.check_timer(session)
        layout = session.layout
        if not 0 <= gva - layout.dram_base < layout.dram_size:
            return None
        tlb = self.translator.tlb
        key = (session.vmid, gva >> 12)
        required = access.required_pte_bit
        entry = tlb._entries.get(key)
        if entry is not None:
            if not entry[1] & required:
                return None  # hardware re-walks: the generic path models it
            tlb.hits += 1
            tlb._entries.move_to_end(key)
            self.translator._charge_tlb_hit()
            return entry[0] << 12 | gva & 0xFFF
        if not gva < self.translator.sv39x4._va_limit:
            return None
        faulted = False
        for _attempt in range(8):
            pa, flags, levels, leaf_slot = self.translator.probe_gpa(
                session.hgatp_root, gva
            )
            if pa is not None:
                if not flags & required:
                    return None
                tlb.misses += 1
                self.ledger.charge(Category.PAGE_WALK, levels * self._walk_cost)
                self.bus._cpu_check(hart, pa, 1, access)
                tlb.insert(key[0], key[1], pa >> 12, flags)
                return pa
            # A stage-2 guest-page fault.  Only private DRAM of a CVM
            # whose delegation routes the fault to M mode is the SM's.
            if not faulted and (
                session.kind is not VmKind.CONFIDENTIAL
                or route_exception(
                    guest_page_fault_for(access), hart.mode, hart.medeleg, hart.hedeleg
                ) is not PrivilegeMode.M
            ):
                return None
            faulted = True
            tlb.misses += 1
            self.ledger.charge(Category.PAGE_WALK, levels * self._walk_cost)
            # The fix maps the page read/write/execute and sfences it, so
            # the retry walks again and cannot decline; the per-access
            # path performs no timer check in between either.
            self._sm_fault(session, gva, leaf_slot)
        raise ConfigurationError(
            f"guest access at {gva:#x} did not make progress after 8 faults"
        )

    # ------------------------------------------------------------------
    # Trap dispatch
    # ------------------------------------------------------------------

    def _dispatch_trap(self, session: GuestSession, trap: TrapRaised, access: AccessType, gva: int):
        """Route a guest trap per the live delegation CSRs.

        Returns an MMIO value when the trap was consumed by device
        emulation (the access is complete), else ``None`` (retry).
        """
        cause = trap.cause
        hart = session.hart
        from_mode = hart.mode
        dest = route_exception(cause, from_mode, hart.medeleg, hart.hedeleg)
        if dest is PrivilegeMode.VS:
            # The guest kernel handles its own trap entirely inside the VM.
            self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
            self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
            self.ledger.charge(Category.TRAP, self.costs.xret)
            raise SecurityViolation(
                f"guest cannot resolve its own {cause!r} at {gva:#x} "
                "(VS-delegated trap in a Bare-paging guest)"
            )
        if dest is PrivilegeMode.HS:
            return self._handle_in_hypervisor(session, trap, access)
        return self._handle_in_monitor(session, trap, access)

    def _handle_in_hypervisor(self, session: GuestSession, trap: TrapRaised, access: AccessType):
        """Normal-mode handling: the conventional KVM/QEMU paths."""
        if session.kind is not VmKind.NORMAL:
            raise SecurityViolation(
                f"CVM trap {trap.cause!r} was routed to the hypervisor: "
                "delegation misconfiguration"
            )
        gpa = trap.gpa if trap.gpa is not None else trap.tval
        guest_fault_causes = (
            ExceptionCause.LOAD_GUEST_PAGE_FAULT,
            ExceptionCause.STORE_GUEST_PAGE_FAULT,
            ExceptionCause.INSTRUCTION_GUEST_PAGE_FAULT,
        )
        if trap.cause in guest_fault_causes:
            layout = session.layout
            if layout.in_mmio(gpa):
                self.hypervisor.normal_vm_exit(session.hart)
                value = self._emulate_mmio_normal(session, gpa, access)
                self.hypervisor.service_plic(session.hart, machine=self)
                self.hypervisor.normal_vm_enter(session.hart)
                self._deliver_normal_irqs(session)
                return value
            with self.ledger.span() as span:
                self.hypervisor.normal_vm_exit(session.hart)
                self.hypervisor.handle_normal_stage2_fault(
                    session.hart, session.normal_vm, gpa
                )
                self.hypervisor.normal_vm_enter(session.hart)
            if self.fault_observer is not None:
                self.fault_observer("kvm", None, span.cycles)
            return None
        raise SecurityViolation(f"unhandled normal-VM trap {trap.cause!r}")

    def _emulate_mmio_normal(self, session: GuestSession, gpa: int, access: AccessType):
        self.hypervisor.mmio_exits += 1
        self.ledger.charge(Category.HYP_LOGIC, self.costs.qemu_mmio_dispatch)
        device = self.hypervisor.devices.find(gpa)
        if device is None:
            return 0
        if access is AccessType.LOAD:
            return device.mmio_load(gpa - device.mmio_base, 8)
        device.mmio_store(gpa - device.mmio_base, self._pending_store_value, 8)
        return 0

    def _handle_in_monitor(self, session: GuestSession, trap: TrapRaised, access: AccessType):
        """CVM-mode handling in the SM: the short-path flows."""
        if session.kind is not VmKind.CONFIDENTIAL:
            raise SecurityViolation(
                f"normal-VM trap {trap.cause!r} reached the SM unexpectedly"
            )
        gpa = trap.gpa if trap.gpa is not None else trap.tval
        layout = session.layout
        if layout.in_private_dram(gpa):
            # Stage-2 fault on private memory: the SM resolves it alone --
            # no world switch, the whole point of SM-side allocation.
            self._sm_fault(session, gpa)
            return None
        if layout.in_mmio(gpa):
            return self._emulate_mmio_cvm(session, gpa, access)
        if layout.in_shared(gpa):
            # Shared-region fault: only the hypervisor can fix its subtree.
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu,
                {"kind": "shared_fault", "cause": int(trap.cause), "htval": gpa},
            )
            self.hypervisor.handle_cvm_exit(
                session.hart, self.monitor, session.cvm, session.vcpu_id
            )
            self.hypervisor.service_plic(session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id)
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            self._collect_injected_irqs(session)
            return None
        raise SecurityViolation(
            f"CVM {session.cvm.cvm_id} faulted outside every region: GPA {gpa:#x}"
        )

    def _sm_fault(self, session: GuestSession, gpa: int, leaf_slot: int = 0) -> None:
        """Run the SM's stage-2 fault handler for a private-DRAM fault.

        Both the engine step and the generic trap dispatch come here, so
        observing faults never changes which code handles them.  Spans
        are charge-free snapshots: one is opened only for an observer.
        """
        monitor = self.monitor
        if self.fault_observer is None:
            monitor.handle_guest_page_fault(
                session.hart, session.cvm, session.vcpu_id, gpa, leaf_slot
            )
            return
        with self.ledger.span() as span:
            stage = monitor.handle_guest_page_fault(
                session.hart, session.cvm, session.vcpu_id, gpa, leaf_slot
            )
        self.fault_observer("sm", stage, span.cycles)

    def _emulate_mmio_cvm(self, session: GuestSession, gpa: int, access: AccessType):
        """The full MMIO exit: SM -> hypervisor/QEMU -> SM -> guest."""
        vcpu = session.cvm.vcpu(session.vcpu_id)
        is_load = access is AccessType.LOAD
        exit_info = {
            "kind": "mmio_load" if is_load else "mmio_store",
            "cause": 21 if is_load else 23,
            "htval": gpa,
            "htinst": self._encode_htinst(is_load),
            "gpr_index": _MMIO_GPR_INDEX if is_load else 0,
            "gpr_value": 0 if is_load else self._pending_store_value,
        }
        self.monitor.world_switch.exit_to_normal(session.hart, session.cvm, vcpu, exit_info)
        self.hypervisor.handle_cvm_exit(session.hart, self.monitor, session.cvm, session.vcpu_id)
        self.hypervisor.service_plic(session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id)
        reply = self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
        self._collect_injected_irqs(session)
        return reply.get("gpr_value", 0) if is_load else 0

    @staticmethod
    def _encode_htinst(is_load: bool) -> int:
        """A plausible transformed-instruction encoding for the exit."""
        # ld a0, 0(a0) / sd a0, 0(a0) style encodings.
        return 0x00053503 if is_load else 0x00A53023

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------

    def _collect_injected_irqs(self, session: GuestSession) -> None:
        """Move validated hvip bits into the session's pending set."""
        vcpu = session.cvm.vcpu(session.vcpu_id)
        bits = vcpu.csrs.get("hvip", 0)
        if bits:
            session.pending_irq_bits |= bits
            vcpu.csrs["hvip"] = 0

    def _deliver_normal_irqs(self, session: GuestSession) -> None:
        """Normal VM: KVM injects directly; collect from the device layer."""
        if self._normal_irq_flag:
            session.pending_irq_bits |= 1 << 10
            self._normal_irq_flag = False

    #: Set by GuestContext around emulated stores (the store value has to
    #: reach the device model through the exit path, as htinst implies).
    _pending_store_value: int = 0
    _normal_irq_flag: bool = False
    #: Optional instrumentation: ``callable(kind, stage, cycles)`` invoked
    #: after every stage-2 fault is handled ("kvm" or "sm" paths).  Used
    #: by the E3 experiment harness; setting it never changes which code
    #: handles a fault.
    fault_observer = None


class GuestContext:
    """The API guest workloads program against.

    Every method models what the corresponding guest instruction sequence
    would do architecturally, including faulting and being resumed.
    """

    def __init__(self, machine: Machine, session: GuestSession):
        self.machine = machine
        self.session = session
        self.ledger = machine.ledger
        self.costs = machine.costs
        # Precompiled "one compute cycle" charge: every load/store issues
        # it, so the generic charge() path was measurable.
        self._charge_access = machine.ledger.charger(Category.COMPUTE, 1)

    # -- computation -------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Execute ``cycles`` of guest-local work (interleaves timer ticks)."""
        remaining = int(cycles)
        clint = self.machine.clint
        hart_id = self.session.hart.hart_id
        while remaining > 0:
            self.machine.check_timer(self.session)
            until_tick = clint.read_mtimecmp(hart_id) - clint.mtime
            slice_ = min(remaining, max(1, until_tick))
            self.ledger.charge(Category.COMPUTE, slice_)
            remaining -= slice_

    # -- memory -------------------------------------------------------------

    def load(self, gva: int, size: int = 8) -> int:
        """Guest load; returns the value (integers up to 8 bytes)."""
        machine = self.machine
        pa = machine._access_one(self.session, gva, AccessType.LOAD)
        if pa is None:
            pa, kind = machine.guest_access(self.session, gva, AccessType.LOAD, size)
            if kind == "mmio":
                self._charge_access()
                return pa
        self._charge_access()
        if size == 8 and not pa & 7:
            return machine.dram.read_u64(pa)
        return int.from_bytes(machine.dram.read(pa, min(size, 8)), "little")

    def store(self, gva: int, value: int, size: int = 8) -> None:
        """Guest store of an integer value."""
        machine = self.machine
        machine._pending_store_value = value & _MASK64
        pa = machine._access_one(self.session, gva, AccessType.STORE)
        if pa is None:
            pa, kind = machine.guest_access(self.session, gva, AccessType.STORE, size)
            if kind == "mmio":
                self._charge_access()
                return
        self._charge_access()
        if size == 8 and not pa & 7:
            machine.dram.write_u64(pa, value)
            return
        machine.dram.write(pa, (value & (1 << (8 * min(size, 8))) - 1).to_bytes(min(size, 8), "little"))

    def load_seq(self, gva: int, count: int, size: int = 8, stride: int | None = None) -> list:
        """Batched guest loads: ``count`` values starting at ``gva``.

        Wall-clock batching only -- every element performs the identical
        architectural sequence an individual :meth:`load` would (timer
        check, translation with its TLB lookup and charges, per-access
        compute charge), so simulated cycles are bit-for-bit the same.
        """
        step = size if stride is None else stride
        return self.machine.run_seq(self.session, "L", gva, step, count, size, None, None)

    def store_seq(self, gva: int, values, size: int = 8, stride: int | None = None) -> None:
        """Batched guest stores of ``values`` starting at ``gva``.

        Same cycle-exactness contract as :meth:`load_seq`: this is the
        per-element :meth:`store` sequence with the Python call overhead
        hoisted out of the loop, never a change to what is charged.
        """
        step = size if stride is None else stride
        if not isinstance(values, (list, tuple)):
            values = list(values)
        self.machine.run_seq(self.session, "S", gva, step, len(values), size, values, None)

    def write_bytes(self, gva: int, data: bytes) -> None:
        """Bulk guest write (page-wise translation, per-byte copy charge)."""
        machine = self.machine
        offset = 0
        while offset < len(data):
            chunk = min(len(data) - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
            pa = machine._access_one(self.session, gva + offset, AccessType.STORE)
            if pa is None:
                pa, kind = machine.guest_access(
                    self.session, gva + offset, AccessType.STORE, chunk
                )
                if kind != "memory":
                    raise ConfigurationError("bulk write hit an MMIO window")
            machine.dram.write(pa, data[offset : offset + chunk])
            offset += chunk
        self.ledger.charge(Category.COPY, self.costs.copy_bytes(len(data)))

    def read_bytes(self, gva: int, length: int) -> bytes:
        """Bulk guest read."""
        machine = self.machine
        out = bytearray()
        offset = 0
        while offset < length:
            chunk = min(length - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
            pa = machine._access_one(self.session, gva + offset, AccessType.LOAD)
            if pa is None:
                pa, kind = machine.guest_access(
                    self.session, gva + offset, AccessType.LOAD, chunk
                )
                if kind != "memory":
                    raise ConfigurationError("bulk read hit an MMIO window")
            out += machine.dram.read(pa, chunk)
            offset += chunk
        self.ledger.charge(Category.COPY, self.costs.copy_bytes(length))
        return bytes(out)

    def touch(self, gva: int) -> None:
        """Touch one page (a minimal load; populates mappings and TLB)."""
        self.load(gva, 1)

    def touch_range(self, gva: int, length: int) -> None:
        """Touch every page of ``[gva, gva+length)`` (e.g. a bounce copy)."""
        page = gva & ~(PAGE_SIZE - 1)
        end = gva + max(length, 1)
        while page < end:
            self.touch(page)
            page += PAGE_SIZE

    def touch_seq(self, gvas) -> None:
        """Touch every address in ``gvas`` (batched :meth:`touch`).

        Architecturally identical to touching each address in a Python
        loop -- same timer checks, translations, and compute charges --
        but with the loop overhead hoisted and the discarded 1-byte data
        fetch skipped (reading DRAM has no model-visible effect; the
        cycle cost of a load is charged by the access path, not by the
        byte copy).  MMIO touches still perform the full device access.
        """
        gvas = tuple(gvas)
        self.machine.run_seq(self.session, "T", 0, 0, len(gvas), 1, None, gvas)

    # -- virtio driver construction ---------------------------------------------

    def blk_driver(self):
        """Build (once) the guest's virtio-blk driver over SWIOTLB."""
        if not hasattr(self, "_blk_driver"):
            from repro.guest.swiotlb import Swiotlb
            from repro.guest.virtio_driver import VirtioBlkDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_blk
            swiotlb = self._get_swiotlb()
            queue = Virtqueue(ring_gpa=self._ring_gpa(0))
            self._blk_driver = VirtioBlkDriver(self, device, swiotlb, queue)
        return self._blk_driver

    def net_driver(self):
        """Build (once) the guest's virtio-net driver over SWIOTLB."""
        if not hasattr(self, "_net_driver"):
            from repro.guest.virtio_driver import VirtioNetDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_net
            swiotlb = self._get_swiotlb()
            tx = Virtqueue(ring_gpa=self._ring_gpa(1))
            rx = Virtqueue(ring_gpa=self._ring_gpa(2))
            self._net_driver = VirtioNetDriver(self, device, swiotlb, tx, rx)
        return self._net_driver

    def rng_driver(self):
        """Build (once) the guest's virtio-rng driver over SWIOTLB."""
        if not hasattr(self, "_rng_driver"):
            from repro.guest.virtio_driver import VirtioRngDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_rng
            swiotlb = self._get_swiotlb()
            queue = Virtqueue(ring_gpa=self._ring_gpa(3))
            self._rng_driver = VirtioRngDriver(self, device, swiotlb, queue)
        return self._rng_driver

    def _get_swiotlb(self):
        if not hasattr(self, "_swiotlb"):
            from repro.guest.swiotlb import Swiotlb

            base, size = self.machine.swiotlb_window(self.session)
            self._swiotlb = Swiotlb(base, size, self.ledger, self.costs)
        return self._swiotlb

    def _ring_gpa(self, index: int) -> int:
        layout = self.session.layout
        if self.session.kind is VmKind.CONFIDENTIAL:
            return layout.shared_base + index * 0x1000
        return layout.dram_base + layout.dram_size - 0x10000 + index * 0x1000

    # -- MMIO ------------------------------------------------------------------

    def mmio_read(self, gpa: int) -> int:
        """Emulated-device register read (a load into the MMIO window)."""
        return self.load(gpa)

    def mmio_write(self, gpa: int, value: int) -> None:
        """Emulated-device register write (a store into the MMIO window)."""
        self.store(gpa, value)

    # -- SM services (CVM only) ---------------------------------------------------

    def attestation_report(self, report_data: bytes = b""):
        """ECALL the SM for a signed measurement report."""
        self._require_cvm()
        return self.machine.monitor.ecall_attestation_report(
            self.session.cvm.cvm_id, report_data
        )

    def extend_rtmr(self, index: int, data: bytes) -> bytes:
        """Extend a runtime measurement register (ECALL to the SM)."""
        self._require_cvm()
        return self.machine.monitor.ecall_extend_rtmr(
            self.session.cvm.cvm_id, index, data
        )

    def get_random(self, count: int) -> bytes:
        """ECALL the SM for platform random bytes."""
        self._require_cvm()
        return self.machine.monitor.ecall_get_random(self.session.cvm.cvm_id, count)

    def sbi_ecall(self, eid: int, fid: int, *args) -> tuple:
        """Raw register-convention ECALL into the SM (the real ABI path).

        Writes a7/a6/a0-a5, traps to M mode, and returns the SBI
        ``(error, value)`` pair from a0/a1.  Most callers prefer the typed
        convenience methods; this is the boundary conformance surface.
        """
        hart = self.session.hart
        hart.write_gpr("a7", eid)
        hart.write_gpr("a6", fid)
        for i in range(6):
            hart.write_gpr(f"a{i}", args[i] if i < len(args) else 0)
        self.ledger.charge(Category.TRAP, self.costs.trap_to_m)
        self.ledger.charge(Category.SM_LOGIC, self.costs.ecall_dispatch)
        self.machine.ecall_interface.dispatch(hart)
        self.ledger.charge(Category.TRAP, self.costs.xret)
        error = hart.read_gpr("a0")
        if error >= 1 << 63:
            error -= 1 << 64  # SBI errors are negative
        return error, hart.read_gpr("a1")

    # -- guest user mode (VU) ------------------------------------------------

    def run_user_process(self, user_fn):
        """Run ``user_fn(ctx)`` as a guest *user* process (VU mode).

        Models the guest kernel dispatching to userspace: ``sret`` into
        VU, the function's memory accesses translate at VU privilege, and
        :meth:`syscall` round-trips stay entirely inside the VM (the
        compatibility property VM-based TEEs claim: unmodified apps).
        """
        hart = self.session.hart
        if hart.mode is not PrivilegeMode.VS:
            raise ConfigurationError("only the guest kernel can start a process")
        self.ledger.charge(Category.TRAP, self.costs.xret)  # sret to VU
        self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
        hart.mode = PrivilegeMode.VU
        self.syscall_count = getattr(self, "syscall_count", 0)
        try:
            return user_fn(self)
        finally:
            # Process exit: one final trap back into the guest kernel.
            self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
            self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
            hart.mode = PrivilegeMode.VS

    def syscall(self, cost: int | None = None) -> None:
        """A guest-internal syscall from VU mode.

        Routed by the live delegation CSRs: for a confidential VM the
        ECALL-from-U cause is delegated to VS, so the whole round trip
        happens inside the VM -- no world switch, nothing for the host or
        the SM to see.  Raises if delegation would leak it (a
        configuration the SM never produces).
        """
        hart = self.session.hart
        if hart.mode is not PrivilegeMode.VU:
            raise ConfigurationError("syscalls come from user mode")
        dest = route_exception(
            ExceptionCause.ECALL_FROM_U, PrivilegeMode.VU, hart.medeleg, hart.hedeleg
        )
        if dest is not PrivilegeMode.VS:
            raise SecurityViolation(
                f"guest syscall would trap to {dest.name}: delegation broken"
            )
        self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
        self.ledger.charge(
            Category.GUEST_KERNEL, cost if cost is not None else self.costs.guest_syscall
        )
        self.ledger.charge(Category.TRAP, self.costs.xret)
        self.syscall_count = getattr(self, "syscall_count", 0) + 1

    def request_shared_memory(self, size: int) -> int:
        """Ask the SM/host to grow the shared window; returns the new GPA.

        Models the paper's patched guest kernel issuing a shared-memory
        request (e.g. enlarging its SWIOTLB pool at runtime).
        """
        self._require_cvm()
        return self.machine.monitor.ecall_guest_share_request(
            self.session.hart,
            self.session.cvm.cvm_id,
            self.session.vcpu_id,
            size,
        )

    def reclaim_pages(self, gpa: int, count: int) -> int:
        """Return private pages to the SM (balloon); returns pages freed."""
        self._require_cvm()
        return self.machine.monitor.ecall_reclaim_pages(
            self.session.cvm.cvm_id, self.session.vcpu_id, gpa, count
        )

    def _require_cvm(self) -> None:
        if self.session.kind is not VmKind.CONFIDENTIAL:
            raise ConfigurationError("SM guest services require a confidential VM")

    # -- waiting / interrupts ------------------------------------------------------

    def wfi(self) -> bool:
        """Wait-for-interrupt: exit to the host until it produces work.

        Returns True if the host's work poller reported progress.
        """
        session = self.session
        machine = self.machine
        if session.kind is VmKind.CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            machine.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "wfi", "cause": 0}
            )
            produced = bool(session.host_work and session.host_work(machine, session))
            machine.hypervisor.service_plic(
                session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id
            )
            machine.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            machine._collect_injected_irqs(session)
        else:
            machine.hypervisor.normal_vm_exit(session.hart)
            produced = bool(session.host_work and session.host_work(machine, session))
            machine.hypervisor.service_plic(session.hart, machine=machine)
            machine.hypervisor.normal_vm_enter(session.hart)
            machine._deliver_normal_irqs(session)
        return produced

    def deliver_pending_irqs(self) -> int:
        """Run the guest kernel's handler for each pending VS interrupt."""
        delivered = 0
        bits = self.session.pending_irq_bits
        self.session.pending_irq_bits = 0
        while bits:
            bits &= bits - 1
            self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
            self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
            self.ledger.charge(Category.TRAP, self.costs.xret)
            delivered += 1
        return delivered
