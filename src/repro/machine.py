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
from repro.mem.tracecache import SeqTrace, TraceCache
from repro.mem.translation import AddressTranslator
from repro.sm.cvm import CvmState, GpaLayout
from repro.sm.monitor import SecureMonitor
from repro.sm.pmp_plan import PmpController

#: GPR index the synthetic MMIO instructions use (a0).
_MMIO_GPR_INDEX = 10

#: Yielded by a concurrent workload to park its session until an
#: inter-CVM channel doorbell targets its CVM (see :meth:`Machine.run_concurrent`).
WAIT_DOORBELL = object()

#: Returned by :meth:`Machine._replay_seq` when a recorded trace failed its
#: structural validity check and the sequence must re-execute live.
_REPLAY_REJECT = object()

#: The ``walk`` :meth:`Machine._access_one` reports for an access that took
#: a stage-2 fault before completing (the trace recorder stops on it).
_FAULTED = object()


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
    #: Wall-clock switch: record/replay hot guest-access sequences
    #: (:mod:`repro.mem.tracecache`).  Cycle-exact either way; exposed so
    #: the equivalence tests can diff cached against uncached runs.
    trace_cache: bool = True
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
        # Batched guest-access engine state.  The engine fuses same-category
        # charges (n TLB hits as one charge of n*tlb_hit), which is only
        # bit-identical to per-access charging when the per-access costs are
        # integral (charge() floors); non-integral cost ablations fall back
        # to the per-access loops wholesale.
        costs_integral = (
            self.costs.tlb_hit == int(self.costs.tlb_hit)
            and self.costs.page_walk_level == int(self.costs.page_walk_level)
        )
        self._trace_cache = TraceCache() if cfg.trace_cache and costs_integral else None
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
        """Execute one access sequence: replay its trace, or run + record.

        ``op`` is ``"L"``/``"S"``/``"T"`` (load_seq / store_seq /
        touch_seq).  Strided sequences address ``gva0 + i*step``; touch
        sequences carry their literal ``gvas`` tuple.  Cycle-exact against
        the per-access loops by construction (see
        :mod:`repro.mem.tracecache` for the validity argument).
        """
        if count <= 0:
            return [] if op == "L" else None
        key = (
            op,
            session.vmid,
            session.hgatp_root,
            gvas if gvas is not None else (gva0, step, count),
            size,
        )
        trace = self._trace_cache.get(key)
        if trace is not None and trace.token == (
            self.monitor.split.map_generation,
            self.hypervisor.map_generation,
        ):
            result = self._replay_seq(session, op, trace, gva0, step, count,
                                      size, values, gvas)
            if result is not _REPLAY_REJECT:
                return result
        return self._engine_seq(session, op, gva0, step, count, size,
                                values, gvas, key)

    def _access_one(self, session: GuestSession, gva: int, access: AccessType):
        """The engine's per-access step: ``(pa, entry, walk)`` or ``None``.

        Performs what :meth:`guest_access` performs for an ordinary
        memory access -- timer check, TLB probe, stage-2 walk on a miss,
        and, when the walk faults into M mode, the SM's fault fix and a
        retry -- with identical charges, statistics and LRU motion.
        ``entry`` is the TLB entry the access used; ``walk`` tells the
        trace recorder how it got there: ``None`` for a TLB hit, the
        charged walk cycles for a fill, :data:`_FAULTED` when the access
        faulted first.

        Returns ``None`` *before* charging or mutating anything (a due
        timer tick aside, which :meth:`guest_access` fires first as well)
        whenever the access needs the generic machinery: an address
        outside guest DRAM (MMIO, the shared region), an entry or leaf
        lacking the access's permission, or a fault the SM does not
        handle.  The caller then falls back to :meth:`guest_access` with
        nothing to undo.
        """
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
            return entry[0] << 12 | gva & 0xFFF, entry, None
        if not gva < self.translator.sv39x4._va_limit:
            return None
        walk = None
        for _attempt in range(8):
            pa, flags, levels, leaf_slot = self.translator.probe_gpa(
                session.hgatp_root, gva
            )
            if pa is not None:
                if not flags & required:
                    return None
                tlb.misses += 1
                cycles = levels * self._walk_cost
                self.ledger.charge(Category.PAGE_WALK, cycles)
                self.bus._cpu_check(hart, pa, 1, access)
                entry = (pa >> 12, flags)
                tlb.insert(key[0], key[1], entry[0], flags)
                return pa, entry, walk if walk is _FAULTED else cycles
            # A stage-2 guest-page fault.  Only private DRAM of a CVM
            # whose delegation routes the fault to M mode is the SM's.
            if walk is None and (
                session.kind is not VmKind.CONFIDENTIAL
                or route_exception(
                    guest_page_fault_for(access), hart.mode, hart.medeleg, hart.hedeleg
                ) is not PrivilegeMode.M
            ):
                return None
            walk = _FAULTED
            tlb.misses += 1
            self.ledger.charge(Category.PAGE_WALK, levels * self._walk_cost)
            # The fix maps the page read/write/execute and sfences it, so
            # the retry walks again and cannot decline; the per-access
            # path performs no timer check in between either.
            self._sm_fault(session, gva, leaf_slot)
        raise ConfigurationError(
            f"guest access at {gva:#x} did not make progress after 8 faults"
        )

    def _engine_seq(self, session: GuestSession, op: str, gva0: int, step: int,
                    count: int, size: int, values, gvas, key,
                    start: int = 0, out=None):
        """The live sequence engine: step each access, move data, record.

        Each access goes through :meth:`_access_one`; one it declines
        takes the generic :meth:`guest_access` instead, so every access
        performs exactly what the per-element loop would.  A clean
        pure-flavor run starting at ``start == 0`` (all TLB hits, or all
        fills of distinct pages, and no fault or fallback) is recorded
        under ``key`` for future replay.
        """
        access_one = self._access_one
        guest_access = self.guest_access
        charge_compute = self._charge_seq_compute
        dram = self.dram
        read_u64 = dram.read_u64
        dread = dram.read
        write_u64 = dram.write_u64
        dwrite = dram.write
        vmid = session.vmid
        access = AccessType.STORE if op == "S" else AccessType.LOAD
        mask64 = (1 << 64) - 1
        small = min(size, 8)
        small_mask = (1 << (8 * small)) - 1
        aligned8 = size == 8

        if out is None and op == "L":
            out = []
        append = out.append if op == "L" else None

        recording = key is not None and start == 0
        rec_keys: list = []
        rec_pas: list = []
        rec_entries: list = []
        rec_walks: list = []
        any_hit = any_miss = False

        for i in range(start, count):
            gva = gvas[i] if gvas is not None else gva0 + i * step
            stepped = access_one(session, gva, access)
            if stepped is not None:
                pa, entry, walk = stepped
                if recording:
                    if walk is None:
                        if any_miss:
                            recording = False
                        else:
                            any_hit = True
                            rec_keys.append((vmid, gva >> 12))
                            rec_pas.append(pa)
                            rec_entries.append(entry)
                    elif walk is _FAULTED or any_hit:
                        recording = False
                    else:
                        any_miss = True
                        rec_keys.append((vmid, gva >> 12))
                        rec_pas.append(pa)
                        rec_entries.append(entry)
                        rec_walks.append(walk)
            else:
                recording = False
                if op == "S":
                    self._pending_store_value = values[i] & mask64
                pa, kind = guest_access(session, gva, access, size)
                if kind == "mmio":
                    charge_compute()
                    if op == "L":
                        append(pa)
                    continue
            charge_compute()
            if op == "L":
                if aligned8 and not pa & 7:
                    append(read_u64(pa))
                else:
                    append(int.from_bytes(dread(pa, small), "little"))
            elif op == "S":
                value = values[i]
                if aligned8 and not pa & 7:
                    write_u64(pa, value)
                else:
                    dwrite(pa, (value & small_mask).to_bytes(small, "little"))

        if op == "S":
            # Residual-state parity: the per-access loop leaves the last
            # store value latched for MMIO emulation.
            self._pending_store_value = values[count - 1] & mask64

        if recording:
            token = (self.monitor.split.map_generation, self.hypervisor.map_generation)
            if any_miss and not any_hit and len(set(rec_keys)) == count:
                self._trace_cache.put(key, SeqTrace(
                    "miss", token, None, rec_keys, rec_pas, rec_entries,
                    rec_walks, None,
                ))
            elif any_hit and not any_miss:
                expected: dict = {}
                consistent = True
                for k, e in zip(rec_keys, rec_entries):
                    prev = expected.get(k)
                    if prev is None:
                        expected[k] = e
                    elif prev != e:
                        consistent = False
                        break
                if consistent:
                    self._trace_cache.put(key, SeqTrace(
                        "hit", token, self.translator.tlb.generation, rec_keys, rec_pas,
                        None, None, expected,
                    ))
        return out

    def _replay_seq(self, session: GuestSession, op: str, trace, gva0: int,
                    step: int, count: int, size: int, values, gvas):
        """Replay a validated trace; ``_REPLAY_REJECT`` if validation fails.

        The caller has already checked the map token.  Here the TLB-side
        proof runs, then the replay performs the identical state updates
        and charges the live engine would.  All-hit replays fuse each
        timer-window's worth of accesses into one pair of charges; the
        chunk boundary is computed so the timer fires at exactly the
        access where the per-access loop would have fired it.
        """
        tlb = self.translator.tlb
        entries = tlb._entries
        keys = trace.keys
        if trace.flavor == "hit":
            if tlb.generation != trace.tlb_gen:
                entries_get = entries.get
                for k, e in trace.expected.items():
                    if entries_get(k) != e:
                        return _REPLAY_REJECT
                trace.tlb_gen = tlb.generation
        else:
            for k in keys:
                if k in entries:
                    return _REPLAY_REJECT

        ledger = self.ledger
        hart_id = session.hart.hart_id
        mtimecmp = self.clint._mtimecmp
        check_timer = self.check_timer
        dram = self.dram
        read_u64 = dram.read_u64
        dread = dram.read
        write_u64 = dram.write_u64
        dwrite = dram.write
        mask64 = (1 << 64) - 1
        small = min(size, 8)
        small_mask = (1 << (8 * small)) - 1
        aligned8 = size == 8
        pas = trace.pas
        out = [] if op == "L" else None

        if trace.flavor == "miss":
            # Per-access replay: the PMP check can legitimately raise, so
            # charges must land access-by-access exactly as recorded.
            charge = ledger.charge
            hart = session.hart
            cpu_check = self.bus._cpu_check
            insert = tlb.insert
            access = AccessType.STORE if op == "S" else AccessType.LOAD
            charge_compute = self._charge_seq_compute
            ents = trace.entries
            walks = trace.walk_cycles
            for i in range(count):
                if ledger._total >= mtimecmp[hart_id]:
                    check_timer(session)
                tlb.misses += 1
                charge(Category.PAGE_WALK, walks[i])
                pa = pas[i]
                cpu_check(hart, pa, 1, access)
                k = keys[i]
                e = ents[i]
                insert(k[0], k[1], e[0], e[1])
                charge_compute()
                if op == "L":
                    if aligned8 and not pa & 7:
                        out.append(read_u64(pa))
                    else:
                        out.append(int.from_bytes(dread(pa, small), "little"))
                elif op == "S":
                    value = values[i]
                    if aligned8 and not pa & 7:
                        write_u64(pa, value)
                    else:
                        dwrite(pa, (value & small_mask).to_bytes(small, "little"))
        else:
            move_to_end = entries.move_to_end
            tlb_hit = int(self.costs.tlb_hit)
            per_access = tlb_hit + 1  # TLB hit + the compute charge
            charge = ledger.charge
            append = out.append if op == "L" else None
            i = 0
            while i < count:
                total = ledger._total
                cmp_ = mtimecmp[hart_id]
                if total >= cmp_:
                    generation = tlb.generation
                    check_timer(session)
                    if tlb.generation != generation:
                        # The tick flushed translations: the rest of the
                        # sequence misses, which this trace cannot speak
                        # for -- hand the tail to the live engine.
                        return self._engine_seq(
                            session, op, gva0, step, count, size, values,
                            gvas, None, start=i, out=out,
                        )
                    total = ledger._total
                    cmp_ = mtimecmp[hart_id]
                # Largest chunk whose accesses all run before the next
                # tick: access j fires the timer iff the total *before* it
                # reached mtimecmp, so n accesses are safe when
                # total + (n-1)*per_access < cmp.
                n = (cmp_ - total - 1) // per_access + 1
                remaining = count - i
                if n > remaining:
                    n = remaining
                end = i + n
                if op == "L":
                    for j in range(i, end):
                        move_to_end(keys[j])
                        pa = pas[j]
                        if aligned8 and not pa & 7:
                            append(read_u64(pa))
                        else:
                            append(int.from_bytes(dread(pa, small), "little"))
                elif op == "S":
                    for j in range(i, end):
                        move_to_end(keys[j])
                        pa = pas[j]
                        value = values[j]
                        if aligned8 and not pa & 7:
                            write_u64(pa, value)
                        else:
                            dwrite(pa, (value & small_mask).to_bytes(small, "little"))
                else:
                    for j in range(i, end):
                        move_to_end(keys[j])
                tlb.hits += n
                charge(Category.TLB, n * tlb_hit)
                charge(Category.COMPUTE, n)
                i = end

        if op == "S":
            self._pending_store_value = values[count - 1] & mask64
        return out

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
        stepped = (
            machine._access_one(self.session, gva, AccessType.LOAD)
            if machine._trace_cache is not None and self.session.vsatp_root is None
            else None
        )
        if stepped is not None:
            pa = stepped[0]
        else:
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
        machine._pending_store_value = value & (1 << 64) - 1
        stepped = (
            machine._access_one(self.session, gva, AccessType.STORE)
            if machine._trace_cache is not None and self.session.vsatp_root is None
            else None
        )
        if stepped is not None:
            pa = stepped[0]
        else:
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
        machine = self.machine
        session = self.session
        if machine._trace_cache is not None and session.vsatp_root is None:
            return machine.run_seq(session, "L", gva, step, count, size, None, None)
        guest_access = machine.guest_access
        charge = self._charge_access
        read_u64 = machine.dram.read_u64
        read = machine.dram.read
        out = []
        append = out.append
        for i in range(count):
            addr = gva + i * step
            value, kind = guest_access(session, addr, AccessType.LOAD, size)
            charge()
            if kind == "mmio":
                append(value)
            elif size == 8 and not value & 7:
                append(read_u64(value))
            else:
                append(int.from_bytes(read(value, min(size, 8)), "little"))
        return out

    def store_seq(self, gva: int, values, size: int = 8, stride: int | None = None) -> None:
        """Batched guest stores of ``values`` starting at ``gva``.

        Same cycle-exactness contract as :meth:`load_seq`: this is the
        per-element :meth:`store` sequence with the Python call overhead
        hoisted out of the loop, never a change to what is charged.
        """
        step = size if stride is None else stride
        machine = self.machine
        session = self.session
        if machine._trace_cache is not None and session.vsatp_root is None:
            if not isinstance(values, (list, tuple)):
                values = list(values)
            machine.run_seq(session, "S", gva, step, len(values), size, values, None)
            return
        guest_access = machine.guest_access
        charge = self._charge_access
        write_u64 = machine.dram.write_u64
        write = machine.dram.write
        mask64 = (1 << 64) - 1
        small = min(size, 8)
        small_mask = (1 << (8 * small)) - 1
        for i, value in enumerate(values):
            addr = gva + i * step
            machine._pending_store_value = value & mask64
            pa, kind = guest_access(session, addr, AccessType.STORE, size)
            charge()
            if kind == "mmio":
                continue
            if size == 8 and not pa & 7:
                write_u64(pa, value)
            else:
                write(pa, (value & small_mask).to_bytes(small, "little"))

    def write_bytes(self, gva: int, data: bytes) -> None:
        """Bulk guest write (page-wise translation, per-byte copy charge)."""
        machine = self.machine
        fast = machine._trace_cache is not None and self.session.vsatp_root is None
        offset = 0
        while offset < len(data):
            chunk = min(len(data) - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
            stepped = (
                machine._access_one(self.session, gva + offset, AccessType.STORE)
                if fast
                else None
            )
            if stepped is not None:
                pa = stepped[0]
            else:
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
        fast = machine._trace_cache is not None and self.session.vsatp_root is None
        out = bytearray()
        offset = 0
        while offset < length:
            chunk = min(length - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
            stepped = (
                machine._access_one(self.session, gva + offset, AccessType.LOAD)
                if fast
                else None
            )
            if stepped is not None:
                pa = stepped[0]
            else:
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
        machine = self.machine
        session = self.session
        if machine._trace_cache is not None and session.vsatp_root is None:
            gvas = tuple(gvas)
            machine.run_seq(session, "T", 0, 0, len(gvas), 1, None, gvas)
            return
        guest_access = machine.guest_access
        charge = self._charge_access
        for gva in gvas:
            guest_access(session, gva, AccessType.LOAD, 1)
            charge()

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
