"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live machine.

Wraps four seams -- method wrapping with an ``_unhook`` list,
attachable to any built machine without a rebuild -- and perturbs them
when their seam counter reaches a planned event's trigger:

- ``enter`` (``WorldSwitch.enter_cvm`` with a pending exit context):
  overwrite a shared-vCPU field *before* Check-after-Load reads it;
- ``notify`` (``ChannelManager.notify``): drop or duplicate the doorbell
  wakeup, clear the injected VSEI, flip window bytes, poison a length
  prefix, tear a ring counter;
- ``expand`` (``Hypervisor.on_pool_expand_request``): donate nothing, or
  a single block instead of the configured chunk;
- ``timer`` (``Machine.check_timer`` calls with the tick due): inject a
  spurious timer exit/entry cycle.

After every injected event the injector runs
:func:`~repro.faults.invariants.check_postconditions` at the next point
where the machine's world state is consistent (immediately for most
seams; at the following CVM exit for a successful corrupted entry) and
accumulates any violations.  Injection uses **no randomness**: every
parameter was drawn at plan time, preserving seed determinism.
"""

from __future__ import annotations

from repro.faults.invariants import check_postconditions
from repro.faults.plan import FaultPlan
from repro.hyp.vm import VmKind
from repro.ipc.ring import HEADER_SIZE
from repro.sm.channel import DOORBELL_IRQ_BIT, ChannelState
from repro.sm.secmem import SECURE_BLOCK_SIZE

#: The value a poisoned length prefix advertises (absurd but in-range
#: for a 64-bit read -- the consumer must clamp, not copy).
POISON_LENGTH = 0x00FF_FFFF_FFFF


class FaultInjector:
    """Installs a plan's hooks; records injections and violations."""

    def __init__(self, machine, plan: FaultPlan):
        self.machine = machine
        self.plan = plan
        #: One dict per fault actually injected (site, seam occurrence,
        #: ledger cycle, params) -- the campaign's evidence trail.
        self.applied: list[dict] = []
        #: Invariant violations observed by any post-condition sweep.
        self.violations: list[str] = []
        self._counters = {"enter": 0, "notify": 0, "expand": 0, "timer": 0}
        self._events = {
            seam: plan.for_seam(seam)
            for seam in ("enter", "notify", "expand", "timer")
        }
        #: Sites whose post-check is deferred to the next safe point
        #: (the following CVM exit).
        self._deferred_checks: list[str] = []
        self._unhook: list = []
        self._attach()

    # -- bookkeeping -------------------------------------------------------

    def _due(self, seam: str) -> list:
        """Advance the seam counter; events firing at this occurrence."""
        self._counters[seam] += 1
        occurrence = self._counters[seam]
        return [e for e in self._events[seam] if e.at == occurrence]

    def _record(self, event, **detail) -> None:
        self.applied.append(
            {
                "site": event.site,
                "at": event.at,
                "cycle": self.machine.ledger.total,
                "params": event.params,
                **detail,
            }
        )

    def _postcheck(self, site: str) -> None:
        """Immediate invariant sweep, attributed to ``site``."""
        for problem in check_postconditions(self.machine):
            self.violations.append(f"after {site}: {problem}")

    # -- channel helpers ---------------------------------------------------

    def _live_channel(self):
        """The lowest-id non-closed channel, or None."""
        manager = self.machine.monitor.channels
        for channel_id in sorted(manager.channels):
            channel = manager.channels[channel_id]
            if channel.state is not ChannelState.CLOSED:
                return channel
        return None

    def _ring_geometry(self, channel, ring_index: int):
        """(base_pa, capacity) of one ring half of the channel window."""
        half = channel.window_size // 2
        base = channel.window_pa + ring_index * half
        return base, half - HEADER_SIZE

    # -- perturbations (notify seam) ---------------------------------------

    def _flip_window_byte(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        ring_index, frac, mask = event.params
        base, capacity = self._ring_geometry(channel, ring_index)
        offset = HEADER_SIZE + (frac * capacity) // 4096
        addr = base + min(offset, channel.window_size // 2 - 1)
        dram = self.machine.dram
        dram.write(addr, bytes([dram.read(addr, 1)[0] ^ mask]))
        self._record(event, addr=addr)

    def _poison_length_prefix(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        (ring_index,) = event.params
        base, capacity = self._ring_geometry(channel, ring_index)
        dram = self.machine.dram
        cons = dram.read_u64(base + 8)
        pos = cons % capacity
        if pos + 8 > capacity:
            return  # prefix would wrap; skip rather than half-poison
        dram.write_u64(base + HEADER_SIZE + pos, POISON_LENGTH)
        self._record(event, ring=ring_index)

    def _tear_ring_counter(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        ring_index, delta = event.params
        base, _capacity = self._ring_geometry(channel, ring_index)
        dram = self.machine.dram
        prod = dram.read_u64(base)
        # A torn 64-bit store: only the low word of (prod + delta) lands.
        torn = (prod & ~0xFFFF_FFFF) | ((prod + delta) & 0xFFFF_FFFF)
        dram.write_u64(base, torn)
        self._record(event, before=prod, after=torn)

    # -- hooks -------------------------------------------------------------

    def _attach(self) -> None:
        machine = self.machine
        ws = machine.monitor.world_switch
        manager = machine.monitor.channels
        hypervisor = machine.hypervisor

        # --- enter seam: corrupt shared-vCPU fields pre-validation -------
        original_enter = ws.enter_cvm

        def faulted_enter(hart, cvm, vcpu):
            if vcpu.exit_context is None:
                return original_enter(hart, cvm, vcpu)
            due = self._due("enter")
            for event in due:
                if event.site == "vcpu_corrupt":
                    field, value = event.params
                    cvm.shared_vcpus[vcpu.vcpu_id].sm_write(field, value)
                    self._record(event, cvm=cvm.cvm_id, field=field)
                    # The machine is consistent right now (pool closed,
                    # pre-entry); a successful entry ends inside the
                    # guest, so the post-entry sweep waits for the exit.
                    self._postcheck(event.site)
                    self._deferred_checks.append(event.site)
            try:
                return original_enter(hart, cvm, vcpu)
            except Exception:
                if due:
                    # Entry refused: the world state is back to pre-entry
                    # (pool closed) and may be swept immediately.
                    self._deferred_checks.clear()
                    self._postcheck("vcpu_corrupt(refused)")
                raise

        ws.enter_cvm = faulted_enter
        self._unhook.append(lambda: setattr(ws, "enter_cvm", original_enter))

        # --- exit flushes deferred post-checks ---------------------------
        original_exit = ws.exit_to_normal

        def checked_exit(hart, cvm, vcpu, exit_info):
            result = original_exit(hart, cvm, vcpu, exit_info)
            if self._deferred_checks:
                pending, self._deferred_checks = self._deferred_checks, []
                for site in pending:
                    self._postcheck(site)
            return result

        ws.exit_to_normal = checked_exit
        self._unhook.append(lambda: setattr(ws, "exit_to_normal", original_exit))

        # --- notify seam: doorbell / VSEI / window / ring faults ----------
        original_notify = manager.notify

        def faulted_notify(cvm, channel_id):
            due = self._due("notify")
            drop = any(e.site == "doorbell_drop" for e in due)
            saved_wake = hypervisor.on_channel_doorbell
            if drop:
                hypervisor.on_channel_doorbell = lambda cvm_id: None
            try:
                result = original_notify(cvm, channel_id)
            finally:
                if drop:
                    hypervisor.on_channel_doorbell = saved_wake
            peer_id = None
            channel = manager.channels.get(channel_id)
            if channel is not None and len(channel.gpas) == 2:
                peer_id = channel.other_end(cvm.cvm_id)
            for event in due:
                if event.site == "doorbell_drop":
                    self._record(event, channel=channel_id)
                elif event.site == "doorbell_dup" and peer_id is not None:
                    hypervisor.on_channel_doorbell(peer_id)
                    self._record(event, channel=channel_id, peer=peer_id)
                elif event.site == "vsei_drop" and peer_id is not None:
                    peer = self.machine.monitor.cvms[peer_id]
                    peer.vcpus[0].csrs["hvip"] &= ~DOORBELL_IRQ_BIT
                    self._record(event, channel=channel_id, peer=peer_id)
                elif event.site == "window_flip":
                    self._flip_window_byte(event)
                elif event.site == "window_length":
                    self._poison_length_prefix(event)
                elif event.site == "ring_tear":
                    self._tear_ring_counter(event)
            if due:
                self._postcheck("/".join(e.site for e in due))
            return result

        manager.notify = faulted_notify
        self._unhook.append(lambda: setattr(manager, "notify", original_notify))

        # --- expand seam: failed / short stage-3 donations ----------------
        original_expand = hypervisor.on_pool_expand_request

        def faulted_expand(monitor):
            due = self._due("expand")
            fail = any(e.site == "expand_fail" for e in due)
            short = any(e.site == "expand_short" for e in due)
            if fail:
                for event in due:
                    if event.site == "expand_fail":
                        self._record(event)
                self._postcheck("expand_fail")
                return  # the hypervisor "forgets" to donate anything
            if short:
                saved_chunk = hypervisor.expand_chunk
                hypervisor.expand_chunk = SECURE_BLOCK_SIZE
                try:
                    original_expand(monitor)
                finally:
                    hypervisor.expand_chunk = saved_chunk
                for event in due:
                    if event.site == "expand_short":
                        self._record(event)
                self._postcheck("expand_short")
                return
            original_expand(monitor)

        hypervisor.on_pool_expand_request = faulted_expand
        self._unhook.append(
            lambda: setattr(hypervisor, "on_pool_expand_request", original_expand)
        )

        # --- timer seam: spurious timer exits -----------------------------
        original_timer = machine.check_timer

        def faulted_timer(session):
            # An occurrence is a due tick, not a call: the engine step
            # only calls check_timer when the tick is due, the generic
            # path on every access.
            if machine.ledger.total < machine.clint.read_mtimecmp(session.hart.hart_id):
                return original_timer(session)
            due = self._due("timer")
            spurious = [e for e in due if e.site == "timer_spurious"]
            if spurious and session.kind is VmKind.CONFIDENTIAL and session.active:
                vcpu = session.cvm.vcpu(session.vcpu_id)
                ws.exit_to_normal(
                    session.hart, session.cvm, vcpu,
                    {"kind": "timer", "cause": 7},
                )
                hypervisor.sched_tick()
                ws.enter_cvm(session.hart, session.cvm, vcpu)
                machine._collect_injected_irqs(session)
                for event in spurious:
                    self._record(event, cvm=session.cvm.cvm_id)
                self._postcheck("timer_spurious")
            return original_timer(session)

        machine.check_timer = faulted_timer
        self._unhook.append(lambda: setattr(machine, "check_timer", original_timer))

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Remove every hook (records stay available)."""
        for undo in self._unhook:
            undo()
        self._unhook.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False
