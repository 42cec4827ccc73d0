"""The benchmark's four workloads, driven through the public API of ``repro``.

Each workload is one *episode*: :meth:`Workload.setup` builds fresh
machines and launches CVMs (timed as set-up), :meth:`Workload.run` is the
timed section and returns the operations it completed, and
:meth:`Workload.check` validates the outputs afterwards (untimed).  Every
input is generated from the seed, so two episodes with the same seed must
produce bit-identical simulated results.  Every episode builds new
machines, so simulated caches (TLB, SM page caches) and the per-machine
host caches (trace cache, world-switch plan memo) start empty.
"""

from __future__ import annotations

import collections
import random

from repro import verify
from repro.bench import paper_data
from repro.fleet import orchestrator as fleet_orchestrator
from repro.machine import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE
from repro.sm.secmem import SECURE_BLOCK_SIZE as BLOCK
from repro.workloads import redis as redis_wl
from repro.workloads import redis_cluster as cluster_wl

#: The simulated clock (MachineConfig's 100 MHz Rocket cores), cycles per µs.
CYCLES_PER_US = MachineConfig().clock_hz / 1e6


class Workload:
    """One episode of a benchmark workload (see the module docstring)."""

    name = ""
    #: Size of the speed episodes the host-time metrics time, as a share
    #: of the full size (each takes a few tenths of a second).
    SPEED_SCALE = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.machines: list = []
        #: Simulated cycles per operation sample, for the latency percentiles.
        self.latencies: list = []
        #: Simulated cycles charged during the timed section.
        self.sim_cycles = 0
        self.attempted = 0
        #: Peak materialised DRAM pages the workload itself observed (the
        #: balloon samples it before each reclaim); 0 when it does not sample.
        self.resident_peak = 0
        #: Failed operations (error replies, lost requests, bad read-backs,
        #: degraded bursts, failed migrations, invariant violations).
        self.failed = 0
        self.failures: list = []
        self.prepare()

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations under one message."""
        self.failed += count
        self.failures.append(message)

    def sized(self, full: int, least: int = 1) -> int:
        """``full`` scaled down for smoke runs, never below ``least``."""
        return max(least, round(full * self.scale))

    def _ledger_total(self) -> int:
        return sum(machine.ledger.total for machine in self.machines)

    def prepare(self) -> None:
        """Generate the episode's inputs from the seed (untimed)."""

    def setup(self) -> None:
        """Bring up machines and VMs (timed as set-up)."""
        raise NotImplementedError

    def run(self) -> int:
        """The timed section: returns the operations completed."""
        before = self._ledger_total()
        ops = self._run()
        self.sim_cycles = self._ledger_total() - before
        return ops

    def _run(self) -> int:
        raise NotImplementedError

    def check(self) -> list:
        """Untimed output validation plus the invariant sweep of every machine."""
        for index, machine in enumerate(self.machines):
            for problem in verify.check_invariants(machine):
                self.fail(f"machine {index}: {problem}")
        return self.failures

    def devices(self) -> list:
        """The episode's virtio devices (their kick and interrupt counters)."""
        return []

    def fidelity(self) -> dict:
        """Workload-specific simulated figures (paper comparisons and the like)."""
        return {}


# ---------------------------------------------------------------------------
# mem_balloon: first-touch faults, read-back, reclaim, refault
# ---------------------------------------------------------------------------


class MemBalloon(Workload):
    """A few CVMs each fault in, verify and balloon back P pages per round.

    One operation is one stage-2 page fault.  The secure pool starts at
    half a round's pages, so the first round allocates new blocks (stage
    2) and expands the pool (stage 3); ``reclaim_pages`` returns every page to the
    vCPU's page cache, so later rounds refault at stage 1.
    """

    name = "mem_balloon"
    SPEED_SCALE = 0.35
    #: Private-DRAM offset of the ballooned region (clear of the image).
    REGION_OFFSET = 32 << 20

    def prepare(self) -> None:
        self.cvms = 2
        self.rounds = self.sized(10, 2)
        self.pages = self.sized(1024, 8)
        rng = random.Random(self.seed)
        # Per CVM, per round: the page order and the word each page holds.
        self.plans = [
            [
                (rng.sample(range(self.pages), self.pages),
                 [rng.getrandbits(64) for _ in range(self.pages)])
                for _ in range(self.rounds)
            ]
            for _ in range(self.cvms)
        ]

    def setup(self) -> None:
        # Launching the CVMs takes three blocks; half a round's pages more
        # and the first rounds outgrow the pool.
        pool = (3 + -(-self.pages * PAGE_SIZE // 2 // BLOCK)) * BLOCK
        machine = Machine(MachineConfig(initial_pool_bytes=pool))
        self.machines = [machine]
        self.sessions = [
            machine.launch_confidential_vm(image=b"balloon-%d" % i * 64)
            for i in range(self.cvms)
        ]
        #: Faults per allocation stage over every CVM's first round.
        self.first_round_stages = collections.Counter()

    def _run(self) -> int:
        for session, plan in zip(self.sessions, self.plans):
            self.machines[0].run(session, balloon_guest(self, plan))
        ops = self.cvms * self.rounds * self.pages
        self.attempted = ops
        return ops

    def check(self) -> list:
        stages = self.first_round_stages
        if not (stages["NEW_BLOCK"] and stages["POOL_EXPANSION"]):
            self.fail(f"first rounds did not reach allocation stages 2 and 3: {dict(stages)}")
        return super().check()

    def fidelity(self) -> dict:
        # E3's figure is the SM's mean cycles per stage-2 fault; the
        # guest-side first-touch write adds its walk and one store.
        mean = sum(self.latencies) / len(self.latencies)
        reference = paper_data.PAGE_FAULT["cvm_average"]
        return {
            "fault_cycles_mean": mean,
            "paper_reference": reference,
            "paper_err_pct": abs(mean - reference) / reference * 100.0,
            "paper_err_kind": "calibration target (E3 PAGE_FAULT cvm_average)",
        }


def balloon_guest(episode: MemBalloon, plan):
    """The guest program of one balloon CVM: ``plan`` is its rounds.

    Each round first-touch writes one word per page in the round's
    order (the per-page write latency is the operation's latency),
    reads every page back, then returns the whole region to the SM.
    """
    machine = episode.machines[0]
    ledger = machine.ledger
    latencies = episode.latencies
    pages = episode.pages

    def guest(ctx):
        base = ctx.session.layout.dram_base + episode.REGION_OFFSET
        stages = machine.monitor.fault_stage_counts
        for round_index, (order, words) in enumerate(plan):
            before = dict(stages)
            for page in order:
                start = ledger.total
                ctx.store_seq(base + page * PAGE_SIZE, (words[page],))
                latencies.append(ledger.total - start)
            if round_index == 0:
                for stage, count in stages.items():
                    episode.first_round_stages[stage.name] += count - before[stage]
            episode.resident_peak = max(
                episode.resident_peak, machine.dram.resident_pages()
            )
            for page in order:
                got = ctx.load_seq(base + page * PAGE_SIZE, 1)[0]
                if got != words[page]:
                    episode.fail(
                        f"round {round_index} page {page}: read back "
                        f"{got:#x}, wrote {words[page]:#x}"
                    )
            freed = ctx.reclaim_pages(base, pages)
            if freed != pages:
                episode.fail(
                    f"round {round_index}: reclaimed {freed} of {pages} pages",
                    pages - freed,
                )

    return guest


# ---------------------------------------------------------------------------
# kv_virtio: in-guest Redis over virtio-net, normal-VM arm vs CVM arm
# ---------------------------------------------------------------------------


class MixClient:
    """Host-side redis-benchmark client replaying a fixed request list.

    Same duck type as :class:`repro.workloads.redis.RedisBenchmarkClient`
    (``requests``/``pipeline``/``pump``/``on_reply``), but it sends a
    seeded mix of operation types instead of one.
    """

    def __init__(self, machine, frames):
        self.machine = machine
        self.frames = frames
        self.requests = len(frames)
        self.pipeline = 1
        self.sent = 0
        self.replies = []
        self.latencies = []
        self._issued_at = 0

    def pump(self, machine, session) -> bool:
        if self.sent >= self.requests:
            return False
        self._issued_at = machine.ledger.total
        session.virtio_net.host_deliver(self.frames[self.sent])
        self.sent += 1
        return True

    def on_reply(self, frame, header):
        if bytes(frame) == b"+WARMUP\r\n":
            return []
        self.latencies.append(self.machine.ledger.total - self._issued_at)
        self.replies.append(bytes(frame))
        return []


def redis_requests(rng: random.Random, per_op: int) -> list:
    """``per_op`` requests of every paper operation type, in seeded order.

    Keys come from ``rng``; every template is the one ``REDIS_OPS``
    defines, so no request can draw an error reply.
    """
    requests = []
    for op in paper_data.REDIS["ops"]:
        for _ in range(per_op):
            key = str(rng.randrange(4096))
            parts = [part.replace("{i}", key) for part in redis_wl.REDIS_OPS[op].command]
            requests.append(redis_wl.resp_encode_command(parts))
    rng.shuffle(requests)
    return requests


class KvVirtio(Workload):
    """E6's shape: the same seeded Redis requests on a normal VM and a CVM.

    One operation is one request served (either arm).
    """

    name = "kv_virtio"
    SPEED_SCALE = 0.25
    ARMS = ("normal", "cvm")

    def prepare(self) -> None:
        self.frames = redis_requests(random.Random(self.seed), self.sized(100, 2))
        self.spec = redis_wl.OpSpec(
            "MIX", [],
            setup=[
                command
                for op in paper_data.REDIS["ops"]
                for command in redis_wl.REDIS_OPS[op].setup
            ],
        )

    def setup(self) -> None:
        self.arms = {}
        self.machines = []
        for arm in self.ARMS:
            machine = Machine(MachineConfig())
            if arm == "cvm":
                session = machine.launch_confidential_vm(image=b"redis" * 200)
            else:
                session = machine.launch_normal_vm()
            machine.attach_virtio_net(session)
            client = MixClient(machine, self.frames)
            session.virtio_net.host_handler = client.on_reply
            session.host_work = client.pump
            self.arms[arm] = {"machine": machine, "session": session, "client": client}
            self.machines.append(machine)

    def _run(self) -> int:
        served = 0
        for arm in self.ARMS:
            state = self.arms[arm]
            result = state["machine"].run(
                state["session"],
                redis_wl.redis_server_workload(state["client"], self.spec),
            )
            state["serving_cycles"] = result["workload_result"]["serving_cycles"]
            served += len(state["client"].replies)
        self.latencies = list(self.arms["cvm"]["client"].latencies)
        self.attempted = len(self.frames) * len(self.ARMS)
        return served

    def check(self) -> list:
        replies = {}
        for arm in self.ARMS:
            client = self.arms[arm]["client"]
            missing = len(self.frames) - len(client.replies)
            if missing:
                self.fail(f"{arm} arm: {missing} requests unanswered", missing)
            errors = [reply for reply in client.replies if reply.startswith(b"-")]
            if errors:
                self.fail(f"{arm} arm error replies, first {errors[0]!r}", len(errors))
            replies[arm] = client.replies
        if replies["normal"] != replies["cvm"]:
            self.fail("normal-VM and CVM arms returned different replies")
        return super().check()

    def devices(self) -> list:
        return [self.arms[arm]["session"].virtio_net for arm in self.ARMS]

    def fidelity(self) -> dict:
        rps = {
            arm: len(self.arms[arm]["client"].replies)
            / self.arms[arm]["serving_cycles"]
            for arm in self.ARMS
        }
        overhead = (1.0 - rps["cvm"] / rps["normal"]) * 100.0
        reference = paper_data.REDIS["avg_throughput_drop_pct"]
        return {
            "cvm_overhead_pct": overhead,
            "paper_reference": reference,
            "paper_err_pct": abs(overhead - reference) / reference * 100.0,
            "paper_err_kind": "held out (E6 REDIS avg_throughput_drop_pct)",
        }


# ---------------------------------------------------------------------------
# kv_cluster: sharded Redis over SM channels
# ---------------------------------------------------------------------------


class KvCluster(Workload):
    """Router + 4 shards + 2 pipelined clients (60/30/10 GET/SET/MGET).

    One operation is one client request completed.
    """

    name = "kv_cluster"
    SPEED_SCALE = 0.15
    SHARDS = 4
    CLIENTS = 2
    PIPELINE = 8
    IMAGE = b"redis-cluster-guest" * 48

    def prepare(self) -> None:
        self.requests = self.sized(1024, 8)

    def setup(self) -> None:
        machine = Machine(MachineConfig())
        self.machines = [machine]
        slot_map = cluster_wl.SlotMap(self.SHARDS)
        shard_sessions = [
            machine.launch_confidential_vm(image=self.IMAGE) for _ in range(self.SHARDS)
        ]
        self.client_sessions = [
            machine.launch_confidential_vm(image=self.IMAGE) for _ in range(self.CLIENTS)
        ]
        self.router_session = machine.launch_confidential_vm(image=self.IMAGE)
        measurement = self.router_session.cvm.measurement
        boxes: dict = {}
        self.pairs = [
            (session, cluster_wl.shard_server(
                shard_id, boxes, slot_map, expected_peer_measurement=measurement,
            ))
            for shard_id, session in enumerate(shard_sessions)
        ]
        self.pairs += [
            (session, cluster_wl.cluster_client(
                client_id, boxes, router_measurement=measurement,
                requests=self.requests, pipeline=self.PIPELINE,
                generator=cluster_wl.LoadGenerator(
                    seed=self.seed * self.CLIENTS + client_id
                ),
            ))
            for client_id, session in enumerate(self.client_sessions)
        ]
        self.pairs.append((self.router_session, cluster_wl.cluster_router(
            boxes, self.SHARDS, self.CLIENTS,
            shard_measurement=measurement, client_measurement=measurement,
        )))

    def _run(self) -> int:
        self.results = self.machines[0].run_concurrent(self.pairs, wake_priority=True)
        stats = [self.results[session] for session in self.client_sessions]
        self.latencies = [latency for stat in stats for latency in stat["latencies"]]
        self.attempted = self.requests * self.CLIENTS
        return sum(stat["completed"] for stat in stats)

    def check(self) -> list:
        for session in self.client_sessions:
            stat = self.results[session]
            missing = self.requests - stat["completed"]
            if missing:
                self.fail(f"client {stat['client']}: {missing} requests unanswered", missing)
            if stat["errors"]:
                self.fail(
                    f"client {stat['client']} error replies, first {stat['errors'][0]}",
                    len(stat["errors"]),
                )
        down = self.results[self.router_session]["shards_down"]
        if down:
            self.fail(f"shards declared down: {down}")
        return super().check()


# ---------------------------------------------------------------------------
# fleet: multi-host lifecycle with rebalancing migrations
# ---------------------------------------------------------------------------


class Fleet(Workload):
    """3 hosts, 8 CVMs, rebalancing migrations, per-epoch containment sweeps.

    One operation is one served burst operation.  The per-operation
    latency samples are the per-migration downtimes.
    """

    name = "fleet"
    SPEED_SCALE = 0.2

    def prepare(self) -> None:
        self.config = fleet_orchestrator.FleetConfig(
            hosts=3, cvms=8, epochs=self.sized(16, 3), migration_rate=3,
            seed=self.seed, seams=None,
        )

    def setup(self) -> None:
        self.orchestrator = fleet_orchestrator.FleetOrchestrator(self.config)
        self.orchestrator.launch()
        self.machines = [host.machine for host in self.orchestrator.hosts]
        self.expected_per_epoch = sum(
            record.ops_per_epoch for record in self.orchestrator.records
        )

    def _run(self) -> int:
        fleet = self.orchestrator
        for epoch in range(fleet.config.epochs):
            # The orchestrator's own control loop: cold start, warm
            # baseline, then rebalance-and-serve, sweeping every epoch.
            if epoch > 1:
                fleet.rebalance()
            fleet.serve_epoch(epoch)
            fleet.sweep(f"epoch {epoch}:")
        self.latencies = list(fleet.downtimes)
        self.attempted = self.expected_per_epoch * fleet.config.epochs
        return sum(fleet.ops_per_epoch)

    def check(self) -> list:
        fleet = self.orchestrator
        for epoch, ops in enumerate(fleet.ops_per_epoch):
            if ops != self.expected_per_epoch:
                self.fail(
                    f"epoch {epoch}: served {ops} of {self.expected_per_epoch} ops",
                    abs(self.expected_per_epoch - ops),
                )
        for problem in fleet.violations:
            self.fail(problem)
        for entry in fleet.failed:
            self.fail(f"migration failed: {entry}")
        for entry in fleet.contained:
            self.fail(f"contained error: {entry}")
        if fleet.attest_checked != fleet.arrivals:
            self.fail(f"{fleet.arrivals} arrivals but {fleet.attest_checked} attested")
        if not fleet.migrations:
            self.fail("no migration happened")
        return super().check()


#: The benchmark's own guest programs and load clients, which the traced
#: run attributes to the ``workloads`` layer.
GUEST_NAMES = ("balloon_guest", "MixClient")

WORKLOADS = {cls.name: cls for cls in (MemBalloon, KvVirtio, KvCluster, Fleet)}
