"""The five ledger workloads.

Each workload builds a deployment through the public ``repro`` API, drives
it with the open-loop generators of ``repro.workloads`` (they fire on the
*simulated* clock, so generator lateness is 0 by construction) and observes
it strictly from outside: an :class:`ObservedWallet` timestamps every
submission, commit listeners on *every* validator timestamp the first
commit of every op, and head heights give the block frontier.

Why each workload exists is recorded in ``README.md`` next to this file;
the short version is the ``WHY`` string on each class, which is also what
``BENCHMARK.json`` quotes.

Sizing: the simulated length of the measured region is fixed per workload
(``SIM_S_PER_SECOND`` x ``--seconds``), never cut short by the wall clock,
so every count and simulated-time metric is a pure function of the seed and
two commits are compared on identical work.

Seeds: ``--seed`` makes the *inputs* — the clients' keys (hence addresses
and state-tree buckets), who pays whom and in which order, and the phase of
the arrivals against the block-slot grid.  The deployment's own randomness
(validator keys, link jitter, gossip mesh) is seeded by the workload's fixed
``SYSTEM_SEED``: the mesh a seed happens to draw changes the events per
block by up to +-7 % for the whole run, which is noise for a performance
comparison, not input (README, "Noise").
"""

from __future__ import annotations

import hashlib
import random

from repro import (
    ROOTNET,
    HierarchicalSystem,
    SignaturePolicy,
    SingleChainBaseline,
    SubnetConfig,
    Wallet,
)
from repro.crypto.keys import KeyPair
from repro.scenario import (
    CrashFault,
    Expectation,
    LinkDegradeFault,
    PartitionFault,
    Scenario,
    ScenarioRunner,
    SubnetSpec,
    TopologySpec,
    Trigger,
)
from repro.workloads import CrossNetWorkload, PaymentWorkload

from tracer import HARNESS_LABEL

SENDER_FUNDS = 10**9


class OpLog:
    """Submission record shared by a workload's :class:`ObservedWallet`\\ s.

    Only ops submitted while ``recording`` count: warm-up traffic keeps the
    system under load but never enters a metric.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.recording = False
        self.attempted = 0
        self.refused = 0
        self.pending: dict = {}  # message cid -> submit time, until first commit

    def note(self, signed) -> None:
        if not self.recording:
            return
        self.attempted += 1
        if signed is None:
            self.refused += 1
        else:
            self.pending[signed.cid] = self.sim.now


class ObservedWallet(Wallet):
    """A wallet that reports every ``send`` (accepted or refused) to a log."""

    def __init__(self, keypair: KeyPair, log: OpLog) -> None:
        super().__init__(keypair)
        self._log = log

    def send(self, node, to, **kwargs):
        signed = super().send(node, to, **kwargs)
        self._log.note(signed)
        return signed


class ChainObserver:
    """First-commit observer over *all* validators of one chain.

    Listening on every node (never on one observer a fault may crash) and
    acting only when a block raises the chain's frontier gives: the first
    commit time of every op, and the longest interval with no frontier
    advance while ``log.recording``.
    """

    def __init__(self, sim, nodes, log: OpLog) -> None:
        self.sim = sim
        self.log = log
        self.frontier = max(node.head().height for node in nodes)
        self.last_advance = sim.now
        self.max_gap = 0.0
        self.latencies: list = []
        for node in nodes:
            node.on_commit(self._on_commit)

    def _on_commit(self, block) -> None:
        if block.height <= self.frontier:
            return
        now = self.sim.now
        if self.log.recording:
            self.max_gap = max(self.max_gap, now - self.last_advance)
        self.frontier = block.height
        self.last_advance = now
        pending = self.log.pending
        if pending:
            for signed in block.messages:
                submitted_at = pending.pop(signed.cid, None)
                if submitted_at is not None:
                    self.latencies.append(now - submitted_at)


class Workload:
    """One deployment + load, observed from outside.

    Life cycle (driven by ``measure.py``): ``build`` (construct, spawn,
    fund, start generators) -> ``warm_up`` -> ``begin_region`` ->
    ``run_region`` -> ``end_region`` (generators stop) -> ``drain`` ->
    ``problems`` / metric accessors.
    """

    NAME = ""
    WHY = ""
    #: Simulated seconds one wall second of the measured region covers on
    #: the reference machine (2 cores, CPython 3, untraced).  Calibration
    #: only: it converts ``--seconds`` into a fixed simulated duration.
    SIM_S_PER_SECOND = 1.0
    #: Sized so one set-up takes about 2 s of wall: a shorter one repeats
    #: no better than +-20 % on the reference machine.
    WARMUP_SIM_S = 10.0
    #: Generators stop, then the system runs this long before ops still
    #: uncommitted count as failed.  Off the slot grid (x.1) so the final
    #: block of every chain has reached every validator when heads are
    #: compared.
    DRAIN_SIM_S = 10.1
    SYSTEM_SEED = 0
    FAULT_FREE = True

    def __init__(self, seed: int, region_sim_s: float, out_dir: str) -> None:
        self.seed = seed
        self.region_sim_s = region_sim_s
        self.out_dir = out_dir  # where a failing run may leave evidence
        self.sim = None
        self.log: OpLog = None
        self.chains: dict = {}  # subnet path -> list of validator nodes
        self.observers: list = []  # ChainObserver per loaded chain
        self.payments: list = []  # PaymentWorkload
        self.crossnet: dict = {}  # route name -> CrossNetWorkload
        self._xnet_start: dict = {}  # route name -> accepted sends before the region
        self._heights_start = 0

    # -- construction helpers -------------------------------------------
    def _adopt(self, sim, chains: dict) -> None:
        self.sim = sim
        self.log = OpLog(sim)
        self.chains = {path: list(nodes) for path, nodes in chains.items()}

    def _observed_wallets(self, tag: str, count: int) -> list:
        return [
            ObservedWallet(KeyPair(("ledger", self.NAME, self.seed, tag, i)), self.log)
            for i in range(count)
        ]

    def _arrival_phase(self) -> None:
        """Shift the generators against the block-slot grid by a seed-drawn
        few milliseconds of client-side jitter.  Periodic arrivals on a
        periodic slot grid quantise latency; without this every seed would
        hit the same quantum and report bit-identical percentiles."""
        self.advance(random.Random(self.seed).random() * 0.005)

    def _start_payments(self, path: str, wallets: list, rate: float, entry=None) -> None:
        """Open-loop payments on one chain, submitted through *entry* (all
        validators by default), first commits observed on all of them."""
        nodes = self.chains[path]
        self.observers.append(ChainObserver(self.sim, nodes, self.log))
        self.payments.append(
            PaymentWorkload(
                self.sim, entry or nodes, wallets, rate=rate,
                rng_scope=f"ledger-{path}-{self.seed}",
            ).start()
        )

    # -- life cycle -------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def advance(self, sim_seconds: float) -> None:
        self.sim.run_until(self.sim.now + sim_seconds)

    def warm_up(self) -> None:
        self.advance(self.WARMUP_SIM_S)

    def begin_region(self) -> None:
        self.log.recording = True
        for observer in self.observers:
            observer.last_advance = self.sim.now
            observer.max_gap = 0.0
        for route, flow in self.crossnet.items():
            self._xnet_start[route] = flow.stats.submitted
        self._heights_start = self.frontier_heights()

    def run_region(self) -> None:
        self.advance(self.region_sim_s)

    def end_region(self) -> None:
        self.log.recording = False
        for generator in self.payments + list(self.crossnet.values()):
            generator.stop()

    def drain(self) -> None:
        self.advance(self.DRAIN_SIM_S)

    def close(self) -> None:
        """Release the deployment (stops gossip heartbeats)."""

    # -- observation ------------------------------------------------------
    def frontier_heights(self) -> int:
        """Sum over chains of the best head height (canonical blocks)."""
        return sum(
            max(node.head().height for node in nodes)
            for nodes in self.chains.values()
        )

    def region_blocks(self) -> int:
        return self.frontier_heights() - self._heights_start

    def committed_ops(self) -> int:
        """User ops of the region committed so far (payments on their own
        chain, cross-msgs credited on the destination)."""
        done = sum(len(observer.latencies) for observer in self.observers)
        for route, flow in self.crossnet.items():
            done += max(0, flow.stats.committed - self._xnet_start.get(route, 0))
        return done

    def attempted_ops(self) -> int:
        return self.log.attempted

    def failed_ops(self) -> int:
        """Refused at submission, or still uncommitted after the drain."""
        return self.log.attempted - self.committed_ops()

    def commit_latencies(self) -> list:
        """Simulated submit -> completion latency of every region op."""
        values: list = []
        for observer in self.observers:
            values.extend(observer.latencies)
        for route in self.crossnet:
            values.extend(self.route_latencies(route))
        return values

    def route_latencies(self, route: str) -> list:
        flow = self.crossnet[route]
        # CrossNetWorkload appends latencies in submission order (one
        # sender per route, nonce-ordered delivery), so the region's ops
        # are exactly the tail past the sends accepted before it began.
        return list(flow.stats.latencies[self._xnet_start.get(route, 0):])

    def max_service_gap(self) -> float:
        return max((observer.max_gap for observer in self.observers), default=0.0)

    def recovery_times(self) -> list:
        """Per injected fault ``(sim seconds to recover, recovered?)``."""
        return []

    # -- correctness ------------------------------------------------------
    def problems(self) -> list:
        """Human-readable correctness failures (empty = correct)."""
        found = []
        if self.FAULT_FREE and self.failed_ops():
            found.append(
                f"{self.failed_ops()} of {self.attempted_ops()} ops failed "
                f"({self.log.refused} refused) on a fault-free workload"
            )
        for path, nodes in self.chains.items():
            low = min(node.head().height for node in nodes)
            high = max(node.head().height for node in nodes)
            roots = set()
            for node in nodes:
                block = node.store.block_at_height(low)
                roots.add(None if block is None else block.header.state_root)
            if len(roots) != 1 or None in roots:
                found.append(f"{path}: validators disagree on the state root at h={low}")
            if high - low > 2:
                found.append(f"{path}: validator heads spread {low}..{high} after the drain")
        return found

    def digest(self) -> str:
        """End-state digest: head height + state root of every chain (and
        the value-level system digest where the deployment has one)."""
        hasher = hashlib.sha256()
        for path in sorted(self.chains):
            nodes = self.chains[path]
            low = min(node.head().height for node in nodes)
            block = nodes[0].store.block_at_height(low)
            hasher.update(f"{path}|h={low}|{block.header.state_root}\n".encode())
        hasher.update(self._system_digest().encode())
        return hasher.hexdigest()

    def _system_digest(self) -> str:
        return ""


class HierarchyWorkload(Workload):
    """Shared plumbing for workloads on a :class:`HierarchicalSystem`."""

    system: HierarchicalSystem = None

    def _adopt_system(self, system: HierarchicalSystem) -> None:
        self.system = system
        self._adopt(
            system.sim,
            {subnet.path: system.nodes(subnet) for subnet in system.subnets},
        )

    def _fund(self, subnet, wallets: list) -> None:
        self.system.ensure_funds(
            subnet, [(wallet.address, SENDER_FUNDS) for wallet in wallets]
        )

    def close(self) -> None:
        if self.system is not None:
            self.system.stop()

    def _system_digest(self) -> str:
        return self.system.end_state_digest()


class PayK8(HierarchyWorkload):
    NAME = "pay-k8"
    WHY = (
        "E1's largest hierarchy at 90% load: many small blocks over 4 hot keys per "
        "chain, so workloads+crypto sign/encode, net gossip and sim dominate"
    )
    SIM_S_PER_SECOND = 21.0
    WARMUP_SIM_S = 40.0
    SYSTEM_SEED = 108
    SUBNETS = 8
    RATE = 36.0  # tx/s per chain = 90% of 20 msg / 0.5 s

    def build(self) -> None:
        system = HierarchicalSystem(
            seed=self.SYSTEM_SEED, root_validators=3, root_block_time=0.5, checkpoint_period=20
        ).start()
        subnets = [
            system.spawn_subnet(
                SubnetConfig(
                    name=f"s{i}", validators=3, engine="poa", block_time=0.5,
                    checkpoint_period=20, max_block_messages=20,
                )
            )
            for i in range(self.SUBNETS)
        ]
        self._adopt_system(system)
        self._arrival_phase()
        for subnet in subnets:
            wallets = self._observed_wallets(subnet.path, 4)
            self._fund(subnet, wallets)
            self._start_payments(subnet.path, wallets, self.RATE)


class StateWide(Workload):
    NAME = "state-wide"
    WHY = (
        "one chain, 500-msg blocks over 20000 uniformly paid accounts: few large "
        "blocks on a wide cold state, so storage roots, vm apply and pool select dominate"
    )
    SIM_S_PER_SECOND = 5.0
    WARMUP_SIM_S = 9.0
    SYSTEM_SEED = 301
    ACCOUNTS = 20_000
    RATE = 800.0

    def build(self) -> None:
        funds = {f"acct-{self.seed}-{i}": SENDER_FUNDS for i in range(self.ACCOUNTS)}
        baseline = SingleChainBaseline(
            seed=self.SYSTEM_SEED, validators=3, engine="poa", block_time=0.5,
            max_block_messages=500, wallet_funds=funds,
        ).start()
        self.baseline = baseline
        self._adopt(baseline.sim, {ROOTNET.path: baseline.nodes})
        wallets = [
            ObservedWallet(baseline.wallets[name].keypair, self.log) for name in funds
        ]
        self._arrival_phase()
        self._start_payments(ROOTNET.path, wallets, self.RATE)

    def close(self) -> None:
        self.baseline.cluster.stop()
        self.baseline.stack.shutdown()


class XnetDeep(HierarchyWorkload):
    NAME = "xnet-deep"
    WHY = (
        "E3's depth-3 tree under sustained top-down, bottom-up and path cross-msg "
        "flows: SCA apply, checkpoints, threshold signatures and resolution dominate"
    )
    SIM_S_PER_SECOND = 9.0
    WARMUP_SIM_S = 32.0
    # Bottom-up delivery takes one checkpoint window (2 s) per hop; the
    # drain covers the three hops of d3 -> root several times over.
    DRAIN_SIM_S = 30.1
    SYSTEM_SEED = 311
    RATE = 40.0
    PERIOD = 8

    def build(self) -> None:
        system = HierarchicalSystem(
            seed=self.SYSTEM_SEED, root_validators=3, root_block_time=0.5,
            checkpoint_period=self.PERIOD,
        ).start()
        parent = ROOTNET
        deep = []
        for depth in (1, 2, 3):
            parent = system.spawn_subnet(self._config(f"d{depth}", parent))
            deep.append(parent)
        side = system.spawn_subnet(self._config("side", ROOTNET))
        self._adopt_system(system)
        self._arrival_phase()
        leaf = deep[-1]
        routes = {
            "topdown": (ROOTNET, leaf),
            "bottomup": (leaf, ROOTNET),
            "path": (leaf, side),
        }
        for route, (source, destination) in routes.items():
            (sender,) = self._observed_wallets(route, 1)
            self._fund(source, [sender])
            self.crossnet[route] = CrossNetWorkload(
                system, source, destination, sender, rate=self.RATE
            ).start()

    def _config(self, name: str, parent) -> SubnetConfig:
        # Threshold-signed checkpoints: the only workload that exercises
        # ThresholdScheme partial_sign/combine/verify.
        return SubnetConfig(
            name=name, parent=parent, validators=3, block_time=0.25,
            checkpoint_period=self.PERIOD, policy=SignaturePolicy("threshold", 2),
        )


class BftVotes(HierarchyWorkload):
    NAME = "bft-votes"
    WHY = (
        "a Tendermint and a Mir subnet of 7 validators, no faults: vote handling and "
        "gossip fan-out dominate; the happy path a consensus refactor must not move"
    )
    SIM_S_PER_SECOND = 20.0
    WARMUP_SIM_S = 38.0
    SYSTEM_SEED = 707
    RATE = 30.0

    def build(self) -> None:
        system = HierarchicalSystem(
            seed=self.SYSTEM_SEED, root_validators=3, root_block_time=0.5, checkpoint_period=20
        ).start()
        subnets = [
            system.spawn_subnet(
                SubnetConfig(
                    name=engine, validators=7, engine=engine, block_time=0.5,
                    checkpoint_period=20,
                )
            )
            for engine in ("tendermint", "mir")
        ]
        self._adopt_system(system)
        self._arrival_phase()
        for subnet in subnets:
            wallets = self._observed_wallets(subnet.path, 4)
            self._fund(subnet, wallets)
            self._start_payments(subnet.path, wallets, self.RATE)


class FaultHeal(HierarchyWorkload):
    NAME = "fault-heal"
    WHY = (
        "a scenario-DSL fault schedule (crash, partition, 30% loss, parent isolation) "
        "on a Tendermint subnet with every telemetry plane on: recovery paths + telemetry tax"
    )
    SIM_S_PER_SECOND = 36.0
    WARMUP_SIM_S = 55.0
    DRAIN_SIM_S = 20.1
    SYSTEM_SEED = 911
    FAULT_FREE = False
    SUBNET = "/root/s0"
    RATE = 30.0
    BLOCK_TIME = 0.5
    #: One cycle of the fault schedule: (fault, start as a fraction of the
    #: cycle, outage sim-s).  Fractions, so the schedule scales with
    #: ``--seconds`` while outage lengths — what recovery is measured
    #: against — stay fixed; each recovery finishes before the next fault.
    CYCLE = (
        ("crash", 0.05, 8.0),
        ("partition", 0.27, 10.0),
        ("loss", 0.55, 12.0),
        ("isolate", 0.80, 8.0),
    )
    #: The region holds this many cycles.  How long the subnet needs after a
    #: heal falls into one of a few round-timeout quanta (0.3 - 3 s), picked
    #: by where the link jitter left the rounds, and it sets the tail latency
    #: of the whole run: with one partition p99 jumped between 8.9, 9.9 and
    #: 11.3 s from one deployment to the next; pooled over three it stays
    #: within ~1 %, so a protocol change moves it by what it changed.
    CYCLES = 3
    RECOVERY_SAMPLE_S = 0.25

    def __init__(self, seed: int, region_sim_s: float, out_dir: str) -> None:
        super().__init__(seed, region_sim_s, out_dir)
        self.runner: ScenarioRunner = None
        self.outcome = None
        self._samples: list = []  # (sim time, recovered?) from begin_region on
        self._stop_sampler = None

    def build(self) -> None:
        self.scenario = Scenario(
            name="ledger-fault-heal",
            description="leader crash, minority partition, lossy links, parent isolation",
            topology=TopologySpec(
                root_validators=3,
                root_block_time=0.5,
                checkpoint_period=10,
                subnets=[
                    SubnetSpec(
                        name="s0", validators=7, engine="tendermint",
                        block_time=self.BLOCK_TIME, checkpoint_period=10,
                    )
                ],
            ),
            faults=self._faults(),
            duration=self.region_sim_s,
            expect=Expectation.safe(),
            # Above the longest outage, so a subnet that rides out every
            # fault is `clean`, not `liveness-stall`.
            stall_after=20.0,
        )
        self.runner = ScenarioRunner(
            self.scenario, seed=self.SYSTEM_SEED, postmortem_dir=self.out_dir
        )
        self._adopt_system(self.runner.build())
        self._arrival_phase()
        wallets = self._observed_wallets(self.SUBNET, 4)
        self._fund(self.SUBNET, wallets)
        # Clients submit through validators 1-3, which the schedule never
        # crashes (0) nor partitions away (4-6).  A wallet that pipelines
        # nonces through a cut-off entry node wedges *all* its later
        # payments behind the lost one until gossip repair finds it, 40-60
        # simulated seconds after the heal, at a moment that is chaotic in
        # the seed — that is a client's failure mode, not the subnet's
        # recovery, and it drowned every other number here (see README).
        entry = self.chains[self.SUBNET][1:4]
        self._start_payments(self.SUBNET, wallets, self.RATE, entry=entry)

    def _faults(self) -> list:
        make = {
            "crash": lambda trigger: CrashFault(trigger, self.SUBNET, select="leader"),
            "partition": lambda trigger: PartitionFault(
                trigger, self.SUBNET, select="minority"
            ),
            "loss": lambda trigger: LinkDegradeFault(
                trigger, self.SUBNET, select="all", loss=0.3
            ),
            "isolate": lambda trigger: PartitionFault(
                trigger, self.SUBNET, isolate_subnet=True
            ),
        }
        cycle_sim_s = self.region_sim_s / self.CYCLES
        return [
            make[kind](Trigger(at=(cycle + fraction) * cycle_sim_s, duration=outage))
            for cycle in range(self.CYCLES)
            for kind, fraction, outage in self.CYCLE
        ]

    def begin_region(self) -> None:
        super().begin_region()
        self._stop_sampler = self.sim.every(
            self.RECOVERY_SAMPLE_S, self._sample_recovery, label=HARNESS_LABEL + "recovery"
        )

    def _sample_recovery(self) -> None:
        nodes = self.chains[self.SUBNET]
        heights = [node.head().height for node in nodes]
        backlog = max(len(node.mempool) for node in nodes)
        recovered = (
            max(heights) - min(heights) <= 2
            and backlog <= 3 * self.RATE * self.BLOCK_TIME
        )
        self._samples.append((self.sim.now, recovered))

    def run_region(self) -> None:
        # Trigger offsets count from here: the runner arms the injector
        # when run() starts, i.e. at the start of the measured region.
        self.outcome = self.runner.run()

    def drain(self) -> None:
        super().drain()
        self._stop_sampler()

    def recovery_times(self) -> list:
        """Per fault ``(sim seconds, recovered?)``: healed -> first sample
        where every validator is within 2 blocks of the frontier and the
        mempool backlog is down to a few blocks' worth of arrivals.  A
        fault that never recovers reports the time observed so far."""
        times = []
        for fault in self.scenario.faults:
            healed = fault.healed_at
            if healed is None:
                times.append((self.sim.now - fault.trigger.at, False))
                continue
            recovered_at = next(
                (at for at, ok in self._samples if ok and at >= healed), None
            )
            if recovered_at is None:
                times.append((self.sim.now - healed, False))
            else:
                times.append((recovered_at - healed, True))
        return times

    def problems(self) -> list:
        found = super().problems()
        outcome = self.outcome
        if outcome is None or not outcome.ok:
            verdict = None if outcome is None else outcome.verdict
            notes = [] if outcome is None else outcome.notes
            found.append(f"scenario verdict {verdict}: {'; '.join(notes)}")
        elif outcome.violations:
            found.append(f"{len(outcome.violations)} invariant violations")
        if not all(recovered for _seconds, recovered in self.recovery_times()):
            found.append(f"a fault never recovered: {self.recovery_times()}")
        return found


WORKLOADS = {cls.NAME: cls for cls in (PayK8, StateWide, XnetDeep, BftVotes, FaultHeal)}
