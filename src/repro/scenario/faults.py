"""Composable fault primitives and the injector that fires them.

Every fault targets an existing seam — the transport's partition/link
tables, :class:`~repro.runtime.node.NodeRuntime` lifecycle (stop/restart/
swap_engine), the runtime-mutable ``node.byzantine`` behaviour set, the
resolution/SA path (forged checkpoints), or the workload layer (spam) —
so injecting a fault never forks protocol code.

A fault is *armed* by the :class:`FaultInjector` according to its
:class:`Trigger` (a sim-time offset, or a predicate polled on a fixed
cadence), *injected* once, and — if the trigger carries a ``duration`` —
*healed* that many simulated seconds later, reverting whatever it changed.

Validator selectors resolve over the live topology at injection time:
``"all"``, ``"leader"`` (index 0), ``"minority"`` (largest strict
minority, taken from the tail so index 0 stays honest), ``"majority"``
(the complement), an explicit index, or a list of indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.consensus.base import ConsensusParams, make_engine
from repro.scenario.errors import ScenarioError


# ----------------------------------------------------------------------
# Triggers
# ----------------------------------------------------------------------
@dataclass
class Trigger:
    """When a fault fires and for how long it stays active.

    Exactly one of ``at`` (seconds after the scenario's fault clock
    starts) or ``when`` (a callable ``predicate(system) -> bool``) must be
    set.  ``duration=None`` means the fault is never healed.
    """

    at: Optional[float] = None
    when: Optional[Callable] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.at is None) == (self.when is None):
            raise ScenarioError("trigger needs exactly one of at= or when=")
        if self.when is not None and not callable(self.when):
            raise ScenarioError(f"trigger when= must be callable, got {self.when!r}")
        if self.at is not None and self.at < 0:
            raise ScenarioError("trigger offset cannot be negative")
        if self.duration is not None and self.duration <= 0:
            raise ScenarioError("trigger duration must be positive")

    def as_dict(self) -> dict:
        return {
            "at": self.at,
            "when": None if self.when is None else "<callable>",
            "duration": self.duration,
        }


# ----------------------------------------------------------------------
# Target selectors
# ----------------------------------------------------------------------
def select_validators(system, subnet, select) -> list:
    """Resolve a validator selector over *subnet*'s live cluster.

    Returns node runtimes in deterministic (cluster) order.  ``minority``
    is the largest strict minority by count, taken from the *tail* of the
    cluster so the representative node 0 stays in the majority;
    ``majority`` is its complement; ``leader`` is node 0.
    """
    nodes = system.nodes(subnet)
    if select is None or select == "all":
        return list(nodes)
    if select == "leader":
        return [nodes[0]]
    if select == "minority":
        k = (len(nodes) - 1) // 2
        if k == 0:
            raise ScenarioError(f"{subnet} has no strict minority to select")
        return list(nodes[-k:])
    if select == "majority":
        k = (len(nodes) - 1) // 2
        return list(nodes[: len(nodes) - k])
    if isinstance(select, int):
        return [nodes[select]]
    if isinstance(select, (list, tuple)):
        return [nodes[i] for i in select]
    raise ScenarioError(f"unknown validator selector {select!r}")


# ----------------------------------------------------------------------
# Fault base
# ----------------------------------------------------------------------
class Fault:
    """One injectable fault: a trigger, a target, inject() and heal()."""

    KIND = "fault"

    def __init__(self, trigger: Trigger) -> None:
        self.trigger = trigger
        self.injected_at: Optional[float] = None
        self.healed_at: Optional[float] = None

    def inject(self, system) -> None:
        raise NotImplementedError

    def heal(self, system) -> None:
        """Revert the fault; default is irreversible (nothing to do)."""

    def describe(self) -> dict:
        detail = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_")
            and key not in ("trigger", "injected_at", "healed_at")
            and isinstance(value, (str, int, float, bool, list, tuple, type(None)))
        }
        return {"kind": self.KIND, "trigger": self.trigger.as_dict(), **detail}


# ----------------------------------------------------------------------
# Network faults — transport partition/link tables
# ----------------------------------------------------------------------
class PartitionFault(Fault):
    """Split a subnet (or the whole network) along validator groups.

    ``select`` names the group to split off within *subnet* (default
    ``"minority"``); ``isolate_subnet=True`` instead cuts the entire
    subnet off from the rest of the network (the parent-link partition).
    Healing removes exactly this partition.
    """

    KIND = "partition"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        select="minority",
        isolate_subnet: bool = False,
    ) -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.select = select
        self.isolate_subnet = isolate_subnet
        self._handle: Optional[int] = None

    def inject(self, system) -> None:
        transport = system.stack.transport
        if self.isolate_subnet:
            group = [node.node_id for node in system.nodes(self.subnet)]
        else:
            group = [
                node.node_id
                for node in select_validators(system, self.subnet, self.select)
            ]
        self._handle = transport.partition(group)

    def heal(self, system) -> None:
        if self._handle is not None:
            system.stack.transport.heal(self._handle)
            self._handle = None


class LinkDegradeFault(Fault):
    """Per-link loss and/or latency spike between two validator groups.

    Degrades every link between ``select`` and the rest of *subnet* (or
    between *subnet* and its parent's validators when
    ``to_parent=True``).  Healing zeroes the overrides.
    """

    KIND = "link-degrade"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        select="all",
        loss: float = 0.0,
        extra_latency: float = 0.0,
        to_parent: bool = False,
    ) -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.select = select
        self.loss = loss
        self.extra_latency = extra_latency
        self.to_parent = to_parent
        self._pairs: Optional[tuple] = None

    def _groups(self, system) -> tuple:
        selected = [
            node.node_id
            for node in select_validators(system, self.subnet, self.select)
        ]
        if self.to_parent:
            from repro.hierarchy.subnet_id import SubnetID

            parent = SubnetID(self.subnet).parent()
            others = [node.node_id for node in system.nodes(parent)]
        else:
            chosen = set(selected)
            others = [
                node.node_id
                for node in system.nodes(self.subnet)
                if node.node_id not in chosen
            ]
            if not others:  # degrading "all" means every intra-subnet link
                others = selected
        return selected, others

    def inject(self, system) -> None:
        selected, others = self._groups(system)
        system.stack.transport.set_link(
            selected, others, loss=self.loss, extra_latency=self.extra_latency
        )
        self._pairs = (tuple(selected), tuple(others))

    def heal(self, system) -> None:
        if self._pairs is not None:
            selected, others = self._pairs
            system.stack.transport.set_link(
                selected, others, loss=0.0, extra_latency=0.0
            )
            self._pairs = None


# ----------------------------------------------------------------------
# Validator lifecycle faults — NodeRuntime stop/restart
# ----------------------------------------------------------------------
class CrashFault(Fault):
    """Crash the selected validators; healing restarts them."""

    KIND = "crash"

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.select = select
        self._crashed: list = []

    def inject(self, system) -> None:
        self._crashed = select_validators(system, self.subnet, self.select)
        for node in self._crashed:
            node.stop()

    def heal(self, system) -> None:
        for node in self._crashed:
            node.restart()
        self._crashed = []


class ChurnFault(Fault):
    """Rolling validator churn: crash/restart validators one at a time.

    Every ``period`` seconds the next validator (round-robin over the
    subnet, skipping index 0 so the cluster keeps a stable observer) is
    crashed for ``downtime`` seconds.  Healing stops the cycle and
    restarts anything still down.
    """

    KIND = "churn"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        period: float = 5.0,
        downtime: float = 2.0,
    ) -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.period = period
        self.downtime = downtime
        self._stop = None
        self._cursor = 0
        self._down: list = []

    def inject(self, system) -> None:
        self._system = system
        self._stop = system.sim.every(
            self.period, self._churn_one, label=f"fault:churn:{self.subnet}",
            on_error="log",
        )

    def _churn_one(self) -> None:
        nodes = self._system.nodes(self.subnet)
        if len(nodes) < 2:
            return
        victim = nodes[1 + self._cursor % (len(nodes) - 1)]
        self._cursor += 1
        victim.stop()
        self._down.append(victim)

        def come_back(node=victim):
            if node in self._down:
                self._down.remove(node)
                node.restart()

        self._system.sim.schedule(
            self.downtime, come_back, label=f"fault:churn-restart:{self.subnet}"
        )

    def heal(self, system) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None
        for node in list(self._down):
            node.restart()
        self._down = []


# ----------------------------------------------------------------------
# Byzantine behaviour faults — the runtime-mutable node.byzantine set
# ----------------------------------------------------------------------
class ByzantineFault(Fault):
    """Flip byzantine behaviour flags on the selected validators.

    ``behaviours`` come from the runtime's fault-injection vocabulary
    (``withhold_block``, ``withhold_vote``, ``equivocate_vote``,
    ``equivocate_checkpoint``, ``withhold_checkpoint_sig``,
    ``withhold_checkpoint``).  Healing removes exactly the flags this
    fault added (flags the node already had stay).
    """

    KIND = "byzantine"

    def __init__(self, trigger: Trigger, subnet: str, behaviours, select="all") -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.behaviours = tuple(
            (behaviours,) if isinstance(behaviours, str) else behaviours
        )
        self.select = select
        self._added: list = []

    def inject(self, system) -> None:
        self._added = []
        for node in select_validators(system, self.subnet, self.select):
            added = set(self.behaviours) - node.byzantine
            node.byzantine |= added
            self._added.append((node, added))

    def heal(self, system) -> None:
        for node, added in self._added:
            node.byzantine -= added
        self._added = []


class EquivocationFault(ByzantineFault):
    """Leader equivocation: the selected validators sign conflicting
    checkpoints for the same window (``equivocate_checkpoint``)."""

    KIND = "equivocation"

    def __init__(self, trigger: Trigger, subnet: str, select="leader") -> None:
        super().__init__(
            trigger, subnet, behaviours=("equivocate_checkpoint",), select=select
        )


class CheckpointWithholdFault(ByzantineFault):
    """Checkpoint withholding: the selected validators neither sign nor
    submit checkpoints, so the subnet stops anchoring to its parent."""

    KIND = "checkpoint-withhold"

    def __init__(self, trigger: Trigger, subnet: str, select="all") -> None:
        super().__init__(
            trigger,
            subnet,
            behaviours=("withhold_checkpoint_sig", "withhold_checkpoint"),
            select=select,
        )


# ----------------------------------------------------------------------
# Attack faults — forged checkpoints through the SA seam
# ----------------------------------------------------------------------
class ForgedCheckpointFault(Fault):
    """Mount the §II compromised-subnet attack at trigger time.

    Wraps :class:`~repro.hierarchy.firewall.CompromisedSubnet`: forges a
    checkpoint claiming *value* bottom-up to a fresh attacker address and
    submits it with genuine quorum signatures.  ``break_epoch`` keeps the
    prev-link genuine but regresses the epoch — the commit path never
    checks epoch monotonicity, so the forgery commits and the
    checkpoint-chain auditor catches it.  ``break_prev`` instead detaches
    the prev-link, which the SCA rejects outright (a probe that the
    defense holds).  Irreversible — there is nothing to heal.
    """

    KIND = "forged-checkpoint"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        value: int = 0,
        count: int = 1,
        break_prev: bool = False,
        break_epoch: bool = False,
    ) -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.value = value
        self.count = count
        self.break_prev = break_prev
        self.break_epoch = break_epoch

    def inject(self, system) -> None:
        from repro.crypto.keys import KeyPair
        from repro.hierarchy.firewall import CompromisedSubnet

        attacker = KeyPair(("scenario-attacker", self.subnet)).address
        CompromisedSubnet(system, self.subnet).forge_extraction(
            attacker,
            self.value,
            count=self.count,
            break_prev=self.break_prev,
            break_epoch=self.break_epoch,
        )


# ----------------------------------------------------------------------
# Long-range reorg — partition a fork-capable subnet past finality
# ----------------------------------------------------------------------
class ReorgFault(Fault):
    """Trigger a long-range reorg on a fork-capable (e.g. PoW) subnet.

    Partitions the selected minority so both sides keep mining; healing
    rejoins them and the shorter branch reorgs onto the longer one.  Hold
    the partition longer than ``finality_depth × block_time`` and the
    reorg is *deep* — the finality auditor's violation.
    """

    KIND = "reorg"

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.select = select
        self._handle: Optional[int] = None

    def inject(self, system) -> None:
        group = [
            node.node_id
            for node in select_validators(system, self.subnet, self.select)
        ]
        self._handle = system.stack.transport.partition(group)

    def heal(self, system) -> None:
        if self._handle is not None:
            system.stack.transport.heal(self._handle)
            self._handle = None


# ----------------------------------------------------------------------
# Cross-msg spam — the workload seam
# ----------------------------------------------------------------------
class CrossMsgSpamFault(Fault):
    """Open-loop cross-net spam from *subnet* toward *to_subnet*.

    Submits ``rate`` cross-msgs per second from a pre-funded scenario
    wallet (the runner funds ``spam`` wallets when this fault is present).
    Healing stops the flood; in-flight messages still drain.
    """

    KIND = "crossmsg-spam"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        to_subnet: str = "/root",
        rate: float = 20.0,
        value: int = 1,
    ) -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.to_subnet = to_subnet
        self.rate = rate
        self.value = value
        self._stop = None

    def inject(self, system) -> None:
        from repro.crypto.keys import KeyPair
        from repro.hierarchy.wallet import Wallet

        wallet = system.wallets.get(f"spam-{self.subnet}")
        if wallet is None:
            raise ScenarioError(
                f"crossmsg-spam needs a funded 'spam-{self.subnet}' wallet "
                "(the scenario runner provisions it)"
            )
        sink = Wallet(KeyPair(("scenario-spam-sink", self.subnet))).address

        def spam_one():
            system.cross_send(
                wallet, self.subnet, self.to_subnet, sink, self.value
            )

        self._stop = system.sim.every(
            1.0 / self.rate, spam_one, label=f"fault:spam:{self.subnet}",
            on_error="log",
        )

    def heal(self, system) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None


# ----------------------------------------------------------------------
# Byzantine engine swap — the make_engine plug point
# ----------------------------------------------------------------------
class RogueProposerEngine:
    """A PoA engine that proposes in *every* slot, leadership be damned.

    Honest validators reject its blocks (wrong miner for the slot), so a
    swapped node floods the subnet with invalid proposals — the byzantine
    engine-swap fault.  Built through :func:`make_engine` against the
    ``poa`` registration, then rewired: composition keeps this out of the
    consensus package (no rogue engine in the production registry).
    """

    def __init__(self, sim, node, validators, params) -> None:
        base = ConsensusParams(**{**vars(params), "engine": "poa"})
        self._engine = make_engine(sim, node, validators, base)
        # Every slot is "ours": propose regardless of the rotation.
        self._engine.leader_for_slot = lambda slot: validators.by_node(node.node_id)

    @property
    def running(self) -> bool:
        return self._engine.running

    @property
    def params(self):
        return self._engine.params

    def start(self) -> None:
        self._engine.start()

    def stop(self) -> None:
        self._engine.stop()

    def handle(self, kind, payload, sender) -> None:
        self._engine.handle(kind, payload, sender)


class EngineSwapFault(Fault):
    """Swap the selected validators' consensus engine for a rogue one.

    Uses :meth:`NodeRuntime.swap_engine` — the same plug point
    :func:`make_engine` fills at construction.  Healing swaps the
    original engines back in.
    """

    KIND = "engine-swap"

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger)
        self.subnet = subnet
        self.select = select
        self._originals: list = []

    def inject(self, system) -> None:
        self._originals = []
        for node in select_validators(system, self.subnet, self.select):
            old = node.swap_engine(RogueProposerEngine)
            self._originals.append((node, old))

    def heal(self, system) -> None:
        for node, old in self._originals:
            was_running = node.engine.running
            node.engine.stop()
            node.engine = old
            if was_running:
                old.start()
        self._originals = []


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Arms a fault schedule against a running system.

    ``at`` triggers become simulator events relative to the injector's
    start time; ``when`` predicates are polled every ``poll_interval``
    simulated seconds.  Each fault fires once; its optional heal is
    scheduled ``duration`` later.  ``log`` records (time, event, fault
    description) tuples for the campaign report.
    """

    def __init__(self, system, faults, poll_interval: float = 0.25) -> None:
        self.system = system
        self.faults = list(faults)
        self.poll_interval = poll_interval
        self.log: list[dict] = []
        self._pending: list = []  # faults awaiting their when=
        self._stop_poll = None

    def arm(self) -> "FaultInjector":
        sim = self.system.sim
        for fault in self.faults:
            if fault.trigger.when is None:
                sim.schedule(
                    fault.trigger.at, self._fire, fault,
                    label=f"fault:{fault.KIND}",
                )
            else:
                self._pending.append(fault)
        if self._pending:
            self._stop_poll = sim.every(
                self.poll_interval, self._poll, label="fault:poll", on_error="log"
            )
        return self

    def disarm(self) -> None:
        """Stop polling and heal every still-active revertible fault."""
        if self._stop_poll is not None:
            self._stop_poll()
            self._stop_poll = None
        self._pending = []
        for fault in self.faults:
            if fault.injected_at is not None and fault.healed_at is None:
                if fault.trigger.duration is not None:
                    self._heal(fault)

    def _poll(self) -> None:
        fired = [fault for fault in self._pending if fault.trigger.when(self.system)]
        for fault in fired:
            self._pending.remove(fault)
            self._fire(fault)
        if not self._pending and self._stop_poll is not None:
            self._stop_poll()
            self._stop_poll = None

    def _fire(self, fault: Fault) -> None:
        sim = self.system.sim
        fault.inject(self.system)
        fault.injected_at = sim.now
        self.log.append({"time": sim.now, "event": "inject", **fault.describe()})
        if fault.trigger.duration is not None:
            sim.schedule(
                fault.trigger.duration, self._heal, fault,
                label=f"fault:heal:{fault.KIND}",
            )

    def _heal(self, fault: Fault) -> None:
        if fault.healed_at is not None:
            return
        sim = self.system.sim
        fault.heal(self.system)
        fault.healed_at = sim.now
        self.log.append({"time": sim.now, "event": "heal", **fault.describe()})
