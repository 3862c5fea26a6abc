"""Composable fault primitives and the injector that fires them.

Every fault targets an existing seam — the transport's partition/link
tables, :class:`~repro.runtime.node.NodeRuntime` lifecycle (stop/restart/
swap_engine), the runtime-mutable ``node.byzantine`` behaviour set, the
resolution/SA path (forged checkpoints), or the workload layer (spam) —
so injecting a fault never forks protocol code.

A fault is *armed* by the :class:`FaultInjector` at its :class:`Trigger`'s
sim-time offset, *injected* once, and — if the trigger carries a
``duration`` — *healed* that many simulated seconds later, reverting
whatever it changed.  A trigger is two numbers and a fault's parameters
are plain values, so a whole schedule prints as data
(:meth:`Fault.describe`).

Validator selectors resolve over the live topology at injection time:
``"all"``, ``"leader"`` (index 0), ``"minority"`` (largest strict
minority, taken from the tail so index 0 stays honest), ``"majority"``
(the complement), an explicit index, or a list of indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.base import ConsensusParams, make_engine
from repro.scenario.errors import ScenarioError


# ----------------------------------------------------------------------
# Triggers
# ----------------------------------------------------------------------
@dataclass
class Trigger:
    """When a fault fires and for how long it stays active.

    ``at`` counts seconds after the scenario's fault clock starts;
    ``duration=None`` means the fault is never healed.
    """

    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ScenarioError("trigger offset cannot be negative")
        if self.duration is not None and self.duration <= 0:
            raise ScenarioError("trigger duration must be positive")

    def as_dict(self) -> dict:
        return {"at": self.at, "duration": self.duration}


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
    """One injectable fault: a trigger, a target subnet, inject() and heal()."""

    KIND = "fault"

    def __init__(self, trigger: Trigger, subnet: str) -> None:
        self.trigger = trigger
        self.subnet = subnet
        self.injected_at: Optional[float] = None
        self.healed_at: Optional[float] = None

    def inject(self, system) -> None:
        raise NotImplementedError

    def heal(self, system) -> None:
        """Revert the fault; default is irreversible (nothing to do)."""

    def describe(self) -> dict:
        """The fault as JSON data: kind, trigger and public parameters."""
        detail = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(self).items()
            if not key.startswith("_")
            and key not in ("trigger", "injected_at", "healed_at")
            and isinstance(value, (str, int, float, bool, list, tuple, type(None)))
        }
        return {"kind": self.KIND, "trigger": self.trigger.as_dict(), **detail}


# ----------------------------------------------------------------------
# Network faults — transport partition/link tables
# ----------------------------------------------------------------------
class _TransportFault(Fault):
    """A fault that is one transport handle.

    Injecting partitions the ``select``-ed validators of *subnet* from
    everyone else (a subclass installs another handle through
    :meth:`_install`); healing removes exactly that handle, so another
    fault on the same links stays in force.
    """

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger, subnet)
        self.select = select
        self._handle: Optional[int] = None

    def _selected(self, system) -> list:
        return [
            node.node_id
            for node in select_validators(system, self.subnet, self.select)
        ]

    def _install(self, system) -> int:
        return system.stack.transport.partition(self._selected(system))

    def inject(self, system) -> None:
        self._handle = self._install(system)

    def heal(self, system) -> None:
        if self._handle is not None:
            system.stack.transport.heal(self._handle)
            self._handle = None


class PartitionFault(_TransportFault):
    """Split a subnet (or the whole network) along validator groups.

    ``select`` names the group to split off within *subnet* (default
    ``"minority"``); ``isolate_subnet=True`` instead cuts the entire
    subnet off from the rest of the network (the parent-link partition).
    """

    KIND = "partition"

    def __init__(
        self,
        trigger: Trigger,
        subnet: str,
        select="minority",
        isolate_subnet: bool = False,
    ) -> None:
        super().__init__(trigger, subnet, select)
        self.isolate_subnet = isolate_subnet

    def _selected(self, system) -> list:
        if self.isolate_subnet:
            return [node.node_id for node in system.nodes(self.subnet)]
        return super()._selected(system)


class LinkDegradeFault(_TransportFault):
    """Per-link loss and/or latency spike between two validator groups.

    Degrades every link between ``select`` and the rest of *subnet* (or
    between *subnet* and its parent's validators when
    ``to_parent=True``).
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
        super().__init__(trigger, subnet, select)
        self.loss = loss
        self.extra_latency = extra_latency
        self.to_parent = to_parent

    def _install(self, system) -> int:
        selected = self._selected(system)
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
        return system.stack.transport.set_link(
            selected, others, loss=self.loss, extra_latency=self.extra_latency
        )


# ----------------------------------------------------------------------
# Validator lifecycle faults — NodeRuntime stop/restart
# ----------------------------------------------------------------------
class CrashFault(Fault):
    """Crash the selected validators; healing restarts them."""

    KIND = "crash"

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger, subnet)
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
        super().__init__(trigger, subnet)
        self.period = period
        self.downtime = downtime
        self._stop = None
        self._cursor = 0
        self._down: list = []

    def inject(self, system) -> None:
        self._system = system
        self._stop = system.sim.every(
            self.period, self._churn_one, label=f"fault:churn:{self.subnet}"
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
        super().__init__(trigger, subnet)
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
#: Forgeries one :class:`ForgedCheckpointFault` submits at most.
FORGE_ATTEMPTS = 4


class ForgedCheckpointFault(Fault):
    """Mount the §II compromised-subnet attack at trigger time.

    Wraps :class:`~repro.hierarchy.firewall.CompromisedSubnet`: forges a
    checkpoint claiming *value* bottom-up to a fresh attacker address and
    submits it with genuine quorum signatures.  ``break_epoch`` keeps the
    prev-link genuine but regresses the epoch — the commit path never
    checks epoch monotonicity, so the forgery commits and the
    checkpoint-chain auditor catches it.  ``break_prev`` instead detaches
    the prev-link, which the SCA rejects outright (a probe that the
    defense holds).

    A forgery can lose its window: the mempool refuses it, or a genuine
    checkpoint still in flight lands first.  On every later parent block
    the SA has not recorded the forgery although its window is decided,
    the fault forges again against the current parent state, up to
    :data:`FORGE_ATTEMPTS` forgeries.  Irreversible — nothing to heal.
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
        super().__init__(trigger, subnet)
        self.value = value
        self.count = count
        self.break_prev = break_prev
        self.break_epoch = break_epoch
        self._attempts_left = FORGE_ATTEMPTS

    def inject(self, system) -> None:
        from repro.hierarchy.firewall import CompromisedSubnet

        self._adversary = CompromisedSubnet(system, self.subnet)
        self._forge()
        system.node(self._adversary.parent).on_commit(self._on_parent_block)

    def _forge(self) -> None:
        from repro.crypto.keys import KeyPair

        self._attempts_left -= 1
        self._forged = self._adversary.forge_extraction(
            KeyPair(("scenario-attacker", self.subnet)).address,
            self.value,
            count=self.count,
            break_prev=self.break_prev,
            break_epoch=self.break_epoch,
        )

    def _on_parent_block(self, _block) -> None:
        from repro.hierarchy.subnet_actor import (
            committed_checkpoints,
            last_committed_window,
        )

        if not self._attempts_left:
            return
        adversary = self._adversary
        forged = self._forged
        if forged is not None:
            state = adversary.system.node(adversary.parent).vm.state
            if last_committed_window(state, adversary.sa_addr) < forged.window:
                return  # its window is still open
            if any(
                signed.checkpoint.cid == forged.cid
                for signed in committed_checkpoints(
                    state, adversary.sa_addr, after=forged.window - 1
                )
            ):
                self._attempts_left = 0  # the SA holds it
                return
        self._forge()


# ----------------------------------------------------------------------
# Long-range reorg — partition a fork-capable subnet past finality
# ----------------------------------------------------------------------
class ReorgFault(_TransportFault):
    """Trigger a long-range reorg on a fork-capable (e.g. PoW) subnet.

    Partitions the selected minority so both sides keep mining; healing
    rejoins them and the shorter branch reorgs onto the longer one.  Hold
    the partition longer than ``finality_depth × block_time`` and the
    reorg is *deep* — the finality auditor's violation.
    """

    KIND = "reorg"


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
        super().__init__(trigger, subnet)
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
            1.0 / self.rate, spam_one, label=f"fault:spam:{self.subnet}"
        )

    def heal(self, system) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None


# ----------------------------------------------------------------------
# Byzantine engine swap — the make_engine plug point
# ----------------------------------------------------------------------
def rogue_proposer_engine(sim, node, validators, params):
    """A PoA engine that proposes in *every* slot, leadership be damned.

    Honest validators refuse its blocks (not ``eligible``: wrong miner for
    the slot), gossiped or range-synced, so a swapped node floods the
    subnet with invalid proposals — the byzantine engine-swap fault.
    Built through :func:`make_engine` against the ``poa`` registration,
    then given an instance leader rule: no rogue engine in the production
    registry.  Takes :meth:`NodeRuntime.swap_engine`'s factory arguments.
    """
    base = ConsensusParams(**{**vars(params), "engine": "poa"})
    engine = make_engine(sim, node, validators, base)
    # Every slot is "ours": propose regardless of the rotation.
    engine.leader_for_slot = lambda slot: validators.by_node(node.node_id)
    return engine


class EngineSwapFault(Fault):
    """Swap the selected validators' consensus engine for a rogue one.

    Uses :meth:`NodeRuntime.swap_engine` — the same plug point
    :func:`make_engine` fills at construction.  Healing swaps the
    original engines back in.
    """

    KIND = "engine-swap"

    def __init__(self, trigger: Trigger, subnet: str, select="minority") -> None:
        super().__init__(trigger, subnet)
        self.select = select
        self._originals: list = []

    def inject(self, system) -> None:
        self._originals = []
        for node in select_validators(system, self.subnet, self.select):
            old = node.swap_engine(rogue_proposer_engine)
            self._originals.append((node, old))

    def heal(self, system) -> None:
        for node, old in self._originals:
            node.swap_engine(lambda *_: old)
        self._originals = []


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Arms a fault schedule against a running system.

    Each trigger's ``at`` becomes a simulator event relative to the
    injector's start time; each fault fires once, and its optional heal is
    scheduled ``duration`` later.  ``log`` records (time, event, fault
    description) entries for the campaign report.
    """

    def __init__(self, system, faults) -> None:
        self.system = system
        self.faults = list(faults)
        self.log: list[dict] = []

    def arm(self) -> "FaultInjector":
        for fault in self.faults:
            self.system.sim.schedule(
                fault.trigger.at, self._fire, fault, label=f"fault:{fault.KIND}",
            )
        return self

    def disarm(self) -> None:
        """Heal every still-active revertible fault."""
        for fault in self.faults:
            if fault.injected_at is not None and fault.healed_at is None:
                if fault.trigger.duration is not None:
                    self._heal(fault)

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
