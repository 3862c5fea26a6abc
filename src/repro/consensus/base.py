"""Consensus engine interface and validator sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.keys import Address
from repro.chain.block import FullBlock
from repro.sim.observe import RoundEvent


@dataclass(frozen=True)
class Validator:
    """One consensus participant: a node and its mining power/stake."""

    node_id: str
    address: Address
    power: int = 1


class ValidatorSet:
    """An ordered set of validators with power-weighted helpers."""

    def __init__(self, validators) -> None:
        ordered = sorted(validators, key=lambda v: v.node_id)
        if not ordered:
            raise ValueError("validator set cannot be empty")
        # The set never changes after construction, and the BFT engines
        # ask for members and totals on every vote — derive them once.
        self._by_node: dict[str, Validator] = {}
        for validator in ordered:
            if validator.node_id in self._by_node:
                raise ValueError(f"duplicate validator {validator.node_id}")
            if validator.power <= 0:
                raise ValueError(f"validator {validator.node_id} has no power")
            self._by_node[validator.node_id] = validator
        self.validators = ordered
        self.total_power = sum(v.power for v in ordered)
        #: Power needed for a BFT quorum: > 2/3 of total.
        self.quorum_power = self.total_power * 2 // 3 + 1

    def __len__(self) -> int:
        return len(self.validators)

    def __iter__(self):
        return iter(self.validators)

    def by_node(self, node_id: str) -> Optional[Validator]:
        return self._by_node.get(node_id)

    def contains(self, node_id: str) -> bool:
        return node_id in self._by_node

    def round_robin(self, index: int) -> Validator:
        return self.validators[index % len(self.validators)]

    def weighted_choice(self, rng) -> Validator:
        """Power-weighted random validator (PoS leader lottery)."""
        target = rng.randrange(self.total_power)
        cumulative = 0
        for validator in self.validators:
            cumulative += validator.power
            if target < cumulative:
                return validator
        return self.validators[-1]

    def power_of(self, node_ids) -> int:
        ids = set(node_ids)
        return sum(v.power for v in self.validators if v.node_id in ids)


@dataclass
class ConsensusParams:
    """Engine tunables; not every engine uses every field."""

    engine: str = "poa"
    block_time: float = 1.0  # target seconds between blocks
    max_block_messages: int = 500
    finality_depth: int = 5  # PoW probabilistic finality
    mir_leaders: int = 4


class ConsensusEngine:
    """Base class all engines implement.

    The *node* argument is the engine's window on the world; it must provide:

    - ``node_id`` (str), ``subnet_id`` (str), ``miner_address`` (Address)
    - ``head()`` → current canonical head FullBlock
    - ``assemble_block(height, parent_cid, consensus_data,
      message_filter=None)`` → FullBlock built from the node's pools (only
      the messages the filter admits) against the parent state
    - ``receive_block(block, sender=None)`` → bool: the one block intake
      path — validate, execute, store, and make the block the head if it
      tips the longest chain; False when invalid, already known, or parked
      as an orphan.  Parking a block *sender* delivered from beyond
      ``head + 1`` also fetches the missing range from that peer, so
      engines never sync blocks themselves; a peer's block reaches it only
      once :meth:`eligible`
    - ``broadcast(kind, payload)`` → publish on the subnet's consensus topic
      (delivered back to every validator's engine via ``handle``)
    - ``is_byzantine(behaviour)`` → bool for fault-injection experiments
    """

    NAME = "base"

    def __init__(self, sim, node, validators: ValidatorSet, params: ConsensusParams) -> None:
        self.sim = sim
        self.node = node
        self.validators = validators
        self.params = params
        self.running = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    # -- network --------------------------------------------------------
    def handle(self, kind: str, payload: Any, sender: str) -> None:
        """Process a consensus message published by *sender*."""
        raise NotImplementedError

    def eligible(self, block: FullBlock) -> bool:
        """May *block*'s miner have produced it?  The one rule a block from
        a peer passes — gossiped, or in a ``chain:blocks`` reply — before
        the node's intake sees it."""
        raise NotImplementedError

    # -- finality -------------------------------------------------------
    def final_height(self) -> int:
        """Highest height this engine considers final: the head itself."""
        return self.node.head().height

    # -- introspection --------------------------------------------------
    def debug_state(self) -> dict:
        """Live engine state for stall diagnosis (JSON-safe plain data).

        Engines override to expose their round/slot machinery — current
        height/round/step, locked values, vote books, expected leader —
        so a :class:`~repro.telemetry.rounds.StallDiagnoser` can name the
        missing quorum without reaching into private attributes.
        """
        return {"engine": self.NAME, "running": self.running}

    # -- helpers --------------------------------------------------------
    def _metric(self, family: str):
        """This subnet's counter of a ``consensus.*.<event>`` family."""
        return self.sim.metrics.counter(family, self.node.subnet_id)

    def _trace_round(self, kind: str, **fields) -> None:
        """Report one round/view transition on the observation stream."""
        self.sim.observe(
            RoundEvent, self.node.subnet_id, self.node.node_id, kind,
            self.sim.now, fields,
        )

    def _observe_block_interval(self, block: FullBlock) -> None:
        hist = self.sim.metrics.histogram("consensus.*.block_interval", self.node.subnet_id)
        head = self.node.head()
        if block.height == head.height + 1:
            hist.observe(block.header.timestamp - head.header.timestamp)

    def _publish_block(self, block: FullBlock, **where) -> None:
        """Proposer side of a self-certifying block we just assembled.

        Commit locally first, then broadcast to the subnet topic.  *where*
        (the slot, for slot engines) is narrated on both round events.
        """
        self._trace_round(
            "propose", height=block.height, **where,
            proposer=self.node.node_id, cid=block.cid.hex()[:16],
        )
        self._observe_block_interval(block)
        self.node.receive_block(block)
        self._trace_round("commit", height=block.height, **where)
        self.node.broadcast("block", block)

    def _accept_block(self, block: FullBlock, sender: str) -> bool:
        """Receiver side: hand *sender*'s block to the node's intake if it
        is :meth:`eligible`.

        False covers ineligible, invalid, duplicate and parked-orphan alike
        — the node fetches any gap behind an orphan from *sender* on its own.
        """
        if not self.eligible(block):
            return False
        return self.node.receive_block(block, sender=sender)


_ENGINES: dict[str, type] = {}


def register_engine(engine_class: type) -> type:
    """Class decorator registering an engine under its NAME."""
    _ENGINES[engine_class.NAME] = engine_class
    return engine_class


def make_engine(sim, node, validators: ValidatorSet, params: ConsensusParams) -> ConsensusEngine:
    """Instantiate the engine named by ``params.engine``."""
    engine_class = _ENGINES.get(params.engine)
    if engine_class is None:
        raise ValueError(
            f"unknown consensus engine {params.engine!r}; have {sorted(_ENGINES)}"
        )
    return engine_class(sim, node, validators, params)
