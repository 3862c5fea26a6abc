"""`ValidatorCluster` — N :class:`NodeRuntime`\\ s validating one chain.

The baselines and the consensus tests build their validator sets through
:meth:`ValidatorCluster.build`: keys, a
:class:`~repro.consensus.base.ValidatorSet`, one node per validator, and
their lifecycle.  The hierarchy composes its
:class:`~repro.hierarchy.node.SubnetNode`\\ s itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.keys import KeyPair
from repro.consensus.base import ConsensusParams, Validator, ValidatorSet
from repro.runtime.node import NodeRuntime
from repro.runtime.stack import NetworkStack


@dataclass(frozen=True)
class ClusterMember:
    """One validator seat: node id, signing keypair and voting power."""

    node_id: str
    keypair: KeyPair
    power: int = 1


def cluster_members(
    keys: Sequence[KeyPair],
    id_prefix: str,
    powers: Optional[Sequence[int]] = None,
) -> list[ClusterMember]:
    """Members named ``{id_prefix}#{i}``, the convention used everywhere."""
    powers = list(powers) if powers is not None else [1] * len(keys)
    return [
        ClusterMember(node_id=f"{id_prefix}#{i}", keypair=keys[i], power=powers[i])
        for i in range(len(keys))
    ]


class ValidatorCluster:
    """The validator nodes of one chain, with shared lifecycle helpers."""

    def __init__(self, subnet_id: str, validators: ValidatorSet, nodes: list) -> None:
        self.subnet_id = subnet_id
        self.validators = validators
        self.nodes = list(nodes)

    @classmethod
    def build(
        cls,
        members: Sequence[ClusterMember],
        *,
        subnet_id: str,
        genesis_block,
        genesis_vm,
        consensus_params: ConsensusParams,
        stack: NetworkStack,
        byzantine: Optional[dict] = None,
    ) -> "ValidatorCluster":
        """Build one :class:`NodeRuntime` per member on *stack*;
        ``byzantine`` maps node ids to behaviour sets."""
        validators = ValidatorSet(
            Validator(node_id=m.node_id, address=m.keypair.address, power=m.power)
            for m in members
        )
        nodes = [
            NodeRuntime(
                sim=stack.sim,
                node_id=member.node_id,
                keypair=member.keypair,
                subnet_id=subnet_id,
                genesis_block=genesis_block,
                genesis_vm=genesis_vm,
                gossip=stack.gossip,
                validators=validators,
                consensus_params=consensus_params,
                byzantine=(byzantine or {}).get(member.node_id),
            )
            for member in members
        ]
        return cls(subnet_id, validators, nodes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ValidatorCluster":
        for node in self.nodes:
            node.start()
        return self

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()

    def replay_chain(self, source: NodeRuntime) -> None:
        """Sync every node from *source*'s canonical chain (state handoff).

        The ladder a restarted node climbs, minus the network and with
        *source* trusted (its blocks skip ``eligible``): its blocks from
        the node's head on, or — when those start below *source*'s floor —
        its snapshot and the tail.
        """
        for node in self.nodes:
            if node.head().height + 1 < source.store.floor:
                node.adopt_snapshot(*source.snapshot_at(node.snapshot_anchor()))
            tail = source.blocks_in_range(node.head().height + 1, source.head().height)
            for block in tail:
                node.receive_block(block)
            node.committed_txs = source.committed_txs  # same chain, same count

    # ------------------------------------------------------------------
    # Inspection / measurement
    # ------------------------------------------------------------------
    @property
    def primary(self) -> NodeRuntime:
        """A representative (first) node."""
        return self.nodes[0]

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> NodeRuntime:
        return self.nodes[index]

    def committed_tx_count(self) -> int:
        """User transactions on the primary's canonical chain."""
        return self.primary.committed_txs
