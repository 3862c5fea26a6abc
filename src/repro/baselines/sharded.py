"""Traditional sharding baseline (§I, §V).

"In existing sharded designs, the system often acts as a distributed
controller that assigns miners to different shards and attempts to
load-balance the state evenly across shards … sharding may lead to the
ability of the attacker to compromise a single shard with only a fraction
of the mining power … To circumvent them, sharding systems need to
periodically reassign miners to shards in an unpredictable way" (§I).

This baseline implements exactly that control plane over the shared
:mod:`repro.runtime` stack (it owns no node or delivery code of its own):

- a fixed global validator pool is *assigned* (not self-selected) to k
  shards by seeded random permutation;
- every ``reshuffle_interval`` seconds the controller reassigns everyone,
  pausing the affected shards for ``reshuffle_downtime`` (state/handoff
  sync) — the overhead term in E1;
- :func:`shard_compromise_probability` computes the 1%-attack exposure:
  the probability that at least one shard gives an adversary controlling a
  fraction of the pool a majority — and, unlike hierarchical consensus,
  a compromised shard here has **no firewall**: it can forge arbitrary
  state affecting the whole system (E6's comparison point).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.keys import KeyPair
from repro.consensus.base import ConsensusParams
from repro.hierarchy.genesis import subnet_genesis
from repro.hierarchy.subnet_id import SubnetID
from repro.hierarchy.wallet import Wallet
from repro.runtime import ClusterMember, NetworkStack, NodeRuntime, ValidatorCluster


class ShardedBaseline:
    """k PoA shards over a global pool with periodic random reshuffling."""

    def __init__(
        self,
        seed: int = 1,
        shards: int = 4,
        validators_per_shard: int = 4,
        block_time: float = 1.0,
        reshuffle_interval: float = 30.0,
        reshuffle_downtime: float = 2.0,
        wallet_funds: Optional[dict] = None,
    ) -> None:
        self.stack = NetworkStack(seed=seed)
        self.sim = self.stack.sim
        self.gossip = self.stack.gossip
        self.shards = shards
        self.validators_per_shard = validators_per_shard
        self.block_time = block_time
        self.reshuffle_interval = reshuffle_interval
        self.reshuffle_downtime = reshuffle_downtime
        self.reshuffles = 0
        self.downtime_total = 0.0

        pool_size = shards * validators_per_shard
        self.pool = [KeyPair(("shard-validator", i)) for i in range(pool_size)]
        self._rng = self.sim.rng("shard-controller")

        self.wallets = {
            name: Wallet(KeyPair(("shard-wallet", name)))
            for name in (wallet_funds or {})
        }
        allocations = {
            self.wallets[name].address: funds
            for name, funds in (wallet_funds or {}).items()
        }
        # One genesis per shard; wallets are funded on every shard so the
        # workload generator can address any shard uniformly.
        self.shard_clusters: list[Optional[ValidatorCluster]] = [None] * shards
        self.shard_nodes: list[list[NodeRuntime]] = [[] for _ in range(shards)]
        self._genesis = []
        for shard in range(shards):
            subnet = SubnetID(f"/shard{shard}")
            block, vm = subnet_genesis(subnet, allocations=allocations)
            self._genesis.append((subnet, block, vm))
        self._assignment: list[list[int]] = []
        self._assign()
        self._stop_reshuffle = self.sim.every(
            reshuffle_interval, self._reshuffle, label="shard:reshuffle"
        )

    # ------------------------------------------------------------------
    # Controller: assignment and reshuffling
    # ------------------------------------------------------------------
    def _assign(self) -> None:
        """(Re)assign the pool to shards by seeded random permutation."""
        order = list(range(len(self.pool)))
        self._rng.shuffle(order)
        self._assignment = [
            order[s * self.validators_per_shard : (s + 1) * self.validators_per_shard]
            for s in range(self.shards)
        ]
        for shard in range(self.shards):
            self._rebuild_shard(shard)

    def _rebuild_shard(self, shard: int) -> None:
        old = self.shard_clusters[shard]
        if old is not None:
            old.stop()
        subnet, block, vm = self._genesis[shard]
        # Node ids must match the validator-set ids; gossip re-subscribe
        # replaces the stopped predecessor's handler for the same id.
        members = [
            ClusterMember(node_id=f"{subnet.path}#{i}", keypair=self.pool[i])
            for i in self._assignment[shard]
        ]
        params = ConsensusParams(engine="poa", block_time=self.block_time)
        cluster = ValidatorCluster.build(
            members,
            subnet_id=subnet.path,
            genesis_block=block,
            genesis_vm=vm,
            consensus_params=params,
            stack=self.stack,
        )
        # Nodes restart from the shard's current canonical chain: the new
        # assignees sync state from the leavers.  We model the handoff by
        # replaying a surviving replica's chain (or genesis) after the
        # downtime window.
        if old is not None and old.nodes:
            cluster.replay_chain(old.primary)
        self.shard_clusters[shard] = cluster
        self.shard_nodes[shard] = cluster.nodes

    def _reshuffle(self) -> None:
        """Periodic unpredictable reassignment, with downtime (§I)."""
        self.reshuffles += 1
        self.downtime_total += self.reshuffle_downtime * self.shards
        for cluster in self.shard_clusters:
            cluster.stop()
        self._assign()
        # Shards resume after the handoff window.
        self.sim.schedule(self.reshuffle_downtime, self._resume, label="shard:resume")

    def _resume(self) -> None:
        for cluster in self.shard_clusters:
            cluster.start()

    # ------------------------------------------------------------------
    # Lifecycle / measurement
    # ------------------------------------------------------------------
    def start(self) -> "ShardedBaseline":
        for cluster in self.shard_clusters:
            cluster.start()
        return self

    def run_for(self, seconds: float) -> "ShardedBaseline":
        self.stack.run_for(seconds)
        return self

    def node(self, shard: int) -> NodeRuntime:
        return self.shard_clusters[shard].primary


def shard_compromise_probability(
    pool_size: int,
    shards: int,
    adversary_fraction: float,
    trials: int = 20_000,
    seed: int = 7,
) -> float:
    """P(at least one shard has an adversarial majority) under random
    assignment — the 1%-attack exposure of traditional sharding (§I).

    Estimated by Monte-Carlo over seeded random assignments (exact
    hypergeometric products are unwieldy for the union across shards).
    """
    import random

    rng = random.Random(seed)
    adversaries = int(pool_size * adversary_fraction)
    per_shard = pool_size // shards
    majority = per_shard // 2 + 1
    hits = 0
    pool = [1] * adversaries + [0] * (pool_size - adversaries)
    for _ in range(trials):
        rng.shuffle(pool)
        for s in range(shards):
            if sum(pool[s * per_shard : (s + 1) * per_shard]) >= majority:
                hits += 1
                break
    return hits / trials
