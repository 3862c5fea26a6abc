"""The monolithic single-chain baseline.

"The system starts with a rootnet which, at first, keeps the entire state
and processes all the transactions in the system (like present-day
Filecoin)" (§II).  This class runs exactly that: one validator set, one
chain, every transaction totally ordered by it.  Its throughput ceiling is
what hierarchical consensus scales past in E1.

The node and network layers are the shared :mod:`repro.runtime` stack —
this baseline owns no block-production or delivery code of its own.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.keys import KeyPair
from repro.consensus.base import ConsensusParams
from repro.hierarchy.genesis import subnet_genesis
from repro.hierarchy.subnet_id import ROOTNET
from repro.hierarchy.wallet import Wallet
from repro.runtime import NetworkStack, NodeRuntime, ValidatorCluster, cluster_members


class SingleChainBaseline:
    """One chain, one validator set, all transactions."""

    def __init__(
        self,
        seed: int = 1,
        validators: int = 4,
        engine: str = "poa",
        block_time: float = 1.0,
        max_block_messages: int = 500,
        wallet_funds: Optional[dict] = None,
    ) -> None:
        self.stack = NetworkStack(seed=seed)
        self.sim = self.stack.sim
        self.gossip = self.stack.gossip
        self.wallets = {
            name: Wallet(KeyPair(("baseline-wallet", name)))
            for name in (wallet_funds or {})
        }
        allocations = {
            self.wallets[name].address: funds
            for name, funds in (wallet_funds or {}).items()
        }
        genesis_block, genesis_vm = subnet_genesis(ROOTNET, allocations=allocations)
        keys = [KeyPair(("baseline-validator", i)) for i in range(validators)]
        params = ConsensusParams(
            engine=engine, block_time=block_time, max_block_messages=max_block_messages
        )
        self.cluster = ValidatorCluster.build(
            cluster_members(keys, id_prefix="base"),
            subnet_id=ROOTNET.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            consensus_params=params,
            stack=self.stack,
        )
        self.nodes = self.cluster.nodes

    def start(self) -> "SingleChainBaseline":
        self.cluster.start()
        return self

    def run_for(self, seconds: float) -> "SingleChainBaseline":
        self.stack.run_for(seconds)
        return self

    @property
    def node(self) -> NodeRuntime:
        return self.cluster.primary

    def committed_tx_count(self) -> int:
        """User transactions on the canonical chain."""
        return self.cluster.committed_tx_count()

    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        head = self.node.head()
        if head is None or head.header.timestamp == 0:
            return 0.0
        return self.committed_tx_count() / head.header.timestamp
