"""The unified node/network runtime every chain in the system runs on.

The paper's framework hosts *many* subnets, each running a *different*
consensus engine over one shared transport (§II, Fig. 2).  This package is
that claim in code — one runtime, three compositions:

- :class:`~repro.runtime.node.NodeRuntime` — a full validator node
  composing (a) a pluggable :class:`~repro.consensus.base.ConsensusEngine`
  (PoW/PoS/PoA/Tendermint/Mir via the engine registry), (b) the gossip
  transport facade, and (c) the chain store / mempool / validation /
  execution pipeline from :mod:`repro.chain`;
- :class:`~repro.runtime.stack.NetworkStack` — the simulator + topology +
  transport + gossipsub fabric, built once and shared by every node of a
  deployment;
- :class:`~repro.runtime.cluster.ValidatorCluster` — N nodes validating one
  chain, with shared lifecycle and measurement helpers: the baselines' and
  the consensus tests' validator set.

The hierarchy layer composes :class:`~repro.hierarchy.node.SubnetNode`\\ s
(node runtimes) on one stack directly; both baselines and the consensus
test harness build clusters.  None keeps a private node/network stack.
"""

from repro.runtime.node import NodeRuntime, subnet_topic
from repro.runtime.stack import NetworkStack
from repro.runtime.cluster import ClusterMember, ValidatorCluster, cluster_members

__all__ = [
    "NodeRuntime",
    "subnet_topic",
    "NetworkStack",
    "ClusterMember",
    "ValidatorCluster",
    "cluster_members",
]
