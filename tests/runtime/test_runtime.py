"""Tests for the unified node/network runtime package."""

from repro.crypto.keys import KeyPair
from repro.baselines import ShardedBaseline, SingleChainBaseline
from repro.chain.genesis import GenesisParams, build_genesis
from repro.consensus.base import ConsensusParams
from repro.hierarchy import HierarchicalSystem
from repro.hierarchy.node import SubnetNode
from repro.runtime import (
    ClusterMember,
    NetworkStack,
    NodeRuntime,
    ValidatorCluster,
    cluster_members,
)


def build_cluster(n=3, engine="poa", seed=5, block_time=0.5):
    stack = NetworkStack(seed=seed)
    keys = [KeyPair(("rt-validator", i)) for i in range(n)]
    genesis_block, genesis_vm = build_genesis(GenesisParams(subnet_id="/root"))
    cluster = ValidatorCluster.build(
        cluster_members(keys, id_prefix="/root"),
        subnet_id="/root",
        genesis_block=genesis_block,
        genesis_vm=genesis_vm,
        consensus_params=ConsensusParams(engine=engine, block_time=block_time),
        stack=stack,
    )
    return stack, cluster


def test_network_stack_composes_shared_layers():
    stack = NetworkStack(seed=3, latency=0.01, loss_rate=0.0)
    assert stack.gossip.transport is stack.transport
    assert stack.transport.sim is stack.sim
    assert stack.transport.topology is stack.topology
    stack.run_for(2.5)
    assert stack.now == 2.5
    assert stack.wait_for(lambda: stack.now >= 2.5)


def test_cluster_produces_blocks_on_shared_runtime():
    stack, cluster = build_cluster()
    cluster.start()
    stack.run_for(5.0)
    heights = [node.head().height for node in cluster]
    assert min(heights) >= 5  # PoA at 0.5s block time
    assert len(cluster) == 3
    assert cluster[0] is cluster.primary
    cluster.stop()


def test_cluster_members_naming_and_powers():
    keys = [KeyPair(("m", i)) for i in range(3)]
    members = cluster_members(keys, id_prefix="/sub", powers=[5, 1, 2])
    assert [m.node_id for m in members] == ["/sub#0", "/sub#1", "/sub#2"]
    assert [m.power for m in members] == [5, 1, 2]


def test_default_factory_instantiates_node_runtime_with_byzantine_set():
    stack = NetworkStack(seed=8)
    keys = [KeyPair(("bz", i)) for i in range(2)]
    genesis_block, genesis_vm = build_genesis(GenesisParams(subnet_id="/root"))
    cluster = ValidatorCluster.build(
        [ClusterMember("n0", keys[0]), ClusterMember("n1", keys[1])],
        subnet_id="/root",
        genesis_block=genesis_block,
        genesis_vm=genesis_vm,
        consensus_params=ConsensusParams(engine="poa"),
        stack=stack,
        byzantine={"n1": {"equivocate"}},
    )
    assert all(type(node) is NodeRuntime for node in cluster)
    assert not cluster[0].is_byzantine("equivocate")
    assert cluster[1].is_byzantine("equivocate")


def test_replay_chain_syncs_new_nodes_from_source():
    stack, cluster = build_cluster(seed=21)
    cluster.start()
    stack.run_for(5.0)
    cluster.stop()

    keys = [KeyPair(("rt-late", i)) for i in range(2)]
    genesis_block, genesis_vm = build_genesis(GenesisParams(subnet_id="/root"))
    late = ValidatorCluster.build(
        cluster_members(keys, id_prefix="/late"),
        subnet_id="/root",
        genesis_block=genesis_block,
        genesis_vm=genesis_vm,
        consensus_params=ConsensusParams(engine="poa", block_time=0.5),
        stack=stack,
    )
    late.replay_chain(cluster.primary)
    assert late.primary.head().cid == cluster.primary.head().cid


def test_every_node_flavour_shares_the_runtime():
    """SubnetNode and both baselines all run on NodeRuntime."""
    assert issubclass(SubnetNode, NodeRuntime)
    single = SingleChainBaseline(seed=2, validators=2, block_time=0.5)
    sharded = ShardedBaseline(
        seed=2, shards=2, validators_per_shard=2, block_time=0.5
    )
    assert all(isinstance(node, NodeRuntime) for node in single.nodes)
    assert all(
        isinstance(node, NodeRuntime)
        for shard in sharded.shard_nodes
        for node in shard
    )


def test_hierarchical_system_runs_on_cluster_runtime():
    system = HierarchicalSystem(seed=4, root_block_time=0.5).start()
    from repro.hierarchy import ROOTNET

    assert ROOTNET in system.clusters
    assert system.nodes_by_subnet[ROOTNET] is system.clusters[ROOTNET].nodes
    assert all(isinstance(n, NodeRuntime) for n in system.nodes(ROOTNET))
    system.run_for(3.0)
    assert system.node(ROOTNET).head().height >= 3
    # Dispatch instrumentation observed the run's event labels.
    assert system.sim.dispatch.counts
    system.stop()


def test_baselines_flow_through_instrumented_dispatch():
    baseline = SingleChainBaseline(seed=9, validators=2, block_time=0.5).start()
    baseline.run_for(3.0)
    counts = baseline.sim.dispatch.counts
    assert sum(counts.values()) == baseline.sim.events_executed
    baseline.sim.dispatch.publish()
    gauges = baseline.sim.metrics.snapshot()["gauges"]
    assert any(name.startswith("sim.dispatch.") for name in gauges)


def test_state_root_work_is_published_and_the_leaf_table_shared():
    """The executing validator reports what its root cost — a few leaves per
    block under payments, not the state — and every validator of the chain
    (and every retained snapshot) holds the one leaf table."""
    from repro.workloads import PaymentWorkload, sender_fund_spec

    funds = sender_fund_spec(4, scope="root-work")
    baseline = SingleChainBaseline(
        seed=3, validators=3, block_time=0.5, wallet_funds=funds
    ).start()
    senders = [baseline.wallets[name] for name in funds]
    PaymentWorkload(baseline.sim, baseline.nodes, senders, rate=40.0).start()
    baseline.run_for(10.25)
    gauges = baseline.sim.metrics.snapshot()["gauges"]
    assert 0 < gauges["state.root.buckets_rehashed"] <= gauges["state.root.leaves_encoded"]
    assert gauges["state.root.leaves_encoded"] < 100  # ~20 payments a block
    tables = {id(node.vm.state._table) for node in baseline.nodes}
    tables |= {
        id(node.store.get_state(node.store.head_cid)._table) for node in baseline.nodes
    }
    assert len(tables) == 1
