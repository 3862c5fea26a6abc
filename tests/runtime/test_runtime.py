"""Tests for the unified node/network runtime package."""

from dataclasses import replace

import pytest

from repro.crypto.keys import KeyPair
from repro.baselines import ShardedBaseline, SingleChainBaseline
from repro.chain.genesis import GenesisParams, build_genesis
from repro.consensus.base import ConsensusParams
from repro.hierarchy import ROOTNET, HierarchicalSystem, SpawnError, SubnetConfig
from repro.hierarchy.node import SubnetNode
from repro.runtime import (
    ClusterMember,
    NetworkStack,
    NodeRuntime,
    ValidatorCluster,
    cluster_members,
)

from tests.chain.canonical import canonical_chain


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


def test_a_stopped_node_leaves_its_topic_but_not_the_fabric():
    stack, cluster = build_cluster()
    cluster.start()
    stack.run_for(2.0)
    node = cluster[2]
    node.stop()
    assert stack.transport.is_registered(node.node_id)  # peers never leave
    assert node.node_id not in stack.gossip._topic_members[node.topic]
    height = node.head().height
    stack.run_for(3.0)
    assert node.head().height == height < cluster[0].head().height
    node.restart()
    assert node.node_id in stack.gossip._topic_members[node.topic]
    stack.run_for(5.0)
    assert node.head().height >= cluster[0].head().height - 1
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

    assert all(isinstance(n, NodeRuntime) for n in system.nodes(ROOTNET))
    system.run_for(3.0)
    assert system.node(ROOTNET).head().height >= 3
    # Dispatch instrumentation observed the run's event labels.
    assert system.sim.dispatch.counts
    system.stop()


def test_the_root_config_is_the_one_description_of_the_rootnet():
    """The root is stood up from ``configs[ROOTNET]`` exactly as a child
    is from its own config: a child spawned from a copy of it gets equal
    consensus parameters, and both run the acceleration service."""
    system = HierarchicalSystem(
        seed=3, root_engine="pow", root_validators=5, root_block_time=0.7,
        checkpoint_period=6, accelerate_root=True,
    ).start()
    root = system.configs[ROOTNET]
    assert (root.engine, root.validators, root.block_time) == ("pow", 5, 0.7)
    assert (root.checkpoint_period, root.accelerate) == (6, True)
    twin = system.spawn_subnet(replace(root, name="twin", parent=ROOTNET))
    child_params = system.node(twin).engine.params
    assert len(system.nodes(ROOTNET)) == 5
    for node in system.nodes(ROOTNET) + system.nodes(twin):
        assert node.engine.params == child_params
        assert node.acceleration is not None
    system.stop()


def test_the_root_config_names_the_rootnet_and_spawns_nothing_else():
    system = HierarchicalSystem(seed=3, root_validators=3).start()
    root = system.configs[ROOTNET]
    assert root.subnet == ROOTNET and root.parent is None
    with pytest.raises(SpawnError, match="no parent"):
        system.spawn_subnet(replace(root, name="twin"))
    system.stop()


def test_a_config_names_its_subnet_under_its_parent_or_at_the_top():
    assert SubnetConfig(name="a").subnet == ROOTNET.child("a")
    nested = SubnetConfig(name="b", parent=ROOTNET.child("a")).subnet
    assert nested.path == "/root/a/b" and nested.parent() == ROOTNET.child("a")
    assert SubnetConfig(name="root", parent=None).subnet == ROOTNET


def test_the_root_validators_wallets_hold_the_keys_its_nodes_sign_with():
    """As a child's do; the root's keys are its own, not wallet keys."""
    system = HierarchicalSystem(seed=3, root_validators=3)
    wallets = system.validator_wallets(ROOTNET)
    assert [w.keypair for w in wallets] == [node.keypair for node in system.nodes(ROOTNET)]


def test_baselines_flow_through_instrumented_dispatch():
    baseline = SingleChainBaseline(seed=9, validators=2, block_time=0.5).start()
    baseline.run_for(3.0)
    counts = baseline.sim.dispatch.counts
    assert sum(counts.values()) == baseline.sim.events_executed


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


def test_one_post_state_per_block_and_a_byzantine_proposer_re_executes():
    """Every honest validator stores the one frozen tree its block's
    proposer published while assembling; a byzantine node shares nothing
    either way, so its own block is executed again on receipt."""
    stack = NetworkStack(seed=5)
    keys = [KeyPair(("rt-validator", i)) for i in range(4)]
    genesis_block, genesis_vm = build_genesis(GenesisParams(subnet_id="/root"))
    members = cluster_members(keys, id_prefix="/root")
    cluster = ValidatorCluster.build(
        members,
        subnet_id="/root",
        genesis_block=genesis_block,
        genesis_vm=genesis_vm,
        consensus_params=ConsensusParams(engine="poa", block_time=0.5),
        stack=stack,
        byzantine={members[0].node_id: {"equivocate_vote"}},
    )
    rogue, honest = cluster[0], cluster.nodes[1:]
    executed = {node.node_id: [] for node in cluster}
    for node in cluster:
        def spy(vm, messages, cross, miner, height, parent_cid=None,
                _node=node, _execute=node._execute_payload):
            executed[_node.node_id].append(height)
            return _execute(vm, messages, cross, miner, height, parent_cid)
        node._execute_payload = spy
    cluster.start()
    stack.run_for(5.0)

    blocks = canonical_chain(honest[0].store)[1:]
    assert len(blocks) >= 8
    for block in blocks:
        posts = {id(node.store.get_state(block.cid)) for node in honest}
        assert len(posts) == 1
        assert id(rogue.store.get_state(block.cid)) not in posts
        proposer = next(n for n in cluster if n.miner_address == block.header.miner)
        # Assembly executes the payload; receipt re-executes it only on the
        # byzantine proposer.
        runs = 2 if proposer is rogue else 1
        assert executed[proposer.node_id].count(block.height) == runs
    assert any(block.header.miner == rogue.miner_address for block in blocks)
