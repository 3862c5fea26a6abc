"""The last rung of the sync ladder: a node behind its peers' floor.

A child-subnet validator is stopped for more than ``prune_depth`` blocks,
so the bodies it lacks are gone from every peer: ``chain:blocks`` is
refused (``BelowFloor``) and the node adopts the state at the block its
*parent* holds the last checkpoint for, then range-syncs the tail.  The
four refusal tests each serve the joiner something subtly wrong and name
the check that must turn it down.
"""

import pytest

from repro.baselines import SingleChainBaseline
from repro.hierarchy import HierarchicalSystem, SubnetConfig, audit_system
from repro.hierarchy.subnet_actor import committed_checkpoints
from repro.runtime.node import BelowFloor
from repro.sim.tracing import TraceLog


@pytest.fixture
def outage():
    """(system, subnet, straggler, server): the straggler is down and more
    than ``prune_depth`` blocks behind; nothing has been restarted yet."""
    system = HierarchicalSystem(seed=42)
    system.sim.attach(TraceLog(system.sim))
    system.start()
    sub = system.spawn_subnet(
        SubnetConfig(name="deep", validators=4, block_time=0.25, checkpoint_period=5)
    )
    system.run_for(2.0)
    nodes = system.nodes(sub)
    straggler, server = nodes[3], nodes[0]
    straggler.stop()
    system.run_for(28.0)
    assert straggler.head().height + 1 < server.store.floor
    return system, sub, straggler, server


def _synced(system, sub) -> int:
    """Blocks the subnet's validators applied by range sync."""
    return system.sim.metrics.counter(f"chain.{sub}.sync_blocks").value


def test_a_node_behind_the_floor_recovers_from_its_parents_checkpoint(outage):
    system, sub, straggler, server = outage
    old_head = straggler.head().height
    straggler.restart()
    restarted = system.sim.now
    # Read the adoption off the trace log's ring before newer records push it out.
    trace = system.sim.planes["trace"]
    assert system.wait_for(lambda: trace.count("snapshot.adopted") == 1, timeout=3.0)
    (adopted,) = [
        record for record in trace.records
        if record.kind == "snapshot.adopted" and record.subject == str(sub)
    ]
    height, short_cid = int(adopted.detail[0].removeprefix("h=")), adopted.detail[1]
    system.run_until(restarted + 3.0)
    heads = [node.head().height for node in system.nodes(sub)]
    assert max(heads) - min(heads) <= 1
    assert system.sim.planes["trace"].count("snapshot.adopted") == 1
    assert _synced(system, sub) > 0  # the tail, by range
    # It restarted at the proof of a checkpoint the parent committed, and
    # holds nothing older.
    store = straggler.store
    assert height > old_head + store.prune_depth // 2
    assert store.base >= height and store.block_at_height(store.base - 1) is None
    period = straggler.checkpoint_period
    assert (height + 1) % period == 0
    anchored = {
        signed.checkpoint.window: signed.checkpoint.proof
        for signed in committed_checkpoints(
            straggler.parent_node.vm.state, straggler.checkpoints.config.sa_addr
        )
    }
    assert anchored[(height + 1) // period - 1].short() == short_cid
    # Its state is the chain's: same root as the peer that never stopped.
    system.run_for(5.0)
    height = min(node.head().height for node in system.nodes(sub))
    assert (
        store.block_at_height(height).header.state_root
        == server.store.block_at_height(height).header.state_root
    )
    assert audit_system(system).ok


def test_a_block_from_below_the_base_is_refused_not_parked(outage):
    """Final history that nothing will ever connect.  Mutant: parking every
    block whose parent is unknown (it waits in ``_orphans`` for ever)."""
    system, sub, straggler, server = outage
    straggler.restart()
    system.run_for(3.0)
    assert system.sim.planes["trace"].count("snapshot.adopted") == 1
    base = straggler.store.base
    old = [server.store.block_at_height(h) for h in (base - 1, base)]
    assert all(old)  # the server's floor is held back further
    for block in old:
        assert not straggler.receive_block(block, sender=server.node_id)
    assert straggler._orphans == {}


def test_range_below_the_floor_is_refused_not_served_short(outage):
    _, _, straggler, server = outage
    with pytest.raises(BelowFloor):
        server.blocks_in_range(straggler.head().height + 1, server.head().height)
    floor = server.store.floor
    served = server.blocks_in_range(floor, server.head().height)
    assert [b.height for b in served] == list(range(floor, server.head().height + 1))


def test_refuses_a_state_with_one_leaf_changed(outage):
    """Mutant: adopting without rebuilding the root from the served items."""
    system, sub, straggler, server = outage
    header, items = server.snapshot_at(straggler.snapshot_anchor())
    key = next(k for k, v in items.items() if type(v) is int)
    tampered = {**items, key: items[key] + 1}
    before = straggler.head().cid
    assert not straggler.adopt_snapshot(header, tampered)
    assert straggler.head().cid == before
    assert system.sim.planes["trace"].count("snapshot.refused") == 1
    assert straggler.adopt_snapshot(header, items)
    assert straggler.head().cid == header.cid
    assert straggler.vm.state_root() == header.state_root


def _restart_against(system, straggler, server, serve):
    """Restart the straggler with every peer's ``chain:snapshot`` answering
    through *serve(node, anchor)*; returns the anchors answered."""
    answered = []

    def snapshot_at(node, anchor):
        answered.append(anchor)
        return serve(node, anchor)

    for node in system.nodes(straggler.subnet):
        if node is not straggler:
            node.snapshot_at = lambda anchor, node=node: snapshot_at(node, anchor)
    straggler.restart()
    system.run_for(3.0)
    return answered


def test_refuses_a_header_that_is_not_the_checkpoints_proof(outage):
    """A consistent (header, state) pair for the wrong block.  Mutant:
    trusting the serving peer's choice of anchor."""
    system, sub, straggler, server = outage
    old_head = straggler.head().cid
    original = type(server).snapshot_at
    answered = _restart_against(
        system, straggler, server,
        lambda node, anchor: original(node, node.head().cid),
    )
    assert answered  # the peers replied, and the replies were refused
    assert straggler.head().cid == old_head
    assert system.sim.planes["trace"].count("snapshot.adopted") == 0


def test_refuses_a_superseded_checkpoint(outage):
    """An honest reply for exactly the anchor that was asked for, landing
    after the parent has committed the next checkpoint: once valid, now
    stale.  Mutants: holding the reply to the anchor as it was when asked,
    or to any checkpoint the parent ever held, instead of its current word."""
    system, sub, straggler, server = outage
    old_head = straggler.head().cid
    rpc = system.stack.gossip.rpc
    call, asked, landed = rpc.call, [], []

    def slow_snapshots(caller, target, method, params, on_response):
        if method == "chain:snapshot":  # a window and more (5 x 0.25 s) late
            asked.append(params)

            def land(result, error, deliver=on_response):
                landed.append(error)
                deliver(result, error)

            on_response = lambda result, error: system.sim.schedule(
                3.0, land, result, error, label="test:slow-reply"
            )
        call(caller, target, method, params, on_response)

    rpc.call = slow_snapshots
    straggler.restart()
    system.run_for(8.0)
    assert asked and asked[0] != straggler.snapshot_anchor()
    assert straggler.head().cid == old_head
    assert system.sim.planes["trace"].count("snapshot.adopted") == 0
    assert system.sim.planes["trace"].count("snapshot.refused") == 0  # never got to the state
    assert landed and not any(landed)  # honest replies, all refused as stale
    rpc.call = call  # the link recovers: the next attempt goes through
    system.run_for(3.0)
    assert system.sim.planes["trace"].count("snapshot.adopted") == 1


def test_refuses_a_short_answer_to_a_range_below_the_floor(outage):
    """A server that trims the range to what it has instead of refusing.
    Mutant: applying whatever list comes back."""
    system, sub, straggler, server = outage
    served = []

    def trimmed(node, start, end):
        served.append(start)
        return type(node).blocks_in_range(node, max(start, node.store.floor), end)

    for node in system.nodes(sub):
        if node is not straggler:
            node.blocks_in_range = lambda start, end, node=node: trimmed(node, start, end)
    straggler.restart()
    system.run_for(3.0)
    assert served  # a short list came back, and was refused
    assert straggler.head().height < server.store.floor
    assert _synced(system, sub) == 0


def test_a_chain_with_no_parent_anchors_on_what_a_majority_reports_final():
    baseline = SingleChainBaseline(seed=5, validators=4, block_time=0.25).start()
    straggler, server = baseline.nodes[3], baseline.nodes[0]
    straggler.stop()
    baseline.run_for(30.0)
    assert straggler.head().height + 1 < server.store.floor
    assert straggler.snapshot_anchor() is None
    # One liar among the three peers cannot move the anchor: its header is
    # vouched for by a quarter of the set, the honest one by half — and
    # half is not a majority either, so nothing is adopted ...
    liar = baseline.nodes[2]
    liar.snapshot_at = lambda anchor: type(liar).snapshot_at(liar, liar.head().cid)
    straggler.restart()
    baseline.run_for(2.0)
    assert straggler.store.base == 0
    # ... until three of four say the same.
    del liar.snapshot_at
    baseline.run_for(3.0)
    stride = server.store.prune_depth // 2
    assert straggler.store.base > 0 and straggler.store.base % stride == 0
    heads = [node.head().height for node in baseline.nodes]
    assert max(heads) - min(heads) <= 1


def test_replay_chain_past_the_horizon_hands_off_a_snapshot_and_the_tail():
    """The sharded baseline's handoff is the same ladder: a fresh cluster
    replaying a chain longer than the horizon adopts the source's snapshot
    instead of asking for bodies the source no longer has."""
    from repro.chain.genesis import GenesisParams, build_genesis
    from repro.consensus.base import ConsensusParams
    from repro.crypto.keys import KeyPair
    from repro.runtime import ValidatorCluster, cluster_members
    from tests.runtime.test_runtime import build_cluster

    stack, cluster = build_cluster(seed=21, block_time=0.25)
    cluster.start()
    stack.run_for(25.0)
    cluster.stop()
    source = cluster.primary
    assert source.store.floor > 1
    genesis_block, genesis_vm = build_genesis(GenesisParams(subnet_id="/root"))
    late = ValidatorCluster.build(
        cluster_members([KeyPair(("rt-late", i)) for i in range(2)], id_prefix="/late"),
        subnet_id="/root",
        genesis_block=genesis_block,
        genesis_vm=genesis_vm,
        consensus_params=ConsensusParams(engine="poa", block_time=0.25),
        stack=stack,
    )
    late.replay_chain(source)
    for node in late:
        assert node.head().cid == source.head().cid
        assert node.vm.state_root() == source.vm.state_root()
        assert node.store.base > 0
    assert late.committed_tx_count() == cluster.committed_tx_count()
