"""Focused unit tests for NodeRuntime's chain behaviour: orphans, reorgs,
commit notifications, mempool hygiene and state-root enforcement."""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import KeyPair
from repro.chain.block import BlockHeader, FullBlock
from repro.chain.genesis import GenesisParams, build_genesis
from repro.runtime.node import NodeRuntime, subnet_topic
from repro.consensus.base import ConsensusParams, Validator, ValidatorSet
from repro.net.gossip import GossipNetwork
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator
from repro.sim.tracing import TraceLog
from repro.vm.message import Message, SignedMessage


def make_node(engine="poa", seed=1, n_validators=1, max_block_messages=500):
    """A lone node on a simulator whose trace log (``sim.planes["trace"]``)
    counts the blocks it refuses."""
    sim = Simulator(seed=seed)
    sim.attach(TraceLog(sim))
    gossip = GossipNetwork(sim, Transport(sim, Topology(UniformLatency(0.01, 0.005))))
    keys = [KeyPair(f"cn-{i}") for i in range(n_validators)]
    user = KeyPair("cn-user")
    genesis_block, genesis_vm = build_genesis(
        GenesisParams(subnet_id="/root", allocations={user.address: 1_000_000})
    )
    validators = ValidatorSet(
        Validator(node_id=f"cn#{i}", address=keys[i].address, power=1)
        for i in range(n_validators)
    )
    node = NodeRuntime(
        sim=sim, node_id="cn#0", keypair=keys[0], subnet_id="/root",
        genesis_block=genesis_block, genesis_vm=genesis_vm, gossip=gossip,
        validators=validators,
        consensus_params=ConsensusParams(engine=engine, max_block_messages=max_block_messages),
    )
    return sim, node, user


def make_child(node, parent_block, tag="a", messages=()):
    """Assemble a valid child block through the node itself."""
    return node.assemble_block(
        height=parent_block.height + 1,
        parent_cid=parent_block.cid,
        consensus_data={"engine": "poa", "slot": parent_block.height + 1, "tag": tag},
    )


def test_orphan_blocks_parked_and_retried():
    sim, node, _ = make_node()
    genesis = node.head()
    block1 = make_child(node, genesis)
    # Build block2 on block1 without giving the node block1 yet.
    node.receive_block(block1)
    block2 = make_child(node, block1)
    fresh_sim, fresh_node, _ = make_node(seed=2)
    assert not fresh_node.receive_block(block2)  # orphan: parked
    assert fresh_node.head().height == 0
    assert fresh_node.receive_block(block1)
    # The orphan was retried automatically once its parent arrived.
    assert fresh_node.head().height == 2


def test_commit_listener_fires_once_per_block_in_order():
    sim, node, _ = make_node()
    seen = []
    node.on_commit(lambda b: seen.append(b.height))
    genesis = node.head()
    block1 = make_child(node, genesis)
    node.receive_block(block1)
    block2 = make_child(node, block1)
    node.receive_block(block2)
    node.receive_block(block2)  # duplicate delivery
    assert seen == [1, 2]


def test_state_root_mismatch_rejected():
    sim, node, user = make_node()
    genesis = node.head()
    good = make_child(node, genesis)
    tampered_header = BlockHeader(
        subnet_id=good.header.subnet_id,
        height=good.header.height,
        parent=good.header.parent,
        state_root=cid_of("wrong state"),
        messages_root=good.header.messages_root,
        timestamp=good.header.timestamp,
        miner=good.header.miner,
        consensus_data=good.header.consensus_data,
    )
    bad = FullBlock(header=tampered_header, messages=good.messages,
                    cross_messages=good.cross_messages)
    assert not node.receive_block(bad)
    assert sim.planes["trace"].count("block.state_mismatch") == 1


def test_submitted_messages_selected_and_cleared():
    sim, node, user = make_node()
    message = Message(from_addr=user.address, to_addr=KeyPair("rcpt").address,
                      value=10, nonce=0)
    signed = SignedMessage.create(message, user)
    assert node.submit_message(signed)
    assert len(node.mempool) == 1
    block = make_child(node, node.head())
    assert len(block.messages) == 1
    node.receive_block(block)
    assert len(node.mempool) == 0
    assert node.vm.balance_of(KeyPair("rcpt").address) == 10


def test_block_over_the_subnet_block_size_refused():
    limit = 2
    _, proposer, user = make_node(max_block_messages=limit + 1)  # ignores the subnet's limit
    for nonce in range(limit + 1):
        message = Message(from_addr=user.address, to_addr=user.address, value=0, nonce=nonce)
        assert proposer.submit_message(SignedMessage.create(message, user))
    block = make_child(proposer, proposer.head())
    assert len(block.messages) == limit + 1

    sim, validator, _ = make_node(seed=2, max_block_messages=limit)
    assert not validator.receive_block(block)
    assert sim.planes["trace"].count("block.invalid") == 1
    assert validator.head().height == 0
    sim, roomier, _ = make_node(seed=3, max_block_messages=limit + 1)
    assert roomier.receive_block(block)
    assert sim.planes["trace"].count("block.invalid") == 0


def test_duplicate_submit_rejected():
    sim, node, user = make_node()
    message = Message(from_addr=user.address, to_addr=user.address, value=0, nonce=0)
    signed = SignedMessage.create(message, user)
    assert node.submit_message(signed)
    assert not node.submit_message(signed)


def test_cross_messages_rejected_on_base_chain():
    from repro.chain.validation import ValidationError

    sim, node, _ = make_node()
    with pytest.raises(ValidationError):
        node.apply_cross_message(node.vm, object())


def test_base_node_gossip_topic_naming():
    assert subnet_topic("/root/a") == "subnet:/root/a"


def test_assemble_respects_message_filter():
    sim, node, user = make_node()
    for nonce in range(3):
        message = Message(from_addr=user.address, to_addr=user.address,
                          value=0, nonce=nonce)
        node.submit_message(SignedMessage.create(message, user))
    block = node.assemble_block(
        height=1, parent_cid=node.head().cid,
        consensus_data={"engine": "poa", "slot": 1},
        message_filter=lambda s: False,
    )
    assert block.messages == ()


def test_reorg_counted_and_head_state_switches():
    sim, node, user = make_node(engine="pow")
    genesis = node.head()
    main1 = make_child(node, genesis, tag="main")
    assert node.receive_block(main1)
    fork1 = make_child(node, genesis, tag="fork")
    fork_child = FullBlock(  # manually extend the fork to outweigh main
        header=BlockHeader(
            subnet_id="/root", height=2, parent=fork1.cid,
            state_root=fork1.header.state_root,  # no messages -> same state?
            messages_root=FullBlock.compute_messages_root((), ()),
            timestamp=sim.now, miner=node.miner_address,
            consensus_data={"engine": "pow", "ticket": 42},
        ),
    )
    assert node.receive_block(fork1)
    # fork_child's state root must match actual execution; recompute via
    # the node's own assembly instead of guessing.
    node2_head = node.store.get(fork1.cid)
    proper_child = node.assemble_block(
        height=2, parent_cid=fork1.cid,
        consensus_data={"engine": "pow", "ticket": 42},
    )
    assert node.receive_block(proper_child)
    assert node.head().cid == proper_child.cid
    assert sim.metrics.counter("chain./root.reorgs").value >= 1
