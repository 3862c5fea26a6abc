"""Unit tests for the chain store: heads, forks, reorgs."""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import KeyPair
from repro.chain.block import BlockHeader, FullBlock, ZERO_CID
from repro.chain.chainstore import ChainStore


def make_block(height, parent_cid, tag=""):
    header = BlockHeader(
        subnet_id="/root",
        height=height,
        parent=parent_cid,
        state_root=cid_of(("state", height, tag)),
        messages_root=FullBlock.compute_messages_root((), ()),
        timestamp=float(height),
        miner=KeyPair("m").address,
        consensus_data={"tag": tag},
    )
    return FullBlock(header=header)


@pytest.fixture
def store_with_genesis():
    store = ChainStore()
    genesis = make_block(0, ZERO_CID)
    store.add_block(genesis)
    return store, genesis


def test_genesis_becomes_head(store_with_genesis):
    store, genesis = store_with_genesis
    assert store.head.cid == genesis.cid
    assert store.genesis.cid == genesis.cid
    assert store.height == 0


def test_extension_advances_head(store_with_genesis):
    store, genesis = store_with_genesis
    child = make_block(1, genesis.cid)
    assert store.add_block(child)
    assert store.head.cid == child.cid
    assert store.height == 1


def test_duplicate_add_is_noop(store_with_genesis):
    store, genesis = store_with_genesis
    child = make_block(1, genesis.cid)
    store.add_block(child)
    assert not store.add_block(child)
    assert len(store) == 2


def test_orphan_rejected(store_with_genesis):
    store, _ = store_with_genesis
    orphan = make_block(5, cid_of("unknown-parent"))
    with pytest.raises(KeyError):
        store.add_block(orphan)


def test_second_genesis_rejected(store_with_genesis):
    store, _ = store_with_genesis
    with pytest.raises(ValueError):
        store.add_block(make_block(0, ZERO_CID, tag="other"))


def test_fork_does_not_move_head_on_tie(store_with_genesis):
    store, genesis = store_with_genesis
    main = make_block(1, genesis.cid, tag="main")
    fork = make_block(1, genesis.cid, tag="fork")
    store.add_block(main)
    assert not store.add_block(fork)  # same weight: incumbent wins
    assert store.head.cid == main.cid
    assert store.fork_count() == 1


def test_heavier_fork_reorgs(store_with_genesis):
    store, genesis = store_with_genesis
    main1 = make_block(1, genesis.cid, tag="main")
    store.add_block(main1)
    fork1 = make_block(1, genesis.cid, tag="fork")
    fork2 = make_block(2, fork1.cid, tag="fork")
    store.add_block(fork1)
    changed = store.add_block(fork2)
    assert changed
    assert store.head.cid == fork2.cid
    assert store.is_canonical(fork1.cid)
    assert not store.is_canonical(main1.cid)


def test_canonical_chain_order(store_with_genesis):
    store, genesis = store_with_genesis
    parent = genesis
    for height in range(1, 5):
        parent_new = make_block(height, parent.cid)
        store.add_block(parent_new)
        parent = parent_new
    chain = store.canonical_chain()
    assert [b.height for b in chain] == [0, 1, 2, 3, 4]
    assert chain[0].cid == genesis.cid


def test_block_at_height_follows_canonical(store_with_genesis):
    store, genesis = store_with_genesis
    main1 = make_block(1, genesis.cid, tag="main")
    store.add_block(main1)
    fork1 = make_block(1, genesis.cid, tag="fork")
    fork2 = make_block(2, fork1.cid, tag="fork")
    store.add_block(fork1)
    store.add_block(fork2)
    assert store.block_at_height(1).cid == fork1.cid
    assert store.block_at_height(2).cid == fork2.cid
    assert store.block_at_height(99) is None


def test_head_change_listener_fires(store_with_genesis):
    store, genesis = store_with_genesis
    changes = []
    store.on_head_change(lambda old, new: changes.append((old, new)))
    child = make_block(1, genesis.cid)
    store.add_block(child)
    assert changes == [(genesis.cid, child.cid)]


def test_is_extension(store_with_genesis):
    store, genesis = store_with_genesis
    main1 = make_block(1, genesis.cid, tag="main")
    fork1 = make_block(1, genesis.cid, tag="fork")
    store.add_block(main1)
    store.add_block(fork1)
    assert store.is_extension(genesis.cid, main1.cid)
    assert not store.is_extension(main1.cid, fork1.cid)
    assert store.is_extension(None, main1.cid)


def test_ancestors_stops_at_genesis(store_with_genesis):
    store, genesis = store_with_genesis
    child = make_block(1, genesis.cid)
    store.add_block(child)
    ancestry = list(store.ancestors(child.cid))
    assert [b.height for b in ancestry] == [1, 0]


def test_state_snapshots_pruned(store_with_genesis):
    store, genesis = store_with_genesis
    store.prune_depth = 3
    parent = genesis
    store.put_state(genesis.cid, {"h": 0})
    for height in range(1, 10):
        block = make_block(height, parent.cid)
        store.put_state(block.cid, {"h": height})
        store.add_block(block)
        parent = block
    assert store.get_state(genesis.cid) is None  # pruned
    assert store.get_state(parent.cid) == {"h": 9}


def test_fork_snapshots_below_the_horizon_are_pruned(store_with_genesis):
    """Pruning is by height, not by canonicity: a fork block's snapshot goes
    once the horizon passes it — also when the block arrives after the
    horizon already has."""
    store, genesis = store_with_genesis
    store.prune_depth = 3
    chain = [genesis]
    for height in range(1, 6):
        block = make_block(height, chain[-1].cid)
        store.put_state(block.cid, {"h": height})
        store.add_block(block)
        chain.append(block)
    fork = make_block(2, chain[1].cid, tag="fork")
    store.put_state(fork.cid, {"fork": 2})
    assert not store.add_block(fork)  # lighter: no head change, no pruning yet
    assert store.get_state(fork.cid) == {"fork": 2}
    assert store.get_state(chain[1].cid) is None  # head 5, horizon 2
    assert store.get_state(chain[2].cid) == {"h": 2}
    tip = make_block(6, chain[-1].cid)
    store.add_block(tip)  # horizon 3
    assert store.get_state(fork.cid) is None
    assert store.get_state(chain[2].cid) is None
    assert store.get_state(chain[3].cid) == {"h": 3}
    late = make_block(1, genesis.cid, tag="late")  # below the horizon on arrival
    store.put_state(late.cid, {"late": 1})
    store.add_block(late)
    store.add_block(make_block(7, tip.cid))
    assert store.get_state(late.cid) is None
    assert store.get_state(chain[4].cid) == {"h": 4}


def test_weight_of_unknown_is_zero(store_with_genesis):
    store, _ = store_with_genesis
    assert store.weight_of(cid_of("nothing")) == 0
