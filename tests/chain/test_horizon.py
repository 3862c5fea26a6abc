"""The store's horizon against a store that never forgets.

A pruned :class:`ChainStore` and an unpruned one are fed the same generated
script — extensions, forks inside the horizon and forks that outgrow the
head (reorgs) — and must agree on every header-level query from the pruned
store's base up after every step, while the pruned one holds nothing below
``head - prune_depth`` and a body for every block at or above it.  A fork
arriving below the horizon has no parent left in the pruned store, which
refuses it.

Mutants this catches: forgetting only canonical blocks (a fork survives),
forgetting by age of arrival instead of height (a late fork keeps its
body), keeping a header below the floor, a canonical index that keeps the
heights it dropped, a ``fork_count`` that forgets the forks it dropped, a
late fork that is taken in.
"""

import random

import pytest

from repro.chain.block import FullBlock, HeaderOnly, ZERO_CID
from repro.chain.chainstore import ChainStore

from tests.chain.canonical import canonical_chain
from tests.chain.test_chainstore import make_block

DEPTH = 8


def _header_view(store: ChainStore, base: int, recent) -> dict:
    """Every header-level answer about heights at or above *base*."""
    head = store.head_cid
    return {
        "head": head,
        "height": store.height,
        "forks": store.fork_count(),
        "by_height": [
            store.block_at_height(h).cid for h in range(base, store.height + 1)
        ],
        "ancestors": [b.cid for b in store.ancestors(head) if b.height >= base],
        "chain": [b.height for b in canonical_chain(store) if b.height >= base],
        "canonical": [store.is_canonical(cid) for cid in recent],
        "extends": [store.is_extension(cid, head) for cid in recent[-12:]],
    }


def _run_script(seed: int, blocks: int = 300):
    rng = random.Random(seed)
    pruned, model = ChainStore(prune_depth=DEPTH), ChainStore(prune_depth=10**9)
    genesis = make_block(0, ZERO_CID)
    canonical, cids, forks = [genesis], [genesis.cid], 0

    def add(block) -> None:
        pruned.put_state(block.cid, {"h": block.height})
        assert pruned.add_block(block) == model.add_block(block)
        cids.append(block.cid)

    pruned.put_state(genesis.cid, {"h": 0})
    pruned.add_block(genesis)
    model.add_block(genesis)
    step = 0
    while canonical[-1].height < blocks:
        step += 1
        head = canonical[-1]
        kind = rng.choices(
            ("extend", "fork", "reorg", "late"), weights=(12, 3, 2, 3)
        )[0]
        if kind == "extend" or head.height < DEPTH + 3:
            block = make_block(head.height + 1, head.cid, tag=f"m{step}")
            add(block)
            canonical.append(block)
        elif kind == "fork":  # a sibling inside the horizon, never the head
            at = rng.randrange(head.height - DEPTH + 1, head.height)
            add(make_block(at + 1, canonical[at].cid, tag=f"f{step}"))
            forks += 1
        elif kind == "reorg":  # a branch that outgrows the head by one
            back = rng.randrange(1, DEPTH)
            parent = canonical[head.height - back]
            del canonical[parent.height + 1:]
            for i in range(back + 1):
                parent = make_block(parent.height + 1, parent.cid, tag=f"r{step}.{i}")
                add(parent)
                canonical.append(parent)
            forks += back
        else:  # a fork arriving below the horizon: final history, refused
            at = rng.randrange(0, head.height - DEPTH - 1)
            late = make_block(at + 1, canonical[at].cid, tag=f"l{step}")
            assert late.height <= pruned.base
            with pytest.raises(KeyError, match="orphan"):
                pruned.add_block(late)
        floor = max(0, pruned.height - DEPTH)
        assert (pruned.base, pruned.floor) == (floor, floor)
        recent = [cid for cid in cids if model.get(cid).height >= floor]
        assert _header_view(pruned, floor, recent) == _header_view(model, floor, recent), (
            seed, step, kind,
        )
        assert pruned.block_at_height(floor - 1) is None
        assert len(pruned) == len(recent)
        for cid in recent:
            assert isinstance(pruned.get(cid), FullBlock)
            assert pruned.get_state(cid) is not None
    return pruned, model, forks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruned_store_answers_like_one_that_never_forgets(seed):
    pruned, model, forks = _run_script(seed)
    assert pruned.height >= 300
    assert model.fork_count() == pruned.fork_count() == forks
    # The per-block entries go with the blocks.
    assert len(pruned._state_snapshots) == len(pruned)
    assert sum(map(len, pruned._by_height.values())) == len(pruned)
    assert len(pruned._canonical) == DEPTH + 1


def test_a_store_holds_its_horizon_and_nothing_below_it():
    """Ten horizons past genesis, a store holds one horizon's blocks."""
    store = ChainStore(prune_depth=DEPTH)
    block = make_block(0, ZERO_CID)
    for height in range(10 * DEPTH + 1):
        if height:
            block = make_block(height, block.cid)
        store.put_state(block.cid, {"h": height})
        store.add_block(block)
    held = DEPTH + 1  # heights head - DEPTH .. head
    assert len(store) == len(store._canonical) == held
    assert len(store._state_snapshots) == len(store._by_height) == held
    assert store.base == store.floor == store.height - DEPTH
    assert store.genesis is None and store.block_at_height(store.base - 1) is None
    assert [b.height for b in canonical_chain(store)] == list(
        range(store.base, store.height + 1)
    )


def test_a_forgotten_body_is_not_an_empty_one():
    """Below the horizon there is no block at all; the one header a store
    holds without its body, an adopted anchor, raises on a payload read.
    Neither ever reads as ``()``."""
    pruned, _, _ = _run_script(seed=4, blocks=40)
    assert pruned.block_at_height(1) is None
    anchor = make_block(60, ZERO_CID, tag="anchor")
    pruned.adopt(anchor.header)
    old = pruned.block_at_height(60)
    assert isinstance(old, HeaderOnly)
    assert old.header.height == old.height == 60 and old.cid == old.header.cid
    for name in ("messages", "cross_messages"):
        with pytest.raises(AttributeError):
            getattr(old, name)


def test_forget_listeners_hear_every_block_once_as_it_drops():
    store = ChainStore(prune_depth=2)
    heard = []
    store.on_forget(heard.append)
    chain = [make_block(0, ZERO_CID)]
    store.add_block(chain[0])
    for height in range(1, 6):
        chain.append(make_block(height, chain[-1].cid))
        store.add_block(chain[-1])
    fork = make_block(4, chain[3].cid, tag="fork")
    store.add_block(fork)  # as heavy as the head's parent: not a head
    assert heard == [b.cid for b in chain[:3]]  # head 5, floor 3
    for height in (6, 7):
        chain.append(make_block(height, chain[-1].cid))
        store.add_block(chain[-1])
    assert heard[3:] == [chain[3].cid, chain[4].cid, fork.cid]  # floor 5
    assert store.fork_count() == 1 and not store.has(fork.cid)
    late = make_block(1, chain[0].cid, tag="late")
    with pytest.raises(KeyError, match="orphan"):
        store.add_block(late)
    assert len(heard) == 6


def test_hold_keeps_the_floor_at_the_height_the_owner_must_serve():
    store = ChainStore(prune_depth=2)
    store.hold = 1
    parent = make_block(0, ZERO_CID)
    store.add_block(parent)
    for height in range(1, 8):
        parent = make_block(height, parent.cid)
        store.add_block(parent)
    assert store.floor == 1 and isinstance(store.block_at_height(1), FullBlock)
    store.hold = 100  # a hold ahead of the horizon does not pull it forward
    store.add_block(make_block(8, parent.cid))
    assert store.floor == 6


def test_adopt_restarts_the_store_at_a_header():
    store = ChainStore(prune_depth=2)
    genesis = make_block(0, ZERO_CID)
    store.add_block(genesis)
    anchor = make_block(40, make_block(39, ZERO_CID, tag="unseen").cid)
    store.adopt(anchor.header)
    assert store.head_cid == anchor.cid and store.height == 40
    assert (store.base, store.floor, len(store)) == (40, 41, 1)
    assert not store.has(genesis.cid) and store.block_at_height(0) is None
    assert [b.height for b in canonical_chain(store)] == [40]
    assert not store.is_extension(genesis.cid, anchor.cid)
    child = make_block(41, anchor.cid)
    assert store.add_block(child) and store.head_cid == child.cid
    assert [b.height for b in store.ancestors(child.cid)] == [41, 40]
    # The anchor is held until the floor passes it, like any block.
    parent = child
    for height in range(42, 45):
        parent = make_block(height, parent.cid)
        store.add_block(parent)
    assert (store.base, store.floor, len(store)) == (42, 42, 3)
    assert not store.has(anchor.cid)
