"""The store's horizon against a store that never forgets.

A pruned :class:`ChainStore` and an unpruned one are fed the same generated
script — extensions, forks inside the horizon, forks that outgrow the head
(reorgs) and forks that arrive *below* the horizon — and must agree on every
header-level query after every step, while the pruned one holds a body
exactly for the blocks at or above ``head - prune_depth``.

Mutants this catches: forgetting only canonical blocks (a fork body
survives), forgetting by age of arrival instead of height (a late fork
keeps its body), dropping the header with the body (``block_at_height`` /
``ancestors`` stop short), a canonical-index rebuild that stops at the first
header-only block, a late fork that becomes a head candidate.
"""

import random

import pytest

from repro.chain.block import FullBlock, HeaderOnly, ZERO_CID
from repro.chain.chainstore import ChainStore

from tests.chain.test_chainstore import make_block

DEPTH = 8


def _header_view(store: ChainStore, cids) -> dict:
    head = store.head_cid
    return {
        "head": head,
        "height": store.height,
        "len": len(store),
        "forks": store.fork_count(),
        "by_height": [
            store.block_at_height(h).cid for h in range(store.height + 1)
        ],
        "ancestors": [b.cid for b in store.ancestors(head)],
        "chain": [b.height for b in store.canonical_chain()],
        "canonical": [store.is_canonical(cid) for cid in cids],
        "extends": [store.is_extension(cid, head) for cid in cids[-12:]],
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
        else:  # a fork (and its child) arriving below the horizon
            at = rng.randrange(0, head.height - DEPTH - 1)
            late = make_block(at + 1, canonical[at].cid, tag=f"l{step}")
            add(late)
            add(make_block(at + 2, late.cid, tag=f"l{step}.1"))
            forks += 2
        assert _header_view(pruned, cids) == _header_view(model, cids), (seed, step, kind)
        floor = pruned.height - DEPTH
        assert pruned.floor == max(0, floor)
        for cid in cids:
            block = pruned.get(cid)
            kept = block.height >= floor
            assert isinstance(block, FullBlock if kept else HeaderOnly)
            assert (pruned.get_state(cid) is not None) == kept
    return pruned, model, forks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruned_store_answers_like_one_that_never_forgets(seed):
    pruned, model, forks = _run_script(seed)
    assert pruned.height >= 300
    bodies = [b for b in map(pruned.get, pruned._blocks) if isinstance(b, FullBlock)]
    assert len(bodies) <= DEPTH + 1 + forks
    # The per-block entries that only serve recent blocks went with them.
    assert len(pruned._weights) == len(bodies)
    assert sum(map(len, pruned._by_height.values())) == len(bodies)
    assert len(pruned._state_snapshots) == len(bodies)
    assert len(model._weights) == len(model) == len(pruned)


def test_a_forgotten_body_is_not_an_empty_one():
    """Reading payload past the horizon raises; it never reads as ``()``."""
    pruned, _, _ = _run_script(seed=4, blocks=40)
    old = pruned.block_at_height(1)
    assert old.header.height == old.height == 1 and old.cid == old.header.cid
    for name in ("messages", "cross_messages"):
        with pytest.raises(AttributeError):
            getattr(old, name)
    assert pruned.head.messages == ()


def test_forget_listeners_hear_every_block_once_as_it_drops():
    store = ChainStore(prune_depth=2)
    heard = []
    store.on_forget(heard.append)
    chain = [make_block(0, ZERO_CID)]
    store.add_block(chain[0])
    for height in range(1, 6):
        chain.append(make_block(height, chain[-1].cid))
        store.add_block(chain[-1])
    assert heard == [b.cid for b in chain[:3]]  # head 5, floor 3
    late = make_block(1, chain[0].cid, tag="late")
    assert not store.add_block(late)
    assert heard[-1] == late.cid and isinstance(store.get(late.cid), HeaderOnly)


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
    assert [b.height for b in store.canonical_chain()] == [40]
    assert not store.is_extension(genesis.cid, anchor.cid)
    child = make_block(41, anchor.cid)
    assert store.add_block(child) and store.head_cid == child.cid
    assert [b.height for b in store.ancestors(child.cid)] == [41, 40]
