"""Unit tests for the mempool."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyPair
from repro.chain.message_pool import MessagePool
from repro.vm.message import Message, SignedMessage


def signed_payment(sender_seed, nonce, value=1):
    key = KeyPair(sender_seed)
    message = Message(
        from_addr=key.address,
        to_addr=KeyPair("recipient").address,
        value=value,
        nonce=nonce,
    )
    return SignedMessage.create(message, key)


def test_add_and_len():
    pool = MessagePool()
    assert pool.add(signed_payment("a", 0))
    assert len(pool) == 1


def test_duplicate_rejected():
    pool = MessagePool()
    signed = signed_payment("a", 0)
    assert pool.add(signed)
    assert not pool.add(signed)
    assert len(pool) == 1


def test_same_nonce_first_seen_wins():
    pool = MessagePool()
    first = signed_payment("a", 0, value=1)
    second = signed_payment("a", 0, value=2)
    assert pool.add(first)
    assert not pool.add(second)
    assert pool.pending_for(first.message.from_addr) == [first]


def test_capacity_enforced():
    pool = MessagePool(capacity=2)
    assert pool.add(signed_payment("a", 0))
    assert pool.add(signed_payment("a", 1))
    assert not pool.add(signed_payment("a", 2))


def test_bad_signature_rejected():
    from dataclasses import replace

    pool = MessagePool()
    signed = signed_payment("a", 0)
    tampered = SignedMessage(
        message=replace(signed.message, value=99), signature=signed.signature
    )
    assert not pool.add(tampered)


def test_select_respects_nonce_order():
    pool = MessagePool()
    for nonce in (2, 0, 1):
        pool.add(signed_payment("a", nonce))
    selected = pool.select(nonce_of=lambda a: 0)
    assert [s.message.nonce for s in selected] == [0, 1, 2]


def test_select_skips_gapped_nonces():
    pool = MessagePool()
    pool.add(signed_payment("a", 0))
    pool.add(signed_payment("a", 2))  # gap at 1
    selected = pool.select(nonce_of=lambda a: 0)
    assert [s.message.nonce for s in selected] == [0]


def test_select_starts_at_chain_nonce():
    pool = MessagePool()
    for nonce in range(4):
        pool.add(signed_payment("a", nonce))
    selected = pool.select(nonce_of=lambda a: 2)
    assert [s.message.nonce for s in selected] == [2, 3]


def test_select_round_robin_fairness():
    pool = MessagePool()
    for nonce in range(10):
        pool.add(signed_payment("spammy", nonce))
    pool.add(signed_payment("quiet", 0))
    selected = pool.select(nonce_of=lambda a: 0, max_messages=4)
    senders = {s.message.from_addr for s in selected}
    assert len(senders) == 2  # the quiet sender got in


def test_select_cap():
    pool = MessagePool()
    for nonce in range(10):
        pool.add(signed_payment("a", nonce))
    assert len(pool.select(nonce_of=lambda a: 0, max_messages=3)) == 3


def test_remove_included():
    pool = MessagePool()
    messages = [signed_payment("a", n) for n in range(3)]
    for signed in messages:
        pool.add(signed)
    removed = pool.remove_included(messages[:2])
    assert removed == 2
    assert len(pool) == 1


def test_remove_included_ignores_unknown():
    pool = MessagePool()
    assert pool.remove_included([signed_payment("a", 0)]) == 0


def test_drop_stale():
    pool = MessagePool()
    for nonce in range(5):
        pool.add(signed_payment("a", nonce))
    dropped = pool.drop_stale(nonce_of=lambda a: 3)
    assert dropped == 3
    remaining = pool.pending_for(signed_payment("a", 0).message.from_addr)
    assert [s.message.nonce for s in remaining] == [3, 4]


def test_pending_for_unknown_sender_empty():
    pool = MessagePool()
    assert pool.pending_for(KeyPair("ghost").address) == []


class ReferencePool:
    """The pool as it was when it also kept a set of the CIDs it held: every
    add and every inclusion looked a message up by CID.  ``MessagePool`` must
    decide exactly as this does."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._by_sender = {}
        self._cids = set()

    def __len__(self):
        return len(self._cids)

    def add(self, signed):
        cid = signed.cid
        if cid in self._cids:
            return False
        if len(self._cids) >= self.capacity:
            return False
        if not signed.verify_signature():
            return False
        sender_queue = self._by_sender.setdefault(signed.message.from_addr, {})
        nonce = signed.message.nonce
        if nonce in sender_queue:
            return False
        sender_queue[nonce] = signed
        self._cids.add(cid)
        return True

    def select(self, nonce_of, max_messages=500):
        runs = []
        for sender in sorted(self._by_sender):
            queue = self._by_sender[sender]
            next_nonce = nonce_of(sender)
            run = []
            while next_nonce in queue:
                run.append(queue[next_nonce])
                next_nonce += 1
            if run:
                runs.append(run)
        selected = []
        index = 0
        while len(selected) < max_messages and runs:
            runs = [run for run in runs if index < len(run)]
            for run in runs:
                if index < len(run) and len(selected) < max_messages:
                    selected.append(run[index])
            index += 1
        return selected

    def remove_included(self, messages):
        removed = 0
        for signed in messages:
            queue = self._by_sender.get(signed.message.from_addr)
            if not queue:
                continue
            existing = queue.get(signed.message.nonce)
            if existing is not None and existing.cid == signed.cid:
                del queue[signed.message.nonce]
                self._cids.discard(signed.cid)
                removed += 1
            if not queue:
                self._by_sender.pop(signed.message.from_addr, None)
        return removed

    def drop_stale(self, nonce_of):
        dropped = 0
        for sender in list(self._by_sender):
            floor = nonce_of(sender)
            queue = self._by_sender[sender]
            for nonce in [n for n in queue if n < floor]:
                self._cids.discard(queue[nonce].cid)
                del queue[nonce]
                dropped += 1
            if not queue:
                del self._by_sender[sender]
        return dropped

    def pending_for(self, sender):
        queue = self._by_sender.get(sender, {})
        return [queue[n] for n in sorted(queue)]


POOL_SENDERS = [KeyPair(f"pool-{i}") for i in range(3)]
POOL_NONCES = 4
# Two variants per (sender, nonce): the second conflicts with the first.
POOL_MESSAGES = {
    (s, n, v): SignedMessage.create(
        Message(from_addr=key.address, to_addr=KeyPair("recipient").address,
                value=v + 1, nonce=n),
        key,
    )
    for s, key in enumerate(POOL_SENDERS)
    for n in range(POOL_NONCES)
    for v in range(2)
}

_slot = st.tuples(
    st.integers(0, len(POOL_SENDERS) - 1), st.integers(0, POOL_NONCES - 1), st.integers(0, 1)
)
_floors = st.lists(st.integers(0, POOL_NONCES), min_size=len(POOL_SENDERS),
                   max_size=len(POOL_SENDERS))
_operation = st.one_of(
    st.tuples(st.just("add"), _slot, st.sampled_from(("same", "copy", "bad"))),
    st.tuples(st.just("remove"), st.lists(st.tuples(_slot, st.booleans()), max_size=4)),
    st.tuples(st.just("drop_stale"), _floors),
    st.tuples(st.just("select"), _floors, st.integers(1, 6)),
)


def _message(slot, form):
    signed = POOL_MESSAGES[slot]
    if form == "copy":  # content-equal, another object
        return SignedMessage(message=signed.message, signature=signed.signature)
    if form == "bad":
        return SignedMessage(message=replace(signed.message, value=99), signature=signed.signature)
    return signed


def _same_objects(mine, theirs):
    return len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))


def _nonce_of(floors):
    by_address = {key.address: floors[i] for i, key in enumerate(POOL_SENDERS)}
    return lambda address: by_address[address]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(_operation, max_size=30))
def test_pool_decides_as_the_cid_set_reference(capacity, operations):
    pool, reference = MessagePool(capacity=capacity), ReferencePool(capacity)
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            signed = _message(operation[1], operation[2])
            assert pool.add(signed) == reference.add(signed)
        elif kind == "remove":
            included = [_message(slot, "copy" if copied else "same")
                        for slot, copied in operation[1]]
            assert pool.remove_included(included) == reference.remove_included(included)
        elif kind == "drop_stale":
            nonce_of = _nonce_of(operation[1])
            assert pool.drop_stale(nonce_of) == reference.drop_stale(nonce_of)
        else:
            nonce_of = _nonce_of(operation[1])
            limit = operation[2]
            assert _same_objects(pool.select(nonce_of, limit), reference.select(nonce_of, limit))
        assert len(pool) == len(reference)
        everything = _nonce_of([0] * len(POOL_SENDERS))
        assert _same_objects(pool.select(everything, 99), reference.select(everything, 99))
        for key in POOL_SENDERS:
            assert _same_objects(pool.pending_for(key.address), reference.pending_for(key.address))
