"""Unit tests for the blockstore."""

import pytest

from repro.crypto.cid import cid_of
from repro.storage.blockstore import Blockstore


def test_put_returns_content_cid():
    store = Blockstore()
    cid = store.put({"a": 1})
    assert cid == cid_of({"a": 1})
    assert store.get(cid) == {"a": 1}


def test_put_is_idempotent():
    store = Blockstore()
    cid_first = store.put("v")
    cid_second = store.put("v")
    assert cid_first == cid_second
    assert len(store) == 1


def test_get_missing_raises():
    store = Blockstore()
    with pytest.raises(KeyError):
        store.get(cid_of("missing"))
    assert store.get_optional(cid_of("missing")) is None


def test_has_and_contains():
    store = Blockstore()
    cid = store.put(42)
    assert store.has(cid)
    assert cid in store
    assert not store.has(cid_of("other"))


def test_delete():
    store = Blockstore()
    cid = store.put("gone")
    assert store.delete(cid)
    assert not store.delete(cid)
    assert not store.has(cid)


def test_put_many():
    store = Blockstore()
    cids = store.put_many([1, 2, 3])
    assert [store.get(c) for c in cids] == [1, 2, 3]
