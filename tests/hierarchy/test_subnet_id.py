"""Unit and property tests for SubnetID."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hierarchy.subnet_id import ROOTNET, SubnetID


def test_parse_and_render():
    subnet = SubnetID("/root/a/b")
    assert subnet.path == "/root/a/b"
    assert subnet.segments == ("root", "a", "b")
    assert subnet.name == "b"
    assert str(subnet) == "/root/a/b"


def test_invalid_paths_rejected():
    for bad in ("", "root", "/", "/root//a", "/root/UPPER", "/root/sp ace"):
        with pytest.raises(ValueError):
            SubnetID(bad)


def test_immutability():
    subnet = SubnetID("/root")
    with pytest.raises(AttributeError):
        subnet.segments = ("x",)


def test_root_properties():
    assert ROOTNET.is_root
    assert ROOTNET.depth == 0
    with pytest.raises(ValueError):
        ROOTNET.parent()


def test_parent_child_roundtrip():
    child = ROOTNET.child("a").child("b")
    assert child.path == "/root/a/b"
    assert child.parent().path == "/root/a"
    assert child.depth == 2


def test_ancestors_nearest_first():
    subnet = SubnetID("/root/a/b/c")
    assert [a.path for a in subnet.ancestors()] == ["/root/a/b", "/root/a", "/root"]
    assert ROOTNET.ancestors() == []


def test_ancestor_descendant_relations():
    a = SubnetID("/root/a")
    ab = SubnetID("/root/a/b")
    assert a.is_ancestor_of(ab)
    assert not a.is_ancestor_of(a)  # proper
    assert not ab.is_ancestor_of(a)
    assert not SubnetID("/root/x").is_ancestor_of(ab)


def test_common_ancestor():
    ab = SubnetID("/root/a/b")
    ac = SubnetID("/root/a/c")
    assert ab.common_ancestor(ac).path == "/root/a"
    assert ab.common_ancestor(SubnetID("/root/x")).path == "/root"
    assert ab.common_ancestor(ab).path == "/root/a/b"
    assert ab.common_ancestor(SubnetID("/root/a")).path == "/root/a"


def test_down_path():
    root = ROOTNET
    target = SubnetID("/root/a/b")
    assert [s.path for s in root.down_path(target)] == ["/root/a", "/root/a/b"]
    assert root.down_path(root) == []
    with pytest.raises(ValueError):
        SubnetID("/root/x").down_path(target)


def test_next_hop_down():
    assert ROOTNET.next_hop_down(SubnetID("/root/a/b")).path == "/root/a"
    with pytest.raises(ValueError):
        ROOTNET.next_hop_down(ROOTNET)


def test_route_pure_topdown():
    up, down = ROOTNET.route(SubnetID("/root/a/b"))
    assert up == []
    assert [s.path for s in down] == ["/root/a", "/root/a/b"]


def test_route_pure_bottomup():
    up, down = SubnetID("/root/a/b").route(ROOTNET)
    assert [s.path for s in up] == ["/root/a", "/root"]
    assert down == []


def test_route_path_message():
    up, down = SubnetID("/root/a/b").route(SubnetID("/root/c"))
    assert [s.path for s in up] == ["/root/a", "/root"]
    assert [s.path for s in down] == ["/root/c"]


def test_different_roots_have_no_lca():
    with pytest.raises(ValueError):
        SubnetID("/root/a").common_ancestor(SubnetID("/other/b"))


def test_ordering_and_hashing():
    a, b = SubnetID("/root/a"), SubnetID("/root/b")
    assert a < b
    assert len({a, b, SubnetID("/root/a")}) == 2


segments = st.lists(
    st.from_regex(r"[a-z0-9][a-z0-9_-]{0,5}", fullmatch=True), min_size=0, max_size=4
)


@given(segments, segments, segments)
def test_lca_is_commutative_and_prefix(sa, sb, common):
    a = SubnetID(["root"] + common + sa)
    b = SubnetID(["root"] + common + sb)
    lca_ab = a.common_ancestor(b)
    lca_ba = b.common_ancestor(a)
    assert lca_ab == lca_ba
    # The LCA is an ancestor-or-self of both.
    for node in (a, b):
        assert lca_ab == node or lca_ab.is_ancestor_of(node)
    # It extends the constructed common prefix.
    assert len(lca_ab.segments) >= 1 + len(common)


@given(segments, segments)
def test_route_legs_reconnect(sa, sb):
    a = SubnetID(["root"] + sa)
    b = SubnetID(["root"] + sb)
    up, down = a.route(b)
    lca = a.common_ancestor(b)
    if a == lca:
        assert up == []
    else:
        assert up[-1] == lca
    if b == lca:
        assert down == []
    else:
        assert down[-1] == b
    # Walking up then down lands exactly at b.
    position = a
    for hop in up:
        position = position.parent()
        assert position == hop
    for hop in down:
        assert hop.parent() == position
        position = hop
    assert position == b
