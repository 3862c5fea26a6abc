"""End-to-end integration: spawn a subnet, fund it, send value back up."""

import pytest

from repro.hierarchy import (
    ROOTNET,
    HierarchicalSystem,
    SpawnError,
    SubnetConfig,
    audit_system,
)
from repro.sim.tracing import TraceLog


@pytest.fixture(scope="module")
def system():
    system = HierarchicalSystem(
        seed=7,
        root_validators=3,
        root_block_time=0.5,
        checkpoint_period=6,
        wallet_funds={"alice": 1_000_000, "bob": 1_000_000},
    ).start()
    system.spawn_subnet(
        SubnetConfig(name="fast", validators=3, engine="poa", block_time=0.25,
                     checkpoint_period=6)
    )
    yield system


def test_subnet_spawns_and_produces_blocks(system):
    sub = ROOTNET.child("fast")
    assert sub in system.nodes_by_subnet
    height_before = system.node(sub).head().height
    system.run_for(5.0)
    assert system.node(sub).head().height > height_before


def test_child_record_active_with_collateral(system):
    record = system.child_record(ROOTNET, "/root/fast")
    assert record["status"] == "active"
    assert record["collateral"] == 300  # 3 validators x 100 stake


def test_topdown_fund_arrives(system):
    sub = ROOTNET.child("fast")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 50_000)
    ok = system.wait_for(
        lambda: system.balance(sub, alice.address) >= 50_000, timeout=30.0
    )
    assert ok, "top-down funds never arrived in the subnet"


def test_intra_subnet_payment(system):
    sub = ROOTNET.child("fast")
    alice, bob = system.wallets["alice"], system.wallets["bob"]
    before = system.balance(sub, bob.address)
    system.transfer(alice, sub, bob.address, 1_000)
    ok = system.wait_for(
        lambda: system.balance(sub, bob.address) == before + 1_000, timeout=15.0
    )
    assert ok


def test_bottomup_release_arrives(system):
    sub = ROOTNET.child("fast")
    bob = system.wallets["bob"]
    carol = system.create_wallet("carol")
    system.cross_send(bob, sub, ROOTNET, carol.address, 700)
    ok = system.wait_for(
        lambda: system.balance(ROOTNET, carol.address) == 700, timeout=60.0
    )
    assert ok, "bottom-up release never arrived on the rootnet"


def test_checkpoints_committed_on_parent(system):
    record = system.child_record(ROOTNET, "/root/fast")
    assert record["last_ckpt_cid"] != "00" * 32


def test_supply_invariants_hold(system):
    system.run_for(10.0)
    audit = audit_system(system)
    assert audit.ok, audit.violations


def test_all_subnet_nodes_converge(system):
    sub = ROOTNET.child("fast")
    system.run_for(3.0)
    heights = [node.head().height for node in system.nodes(sub)]
    assert max(heights) - min(heights) <= 2
    cids = {
        node.store.block_at_height(min(heights) - 1).cid
        for node in system.nodes(sub)
    }
    assert len(cids) == 1


# ----------------------------------------------------------------------
# Batched spawning
# ----------------------------------------------------------------------
def _fresh(seed=5):
    system = HierarchicalSystem(
        seed=seed, root_validators=3, root_block_time=0.5, checkpoint_period=6
    )
    system.sim.attach(TraceLog(system.sim))
    return system.start()


def _lane(name, parent=ROOTNET, engine="poa"):
    return SubnetConfig(name=name, parent=parent, validators=3, engine=engine,
                        block_time=0.25, checkpoint_period=6)


def _fingerprint(system):
    heads = {subnet.path: system.node(subnet).head().cid for subnet in system.subnets}
    return system.sim.now, system.sim.events_executed, system.sim.planes["trace"].digest(), heads


def test_batch_of_one_is_the_serial_spawn():
    serial, batched = _fresh(), _fresh()
    assert serial.spawn_subnet(_lane("solo", engine="tendermint")) == ROOTNET.child("solo")
    assert batched.spawn_subnets([_lane("solo", engine="tendermint")]) == [ROOTNET.child("solo")]
    # Fund, deploy and join each take one 0.5 s root block, in that order.
    assert (batched.sim.now, batched.sim.events_executed) == (1.5, 34)
    assert _fingerprint(serial) == _fingerprint(batched)
    serial.run_for(3.0)
    batched.run_for(3.0)
    assert _fingerprint(serial) == _fingerprint(batched)


def test_set_up_sim_time_does_not_grow_with_width():
    ends = []
    for width in (2, 12):
        system = _fresh()
        subnets = system.spawn_subnets(_lane(f"w{i}") for i in range(width))
        assert subnets == [ROOTNET.child(f"w{i}") for i in range(width)]
        assert all(
            system.child_record(ROOTNET, subnet)["status"] == "active" for subnet in subnets
        )
        ends.append(system.sim.now)
    assert ends[0] == ends[1]


def test_two_level_batch_listed_child_first_keeps_config_order():
    system = _fresh()
    configs = [
        _lane("leaf", parent="/root/mid/low"),
        _lane("low", parent="/root/mid", engine="tendermint"),
        _lane("side"),
        _lane("mid"),
    ]
    subnets = system.spawn_subnets(configs)
    assert [subnet.path for subnet in subnets] == [
        "/root/mid/low/leaf", "/root/mid/low", "/root/side", "/root/mid",
    ]
    assert sorted(subnets) == system.subnets[1:]
    system.run_for(3.0)
    assert all(system.node(subnet).head().height > 0 for subnet in subnets)


def _unchanged_by(system, configs):
    before = (dict(system.wallets), system.sim.now, system.sim.events_executed)
    with pytest.raises(SpawnError):
        system.spawn_subnets(configs)
    assert (dict(system.wallets), system.sim.now, system.sim.events_executed) == before


def test_bad_batch_before_start_changes_nothing():
    system = HierarchicalSystem(seed=5, root_validators=3)
    _unchanged_by(system, [_lane("a")])


def test_bad_batch_with_unknown_parent_changes_nothing():
    system = _fresh()
    _unchanged_by(system, [_lane("a"), _lane("b", parent="/root/nowhere")])
    # A parent in the batch is known; its own missing parent is not.
    _unchanged_by(system, [_lane("a"), _lane("c", parent="/root/x/y"), _lane("y", parent="/root/x")])


def test_bad_batch_with_repeated_subnet_changes_nothing():
    system = _fresh()
    _unchanged_by(system, [_lane("a"), _lane("b"), _lane("a")])
    system.spawn_subnet(_lane("a"))
    _unchanged_by(system, [_lane("b"), _lane("a")])


def test_timed_out_phase_names_every_missing_subnet():
    system = _fresh()
    stuck = [_lane(name) for name in ("stuck0", "stuck1")]
    for config in stuck:
        config.activation_collateral = 10**6  # more than 3 validators ever stake
    with pytest.raises(SpawnError, match="sa-active timed out for /root/stuck0,/root/stuck1"):
        system.spawn_subnets([stuck[0], _lane("fine"), stuck[1]], timeout=5.0)
    assert system.last_timeout["label"] == "sa-active:/root/stuck0,/root/stuck1"
