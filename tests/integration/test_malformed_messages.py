"""A message its actor cannot take — an unknown or ill-typed param — fails
like any other: the chain that includes it keeps committing (§IV-B), and
a cross-msg that fails this way takes the revert path."""

from repro.hierarchy import ROOTNET, HierarchicalSystem, SCA_ADDRESS, SubnetConfig
from repro.sim.observe import BlockCommitted, Plane
from repro.sim.tracing import TraceLog


class FailedCrossMsgs(Plane):
    section = "failed-crossmsgs"
    observes = {BlockCommitted: "on_commit"}

    def __init__(self):
        self.payloads = []

    def on_commit(self, record):
        _node, _block, events = record
        self.payloads += [payload for kind, payload in events if kind == "crossmsg.failed"]


def test_a_malformed_tx_fails_and_the_chain_keeps_committing():
    system = HierarchicalSystem(
        seed=5, root_validators=3, root_block_time=0.5, wallet_funds={"alice": 10**6},
    )
    system.sim.attach(TraceLog(system.sim))
    system.start()
    alice = system.wallets["alice"]
    alice.send(
        system.node(ROOTNET), SCA_ADDRESS, method="init_atomic",
        params={"exec_id": "x", "parties": (("/root/a", "a"), ("/root/b", "b")), "bogus": 1},
    )
    system.run_for(10.0)
    assert system.node(ROOTNET).head().height >= 15
    assert system.sim.planes["trace"].count("timer.error") == 0
    assert system.node(ROOTNET).vm.nonce_of(alice.address) == 1  # included, and failed
    assert system.sca_state(ROOTNET, "atomic/x") is None


def test_a_malformed_crossmsg_reverts_and_the_child_keeps_committing():
    system = HierarchicalSystem(
        seed=6, root_validators=3, root_block_time=0.5, checkpoint_period=6,
        wallet_funds={"bob": 10**6},
    )
    system.sim.attach(TraceLog(system.sim))
    system.start()
    failed = FailedCrossMsgs()
    system.sim.attach(failed)
    child = system.spawn_subnet(
        SubnetConfig(name="c", validators=3, block_time=0.25, checkpoint_period=6)
    )
    bob = system.wallets["bob"]
    before = system.balance(ROOTNET, bob.address)
    system.cross_send(
        bob, ROOTNET, child, SCA_ADDRESS, 2_000,
        method="create_asset", params={"name": "deed", "bogus": 1},
    )
    start = system.node(child).head().height
    system.run_for(10.0)
    assert system.node(child).head().height >= start + 30
    assert system.sim.planes["trace"].count("timer.error") == 0
    assert [error for _addr, error, _cid in failed.payloads][:1] == ["TypeError"]
    assert system.sca_state(child, "asset/deed") is None
    # The revert brings the value back up to bob.
    assert system.wait_for(lambda: system.balance(ROOTNET, bob.address) == before, timeout=90.0)
