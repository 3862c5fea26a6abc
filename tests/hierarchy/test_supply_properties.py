"""Property tests: supply invariants under random cross-net traffic.

Drives a hand-wired parent/child VM pair through arbitrary sequences of
protocol operations (fund, bottom-up sends, window seals, checkpoint
commits, batch applications, failing deliveries) and asserts the firewall
ledger invariants after every step:

- parent SCA balance ≥ collateral + circulating (frozen-pool solvency);
- released_total ≤ injected_total (the cumulative firewall bound);
- circulating == injected − released ≥ 0;
- child minted ≤ injected; child burned ≤ minted + local supply;
- no token creation: global (minted − burned) across both chains equals
  net injected value.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.cid import cid_of
from repro.crypto.keys import Address, KeyPair
from repro.hierarchy.gateway import SCA_ADDRESS, sca_key
from repro.hierarchy.subnet_id import SubnetID
from repro.vm.message import Message
from repro.vm.vm import SYSTEM_ADDRESS, VM

from tests.hierarchy.conftest import hierarchy_registry

ROOT = SubnetID("/root")
SUB = SubnetID("/root/sub")
USERS = [KeyPair(f"prop-user-{i}") for i in range(3)]
COLLATERAL = 200


class Harness:
    """A parent/child pair plus manual drivers for each protocol step."""

    def __init__(self):
        self.parent = VM(subnet_id="/root", registry=hierarchy_registry())
        self.parent.create_actor(
            SCA_ADDRESS, "sca",
            params={"subnet_path": "/root", "min_collateral": 100,
                    "checkpoint_period": 10},
        )
        self.sa_addr = Address("f2propsub")
        self.parent.create_actor(
            self.sa_addr, "subnet-actor",
            params={"subnet_path": SUB.path, "consensus": "poa",
                    "checkpoint_period": 10, "activation_collateral": COLLATERAL},
        )
        miner = KeyPair("prop-miner")
        self.parent.mint(miner.address, COLLATERAL)
        receipt = self.parent.apply_message(
            Message(from_addr=miner.address, to_addr=self.sa_addr,
                    value=COLLATERAL, method="join",
                    nonce=0)
        )
        assert receipt.ok, receipt.error
        for user in USERS:
            self.parent.mint(user.address, 10_000)

        self.child = VM(subnet_id=SUB.path, registry=hierarchy_registry())
        self.child.create_actor(
            SCA_ADDRESS, "sca",
            params={"subnet_path": SUB.path, "min_collateral": 100,
                    "checkpoint_period": 10},
        )
        self.next_window = 0
        self.td_applied = 0

    # -- protocol steps -------------------------------------------------
    def user_call(self, vm, user, method, params, value):
        message = Message(
            from_addr=user.address, to_addr=SCA_ADDRESS, value=value,
            method=method, params=params, nonce=vm.nonce_of(user.address),
        )
        return vm.apply_message(message)

    def fund(self, user_index, amount):
        user = USERS[user_index]
        amount = min(amount, self.parent.balance_of(user.address))
        if amount <= 0:
            return
        self.user_call(
            self.parent, user, "fund",
            {"subnet_path": SUB.path, "to_addr": user.address.raw}, amount,
        )

    def pump_topdown(self):
        while True:
            message = self.parent.state.get(
                sca_key(f"td_msg/{SUB.path}/{self.td_applied}")
            )
            if message is None:
                return
            receipt = self.child.apply_implicit(
                SYSTEM_ADDRESS, SCA_ADDRESS, "apply_topdown",
                {"message": message, "nonce": self.td_applied},
            )
            assert receipt.ok, receipt.error
            self.td_applied += 1

    def send_up(self, user_index, amount, poison=False):
        user = USERS[user_index]
        amount = min(amount, self.child.balance_of(user.address))
        if amount <= 0:
            return
        self.user_call(
            self.child, user, "send_crossmsg",
            {"to_subnet": "/root", "to_addr": user.address.raw,
             "method": "no_such_method" if poison else "send"},
            amount,
        )

    def seal_and_commit(self):
        window = self.next_window
        receipt = self.child.apply_implicit(
            SYSTEM_ADDRESS, SCA_ADDRESS, "seal_window",
            {"window": window, "proof_cid": cid_of(("blk", window))},
        )
        assert receipt.ok, receipt.error
        self.next_window += 1
        # Advance the child epoch into the new window so later sends land there.
        self.child.epoch = self.next_window * 10
        checkpoint = self.child.state.get(sca_key(f"ckpt/{window}"))
        commit = self.parent.apply_implicit(
            self.sa_addr, SCA_ADDRESS, "commit_child_checkpoint",
            {"checkpoint": checkpoint},
        )
        assert commit.ok, commit.error

    def apply_bottomups(self):
        while True:
            nonce = self.parent.state.get(sca_key("bu_applied_nonce"))
            entry = self.parent.state.get(sca_key(f"bu_meta/{nonce}"))
            if entry is None:
                return
            meta = entry["meta"]
            messages = self.child.state.get(
                sca_key(f"registry/{meta.msgs_cid.hex()}")
            )
            receipt = self.parent.apply_implicit(
                SYSTEM_ADDRESS, SCA_ADDRESS, "apply_bottomup",
                {"nonce": nonce, "messages": messages},
            )
            assert receipt.ok, receipt.error

    # -- invariants -------------------------------------------------------
    def check_invariants(self):
        record = self.parent.state.get(sca_key(f"child/{SUB.path}"))
        circulating = record["circulating"]
        injected = record["injected_total"]
        released = record["released_total"]
        assert released <= injected, "firewall breached: released > injected"
        assert circulating == injected - released
        assert circulating >= 0
        pool = self.parent.balance_of(SCA_ADDRESS)
        assert pool >= record["collateral"] + circulating, "frozen pool insolvent"
        assert self.child.total_minted <= injected
        # Exact conservation identity: top-down application is the child's
        # only mint source, so minted == injected − (queued, not yet
        # applied).  Value burned in the child but not yet released at the
        # parent is in flight inside a checkpoint window; the frozen-pool
        # check above keeps it backed throughout.
        assert self.child.total_minted == injected - self._pending_topdown_value()
        child_alive = self.child.total_minted - self.child.total_burned
        assert 0 <= child_alive <= injected

    def _pending_topdown_value(self):
        total = 0
        nonce = self.td_applied
        while True:
            message = self.parent.state.get(
                sca_key(f"td_msg/{SUB.path}/{nonce}")
            )
            if message is None:
                return total
            total += message.value
            nonce += 1


operation = st.one_of(
    st.tuples(st.just("fund"), st.integers(0, 2), st.integers(1, 3000)),
    st.tuples(st.just("pump"), st.just(0), st.just(0)),
    st.tuples(st.just("send_up"), st.integers(0, 2), st.integers(1, 3000)),
    st.tuples(st.just("poison_up"), st.integers(0, 2), st.integers(1, 500)),
    st.tuples(st.just("seal"), st.just(0), st.just(0)),
    st.tuples(st.just("apply"), st.just(0), st.just(0)),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, max_size=25))
def test_supply_invariants_hold_under_random_traffic(operations):
    harness = Harness()
    for op, index, amount in operations:
        if op == "fund":
            harness.fund(index, amount)
        elif op == "pump":
            harness.pump_topdown()
        elif op == "send_up":
            harness.send_up(index, amount)
        elif op == "poison_up":
            harness.send_up(index, amount, poison=True)
        elif op == "seal":
            harness.seal_and_commit()
        elif op == "apply":
            harness.apply_bottomups()
        harness.check_invariants()
    # Drain everything and re-check at quiescence.
    harness.pump_topdown()
    harness.seal_and_commit()
    harness.apply_bottomups()
    harness.pump_topdown()
    harness.check_invariants()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 20000))
def test_forged_extraction_never_exceeds_supply(injected, claimed):
    """Direct property form of E6: any forged claim pays ≤ injected."""
    from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, ZERO_CHECKPOINT
    from repro.hierarchy.crossmsg import CrossMsg

    harness = Harness()
    harness.fund(0, min(injected, 10_000))
    record = harness.parent.state.get(sca_key(f"child/{SUB.path}"))
    supply = record["circulating"]
    attacker = KeyPair("prop-attacker").address
    forged = (
        CrossMsg(from_subnet=SUB, from_addr=attacker, to_subnet=ROOT,
                 to_addr=attacker, value=claimed),
    )
    meta = CrossMsgMeta(from_subnet=SUB, to_subnet=ROOT, nonce=0,
                        msgs_cid=cid_of(forged), count=1, value=claimed)
    checkpoint = Checkpoint(source=SUB, proof=cid_of("f"), prev=ZERO_CHECKPOINT,
                            cross_meta=(meta,), window=0, epoch=10)
    commit = harness.parent.apply_implicit(
        harness.sa_addr, SCA_ADDRESS, "commit_child_checkpoint",
        {"checkpoint": checkpoint},
    )
    assert commit.ok
    receipt = harness.parent.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_bottomup",
        {"nonce": 0, "messages": forged},
    )
    assert receipt.ok
    extracted = harness.parent.balance_of(attacker)
    assert extracted <= supply
    harness.check_invariants()
