"""End-state digest invariance under tie-shuffled schedules (the runtime
sanitizer's integration contract).

A full hierarchical run — spawn, fund, cross-send, checkpoint — executed
under FIFO tie order and under several shuffled tie orders must converge
to the same :meth:`HierarchicalSystem.end_state_digest`.  The trace digest
legitimately differs (the schedule changed); the value-level end state
must not.
"""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig


def _run_scenario(monkeypatch, tie_shuffle):
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=7, root_validators=3, root_block_time=0.5,
        checkpoint_period=4, wallet_funds={"alice": 10_000},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", validators=3, block_time=0.25, checkpoint_period=4)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 2_000)
    assert system.wait_for(
        lambda: system.balance(subnet, alice.address) >= 2_000, timeout=60.0
    )
    bob = system.create_wallet("bob")
    system.cross_send(alice, subnet, ROOTNET, bob.address, 300)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, bob.address) == 300, timeout=120.0
    )
    system.run_until(30.0)
    return system


def test_end_state_digest_invariant_across_tie_shuffles(monkeypatch):
    digests = {}
    traces = {}
    for seed in (None, 1, 2):
        system = _run_scenario(monkeypatch, seed)
        digests[seed] = system.end_state_digest()
        traces[seed] = system.sim.trace.digest()
    assert len(set(digests.values())) == 1, digests
    # Sanity: the shuffled schedules really were different schedules.
    assert traces[1] != traces[None] or traces[2] != traces[None]


def test_same_shuffle_seed_reproduces_byte_identical_runs(monkeypatch):
    first = _run_scenario(monkeypatch, 5)
    second = _run_scenario(monkeypatch, 5)
    assert first.sim.trace.digest() == second.sim.trace.digest()
    assert first.end_state_digest() == second.end_state_digest()


@pytest.mark.parametrize("seed", [None, 3])
def test_digest_is_stable_for_idle_system(monkeypatch, seed):
    if seed is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(seed))
    system = HierarchicalSystem(seed=3, root_validators=3).start()
    system.run_for(5.0)
    before = system.end_state_digest()
    # Digesting must not mutate state.
    assert system.end_state_digest() == before


def _run_batched_tree(monkeypatch, tie_shuffle):
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=9, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"alice": 10_000},
    ).start()
    # Two levels, four engines, the child listed before its parent.
    leaf = system.spawn_subnets([
        SubnetConfig(name="leaf", parent="/root/tm", validators=3, engine="poa",
                     block_time=0.25, checkpoint_period=4),
        SubnetConfig(name="tm", validators=4, engine="tendermint", block_time=0.5,
                     checkpoint_period=4),
        SubnetConfig(name="pos", validators=3, engine="pos", block_time=0.5,
                     checkpoint_period=4),
        SubnetConfig(name="mir", validators=4, engine="mir", block_time=0.5,
                     checkpoint_period=4),
    ])[0]
    alice = system.wallets["alice"]
    system.cross_send(alice, ROOTNET, leaf, alice.address, 1_000)
    assert system.wait_for(
        lambda: system.balance(leaf, alice.address) >= 1_000, timeout=60.0
    )
    system.run_until(20.0)
    return system


def test_batched_mixed_engine_spawn_is_tie_invariant(monkeypatch):
    digests = {
        seed: _run_batched_tree(monkeypatch, seed).end_state_digest()
        for seed in (None, 1, 2)
    }
    assert len(set(digests.values())) == 1, digests
