"""E5 — Atomic execution protocol (Fig. 5, §IV-D).

Atomic swaps across sibling subnets coordinated by the LCA's SCA:

- happy path: time from initialization to commit at the LCA and to the
  result being applied in every party subnet;
- abort path: one party walks away and aborts; everything reverts;
- party-count sweep: 2, 3 and 4 parties (each in its own subnet).

Expected shape: the protocol always terminates (timeliness); commits apply
everywhere or nowhere (atomicity); time-to-commit is a few block/window
rounds at the LCA plus one cross-net notification leg per party subnet;
aborts are no slower than commits.
"""

import pytest

from repro.hierarchy import SCA_ADDRESS, HierarchicalSystem, SubnetConfig
from repro.hierarchy.atomic import AtomicExecutionClient, AtomicParty, asset_lock, asset_owner
from repro.sim.tracing import TraceLog

from common import RUN, run_once, show_table, write_bench_json

BLOCK_TIME = 0.25
PERIOD = 8


def _system_with_parties(seed: int, n_parties: int):
    system = HierarchicalSystem(
        seed=seed, root_validators=3, root_block_time=0.5,
        checkpoint_period=PERIOD,
        wallet_funds={f"party{i}": 10**9 for i in range(n_parties)},
    )
    # The bench document's `trace` section: CI holds its digest across
    # hash seeds.
    system.sim.attach(TraceLog(system.sim))
    system.start()
    RUN.capture(system.sim, system)
    subnets = system.spawn_subnets(
        SubnetConfig(name=f"p{i}", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=PERIOD)
        for i in range(n_parties)
    )
    parties = []
    for i, subnet in enumerate(subnets):
        wallet = system.wallets[f"party{i}"]
        wallet.send(system.node(subnet), SCA_ADDRESS,
                    method="create_asset", params={"name": f"asset-{i}"})
        parties.append(AtomicParty(wallet=wallet, subnet=subnet, assets=(f"asset-{i}",)))
    system.wait_for(
        lambda: all(
            asset_owner(system, p.subnet, p.assets[0]) == p.wallet.address.raw
            for p in parties
        ),
        timeout=30.0,
    )
    return system, parties


def _rotation_executor(inputs):
    """N-party generalisation of the swap: owners rotate by one."""
    owners = sorted({record["owner"] for record in inputs.values()})
    rotate = {owners[i]: owners[(i + 1) % len(owners)] for i in range(len(owners))}
    return {"owners": {name: rotate[r["owner"]] for name, r in inputs.items()}}


def _happy_path(seed: int, n_parties: int):
    system, parties = _system_with_parties(seed, n_parties)
    client = AtomicExecutionClient(
        system, exec_id=f"bench-{n_parties}", parties=parties,
        executor=_rotation_executor,
    )
    t0 = system.sim.now
    assert client.initialize(timeout=60.0)
    t_locked = system.sim.now
    client.execute_offchain()
    client.submit_outputs()
    assert system.wait_for(
        lambda: client.status_at_lca() in ("committed", "aborted"), timeout=60.0
    )
    t_decided = system.sim.now
    assert client.status_at_lca() == "committed"
    assert client.wait_terminated(timeout=240.0)
    t_applied = system.sim.now
    # Atomicity check: every asset rotated.
    for i, party in enumerate(parties):
        expected_new_owner = parties[(i + 1) % n_parties].wallet.address.raw
        owners = sorted(p.wallet.address.raw for p in parties)
        rotate = {owners[j]: owners[(j + 1) % len(owners)] for j in range(len(owners))}
        assert asset_owner(system, party.subnet, party.assets[0]) == rotate[party.wallet.address.raw]
    return {
        "parties": n_parties,
        "lock_time": t_locked - t0,
        "decide_time": t_decided - t0,
        "apply_time": t_applied - t0,
    }


def _abort_path(seed: int):
    system, parties = _system_with_parties(seed, 2)
    client = AtomicExecutionClient(system, exec_id="bench-abort", parties=parties)
    t0 = system.sim.now
    assert client.initialize(timeout=60.0)
    client.abort(party_index=1)
    assert system.wait_for(lambda: client.status_at_lca() == "aborted", timeout=60.0)
    t_decided = system.sim.now
    assert client.wait_terminated(timeout=240.0)
    t_applied = system.sim.now
    for party in parties:
        assert asset_owner(system, party.subnet, party.assets[0]) == party.wallet.address.raw
        assert asset_lock(system, party.subnet, party.assets[0]) is None
    return {"decide_time": t_decided - t0, "apply_time": t_applied - t0}


@pytest.mark.benchmark(group="e5")
def test_e5_atomic_execution(benchmark):
    def experiment():
        sweep = [_happy_path(500 + n, n) for n in (2, 3, 4)]
        abort = _abort_path(510)
        return sweep, abort

    sweep, abort = run_once(benchmark, experiment)

    show_table(
        "E5 — atomic execution (Fig. 5): time from init to lock/decision/apply",
        ["scenario", "parties", "locked (s)", "decided at LCA (s)", "applied everywhere (s)"],
        [
            ("commit", row["parties"], row["lock_time"],
             row["decide_time"], row["apply_time"])
            for row in sweep
        ] + [("abort", 2, "-", abort["decide_time"], abort["apply_time"])],
    )

    write_bench_json("e5_atomic", rows={"sweep": sweep, "abort": abort})
    # Timeliness: everything decided and applied (asserts above), and the
    # decision at the LCA lands within a handful of windows.
    window = BLOCK_TIME * PERIOD
    for row in sweep:
        assert row["decide_time"] < 10 * window
        assert row["apply_time"] >= row["decide_time"]
    # More parties never decide faster than fewer (monotone-ish sweep).
    assert sweep[0]["decide_time"] <= sweep[-1]["decide_time"] + 2 * window
    # Aborts are not slower than commits by more than a window.
    assert abort["decide_time"] <= sweep[0]["decide_time"] + 2 * window
