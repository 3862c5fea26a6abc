"""``long-outage``: the scenario on the snapshot side of the sync ladder.

``fault-heal`` (the ledger workload) and every other crash in the library
stay inside the horizon and recover by ``chain:blocks``; this one must not.
"""

from repro.hierarchy import audit_system
from repro.scenario import library
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import VERDICT_CLEAN

#: Simulated seconds from restart to within a block of the subnet's head.
RECOVERY_BOUND_S = 2.0


def test_long_outage_recovers_by_snapshot_within_its_bound():
    runner = ScenarioRunner(library.get("long-outage")())
    system = runner.build()
    subnet = library.SUBNET
    victim, peer = system.nodes(subnet)[-1], system.nodes(subnet)[0]
    level = []  # when the victim's commits were within a block of its peer's
    victim.on_commit(
        lambda block: block.height >= peer.head().height - 1
        and level.append(system.sim.now)
    )
    rpcs = []
    rpc = system.stack.gossip.rpc
    call = rpc.call

    def spy(caller, target, method, params, on_response):
        rpcs.append((caller, method))
        call(caller, target, method, params, on_response)

    rpc.call = spy
    outcome = runner.run()

    assert outcome.verdict == VERDICT_CLEAN, outcome.notes
    assert outcome.tripped == [] and outcome.stalls == []
    down, up = (entry["time"] for entry in outcome.fault_log)
    # The range request alone did not suffice: it was refused, the snapshot
    # RPC ran, and the range that followed carried only the tail.
    mine = [method for caller, method in rpcs if caller == victim.node_id]
    assert mine[:3] == ["chain:blocks", "chain:snapshot", "chain:blocks"]
    counter = system.sim.metrics.counter
    assert counter(f"chain.{subnet}.snapshot_adopted").value == 1
    assert counter(f"chain.{subnet}.snapshot_refused").value == 0
    assert 0 < counter(f"chain.{subnet}.sync_blocks").value < peer.store.prune_depth
    assert victim.store.base > peer.store.prune_depth
    # Bounded recovery: level with its peers within RECOVERY_BOUND_S of the
    # restart, and still level at the end.
    recovered = min(t for t in level if t >= up)
    assert recovered - up <= RECOVERY_BOUND_S, recovered - up
    assert victim.head().height >= peer.head().height - 1
    # Supply is conserved with the adopted state in the books.
    assert audit_system(system).ok
