"""Four fault kinds through ``ScenarioRunner`` at seed 7 — churn, cross-msg
spam, a deep PoW reorg and a rogue engine swap — and where the two fork
scenarios leave their subnet: level again, with nothing parked for ever."""

import pytest

from repro.scenario import library
from repro.scenario.faults import select_validators
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import VERDICT_CLEAN, VERDICT_EXPECTED

VERDICTS = {
    "validator-churn": (VERDICT_CLEAN, []),
    "crossmsg-spam": (VERDICT_CLEAN, []),
    "deep-reorg": (VERDICT_EXPECTED, ["finality"]),
    "engine-swap": (VERDICT_EXPECTED, ["finality"]),
}


def _run(name: str):
    runner = ScenarioRunner(library.get(name)(), seed=7)
    system = runner.build()
    return runner, system


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_library_verdict(name):
    runner, system = _run(name)
    ineligible = []
    if name == "engine-swap":
        # The one swapped validator is the minority; the rest stay honest,
        # and none of them may ever commit a block its engine refuses.
        swapped = select_validators(system, library.SUBNET, "minority")
        for node in system.nodes(library.SUBNET):
            if node not in swapped:
                node.on_commit(
                    lambda block, node=node: node.engine.eligible(block)
                    or ineligible.append((node.node_id, block.height))
                )
    outcome = runner.run()
    assert (outcome.verdict, outcome.tripped) == VERDICTS[name], outcome.notes
    assert ineligible == []


@pytest.mark.parametrize("name", ["deep-reorg", "engine-swap"])
def test_a_node_on_a_lost_branch_range_syncs_back_to_the_fork_point(name):
    """The partitioned miner, or the healed rogue, heads a branch its peers
    lack; range sync walks back to where the branches meet, so the subnet
    is level by the end without a snapshot."""
    runner, system = _run(name)
    runner.run()
    heights = [node.head().height for node in system.nodes(library.SUBNET)]
    assert max(heights) - min(heights) <= 2, heights
    assert system.sim.planes["trace"].count("snapshot.adopted") == 0


def test_parked_blocks_leave_once_the_base_passes_them():
    runner, system = _run("engine-swap")
    runner.run()
    system.run_for(120.0)
    for node in system.nodes(library.SUBNET):
        parked = [b.height for waiting in node._orphans.values() for b in waiting.values()]
        assert all(height > node.store.base for height in parked), (node.node_id, parked)
