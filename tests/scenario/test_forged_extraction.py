"""forged-extraction under randomized schedules: the attack must land.

Two ways a jittered forgery used to go missing, each pinned by the
``(campaign, seed)`` pairs that showed it:

- the forgery lost a race — a genuine checkpoint for the same window was
  still in the parent's mempool, landed first, and the SA refused the
  forgery as ``already checkpointed`` (``rand`` 2, ``rand20`` 1);
- the forgery was dropped — sent from a fresh wallet over validator 0's
  key, it reused the nonce of a pending genuine submission and the
  mempool refused it without a word (``rand20`` 2, 6, 15, 16, 17).
"""

import random

import pytest

from repro.scenario import library
from repro.scenario.campaign import _jitter_schedule
from repro.scenario.runner import ScenarioRunner


@pytest.mark.parametrize(
    "campaign, seed",
    [("rand", 2), ("rand20", 1), ("rand20", 2), ("rand20", 6), ("rand20", 15),
     ("rand20", 16), ("rand20", 17)],
)
def test_jittered_forged_extraction_trips_the_supply_auditor(campaign, seed):
    scenario = library.forged_extraction()
    # Keyed exactly as CampaignRunner(randomize=True) keys it.
    _jitter_schedule(scenario, random.Random(f"{campaign}:{scenario.name}:{seed}"))
    outcome = ScenarioRunner(scenario, seed=seed).run()
    assert outcome.verdict == "expected-violation", outcome.notes
    assert "supply" in outcome.tripped
