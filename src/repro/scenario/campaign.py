"""Seeded campaign runner: scenario × seed grids with optional jitter.

A campaign takes scenario *factories* (callables returning a fresh
:class:`~repro.scenario.spec.Scenario` — faults are stateful, so every
run gets its own objects), runs each across a seed list, optionally
randomizes the fault schedule (trigger offsets and durations jittered by
±:data:`TIME_JITTER` with a per-``(campaign, scenario, seed)`` RNG —
deterministic across processes), and writes ``CAMPAIGN_<name>.json`` for
``python -m repro.scenario.report`` to triage.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Callable, Optional, Sequence

from repro.scenario.errors import ScenarioError
from repro.scenario.runner import ScenarioOutcome, ScenarioRunner
from repro.scenario.spec import OK_VERDICTS, Scenario

CAMPAIGN_SCHEMA = "repro.campaign/v1"
#: Relative spread of a randomized trigger offset or duration.
TIME_JITTER = 0.2


def _jitter_schedule(scenario: Scenario, rng: random.Random) -> None:
    """Randomize trigger offsets/durations in place by ±:data:`TIME_JITTER`.

    The jitter RNG is seeded from the campaign, scenario and seed names, so
    a randomized campaign replays bit-for-bit.
    """
    for fault in scenario.faults:
        trigger = fault.trigger
        trigger.at = max(0.0, trigger.at * (1.0 + TIME_JITTER * rng.uniform(-1, 1)))
        if trigger.duration is not None:
            trigger.duration = max(
                0.05, trigger.duration * (1.0 + TIME_JITTER * rng.uniform(-1, 1))
            )


class CampaignRunner:
    """Run a list of scenarios across seeds and classify every outcome."""

    def __init__(
        self,
        name: str,
        scenarios: Sequence[Callable[[], Scenario]],
        seeds: Sequence[int] = (1,),
        out_dir: Optional[str] = None,
        postmortem_dir: Optional[str] = None,
        randomize: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not name:
            raise ScenarioError("campaign needs a name")
        self.name = name
        self.scenarios = list(scenarios)
        self.seeds = list(seeds)
        self.out_dir = out_dir or "."
        self.postmortem_dir = postmortem_dir
        self.randomize = randomize
        self.progress = progress or (lambda message: None)
        self.outcomes: list[ScenarioOutcome] = []
        self._wall_seconds = 0.0

    # ------------------------------------------------------------------
    def _materialize(self, factory: Callable[[], Scenario], seed: int) -> Scenario:
        scenario = factory()
        if self.randomize:
            _jitter_schedule(scenario, random.Random(f"{self.name}:{scenario.name}:{seed}"))
        return scenario

    def run(self) -> dict:
        """Run the grid; returns (and writes) the campaign report dict."""
        started = time.perf_counter()
        for factory in self.scenarios:
            for seed in self.seeds:
                scenario = self._materialize(factory, seed)
                self.progress(f"run {scenario.name} seed={seed}")
                outcome = ScenarioRunner(
                    scenario, seed=seed, postmortem_dir=self.postmortem_dir
                ).run()
                self.outcomes.append(outcome)
                self.progress(
                    f"  -> {outcome.verdict}"
                    + (f" ({'; '.join(outcome.notes)})" if outcome.notes else "")
                )
        self._wall_seconds = time.perf_counter() - started
        report = self.report()
        self.write(report)
        return report

    # ------------------------------------------------------------------
    def report(self) -> dict:
        verdicts: dict[str, int] = {}
        for outcome in self.outcomes:
            verdicts[outcome.verdict] = verdicts.get(outcome.verdict, 0) + 1
        return {
            "schema": CAMPAIGN_SCHEMA,
            "name": self.name,
            "seeds": list(self.seeds),
            "randomize": self.randomize,
            "runs": [outcome.as_dict() for outcome in self.outcomes],
            "summary": verdicts,
            "ok": all(outcome.verdict in OK_VERDICTS for outcome in self.outcomes),
            "wall_seconds": round(self._wall_seconds, 3),
        }

    @property
    def path(self) -> str:
        return os.path.join(self.out_dir, f"CAMPAIGN_{self.name}.json")

    def write(self, report: Optional[dict] = None) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(report or self.report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return self.path
