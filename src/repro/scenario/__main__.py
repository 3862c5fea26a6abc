"""``python -m repro.scenario`` — run a campaign over the canonical library.

The CI entry point: picks scenarios (``--scenarios all|smoke|name,...``),
runs them across ``--seeds``, writes ``CAMPAIGN_<name>.json`` (plus
postmortem bundles for anything unexpected) and exits non-zero when any
run's verdict is not ``clean``/``expected-violation``.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.scenario import library
from repro.scenario.campaign import CampaignRunner


def _pick_scenarios(spec: str) -> list:
    if spec == "all":
        return list(library.CANONICAL)
    if spec == "smoke":
        return list(library.SMOKE)
    return [library.get(name.strip()) for name in spec.split(",") if name.strip()]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="Run an adversarial scenario campaign.",
    )
    parser.add_argument(
        "--scenarios", default="all",
        help="'all', 'smoke', or comma-separated canonical names "
        f"(have: {', '.join(library.names())})",
    )
    parser.add_argument(
        "--seeds", default="1", help="comma-separated seed list (default: 1)"
    )
    parser.add_argument("--name", default=None, help="campaign name (for the JSON)")
    parser.add_argument("--out", default=".", help="directory for CAMPAIGN_<name>.json")
    parser.add_argument(
        "--postmortem-dir", default=None,
        help="directory for postmortem bundles (default: $REPRO_POSTMORTEM_DIR)",
    )
    parser.add_argument(
        "--randomize", action="store_true",
        help="jitter fault trigger offsets/durations by ±20%% per (scenario, seed)",
    )
    args = parser.parse_args(argv)

    scenarios = _pick_scenarios(args.scenarios)
    seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    name = args.name or (
        args.scenarios if args.scenarios in ("all", "smoke") else "custom"
    )
    runner = CampaignRunner(
        name=name,
        scenarios=scenarios,
        seeds=seeds,
        out_dir=args.out,
        postmortem_dir=args.postmortem_dir,
        randomize=args.randomize,
        progress=print,
    )
    report = runner.run()
    print(f"\nwrote {runner.path}")
    print(f"summary: {report['summary']}  ok={report['ok']}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
