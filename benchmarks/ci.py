"""Every CI step that needs no network, run the same way in CI and here.

``python3 benchmarks/ci.py <job>|all`` prints one line per step (job, step,
``ok`` / ``FAILED`` / ``skipped: <reason>``, wall seconds) and writes its
output to ``ci-out/<job>/<step>.log``, beside what the step writes there.  A
failed step's log follows its line, the next step still runs, and any failure
exits 1.  Arguments after ``nightly`` replace ``--scenarios all --seeds 1,2,3
--randomize`` for ``python -m repro.scenario``."""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from typing import Callable, NamedTuple, Optional, TextIO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "ci-out")
PY = sys.executable
NIGHTLY = ("--scenarios", "all", "--seeds", "1,2,3", "--randomize")
# Sanitize run -> (REPRO_TIE_SHUFFLE, PYTHONHASHSEED), None unset: tie shuffles permute the
# schedule, hash seeds every set and str-keyed hash order; no end state may lean on either.
SCHEDULES = {"fifo": (None, None), **{seed: (seed, None) for seed in "123"},
             **{f"hash{seed}": (None, seed) for seed in "012"}}
DIGESTED = ("e3_crossmsgs", "e5_atomic", "e6_firewall", "e11_acceleration")
ENGINES = ("poa", "pos", "tendermint", "mir", "pow")


class Step(NamedTuple):
    name: str
    run: Callable[[str, TextIO], bool]  # (the job's output folder, the step's log) -> passed
    needs: Optional[str] = None  # a program the step runs; skipped where it is not installed
    after_failure: bool = False  # runs only once an earlier step of its job failed


def call(argv, log, cwd=ROOT, env=None) -> bool:
    """Run *argv* with ``src/`` importable and *env* on top (a None value unsets)."""
    log.flush()
    environment = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), **(env or {})}
    environment = {key: value for key, value in environment.items() if value is not None}
    done = subprocess.run(argv, cwd=cwd, env=environment, stdout=log, stderr=subprocess.STDOUT,
                          check=False)
    return done.returncode == 0


def command(*argv, cwd=ROOT, **env) -> Callable:
    """A step running *argv*; ``{out}`` in an argument or a value is the job's folder."""
    def run(out, log):
        return call([arg.format(out=out) for arg in argv], log, cwd,
                    {key: value and value.format(out=out) for key, value in env.items()})
    return run


def bench(*names, **env) -> Callable:
    """E-benches under pytest-benchmark, from ``benchmarks/`` as their imports need."""
    return command(PY, "-m", "pytest", *(f"bench_{name}.py" for name in names),
                   "--benchmark-only", "-q", cwd=os.path.join(ROOT, "benchmarks"),
                   **{"BENCH_OUT_DIR": "{out}", **env})


def examples(out, log) -> bool:
    """README's entry points drive the public API end to end; each must exit 0."""
    for example in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        print(f"== {os.path.relpath(example, ROOT)}", file=log)
        if not call([PY, example], log):
            return False
    return True


def digests(out, log) -> bool:
    """End-state digests identical across schedules and hash seeds.  E7 runs one subnet
    per engine: each one's quiescent digest is held, and the head the cut found on each
    but PoW's (a mining race's moves with the schedule), which an outside clock would move."""
    def document(run, bench):
        with open(os.path.join(out, run, f"BENCH_{bench}.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def digest(run, bench, engine, field):
        extra = document(run, bench)["extra"]
        if engine is None:
            return extra[field]
        return next(row[field] for row in extra["rows"] if row["engine"] == engine)

    checks = [(bench, None, "state_digest") for bench in DIGESTED]
    checks += [("e7_consensus", engine, "state_digest") for engine in ENGINES]
    checks += [("e7_consensus", engine, "head") for engine in ENGINES if engine != "pow"]
    for bench, engine, field in checks:
        name = bench if engine is None else f"{bench}:{engine}:{field}"
        found = {run: digest(run, bench, engine, field) for run in SCHEDULES}
        if len(set(found.values())) != 1:
            raise AssertionError(f"{name}: end state depends on tie order or hash seed: {found}")
        print(f"{name}: {found['fifo']} invariant across {len(SCHEDULES)} runs", file=log)

    # The schedule itself, not only where it ends: the trace log's digest (the
    # document's `trace` section) under FIFO ties must not move with the hash
    # seed.  Tie shuffles change the schedule on purpose, so they are not compared.
    fifo_runs = ("fifo", "hash0", "hash1", "hash2")
    for bench in DIGESTED:
        found = {run: document(run, bench)["trace"]["digest"] for run in fifo_runs}
        if len(set(found.values())) != 1:
            raise AssertionError(f"{bench}: schedule depends on the hash seed: {found}")
        print(f"{bench}:trace: {found['fifo']} invariant across {len(fifo_runs)} runs", file=log)
    return True


def publish(out, log) -> bool:
    """The campaign's triage drill-down and every rendered postmortem bundle, whose
    stall reports name the missing quorum, in the log and the job summary."""
    print(f"### {os.path.basename(out)} triage\n```", file=log)
    for campaign in sorted(glob.glob(os.path.join(out, "CAMPAIGN_*.json"))):
        call([PY, "-m", "repro.scenario.report", campaign], log)  # exits 1 on what it triages
    rendered = True
    for bundle in sorted(glob.glob(os.path.join(out, "postmortem_*.json"))):
        print(file=log)
        rendered &= call([PY, "-m", "repro.telemetry.report", bundle], log)
    print("```", file=log, flush=True)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(log.name, encoding="utf-8") as text, \
                open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as summary:
            summary.write(text.read())
    return rendered


def campaign(name, *selection) -> tuple:
    """A scenario campaign, which fails on any unexpected-violation or
    liveness-stall, its triage, and the triage published once a step failed."""
    return (Step("campaign", command(PY, "-m", "repro.scenario", *selection, "--name", name,
                                     "--out", "{out}", "--postmortem-dir", "{out}")),
            Step("triage", command(PY, "-m", "repro.scenario.report",
                                   f"{{out}}/CAMPAIGN_{name}.json")),
            Step("publish", publish, after_failure=True))


def jobs(nightly=NIGHTLY) -> dict:
    """Job -> its steps in order; *nightly* selects the nightly campaign's runs."""
    report = (PY, "-m", "repro.telemetry.report")
    return {
        "tests": (
            # --durations: the ten slowest tests, the tier-1 budget CHANGES.md records.
            Step("tier-1", command(PY, "-m", "pytest", "-x", "-q", "--durations=10",
                                   REPRO_POSTMORTEM_DIR="{out}")),
            Step("examples", examples),
        ),
        "telemetry-artifacts": (  # live monitors, telemetry exports, E3's Perfetto trace
            Step("e6-e3", bench("e6_firewall", "e3_crossmsgs")),
            Step("report", command(*report, "{out}/BENCH_e3_crossmsgs.json")),
        ),
        # One seed over the SMOKE subset: an honest control, two honest faults (a
        # partition; long-outage, which must recover through chain:snapshot), two
        # attacks that must trip exactly their auditors, and two fork scenarios
        # (deep-reorg, engine-swap) for block intake and range sync's walk back.
        "campaign-smoke": campaign("pr_smoke", "--scenarios", "smoke", "--seeds", "7"),
        # Fault offsets and durations are jittered per (campaign, scenario,
        # seed), so a failing run replays exactly.
        "nightly": campaign("nightly", *nightly),
        "lint": (Step("ruff", command("ruff", "check", "src", "tests", "benchmarks"), "ruff"),),
        "sanitize": (
            *(Step(f"schedule-{run}", bench(*DIGESTED, "e7_consensus", REPRO_TIE_SHUFFLE=shuffle,
                                            PYTHONHASHSEED=seed, BENCH_OUT_DIR=f"{{out}}/{run}"))
              for run, (shuffle, seed) in SCHEDULES.items()),
            Step("digests", digests),
        ),
        "ledger": (
            Step("harness-tests", command(PY, "-m", "pytest", "-q", "benchmarks/ledger/tests")),
            # Every traced count of the five workloads, held to COUNTS.json by equality.
            Step("counts", command(PY, "benchmarks/counts.py")),
            # Fails if live blocks or the metrics registry's bytes grow > 10 % from 1 s to 3 s.
            Step("census", command(PY, "benchmarks/census.py", "pay-k8", "--seconds", "1", "3")),
            # The profiler still profiles and prints callers and callees; its document renders.
            Step("hotspots", command(PY, "benchmarks/hotspots.py", "fault-heal", "--seconds", "1",
                                     "--sort", "cumulative", "--callers", "fanout",
                                     "--callees", "remove_included", BENCH_OUT_DIR="{out}")),
            Step("hotspots-report", command(*report, "{out}/HOTSPOTS_fault-heal.json")),
            Step("e1-e7", bench("e1_scaling", "e7_consensus")),  # paper-shaped assertions
        ),
    }


def run(table, names, root=OUT) -> int:
    """Run the jobs *names* of *table*, each into a fresh ``root/<job>``; 1 if a step failed."""
    results, started = [], time.perf_counter()
    for job in names:
        out = os.path.join(root, job)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        first = len(results)
        for step in table[job]:
            start, log_path = time.perf_counter(), os.path.join(out, f"{step.name}.log")
            if step.after_failure and "FAILED" not in results[first:]:
                status = "skipped: no earlier step failed"
            elif step.needs and shutil.which(step.needs) is None:
                status = f"skipped: {step.needs} is not installed"
            else:
                with open(log_path, "w", encoding="utf-8") as log:
                    try:
                        status = "ok" if step.run(out, log) else "FAILED"
                    except Exception:  # a step's fault is its failure; the next step runs
                        traceback.print_exc(file=log)
                        status = "FAILED"
            results.append(status.split(":")[0])
            print(f"{job} {step.name}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
            if status == "FAILED":
                with open(log_path, encoding="utf-8") as log:
                    sys.stdout.write(log.read())
    print(f"ci: {len(results)} steps, {results.count('ok')} ok, {results.count('FAILED')} FAILED, "
          f"{results.count('skipped')} skipped ({time.perf_counter() - started:.0f} s)")
    return 1 if "FAILED" in results else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", choices=[*jobs(), "all"])
    parser.add_argument("campaign", nargs=argparse.REMAINDER,
                        help="nightly only: repro.scenario's --scenarios, --seeds, --randomize")
    args = parser.parse_args(argv)
    if args.campaign and args.job != "nightly":
        parser.error("only nightly takes campaign arguments")
    table = jobs(tuple(args.campaign) or NIGHTLY)
    return run(table, list(table) if args.job == "all" else [args.job])


if __name__ == "__main__":
    sys.exit(main())
