"""The layered performance ledger — one command.

Three ways in:

``run.py [--seed N] [--out DIR]``
    The whole ledger: five workloads, each ``REPEATS`` untraced runs (the
    end-to-end metrics) and one traced run (the per-layer metrics and the
    isolated probes), every run a fresh subprocess, strictly sequential.
    Checks correctness, prints every metric by name with unit, median,
    quartiles and sample count, writes ``LEDGER.json`` and
    ``TRACE_<workload>.json`` into ``--out``; exits non-zero on any failed
    check.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run, as the benchmark driver invokes it (``BENCHMARK.json``).  The
    last line of standard output is the result object.

``run.py --compare A.json B.json``
    Row-by-row verdicts between two ``LEDGER.json`` files; exits non-zero
    on any ``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("pay-k8", "state-wide", "xnet-deep", "bft-votes", "fault-heal")
DETAIL_PREFIX = "detail: "
CHILD_TIMEOUT_S = 170
#: Untraced runs per workload in the whole-ledger mode.
REPEATS = 5


def _import_program() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH)."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        try:
            import repro  # noqa: F401
        except ImportError:
            sys.exit(f"run.py: the program under test (src/repro) is not in {REPO_ROOT}")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_single(args) -> int:
    from calibrate import Calibrator

    calibrator = Calibrator()
    before_import = calibrator.sample()
    _import_program()
    from layers import block_cost_table, per_layer_metrics, reference_scale
    from measure import run_workload
    from probes import run_probes
    from tracer import LayerTracer

    import_s = calibrator.ref_seconds(before_import, calibrator.sample())
    os.makedirs(args.out, exist_ok=True)
    traced = args.trace == 1
    tracer = LayerTracer().install() if traced else None
    reference = _reference_detail(args) if traced else None
    setups = args.setups or (1 if traced else 3)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.out, setups, calibrator, import_s, tracer
    )
    problems = list(result.problems)
    detail = {
        "workload": result.workload,
        "seed": result.seed,
        "traced": traced,
        "seconds": args.seconds,
        "region_sim_s": result.region_sim_s,
        "end_to_end": {name: value for name, (value, _u) in result.end_to_end().items()},
        "deterministic": result.deterministic(),
        "region_ref_s": result.region_ref_s,
        "region_wall_s": result.region_wall_s,
        "host_slowdown": result.host_slowdown,
        "outside_dispatch_share": result.outside_dispatch_share,
        "wall_drift": result.wall_drift,
        "slice_ref_s": result.slice_ref_s(),
        "setup_ref_s": result.setup_ref_s(),
        "tails": result.tails,
    }

    if traced:
        tracer.uninstall()  # the probes time the program as shipped
        for key, value in reference["deterministic"].items():
            if detail["deterministic"].get(key) != value:
                problems.append(
                    f"tracing is not digest-neutral: {key} = "
                    f"{detail['deterministic'].get(key)!r} traced, {value!r} untraced"
                )
        metrics = per_layer_metrics(result, reference, tracer, run_probes(calibrator))
        trace_path = os.path.join(args.out, f"TRACE_{result.workload}.json")
        spans = tracer.write_chrome_trace(trace_path, result.workload)
        blocks = detail["deterministic"]["region_blocks"]
        print(f"== {result.workload}: cost of one committed block by layer (reference us of "
              f"self time; {blocks} blocks, traced region {result.region_ref_s:.2f} reference s)")
        print(block_cost_table(tracer, blocks, reference_scale(result)))
        print(f"wrote {spans} sampled spans to {trace_path}")
        detail["per_layer"] = {name: value for name, (value, _u) in metrics.items()}
        detail["boundaries"] = tracer.boundary_rows()
    else:
        metrics = result.end_to_end()

    detail["problems"] = problems
    print(f"== {result.workload} seed={result.seed} trace={args.trace} "
          f"region={result.region_sim_s:g} sim-s in {result.region_ref_s:.2f} reference s "
          f"({result.region_wall_s:.2f} s wall, host slowdown {result.host_slowdown:.2f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"end_state_digest {result.digest}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(DETAIL_PREFIX + json.dumps(detail, allow_nan=False))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            },
            allow_nan=False,
        )
    )
    return 0 if not problems else 1


def _reference_detail(args) -> dict:
    """Detail record of the untraced pass this traced pass is held against:
    given by the ledger (``--reference``) or run here, in its own process."""
    if args.reference:
        with open(args.reference, encoding="utf-8") as handle:
            return json.load(handle)
    return _spawn(args.workload, args.seed, args.seconds, 0, args.out, ["--setups", "1"])


def _spawn(workload: str, seed: int, seconds: int, trace: int, out: str, extra=()) -> dict:
    """Run one workload in a fresh interpreter; return its detail record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", out, *extra,
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
    if detail is None:
        sys.stdout.write(done.stdout)
        raise RuntimeError(f"{workload} run (trace={trace}) printed no result")
    detail["stdout"] = done.stdout
    return detail


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------
def run_ledger(args) -> int:
    from compare import summarize

    os.makedirs(args.out, exist_ok=True)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ledger = {
        "schema": "repro.ledger/v1", "seed": args.seed, "seconds": seconds,
        "repeats": REPEATS, "workloads": {},
    }
    failures = []
    for workload in WORKLOAD_NAMES:
        runs = []
        for repeat in range(REPEATS):
            print(f"[ledger] {workload}: untraced run {repeat + 1}/{REPEATS}", flush=True)
            runs.append(_spawn(workload, args.seed, seconds, 0, args.out))
        reference_path = os.path.join(args.out, f"reference_{workload}.json")
        with open(reference_path, "w", encoding="utf-8") as handle:
            json.dump({k: v for k, v in runs[0].items() if k != "stdout"}, handle)
        print(f"[ledger] {workload}: traced run + probes", flush=True)
        traced = _spawn(
            workload, args.seed, seconds, 1, args.out, ["--reference", reference_path]
        )
        os.remove(reference_path)
        # The traced child printed the by-layer table; pass it through.
        table_lines = traced["stdout"].split("== " + workload + " seed=")[0]
        sys.stdout.write(table_lines)

        for run in runs + [traced]:
            for problem in run["problems"]:
                failures.append(f"{workload}: {problem}")
        deterministic = runs[0]["deterministic"]
        for index, run in enumerate(runs[1:] + [traced], start=2):
            for key, value in deterministic.items():
                if run["deterministic"].get(key) != value:
                    failures.append(
                        f"{workload}: {key} differs between run 1 ({value!r}) and "
                        f"run {index} ({run['deterministic'].get(key)!r})"
                    )
        end_to_end = {
            name: summarize([run["end_to_end"][name] for run in runs])
            for name in runs[0]["end_to_end"]
        }
        for name in _specific_metrics(workload):
            end_to_end[name] = summarize([run["deterministic"][name] for run in runs])
        ledger["workloads"][workload] = {
            "end_to_end": end_to_end,
            "deterministic": deterministic,
            "per_layer": traced["per_layer"],
            "boundaries": traced["boundaries"],
            "tails": runs[0]["tails"],
        }
        print(f"== {workload}: end-to-end, {REPEATS} untraced runs "
              f"(median [q1 .. q3] n)")
        for name, stats in end_to_end.items():
            print(
                f"{name:<28} {stats['median']:>14.6g} [{stats['q1']:.6g} .. "
                f"{stats['q3']:.6g}] n={stats['n']} {units.get(name, '')}"
            )
        print(f"== {workload}: per-layer, traced run")
        for name, value in traced["per_layer"].items():
            print(f"{name:<44} {value:>16.6g} {units.get(name, '')}")
        print(f"end_state_digest {workload} {deterministic['digest']}", flush=True)

    failures.extend(_design_self_check(ledger["workloads"]))
    path = os.path.join(args.out, "LEDGER.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, allow_nan=False)
        handle.write("\n")
    print(f"[ledger] wrote {path}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("[ledger] all checks passed" if not failures else
          f"[ledger] {len(failures)} checks failed")
    return 1 if failures else 0


def _specific_metrics(workload: str) -> list:
    """End-to-end metrics outside the driver-gated six that *workload* defines."""
    from compare import SPECIFIC_BOUNDS

    return [
        name for name, rule in SPECIFIC_BOUNDS.items() if rule.get("on", workload) == workload
    ]


def _design_self_check(workloads: dict) -> list:
    """Each workload must actually stress the layer it was built for."""

    def share(workload: str, *layers: str) -> float:
        return sum(workloads[workload]["per_layer"][f"{layer}.self_share"] for layer in layers)

    control = "pay-k8"
    checks = [
        ("hierarchy.self_share on xnet-deep >= 2x pay-k8",
         share("xnet-deep", "hierarchy"), share(control, "hierarchy")),
        ("storage+vm self_share on state-wide >= 2x pay-k8",
         share("state-wide", "storage", "vm"), share(control, "storage", "vm")),
        ("consensus.self_share on bft-votes >= 2x pay-k8",
         share("bft-votes", "consensus"), share(control, "consensus")),
    ]
    failures = []
    print("== workload-design self-check")
    for text, value, base in checks:
        ok = value >= 2 * base
        print(f"{'ok  ' if ok else 'FAIL'} {text}: {value:.4f} vs {base:.4f}")
        if not ok:
            failures.append(f"self-check: {text}: {value:.4f} vs {base:.4f}")
    for workload in sorted(workloads):
        calls = workloads[workload]["per_layer"]["telemetry.calls"]
        ok = (calls > 0) if workload == "fault-heal" else (calls == 0)
        print(f"{'ok  ' if ok else 'FAIL'} telemetry.calls on {workload}: {calls}")
        if not ok:
            failures.append(f"self-check: telemetry.calls on {workload} = {calls}")
    return failures


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def run_compare(path_a: str, path_b: str) -> int:
    from compare import REGRESSED, compare, load_bounds, render

    with open(path_a, encoding="utf-8") as handle:
        ledger_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        ledger_b = json.load(handle)
    rows, mismatches = compare(ledger_a, ledger_b, load_bounds(BENCHMARK_JSON))
    print(render(rows, mismatches))
    return 1 if any(row["verdict"] == REGRESSED for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=0,
                        help="wall seconds the measured region is sized for "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--setups", type=int, default=0,
                        help="set-ups timed per run (default 3, traced 1)")
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.compare:
        return run_compare(*args.compare)
    if args.workload:
        if args.seconds <= 0:
            parser.error("--workload needs --seconds")
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
