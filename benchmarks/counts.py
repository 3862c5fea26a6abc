"""The committed table of counts: every value a traced ledger run prints that
is a pure function of the seed, held to ``COUNTS.json`` by equality.

``python3 benchmarks/counts.py`` runs each workload once as the benchmark
driver does; a row that differs prints workload, metric, committed and
measured and exits 1, as does an incorrect run.  ``--update`` rewrites the
table: a PR that moves a row commits it, so the diff says what moved.
Wall-clock claims are parent-vs-change runs of the ledger, not made here.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "COUNTS.json")
WORKLOADS = ("pay-k8", "state-wide", "xnet-deep", "bft-votes", "fault-heal")
DETAIL_PREFIX = "detail: "


def run_ledger(workload: str) -> tuple:
    """(exit code, stdout) of one traced run, invoked as the driver does."""
    command = [sys.executable, os.path.join(HERE, "ledger", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", "1"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    return done.returncode, done.stdout


def rows(code: int, stdout: str) -> dict:
    """The seed-determined rows of one run: the detail line's ``deterministic``
    block, and the result line's counts, ratios and simulated latencies that
    are not shares of the traced wall clock."""
    lines = stdout.splitlines()
    if code != 0 or not json.loads(lines[-1])["correct"]:
        raise ValueError(f"run.py exited {code}, or reports an incorrect run")
    detail = next(line for line in lines if line.startswith(DETAIL_PREFIX))
    table = dict(json.loads(detail[len(DETAIL_PREFIX):])["deterministic"])
    for name, metric in json.loads(lines[-1])["metrics"].items():
        timed = name.endswith("_share") or name == "sim.wall_drift" or name.startswith("trace.")
        if metric["unit"] in ("count", "ratio", "sim_s") and not timed:
            table[name] = metric["value"]
    return table


def differences(committed: dict, measured: dict) -> list:
    found = []
    for workload in sorted(set(committed) | set(measured)):
        old, new = committed.get(workload, {}), measured.get(workload, {})
        for name in sorted(set(old) | set(new)):
            if old.get(name, "absent") != new.get(name, "absent"):
                found.append(f"{workload} {name}: committed {old.get(name, 'absent')!r}, "
                             f"measured {new.get(name, 'absent')!r}")
    return found


def main(argv=None, run=run_ledger, table=TABLE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the table")
    args = parser.parse_args(argv)
    measured = {}
    for workload in WORKLOADS:
        code, stdout = run(workload)
        try:
            measured[workload] = rows(code, stdout)
        except ValueError as error:
            sys.stdout.write(stdout)
            print(f"counts: {workload}: {error}")
            return 1
    if args.update:
        with open(table, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    with open(table, encoding="utf-8") as handle:
        found = differences(json.load(handle), measured)
    for line in found:
        print(f"counts: {line}")
    print(f"counts: {sum(map(len, measured.values()))} rows, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
