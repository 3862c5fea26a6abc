"""Function-level hotspots of one ledger workload's measured region, and the
diff of two such profiles.

    python3 benchmarks/hotspots.py fault-heal --seconds 8 [--seed 1]
    python3 benchmarks/hotspots.py fault-heal --seconds 8 --callers fanout random
    python3 benchmarks/hotspots.py pay-k8 --seconds 4 --sort cumulative --callees remove_included
    python3 benchmarks/hotspots.py --diff OLD.json NEW.json

Builds and warms one workload of ``benchmarks/ledger/workloads.py`` the way
``benchmarks/ledger/run.py`` sizes it (one set-up, untraced; the workload
module is imported, never edited), runs its measured region under cProfile
and prints the :data:`TOP` functions by own time (``tottime``, or by
``--sort cumulative``), then, for each ``--callers`` name, every function
that calls a function of that name, and for each ``--callees`` name, every
function a function of that name calls.

Every run also writes ``HOTSPOTS_<workload>.json`` into ``$BENCH_OUT_DIR``
(default: the current directory): the run document (``repro.run/v1``) of the
region's simulator, with the workload, seed, ``--seconds`` and the region's
simulated length under ``extra``, plus a ``profile`` section — the region's
profiled seconds (``total_s``) and one row per function it called (``calls``,
``own_s``, ``cum_s``).  A row's key is ``path:qualified name``, the path
under ``src/`` (or the repository, or the standard library) and no line
number, since line numbers move between commits; a builtin is keyed by its
name without its ``at 0x…`` address.  Rows that share a key are summed.

``--diff OLD NEW`` reads two such documents and ranks the functions by the
change in their share of the profiled own time, regressions and
improvements apart, with their calls old -> new; a function one side never
called reads 0 there.

``run.py --trace 1`` says which layer a committed block's time goes to;
this says which function inside it.  cProfile roughly doubles the region's
wall time and charges its overhead to each call, so compare two commits
with this tool on both, never with ``run.py``'s numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import pstats
import re
import sys
import sysconfig
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Functions printed, by own time, and rows shown on each side of a diff.
TOP = 40

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")
#: Where a profiled file's key path is taken from, first match wins.
_BASES = (SRC, ROOT, sysconfig.get_paths()["stdlib"])


@contextlib.contextmanager
def measured_region(workload_name: str, seed: int, seconds: float):
    """Build and warm one workload (in a temporary output directory) and
    yield it at the start of its measured region.  The body runs the region
    (``workload.run_region()``) with whatever it measures around it; the
    region ends and the deployment closes when the body returns."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory() as out_dir:
        workload = cls(seed, float(round(cls.SIM_S_PER_SECOND * seconds)), out_dir)
        workload.build()
        workload.warm_up()
        gc.collect()
        workload.begin_region()
        yield workload
        workload.end_region()
        workload.close()


def function_key(code) -> str:
    """A profiled function's row key: ``path:qualified name`` (the bare
    name before Python 3.11), or a builtin's name without its address."""
    if isinstance(code, str):
        return _ADDRESS.sub("", code)
    path = code.co_filename
    for base in _BASES:
        if path.startswith(base + os.sep):
            path = os.path.relpath(path, base)
            break
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def profile_section(profile: cProfile.Profile) -> dict:
    """The document's ``profile`` section: the profiled seconds and one row
    per function key, by own time."""
    rows: dict = {}
    for entry in profile.getstats():
        key = function_key(entry.code)
        calls, own_s, cum_s = rows.get(key, (0, 0.0, 0.0))
        rows[key] = (calls + entry.callcount, own_s + entry.inlinetime, cum_s + entry.totaltime)
    return {
        "total_s": round(sum(own_s for _calls, own_s, _cum_s in rows.values()), 6),
        "functions": {
            key: {"calls": calls, "own_s": round(own_s, 6), "cum_s": round(cum_s, 6)}
            for key, (calls, own_s, cum_s) in sorted(rows.items(), key=lambda kv: (-kv[1][1], kv[0]))
        },
    }


def profile_region(workload_name: str, seed: int, seconds: float) -> tuple:
    """(the region's :class:`pstats.Stats`, its run document)."""
    from repro.telemetry import telemetry_snapshot

    profile = cProfile.Profile()
    with measured_region(workload_name, seed, seconds) as workload:
        started = time.perf_counter()
        profile.enable()
        workload.run_region()
        profile.disable()
        document = telemetry_snapshot(
            workload.sim,
            wall_seconds=time.perf_counter() - started,
            extra={"workload": workload_name, "seed": seed, "seconds": seconds,
                   "region_sim_s": workload.region_sim_s},
        )
    document["profile"] = profile_section(profile)
    return pstats.Stats(profile, stream=sys.stdout), document


class Change(NamedTuple):
    """One function in a diff of two profiles."""

    function: str
    calls_old: int
    calls_new: int
    share_old: float
    share_new: float

    @property
    def change(self) -> float:
        return self.share_new - self.share_old


def diff(old: dict, new: dict) -> list:
    """Every function either document's profile has, as a :class:`Change`,
    most regressed first: ranked by the change in its share of the profiled
    own time.  A function a side never called reads 0 calls and 0 share."""
    sides = []
    for document in (old, new):
        section = document["profile"]
        total = section["total_s"] or 1.0
        sides.append({
            key: (row["calls"], row["own_s"] / total)
            for key, row in section["functions"].items()
        })
    before, after = sides
    absent = (0, 0.0)
    rows = []
    for key in before.keys() | after.keys():
        (calls_old, share_old), (calls_new, share_new) = before.get(key, absent), after.get(key, absent)
        rows.append(Change(key, calls_old, calls_new, share_old, share_new))
    rows.sort(key=lambda row: (-row.change, row.function))
    return rows


def render_diff(old: dict, new: dict) -> str:
    """The :func:`diff` of *old* and *new* as text: the :data:`TOP`
    regressions, then the :data:`TOP` improvements."""
    rows = diff(old, new)
    lines = [f"profile diff: {old['profile']['total_s']:.2f} s -> "
             f"{new['profile']['total_s']:.2f} s profiled, {len(rows)} functions"]
    sides = (
        ("regressed", [row for row in rows if row.change > 0]),
        ("improved", [row for row in reversed(rows) if row.change < 0]),
    )
    for title, picked in sides:
        lines.append(f"{title}, by own-time share (top {TOP} of {len(picked)}):")
        lines.append(f"  {'old':>7} {'new':>7} {'change':>8} {'calls old':>11} -> {'new':<11} function")
        lines += [
            f"  {row.share_old:>7.2%} {row.share_new:>7.2%} {row.change:>+8.2%} "
            f"{row.calls_old:>11} -> {row.calls_new:<11} {row.function}"
            for row in picked[:TOP]
        ]
    return "\n".join(lines)


def _load(parser, path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as err:
        parser.error(f"cannot read {path}: {err}")
    if "profile" not in document:
        parser.error(f"{path} has no profile section")
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="?", help="a ledger workload name, e.g. fault-heal")
    parser.add_argument("--seconds", type=float,
                        help="region length as run.py counts it (required with a workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--callers", nargs="+", default=[], metavar="NAME",
                        help="function names whose callers to print")
    parser.add_argument("--callees", nargs="+", default=[], metavar="NAME",
                        help="function names whose callees to print")
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime",
                        help="the order of the top list")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="rank the functions of two written documents by own-time change")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (_load(parser, path) for path in args.diff)
        print(render_diff(old, new))
        return 0
    if args.workload is None or args.seconds is None:
        parser.error("a workload and --seconds, or --diff OLD NEW")
    sys.path[:0] = [SRC, os.path.join(HERE, "ledger")]
    from common import bench_out_dir
    from repro.telemetry import write_json

    stats, document = profile_region(args.workload, args.seed, args.seconds)
    print(f"hotspots {args.workload} seed={args.seed} seconds={args.seconds:g}: "
          f"{document['extra']['region_sim_s']:g} sim-s region, "
          f"{document['profile']['total_s']:.2f} s profiled")
    stats.strip_dirs().sort_stats(args.sort).print_stats(TOP)
    for name in args.callers:
        stats.print_callers(rf"\({re.escape(name)}\)")
    for name in args.callees:
        stats.print_callees(rf"\({re.escape(name)}\)")
    print("wrote", write_json(os.path.join(bench_out_dir(), f"HOTSPOTS_{args.workload}.json"),
                              document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
