"""Function-level hotspots of one ledger workload's measured region.

    python3 benchmarks/hotspots.py fault-heal --seconds 8 [--seed 1]
    python3 benchmarks/hotspots.py fault-heal --seconds 8 --callers fanout random
    python3 benchmarks/hotspots.py pay-k8 --seconds 4 --sort cumulative --callees remove_included

Builds and warms one workload of ``benchmarks/ledger/workloads.py`` the way
``benchmarks/ledger/run.py`` sizes it (one set-up, untraced; the workload
module is imported, never edited), runs its measured region under cProfile
and prints the :data:`TOP` functions by own time (``tottime``, or by
``--sort cumulative``), then, for each ``--callers`` name, every function
that calls a function of that name, and for each ``--callees`` name, every
function a function of that name calls.

``run.py --trace 1`` says which layer a committed block's time goes to;
this says which function inside it.  cProfile roughly doubles the region's
wall time and charges its overhead to each call, so compare two commits
with this tool on both, never with ``run.py``'s numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(HERE, "ledger")]

#: Functions printed, by own time.
TOP = 40


def profile_region(workload_name: str, seed: int, seconds: float) -> tuple:
    """(the region's :class:`pstats.Stats`, its length in simulated seconds)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    region_sim_s = float(round(cls.SIM_S_PER_SECOND * seconds))
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as out_dir:
        workload = cls(seed, region_sim_s, out_dir)
        workload.build()
        workload.warm_up()
        gc.collect()
        workload.begin_region()
        profile.enable()
        workload.run_region()
        profile.disable()
        workload.end_region()
        workload.close()
    return pstats.Stats(profile, stream=sys.stdout), region_sim_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a ledger workload name, e.g. fault-heal")
    parser.add_argument("--seconds", type=float, required=True,
                        help="region length as run.py counts it")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--callers", nargs="+", default=[], metavar="NAME",
                        help="function names whose callers to print")
    parser.add_argument("--callees", nargs="+", default=[], metavar="NAME",
                        help="function names whose callees to print")
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime",
                        help="the order of the top list")
    args = parser.parse_args(argv)
    stats, region_sim_s = profile_region(args.workload, args.seed, args.seconds)
    print(f"hotspots {args.workload} seed={args.seed} seconds={args.seconds:g}: "
          f"{region_sim_s:g} sim-s region, {stats.total_tt:.2f} s profiled")
    stats.strip_dirs().sort_stats(args.sort).print_stats(TOP)
    for name in args.callers:
        stats.print_callers(rf"\({re.escape(name)}\)")
    for name in args.callees:
        stats.print_callees(rf"\({re.escape(name)}\)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
