"""Retention census: what a ledger workload holds alive at the end of its
measured region, and where the heap grew during the region.

    python3 benchmarks/census.py pay-k8 --seconds 8 [--seed 1]

Builds, warms and runs one workload of ``benchmarks/ledger/workloads.py``
the way ``benchmarks/ledger/run.py`` sizes it (one set-up, untraced; the
workload module is imported, never edited), with ``tracemalloc`` snapshots
at the region's start and end, and prints at the region's end:

- live instances of the types a run makes per operation;
- the number of objects the cyclic collector tracks (what a full pass walks);
- the :data:`TOP` largest heap growths over the region by file:line.

Tracing allocations makes the run 2-3x slower in wall time; the simulated
work is the same as the benchmark's.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(HERE, "ledger")]

#: Heap-growth rows printed, largest first.
TOP = 15


def per_op_types() -> tuple:
    from repro.chain.block import FullBlock, HeaderOnly
    from repro.crypto.cid import CID
    from repro.crypto.signature import Signature
    from repro.net.gossip import PubsubEnvelope
    from repro.sim.tracing import TraceRecord
    from repro.vm.message import Message, SignedMessage

    return (SignedMessage, Message, Signature, PubsubEnvelope, CID, FullBlock, HeaderOnly,
            TraceRecord)


def live_counts(types: tuple) -> tuple:
    """(objects the collector tracks, {type: live instances})."""
    gc.collect()
    counts = dict.fromkeys(types, 0)
    objects = gc.get_objects()
    for obj in objects:
        cls = type(obj)
        if cls in counts:
            counts[cls] += 1
    return len(objects), counts


def run(workload_name: str, seed: int, seconds: float) -> list:
    """The report's lines for one census."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    region_sim_s = float(round(cls.SIM_S_PER_SECOND * seconds))
    types = per_op_types()
    with tempfile.TemporaryDirectory() as out_dir:
        workload = cls(seed, region_sim_s, out_dir)
        workload.build()
        workload.warm_up()
        gc.collect()
        workload.begin_region()
        tracemalloc.start(1)
        start = tracemalloc.take_snapshot()
        workload.run_region()
        gc.collect()
        end = tracemalloc.take_snapshot()
        tracked, counts = live_counts(types)
        tracemalloc.stop()
        workload.end_region()
        workload.close()
    lines = [
        f"census {workload_name} seed={seed} seconds={seconds:g}: "
        f"{region_sim_s:g} sim-s region",
        "live at region end:",
    ]
    lines += [f"  {cls.__name__:<16}{count:>10}" for cls, count in counts.items()]
    lines.append(f"  {'gc-tracked':<16}{tracked:>10}")
    growth = sorted(end.compare_to(start, "lineno"), key=lambda stat: -stat.size_diff)
    lines.append(f"heap growth over the region, top {TOP} by file:line:")
    for stat in growth[:TOP]:
        frame = stat.traceback[0]
        where = os.path.relpath(frame.filename, ROOT) if frame.filename.startswith(ROOT) else frame.filename
        lines.append(
            f"  {stat.size_diff / 1024:>+10.1f} KiB {stat.count_diff:>+9} blocks  {where}:{frame.lineno}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a ledger workload name, e.g. pay-k8")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="region length as run.py counts it (default 8)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print("\n".join(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
