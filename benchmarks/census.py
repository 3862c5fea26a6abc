"""Retention census: what a ledger workload holds alive at the end of its
measured region, and where the heap grew during the region — and, given two
region lengths, a gate on what must not grow with the length.

    python3 benchmarks/census.py pay-k8 --seconds 8 [--seed 1]
    python3 benchmarks/census.py pay-k8 --seconds 1 3

Builds, warms and runs one workload's measured region the way
``hotspots.py`` does (:func:`hotspots.measured_region`), with ``tracemalloc``
snapshots at the region's start and end, and prints at the region's end:

- live instances of the types a run makes per operation;
- the number of objects the cyclic collector tracks (what a full pass walks);
- per chain, the leaves its state-root leaf table holds and the bytes the
  table reaches (the key strings included, though the state shares them),
  and its head state's frozen chain: layers and the entries they hold
  (reported, not gated: state grows with the run);
- the :data:`TOP` largest heap growths over the region by file:line.

With two lengths it runs the deployment once for each and exits non-zero
when one of the :func:`bounded` quantities grew by more than :data:`GROWTH`
from the first to the second: live ``HeaderOnly`` and ``FullBlock`` blocks
and the bytes the metrics registry holds.

Tracing allocations makes the run 2-3x slower in wall time; the simulated
work is the same as the benchmark's.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc

from hotspots import HERE, ROOT, SRC, measured_region

sys.path[:0] = [SRC, os.path.join(HERE, "ledger")]

#: Heap-growth rows printed, largest first.
TOP = 15
#: How much a bounded quantity may grow from the first region length to the
#: second.
GROWTH = 0.10


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


def held_bytes(root, skip=()) -> int:
    """``sys.getsizeof`` summed over *root* and everything it reaches, bar
    the objects in *skip* and what only they reach."""
    seen, todo, size = set(map(id, skip)), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            size += sys.getsizeof(obj)
            todo.extend(gc.get_referents(obj))
    return size


def leaf_tables(chains: dict) -> list:
    """(chain, leaves, bytes, frozen layers, frozen entries) per chain.  A
    chain's validators and every fork of their states share one leaf table,
    so the first validator's reaches it; the frozen chain is that
    validator's head state's."""
    rows = []
    for path, nodes in sorted(chains.items()):
        state = nodes[0].vm.state
        leaves = sum(len(keys) for _tag, keys, _leaves in state._table.values())
        entries, frozen = 0, state._frozen
        while frozen is not None:
            entries += len(frozen.entries)
            frozen = frozen.parent
        rows.append((path, leaves, held_bytes(state._table), state.chain_depth, entries))
    return rows


def registry_bytes(metrics) -> int:
    """The bytes every table of the metrics registry reaches: each metric,
    its name and what it keeps.  A histogram's buffer counts at its bound,
    since the buffer refills and folds as the run goes."""
    from repro.sim.metrics import BUFFER_SIZE

    tables = [table for table in vars(metrics).values() if isinstance(table, dict)]
    buffers = [histogram._buffer for histogram in metrics.histograms.values()]
    return held_bytes(tables, skip=buffers) + 8 * BUFFER_SIZE * len(buffers)


def bounded(counts: dict, metrics) -> dict:
    """The quantities that must not grow with the region's length."""
    from repro.chain.block import FullBlock, HeaderOnly

    return {
        "HeaderOnly": counts[HeaderOnly],
        "FullBlock": counts[FullBlock],
        "metrics bytes": registry_bytes(metrics),
    }


def run(workload_name: str, seed: int, seconds: float) -> tuple:
    """(the report's lines, the :func:`bounded` quantities) for one census."""
    types = per_op_types()
    with measured_region(workload_name, seed, seconds) as workload:
        tracemalloc.start(1)
        start = tracemalloc.take_snapshot()
        workload.run_region()
        gc.collect()
        end = tracemalloc.take_snapshot()
        tracked, counts = live_counts(types)
        tracemalloc.stop()
        held = bounded(counts, workload.sim.metrics)
        tables = leaf_tables(workload.chains)
    lines = [
        f"census {workload_name} seed={seed} seconds={seconds:g}: "
        f"{workload.region_sim_s:g} sim-s region",
        "live at region end:",
    ]
    lines += [f"  {cls.__name__:<16}{count:>10}" for cls, count in counts.items()]
    lines.append(f"  {'gc-tracked':<16}{tracked:>10}")
    lines.append(f"  {'metrics bytes':<16}{held['metrics bytes']:>10}")
    lines.append("state-root leaf tables and frozen chains:")
    lines += [
        f"  {path:<16}{leaves:>10} leaves {size:>12} bytes {depth:>4} layers {entries:>9} entries"
        for path, leaves, size, depth, entries in tables
    ]
    growth = sorted(end.compare_to(start, "lineno"), key=lambda stat: -stat.size_diff)
    lines.append(f"heap growth over the region, top {TOP} by file:line:")
    for stat in growth[:TOP]:
        frame = stat.traceback[0]
        where = os.path.relpath(frame.filename, ROOT) if frame.filename.startswith(ROOT) else frame.filename
        lines.append(
            f"  {stat.size_diff / 1024:>+10.1f} KiB {stat.count_diff:>+9} blocks  {where}:{frame.lineno}"
        )
    return lines, held


def gate(lengths: list, first: dict, second: dict) -> tuple:
    """(lines, ok): every bounded quantity within :data:`GROWTH` of itself."""
    lines = [f"bounded growth, {lengths[0]:g} s -> {lengths[1]:g} s "
             f"(limit +{GROWTH:.0%}):"]
    ok = True
    for name, before in first.items():
        after = second[name]
        grew = after > before * (1 + GROWTH)
        ok = ok and not grew
        change = f"{after / before - 1:+.1%}" if before else ("+inf" if after else "+0.0%")
        lines.append(f"  {name:<16}{before:>10} -> {after:>10}  {change:>7}"
                     + ("  GREW" if grew else ""))
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a ledger workload name, e.g. pay-k8")
    parser.add_argument("--seconds", type=float, nargs="+", default=[8.0],
                        help="region length as run.py counts it (default 8); "
                             "two lengths run the bounded-growth gate")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if len(args.seconds) > 2:
        parser.error("--seconds takes one region length, or two for the gate")
    held = []
    for seconds in args.seconds:
        lines, quantities = run(args.workload, args.seed, seconds)
        print("\n".join(lines))
        held.append(quantities)
    if len(held) == 1:
        return 0
    lines, ok = gate(args.seconds, *held)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
