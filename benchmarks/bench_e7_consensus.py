"""E7 — Per-subnet consensus engine comparison (§I, §VI).

The same payment workload on one subnet per engine (PoA, PoS, PoW,
Tendermint, Mir).  The paper's point is pluggability — "each subnet can run
its own independent consensus algorithm" with its own security/performance
trade-off — so we measure where those trade-offs land on our substrate:

Expected shape: PoA/PoS produce steady blocks at the target interval with
instant finality; Tendermint adds vote round trips (slightly longer
commit latency) but stays fork-free; PoW shows exponential interval
variance, nonzero fork/reorg counts, and delayed (depth-k) finality; Mir
multiplies block rate by its leader count.
"""

import math

import pytest

from repro.workloads import PaymentWorkload

from common import (
    build_hierarchy,
    fund_subnet_senders,
    run_once,
    show_table,
    write_bench_json,
)

BLOCK_TIME = 0.5
MEASURE_SECONDS = 40.0
#: Simulated seconds run after the workload stops, before the end-state
#: digest (CI's sanitize job diffs it, and ``head``, across schedules).
DRAIN_SECONDS = 10.0
ENGINES = ("poa", "pos", "tendermint", "mir", "pow")


def _run_engine(engine: str, seed: int):
    system, (subnet,) = build_hierarchy(
        seed=seed, n_subnets=1, subnet_validators=4, engine=engine,
        subnet_block_time=BLOCK_TIME, checkpoint_period=20,
    )
    wallets = fund_subnet_senders(system, [subnet], 4, 10**9, tag=f"e7{engine}")[subnet]
    workload = PaymentWorkload(
        system.sim, system.nodes(subnet), wallets, rate=30.0,
        rng_scope=f"e7-{engine}",
    ).start()
    start_time = system.sim.now
    start_height = system.node(subnet).head().height
    system.run_for(MEASURE_SECONDS)
    workload.stop()
    duration = system.sim.now - start_time

    node = system.node(subnet)
    blocks = node.head().height - start_height
    interval_hist = system.sim.metrics.histograms.get(
        f"consensus.{subnet.path}.block_interval"
    )
    forks = sum(n.store.fork_count() for n in system.nodes(subnet))
    reorgs = system.sim.metrics.counters.get(f"chain.{subnet.path}.reorgs")
    head = node.head()
    row = {
        "engine": engine,
        "blocks_per_s": blocks / duration,
        "interval_mean": interval_hist.mean() if interval_hist else math.nan,
        "interval_p95": interval_hist.percentile(95) if interval_hist else math.nan,
        "commit_latency_p50": workload.stats.latency_percentile(50),
        "throughput": workload.stats.committed / duration,
        "forks": forks,
        "reorgs": reorgs.value if reorgs else 0,
        "instant_finality": node.engine.final_height() == head.height,
        # Where the cut found the chain: a slot or round schedule fixes it
        # whatever the tie order, and a clock outside the simulation moves it.
        "head": f"{head.height}@{head.header.timestamp!r}",
    }
    # The value-level end state is tie-order invariant only once quiescent:
    # at the cut, which in-flight payments made it depends on the schedule.
    system.run_for(DRAIN_SECONDS)
    row["state_digest"] = system.end_state_digest()
    return row


@pytest.mark.benchmark(group="e7")
def test_e7_engine_comparison(benchmark):
    def experiment():
        return [_run_engine(engine, 700 + i) for i, engine in enumerate(ENGINES)]

    rows = run_once(benchmark, experiment)

    show_table(
        f"E7 — consensus engines under the same workload "
        f"(4 validators, target block {BLOCK_TIME}s, 30 tx/s offered)",
        ["engine", "blocks/s", "interval mean (s)", "interval p95 (s)",
         "tx commit p50 (s)", "tx/s", "forks", "reorgs", "instant finality"],
        [
            (row["engine"], row["blocks_per_s"], row["interval_mean"],
             row["interval_p95"], row["commit_latency_p50"], row["throughput"],
             row["forks"], row["reorgs"], row["instant_finality"])
            for row in rows
        ],
    )

    write_bench_json("e7_consensus", rows=rows)
    by = {row["engine"]: row for row in rows}
    # Slot engines hit the target interval tightly.
    for engine in ("poa", "pos"):
        assert abs(by[engine]["interval_mean"] - BLOCK_TIME) < 0.1
        assert by[engine]["forks"] == 0
    # Tendermint: fork-free, commits within a few block times.
    assert by["tendermint"]["forks"] == 0
    assert by["tendermint"]["commit_latency_p50"] < 5 * BLOCK_TIME
    # Mir multiplies block rate (4 leaders by default).
    assert by["mir"]["blocks_per_s"] > 2.5 * by["poa"]["blocks_per_s"]
    # PoW: exponential intervals (p95 >> mean), and only PoW forks.
    assert by["pow"]["interval_p95"] > 1.5 * by["pow"]["interval_mean"]
    assert not by["pow"]["instant_finality"]
    # Everyone sustains the offered load within slack.
    for row in rows:
        assert row["throughput"] > 20.0
