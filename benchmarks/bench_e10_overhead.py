"""E10 — Checkpoint period trade-off (§III-B ablation).

Sweeping the checkpoint period quantifies the design trade-off Fig. 2
implies: shorter periods mean lower bottom-up latency but more checkpoint
transactions landing on the parent chain (parent load); longer periods
amortise parent load at the cost of cross-net latency.

Expected shape: bottom-up p50 latency grows ≈linearly with the period;
parent checkpoint-tx rate falls ≈1/period.
"""

import gc
import time

import pytest

from repro.hierarchy import ROOTNET

from common import (
    build_hierarchy,
    fund_subnet_senders,
    run_once,
    show_table,
    start_subnet_payments,
    write_bench_json,
)

BLOCK_TIME = 0.25
PERIODS = (4, 8, 16, 32)
N_TRANSFERS = 8

# Profiler-overhead scenario: the E1 largest hierarchy (k=8), shortened.
PROFILE_K = 8
PROFILE_MEASURE_SECONDS = 15.0
# Overhead estimator: median of adjacent-pair process-CPU ratios.
#
# - *process CPU time*, not wall clock: a shared host steals wall time
#   from either mode at random (co-tenant scheduling, frequency
#   throttling), which swamps a single-digit effect.  process_time()
#   counts only cycles this process burned — and it *includes* the
#   sampler thread's own work, so the profiler's true cost is charged.
# - *adjacent pairs*: runs drift within a process (allocator/GC aging,
#   code caches); ratios of back-to-back runs cancel that drift to
#   first order where a per-mode aggregate inherits it.
# - *counterbalanced order* ((off,on) then (on,off), repeating): the
#   residual within-pair drift alternates sign instead of accumulating.
# - *median*: a single descheduled run poisons a mean; the median
#   ignores it.
# - *adaptive*: if the base design's median lands within
#   PROFILE_DECISION_MARGIN of the budget, collect PROFILE_EXTRA_PAIRS
#   more pairs before judging — sequential sampling, not retry-until-pass
#   (all collected pairs count in the final median).
PROFILE_BASE_PAIRS = 5
PROFILE_EXTRA_PAIRS = 5
PROFILE_DECISION_MARGIN = 0.02
OVERHEAD_BUDGET = 0.05  # sampling must cost < 5% process CPU


def _run_period(period: int, seed: int):
    system, (subnet,) = build_hierarchy(
        seed=seed, n_subnets=1, subnet_block_time=BLOCK_TIME,
        checkpoint_period=period,
    )
    # Parent load: checkpoint submissions landing on the root chain, counted
    # as they commit (the subnet is at genesis here, so none is missed).
    sa_addr = system.sa_address(subnet)
    checkpoint_txs = 0

    def count_checkpoints(block) -> None:
        nonlocal checkpoint_txs
        checkpoint_txs += sum(
            signed.message.to_addr == sa_addr
            and signed.message.method == "submit_checkpoint"
            for signed in block.messages
        )

    system.node(ROOTNET).on_commit(count_checkpoints)
    system.provision_treasury(subnet, 10**9)
    treasury = system.treasury

    latencies = []
    t0 = system.sim.now
    for i in range(N_TRANSFERS):
        sink = system.create_wallet(f"e10-{period}-{i}")
        start = system.sim.now
        system.cross_send(treasury, subnet, ROOTNET, sink.address, 10)
        ok = system.wait_for(
            lambda: system.balance(ROOTNET, sink.address) == 10, timeout=240.0
        )
        if not ok:
            raise RuntimeError(f"transfer lost at period {period}")
        latencies.append(system.sim.now - start)
        # Decorrelate from window boundaries.
        system.run_for(period * BLOCK_TIME * 0.37)
    elapsed = system.sim.now - t0

    ordered = sorted(latencies)
    return {
        "period": period,
        "window_s": period * BLOCK_TIME,
        "latency_p50": ordered[len(ordered) // 2],
        "latency_max": ordered[-1],
        "ckpt_tx_per_min": checkpoint_txs / (system.sim.now / 60.0),
        "elapsed": elapsed,
    }


@pytest.mark.benchmark(group="e10")
def test_e10_checkpoint_period_tradeoff(benchmark):
    def experiment():
        return [_run_period(p, 1000 + p) for p in PERIODS]

    rows = run_once(benchmark, experiment)

    show_table(
        "E10 — checkpoint period sweep: bottom-up latency vs parent load",
        ["period (blocks)", "window (s)", "bottom-up p50 (s)", "max (s)",
         "checkpoint txs/min on parent"],
        [
            (row["period"], row["window_s"], row["latency_p50"],
             row["latency_max"], row["ckpt_tx_per_min"])
            for row in rows
        ],
    )

    write_bench_json("e10_overhead", rows=rows)
    by = {row["period"]: row for row in rows}
    # Latency grows with the period…
    assert by[32]["latency_p50"] > by[4]["latency_p50"]
    # …tracking the window length (within a couple of windows of slack).
    assert by[32]["latency_p50"] <= 3 * by[32]["window_s"] + 2.0
    # Parent load falls as the period grows.
    assert by[4]["ckpt_tx_per_min"] > by[32]["ckpt_tx_per_min"]


def _e1_scenario_cpu(profile: bool, seed: int, run_id: int):
    """Process-CPU seconds of the E1 k=8 measured region, profiler on/off.

    ``profile=False`` is explicit so a ``BENCH_PROFILE=1`` environment
    cannot contaminate the baseline rows.  Monitors stay off: the
    comparison isolates the sampler, and less per-run garbage means less
    run-over-run drift for the paired design to cancel.
    """
    # Reset the GC clock so a run isn't billed for its predecessors'
    # surviving garbage.
    gc.collect()
    system, subnets = build_hierarchy(
        seed=seed, n_subnets=PROFILE_K, subnet_block_time=0.5,
        max_block_messages=20, checkpoint_period=20, profile=profile,
        monitors=False,
    )
    for subnet in subnets:
        wallets = fund_subnet_senders(
            system, subnet, 4, 10**9, tag=f"e10prof{run_id}"
        )
        start_subnet_payments(system, subnet, wallets, 60.0)
    # GC pauses land at arbitrary points and their timing differs run to
    # run — variance, not signal.  Pausing collection for the measured
    # region (both modes equally) removes it; the run's garbage is
    # reclaimed by the next run's gc.collect().
    gc.disable()
    try:
        started = time.process_time()
        system.run_for(PROFILE_MEASURE_SECONDS)
        cpu = time.process_time() - started
    finally:
        gc.enable()
    samples = 0
    profiler = system.sim.planes.get("profile")
    if profiler is not None:
        profiler.stop()
        samples = profiler.snapshot()["samples"]
    return cpu, samples, system


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@pytest.mark.benchmark(group="e10")
def test_e10_profiler_sampling_overhead(benchmark):
    """The sampling profiler's CPU tax on E1 k=8 stays under 5%."""

    def experiment():
        # Discarded warmup: the first run in a process pays one-time
        # costs (imports, code caches, dict resizing) no mode should own.
        _e1_scenario_cpu(False, seed=100 + PROFILE_K, run_id=99)

        runs = []
        ratios = []
        profiled = [None]

        def collect_pairs(n_pairs):
            for i in range(n_pairs):
                first_on = len(ratios) % 2 == 1  # counterbalance pair order
                pair = {}
                for profile in (first_on, not first_on):
                    cpu, samples, system = _e1_scenario_cpu(
                        profile, seed=100 + PROFILE_K, run_id=len(runs)
                    )
                    runs.append({
                        "profiler": profile, "cpu_seconds": cpu,
                        "samples": samples, "pair": len(ratios),
                    })
                    pair[profile] = cpu
                    if profile:
                        profiled[0] = system
                ratios.append(pair[True] / pair[False] - 1.0)

        collect_pairs(PROFILE_BASE_PAIRS)
        if _median(ratios) >= OVERHEAD_BUDGET - PROFILE_DECISION_MARGIN:
            collect_pairs(PROFILE_EXTRA_PAIRS)
        return runs, ratios, profiled[0]

    runs, ratios, profiled_system = run_once(benchmark, experiment)
    overhead = _median(ratios)

    show_table(
        "E10 — profiler sampling overhead (E1 k=8 scenario, "
        f"{PROFILE_MEASURE_SECONDS:.0f}s simulated, median CPU ratio of "
        f"{len(ratios)} counterbalanced pairs)",
        ["pair", "off cpu (s)", "on cpu (s)", "on/off - 1"],
        [
            (
                pair,
                next(r["cpu_seconds"] for r in runs
                     if r["pair"] == pair and not r["profiler"]),
                next(r["cpu_seconds"] for r in runs
                     if r["pair"] == pair and r["profiler"]),
                f"{ratio:+.1%}",
            )
            for pair, ratio in enumerate(ratios)
        ] + [("median", "", "", f"{overhead:+.1%}")],
    )
    write_bench_json(
        "e10_profiler_overhead",
        rows=runs,
        extra={"profiler_overhead": {
            "pair_ratios": ratios, "overhead": overhead,
            "budget": OVERHEAD_BUDGET, "clock": "process_cpu",
        }},
    )

    # The profiled runs really sampled, and attribution covers everything.
    profiler = profiled_system.sim.planes.get("profile")
    assert profiler is not None and profiler.snapshot()["samples"] > 0
    shares = profiler.label_shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    # The measured overhead budget of the profiling plane (DESIGN.md).
    assert overhead < OVERHEAD_BUDGET, (
        f"sampling overhead {overhead:.1%} exceeds {OVERHEAD_BUDGET:.0%} budget"
    )
