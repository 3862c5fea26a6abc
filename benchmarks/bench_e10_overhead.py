"""E10 — Checkpoint period trade-off (§III-B ablation).

Sweeping the checkpoint period quantifies the design trade-off Fig. 2
implies: shorter periods mean lower bottom-up latency but more checkpoint
transactions landing on the parent chain (parent load); longer periods
amortise parent load at the cost of cross-net latency.

Expected shape: bottom-up p50 latency grows ≈linearly with the period;
parent checkpoint-tx rate falls ≈1/period.
"""

import pytest

from repro.hierarchy import ROOTNET

from common import build_hierarchy, run_once, show_table, write_bench_json

BLOCK_TIME = 0.25
PERIODS = (4, 8, 16, 32)
N_TRANSFERS = 8


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

