"""E1 — Horizontal scaling (§I–II claim; Fig. 1 topology).

Fixed per-chain capacity, offered load proportional to subnet count.
Hierarchical consensus adds capacity with every spawned subnet; the
single chain is capped at one chain's capacity; traditional sharding also
scales but pays periodic reshuffle downtime (§I).

Expected shape: HC throughput grows ≈linearly in the subnet count; the
single chain stays flat; sharding tracks HC minus reshuffle overhead.
"""

import pytest

from repro.baselines import ShardedBaseline, SingleChainBaseline
from repro.workloads import PaymentWorkload, sender_fund_spec

from common import (
    DISPATCH_COLUMNS,
    build_hierarchy,
    dispatch_rows,
    fund_subnet_senders,
    run_once,
    show_table,
    start_subnet_payments,
    write_bench_json,
)

MEASURE_SECONDS = 40.0
BLOCK_TIME = 0.5
BLOCK_CAPACITY = 20  # messages per block -> 40 tx/s per chain
PER_CHAIN_LOAD = 60.0  # offered tx/s per chain: saturating
SUBNET_COUNTS = (1, 2, 4, 8)


def _hierarchical_throughput(k: int):
    system, subnets = build_hierarchy(
        seed=100 + k,
        n_subnets=k,
        subnet_block_time=BLOCK_TIME,
        max_block_messages=BLOCK_CAPACITY,
        checkpoint_period=20,
    )
    workloads = []
    for subnet in subnets:
        wallets = fund_subnet_senders(system, subnet, 4, 10**9, tag=f"e1k{k}")
        workloads.append(start_subnet_payments(system, subnet, wallets, PER_CHAIN_LOAD))
    start = system.sim.now
    system.run_for(MEASURE_SECONDS)
    committed = sum(w.stats.committed for w in workloads)
    return committed / (system.sim.now - start), dispatch_rows(system.sim)


def _single_chain_throughput(offered: float) -> float:
    funds = sender_fund_spec(8, scope="e1sc")
    baseline = SingleChainBaseline(
        seed=301, validators=3, block_time=BLOCK_TIME,
        max_block_messages=BLOCK_CAPACITY, wallet_funds=funds,
    ).start()
    senders = [baseline.wallets[n] for n in funds]
    workload = PaymentWorkload(baseline.sim, baseline.nodes, senders, rate=offered).start()
    start = baseline.sim.now
    baseline.run_for(MEASURE_SECONDS)
    return workload.stats.committed / (baseline.sim.now - start)


def _sharded_throughput(k: int) -> float:
    funds = sender_fund_spec(8, scope="e1sh")
    baseline = ShardedBaseline(
        seed=401 + k, shards=k, validators_per_shard=3, block_time=BLOCK_TIME,
        reshuffle_interval=15.0, reshuffle_downtime=2.0, wallet_funds=funds,
    ).start()
    workloads = []
    for shard in range(k):
        senders = [baseline.wallets[n] for n in funds]
        workloads.append(
            PaymentWorkload(
                baseline.sim, baseline.shard_nodes[shard], senders,
                rate=PER_CHAIN_LOAD, rng_scope=f"e1shard{shard}",
            ).start()
        )
    start = baseline.sim.now
    baseline.run_for(MEASURE_SECONDS)
    duration = baseline.sim.now - start
    return sum(w.stats.committed for w in workloads) / duration


@pytest.mark.benchmark(group="e1")
def test_e1_horizontal_scaling(benchmark):
    def experiment():
        rows = []
        dispatch = None
        single = _single_chain_throughput(PER_CHAIN_LOAD * max(SUBNET_COUNTS))
        for k in SUBNET_COUNTS:
            hierarchical, dispatch = _hierarchical_throughput(k)
            rows.append(
                {
                    "subnets": k,
                    "hierarchical": hierarchical,
                    "single_chain": single,
                    "sharded": _sharded_throughput(k),
                }
            )
        return rows, dispatch

    rows, dispatch = run_once(benchmark, experiment)

    show_table(
        "E1 — throughput (tx/s) vs number of subnets "
        f"(capacity {BLOCK_CAPACITY} msg / {BLOCK_TIME}s block per chain)",
        ["subnets", "hierarchical", "single chain", "sharded (reshuffling)"],
        [
            (row["subnets"], row["hierarchical"], row["single_chain"], row["sharded"])
            for row in rows
        ],
    )
    # Per-event-label dispatch profile of the largest hierarchical run —
    # the instrumented bus must have observed the whole event flow.
    show_table(
        f"E1 — dispatch profile (k={max(SUBNET_COUNTS)} hierarchical run)",
        DISPATCH_COLUMNS,
        dispatch,
    )
    write_bench_json("e1_scaling", rows=rows)
    assert dispatch, "dispatch bus recorded no events"
    assert all(events > 0 for _, events, *_ in dispatch)

    by_k = {row["subnets"]: row for row in rows}
    capacity = BLOCK_CAPACITY / BLOCK_TIME
    # Single chain is capped at one chain's capacity.
    assert by_k[1]["single_chain"] <= capacity * 1.1
    # HC scales: 8 subnets give >= 4x the 1-subnet throughput.
    assert by_k[8]["hierarchical"] >= 4 * by_k[1]["hierarchical"]
    # HC at k=8 far exceeds the single chain.
    assert by_k[8]["hierarchical"] >= 3 * by_k[8]["single_chain"]
    # Sharding scales too but pays reshuffle downtime at equal shard count.
    assert by_k[8]["sharded"] > by_k[1]["single_chain"]
    assert by_k[8]["hierarchical"] >= by_k[8]["sharded"]
