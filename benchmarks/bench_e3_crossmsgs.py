"""E3 — Commitment of cross-net messages vs hierarchy depth (Fig. 3, §IV-A).

Builds a chain of subnets /root/d1/d2/d3 plus a sibling branch and measures
end-to-end latency of:

- top-down transfers from the rootnet to each depth;
- bottom-up transfers from each depth to the rootnet;
- a path message between leaves of the two branches (via the LCA).

Expected shape: top-down latency grows with depth but stays within a few
parent block times per hop (children observe parent SCA state directly);
bottom-up latency is dominated by one checkpoint window per hop, so it
grows by ≈window-length per level; the path message costs roughly the sum
of its bottom-up and top-down legs.
"""

import json
import os

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.telemetry import enable_telemetry, write_chrome_trace

from common import (
    RUN,
    bench_out_dir,
    run_once,
    show_table,
    write_bench_json,
)

BLOCK_TIME = 0.25
PERIOD = 8  # 2.0s windows
WINDOW = BLOCK_TIME * PERIOD
DEPTHS = (1, 2, 3)

_SYSTEM = None  # the measured run, kept for the telemetry exports


def _build_deep_system():
    global _SYSTEM
    system = HierarchicalSystem(
        seed=311, root_validators=3, root_block_time=0.5,
        checkpoint_period=PERIOD, wallet_funds={"driver": 10**12},
    ).start()
    # E3 is the telemetry flagship: causal spans for every cross-net
    # transfer below, per-subnet health samples, and live invariant
    # monitors (an honest run must finish with zero violations).
    enable_telemetry(
        system, health_interval=2.0, monitors=True, postmortem_dir=bench_out_dir()
    )
    RUN.capture(system.sim, system)
    _SYSTEM = system
    parent = ROOTNET
    chain = []
    for depth in range(1, max(DEPTHS) + 1):
        subnet = system.spawn_subnet(
            SubnetConfig(
                name=f"d{depth}", parent=parent, validators=3,
                block_time=BLOCK_TIME, checkpoint_period=PERIOD,
            )
        )
        chain.append(subnet)
        parent = subnet
    sibling = system.spawn_subnet(
        SubnetConfig(name="side", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=PERIOD)
    )
    return system, chain, sibling


def _measure():
    system, chain, sibling = _build_deep_system()
    driver = system.wallets["driver"]
    rows = []

    # --- top-down: one message originated at the root, routed hop-by-hop
    # through each SCA on the way down (§IV-A) ---
    for depth in DEPTHS:
        target = chain[depth - 1]
        sink = system.create_wallet(f"e3-td-{depth}")
        start = system.sim.now
        system.cross_send(driver, ROOTNET, target, sink.address, 1_000)
        ok = system.wait_for(
            lambda: system.balance(target, sink.address) >= 1_000, timeout=240.0
        )
        rows.append({
            "kind": "top-down", "depth": depth,
            "latency": system.sim.now - start if ok else float("nan"),
        })

    # Stage treasury funds inside each subnet for the bottom-up phase.
    for subnet in chain:
        system.provision_treasury(subnet, 10**6)
    treasury = system.treasury

    # --- bottom-up: depth d -> root ---
    for depth in DEPTHS:
        source = chain[depth - 1]
        sink = system.create_wallet(f"e3-bu-{depth}")
        start = system.sim.now
        system.cross_send(treasury, source, ROOTNET, sink.address, 500)
        ok = system.wait_for(
            lambda: system.balance(ROOTNET, sink.address) == 500, timeout=400.0
        )
        rows.append({
            "kind": "bottom-up", "depth": depth,
            "latency": system.sim.now - start if ok else float("nan"),
        })

    # --- path message: deepest leaf -> sibling branch (LCA = root) ---
    sink = system.create_wallet("e3-path")
    leaf = chain[-1]
    start = system.sim.now
    system.cross_send(treasury, leaf, sibling, sink.address, 250)
    ok = system.wait_for(
        lambda: system.balance(sibling, sink.address) == 250, timeout=600.0
    )
    rows.append({
        "kind": "path (leaf->sibling)", "depth": len(chain),
        "latency": system.sim.now - start if ok else float("nan"),
    })
    return rows


@pytest.mark.benchmark(group="e3")
def test_e3_crossmsg_latency_vs_depth(benchmark):
    rows = run_once(benchmark, _measure)

    show_table(
        f"E3 — cross-msg end-to-end latency vs depth "
        f"(checkpoint window {WINDOW:.1f}s, subnet block {BLOCK_TIME}s)",
        ["kind", "depth", "latency (s)"],
        [(row["kind"], row["depth"], row["latency"]) for row in rows],
    )

    # Export the full telemetry of the run: the run document with the bench
    # rows (`python -m repro.telemetry.report` renders it) and a
    # Perfetto-loadable Chrome trace.
    system = _SYSTEM
    tracer = system.sim.planes["spans"]
    out = bench_out_dir()
    with open(write_bench_json("e3_crossmsgs", rows=rows), encoding="utf-8") as handle:
        dump = json.load(handle)
    write_chrome_trace(os.path.join(out, "TRACE_e3.json"), system.sim)
    # Spawn-time funding also traces, so at least the measured transfers.
    assert tracer.delivered_count() >= len(rows), "every transfer should be spanned"
    assert dump["histograms"].get("xnet.hop.topdown.L1", {}).get("count", 0) > 0
    assert dump["histograms"].get("checkpoint.lag", {}).get("count", 0) > 0
    # An honest deep-hierarchy run trips no live invariant.
    assert dump["invariants"]["violations"] == 0, dump["invariants"]

    by = {(r["kind"], r["depth"]): r["latency"] for r in rows}
    # Everything arrived.
    assert all(lat == lat for lat in by.values()), "a transfer never arrived"
    # Top-down is fast: every depth within a few seconds.
    for depth in DEPTHS:
        assert by[("top-down", depth)] < 4 * WINDOW
    # Bottom-up is checkpoint-dominated and grows with depth.
    assert by[("bottom-up", 1)] >= WINDOW * 0.5
    assert by[("bottom-up", 3)] > by[("bottom-up", 1)]
    # Each extra level costs at most ~2 extra windows of wait.
    assert by[("bottom-up", 3)] <= by[("bottom-up", 1)] + 4 * WINDOW
    # The path message pays at least its bottom-up leg.
    assert by[("path (leaf->sibling)", 3)] >= by[("bottom-up", 1)]
