"""Shared helpers for the experiment benchmarks (E1–E10).

Each ``bench_eN_*.py`` module regenerates one figure/claim from the paper
(see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results).  Benchmarks print a result table and assert the
*shape* the paper implies — who wins, roughly by how much, where the
crossovers are — not absolute numbers, since the substrate is a simulator.
"""

from __future__ import annotations

import json
import math
import os
import time

from repro.analysis import Table
from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry import enable_telemetry, write_chrome_trace
from repro.workloads import PaymentWorkload

# Stashed by run_once / capture_sim so write_bench_json can snapshot the
# run without every experiment function having to thread them through.
LAST_WALL_SECONDS = None
LAST_SIM = None
LAST_SYSTEM = None


def capture_sim(sim):
    """Remember *sim* as the run to snapshot in ``write_bench_json``.

    ``build_hierarchy`` captures automatically; benches that build systems
    or baselines directly call this on the run they want exported.
    """
    global LAST_SIM
    LAST_SIM = sim
    return sim


def capture_system(system):
    """Remember *system* so a crashing bench can dump a postmortem bundle."""
    global LAST_SYSTEM
    previous = LAST_SYSTEM
    if previous is not None and previous is not system:
        # A lingering sampler from an earlier system in the same process
        # would keep profiling (and taxing) this run's thread.
        profiler = previous.sim.planes.get("profile")
        if profiler is not None:
            profiler.stop()
    LAST_SYSTEM = system
    capture_sim(system.sim)
    return system


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    If the experiment raises and the last captured system has a flight
    recorder, a postmortem bundle is dumped before the error propagates —
    the crash site's recent history lands next to the BENCH artifacts.
    """

    def timed():
        global LAST_WALL_SECONDS
        started = time.perf_counter()
        try:
            result = fn()
        except BaseException:
            recorder = None
            if LAST_SYSTEM is not None:
                recorder = LAST_SYSTEM.sim.planes.get("recorder")
            if recorder is not None:
                recorder.dump(reason="benchmark-exception")
            raise
        LAST_WALL_SECONDS = time.perf_counter() - started
        return result

    return benchmark.pedantic(timed, rounds=1, iterations=1)


def bench_out_dir() -> str:
    """Where BENCH_*.json (and telemetry exports) land: $BENCH_OUT_DIR or cwd."""
    path = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _json_sanitize(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


def write_bench_json(name: str, rows=None, sim=None, extra=None) -> str:
    """Write ``BENCH_<name>.json``: result rows + metrics snapshot + timing.

    Machine-readable companion to the printed tables, so CI can archive
    every run and regressions are diffable.  *sim* defaults to the last
    captured simulator (see :func:`capture_sim`).
    """
    sim = sim if sim is not None else LAST_SIM
    document = {
        "schema": "repro.bench/v1",
        "bench": name,
        "wall_seconds": LAST_WALL_SECONDS,
        "rows": _json_sanitize(rows),
    }
    if extra:
        document["extra"] = _json_sanitize(extra)
    profiler = sim.planes.get("profile") if sim is not None else None
    if profiler is not None:
        # Stop before snapshotting so mem/alloc accounting is final, then
        # export gauges ahead of the metrics snapshot below.
        profiler.stop()
        profiler.publish(sim.metrics)
        document["profile"] = _json_sanitize(profiler.snapshot())
        out = bench_out_dir()
        profiler.write_collapsed(os.path.join(out, f"PROFILE_{name}.collapsed"))
        write_chrome_trace(os.path.join(out, f"TRACE_{name}_profile.json"), sim)
    if sim is not None:
        sim.dispatch.publish()
        document["sim"] = {
            "now": sim.now,
            "events_executed": sim.events_executed,
            "seed": sim.seed,
            "tie_shuffle": getattr(sim, "tie_shuffle", None),
        }
        if LAST_SYSTEM is not None and LAST_SYSTEM.sim is sim:
            # Semantic end-state digest (heads, state roots, supplies):
            # invariant across tie-shuffle seeds — CI's sanitize job runs a
            # bench under several REPRO_TIE_SHUFFLE values and diffs this.
            document["sim"]["state_digest"] = LAST_SYSTEM.end_state_digest()
        document["metrics"] = _json_sanitize(sim.metrics.snapshot())
        document["dispatch"] = _json_sanitize(sim.dispatch.summary()[:16])
    path = os.path.join(bench_out_dir(), f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")
    print(f"\n[bench] wrote {path}")
    return path


def show_table(title, columns, rows) -> Table:
    """Build, print and return a result table — the shared emitter every
    bench uses instead of repeating the Table/add_row/show boilerplate."""
    table = Table(title, columns)
    for row in rows:
        table.add_row(*row)
    table.show()
    return table


DISPATCH_COLUMNS = ("event label", "events", "wall ms", "mean µs", "max µs")


def dispatch_rows(sim, top: int = 8) -> list[tuple]:
    """Busiest per-label dispatch stats from the sim's instrumented bus.

    Also publishes them as ``sim.dispatch.*`` gauges on ``sim.metrics`` so
    the run's metrics snapshot carries per-event-label counts/timings.
    """
    sim.dispatch.publish()
    return [
        (
            row["label"],
            row["events"],
            row["wall_s"] * 1e3,
            row["mean_s"] * 1e6,
            row["max_s"] * 1e6,
        )
        for row in sim.dispatch.summary()[:top]
    ]


def show_dispatch_table(sim, top: int = 8, title: str = "event-dispatch profile") -> Table:
    return show_table(title, DISPATCH_COLUMNS, dispatch_rows(sim, top=top))


def build_hierarchy(
    seed: int,
    n_subnets: int,
    subnet_validators: int = 3,
    subnet_block_time: float = 0.25,
    checkpoint_period: int = 10,
    engine: str = "poa",
    max_block_messages: int = 500,
    root_block_time: float = 0.5,
    wallet_funds=None,
    monitors: bool = True,
    profile=None,
):
    """A rootnet plus *n_subnets* sibling subnets, started.

    Benchmarks run with live invariant monitors on by default (digest- and
    latency-neutral); postmortem bundles land in the bench output dir.
    ``profile=None`` defers to ``$BENCH_PROFILE``; ``True`` starts the
    sampling profiler (``write_bench_json`` stops it and emits the
    ``profile`` section plus collapsed-stack/Perfetto artifacts).
    """
    system = HierarchicalSystem(
        seed=seed,
        root_validators=3,
        root_block_time=root_block_time,
        checkpoint_period=checkpoint_period,
        wallet_funds=wallet_funds or {},
    ).start()
    capture_system(system)
    if profile is None:
        profile = os.environ.get("BENCH_PROFILE", "") not in ("", "0")
    if monitors or profile:
        enable_telemetry(
            system, monitors=monitors, postmortem_dir=bench_out_dir(), profile=profile
        )
    subnets = []
    for i in range(n_subnets):
        subnets.append(
            system.spawn_subnet(
                SubnetConfig(
                    name=f"s{i}",
                    validators=subnet_validators,
                    engine=engine,
                    block_time=subnet_block_time,
                    checkpoint_period=checkpoint_period,
                    max_block_messages=max_block_messages,
                )
            )
        )
    return system, subnets


def fund_subnet_senders(system, subnet, n_senders: int, funds: int, tag: str):
    """Create and fund *n_senders* wallets inside *subnet* (in-protocol)."""
    wallets = [
        system.create_wallet(f"{tag}-{subnet.name}-{i}") for i in range(n_senders)
    ]
    for wallet in wallets:
        system.fund_subnet(system.treasury, subnet, wallet.address, funds)
    ok = system.wait_for(
        lambda: all(system.balance(subnet, w.address) >= funds for w in wallets),
        timeout=120.0,
    )
    if not ok:
        raise RuntimeError(f"funding senders in {subnet} timed out")
    return wallets


def start_subnet_payments(system, subnet, wallets, rate: float) -> PaymentWorkload:
    return PaymentWorkload(
        system.sim,
        system.nodes(subnet),
        wallets,
        rate=rate,
        rng_scope=f"bench-{subnet.path}",
    ).start()
