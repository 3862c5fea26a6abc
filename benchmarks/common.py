"""Shared helpers for the experiment benchmarks (E1–E10).

Each ``bench_eN_*.py`` module regenerates one figure/claim from the paper
(see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results).  Benchmarks print a result table and assert the
*shape* the paper implies — who wins, roughly by how much, where the
crossovers are — not absolute numbers, since the substrate is a simulator.
"""

from __future__ import annotations

import os
import time

from repro.analysis import Table
from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry import enable_telemetry, telemetry_snapshot, write_json
from repro.workloads import PaymentWorkload

class RunContext:
    """The run the next ``BENCH_<name>.json`` describes, so no experiment
    function has to thread it through: ``build_hierarchy`` and
    :meth:`capture` set the run, ``run_once`` its wall time, and
    ``write_bench_json`` reads all three."""

    def __init__(self) -> None:
        self.sim = None
        # The HierarchicalSystem behind sim, when its end-state digest
        # belongs in the document; a crashing bench dumps its postmortem.
        self.system = None
        self.wall_seconds = None

    def capture(self, sim, system=None):
        """Make *sim* (run by *system*, if given) the run to write."""
        self.sim, self.system = sim, system
        return sim


RUN = RunContext()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    If the experiment raises and the captured system has a flight
    recorder, a postmortem bundle is dumped before the error propagates —
    the crash site's recent history lands next to the BENCH artifacts.
    """

    def timed():
        started = time.perf_counter()
        try:
            result = fn()
        except BaseException:
            recorder = None if RUN.system is None else RUN.system.sim.planes.get("recorder")
            if recorder is not None:
                recorder.dump(reason="benchmark-exception")
            raise
        RUN.wall_seconds = time.perf_counter() - started
        return result

    return benchmark.pedantic(timed, rounds=1, iterations=1)


def bench_out_dir() -> str:
    """Where BENCH_*.json (and telemetry exports) land: $BENCH_OUT_DIR or cwd."""
    path = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(path, exist_ok=True)
    return path


def write_bench_json(name: str, rows=None, sim=None, extra=None) -> str:
    """Write ``BENCH_<name>.json``: the run document of *sim* (default: the
    captured run, see :class:`RunContext`) with the bench name, its result
    rows and *extra* under ``extra``.

    Machine-readable companion to the printed tables, so CI can archive
    every run and regressions are diffable.
    """
    sim = sim if sim is not None else RUN.sim
    extra = {"bench": name, "rows": rows, **(extra or {})}
    if RUN.system is not None and RUN.system.sim is sim:
        # Semantic end-state digest (heads, state roots, supplies):
        # invariant across tie-shuffle seeds — CI's sanitize job runs a
        # bench under several REPRO_TIE_SHUFFLE values and diffs this.
        extra["state_digest"] = RUN.system.end_state_digest()
    document = telemetry_snapshot(sim, wall_seconds=RUN.wall_seconds, extra=extra)
    path = write_json(os.path.join(bench_out_dir(), f"BENCH_{name}.json"), document)
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
    """Busiest per-label dispatch stats from the sim's instrumented bus
    (the run document's ``dispatch`` section carries them all)."""
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
):
    """A rootnet plus *n_subnets* sibling subnets, started.

    Benchmarks run with live invariant monitors on by default (digest- and
    latency-neutral); postmortem bundles land in the bench output dir.
    """
    system = HierarchicalSystem(
        seed=seed,
        root_validators=3,
        root_block_time=root_block_time,
        checkpoint_period=checkpoint_period,
        wallet_funds=wallet_funds or {},
    ).start()
    RUN.capture(system.sim, system)
    if monitors:
        enable_telemetry(system, monitors=True, postmortem_dir=bench_out_dir())
    subnets = system.spawn_subnets(
        SubnetConfig(
            name=f"s{i}",
            validators=subnet_validators,
            engine=engine,
            block_time=subnet_block_time,
            checkpoint_period=checkpoint_period,
            max_block_messages=max_block_messages,
        )
        for i in range(n_subnets)
    )
    return system, subnets


def fund_subnet_senders(system, subnets, n_senders: int, funds: int, tag: str) -> dict:
    """Create and fund *n_senders* wallets inside each of *subnets*
    (in-protocol), with one wait for all of them; returns subnet -> wallets."""
    senders = {
        subnet: [system.create_wallet(f"{tag}-{subnet.name}-{i}") for i in range(n_senders)]
        for subnet in subnets
    }
    for subnet, wallets in senders.items():
        for wallet in wallets:
            system.fund_subnet(system.treasury, subnet, wallet.address, funds)
    ok = system.wait_for(
        lambda: all(
            system.balance(subnet, w.address) >= funds
            for subnet, wallets in senders.items() for w in wallets
        ),
        timeout=120.0,
    )
    if not ok:
        raise RuntimeError(f"funding senders in {', '.join(s.path for s in senders)} timed out")
    return senders


def start_subnet_payments(system, subnet, wallets, rate: float) -> PaymentWorkload:
    return PaymentWorkload(
        system.sim,
        system.nodes(subnet),
        wallets,
        rate=rate,
        rng_scope=f"bench-{subnet.path}",
    ).start()
