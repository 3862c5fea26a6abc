"""One benchmark run: timed set-ups, the measured region, drain, checks.

Protocol (see README.md): fresh process per run; set-up (build + spawn +
fund + warm-up under load) is repeated and its median reported; the last
set-up's deployment is the one measured; ``gc.collect()`` precedes the
measured region; the region has a fixed *simulated* length and is cut into
equal simulated slices by marker events on the sim clock.  Every marker
also times the calibration unit (``calibrate.py``), and every duration
reported here is in *reference seconds*: wall seconds with the host's
momentary speed divided out, slice by slice.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass, field

from repro.analysis.stats import percentile
from repro.crypto.cid import cid_cache_stats

from calibrate import Calibrator
from tracer import HARNESS_LABEL
from workloads import WORKLOADS

#: Slices (and calibration samples) per second the region is sized for:
#: the host's speed changes over a second or more, a slice lasts ~30 ms.
SLICES_PER_SECOND = 32
#: Calibration samples taken during one warm-up.
WARMUP_SAMPLES = 32
MARK_LABEL = HARNESS_LABEL + "mark"
#: Percentiles tried for a tail metric, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
ROUTES = ("topdown", "bottomup", "path")


def supported_tail(samples: int, wanted: float = 99.0, beyond: int = 10) -> float:
    """Highest ladder percentile <= *wanted* with >= *beyond* samples past it."""
    for q in TAIL_LADDER:
        if q <= wanted and samples * (100.0 - q) >= beyond * 100.0:
            return q
    return 50.0


def tail(values: list, wanted: float = 99.0) -> tuple:
    """(value, percentile actually used, sample count)."""
    if not values:
        return float("nan"), wanted, 0
    q = supported_tail(len(values), wanted)
    return percentile(values, q), q, len(values)


@dataclass
class Mark:
    """Counters sampled by one marker event (a slice boundary)."""

    sample: int  # index of the calibration sample taken at this marker
    blocks: int
    ops: int
    events: int


@dataclass
class RunResult:
    workload: str
    seed: int
    region_sim_s: float
    calibrator: Calibrator
    setup_spans: list  # (first sample, last sample) of every set-up
    import_s: float  # reference seconds
    marks: list = field(default_factory=list)  # first = region start
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    peak_rss_mb: float = 0.0
    digest: str = ""
    problems: list = field(default_factory=list)
    sim_metrics: dict = field(default_factory=dict)  # deterministic, name -> value
    tails: dict = field(default_factory=dict)  # metric -> (percentile used, samples)
    counters: dict = field(default_factory=dict)  # sim.metrics counter deltas over the region
    cid_cache: dict = field(default_factory=dict)  # cached_cid hit/miss deltas
    dispatch_wall_s: float = 0.0  # wall inside dispatched events (DispatchBus's own timing)
    chain_forks: int = 0

    # -- wall-clock metrics, in reference seconds -------------------------
    def _region_samples(self) -> tuple:
        return self.marks[0].sample, self.marks[-1].sample

    def slice_ref_s(self) -> list:
        return self.calibrator.gaps(*self._region_samples())

    @property
    def region_ref_s(self) -> float:
        return self.calibrator.ref_seconds(*self._region_samples())

    @property
    def region_wall_s(self) -> float:
        """Plain wall seconds of the region's slices (calibration excluded)."""
        return self.calibrator.wall_seconds(*self._region_samples())

    @property
    def region_span_s(self) -> float:
        """Plain wall seconds of the region, calibration samples included."""
        return self.calibrator.span_seconds(*self._region_samples())

    @property
    def host_slowdown(self) -> float:
        return self.calibrator.slowdown(*self._region_samples())

    def _region(self, attr: str) -> int:
        return getattr(self.marks[-1], attr) - getattr(self.marks[0], attr)

    def setup_ref_s(self) -> list:
        return [self.calibrator.ref_seconds(first, last) for first, last in self.setup_spans]

    @property
    def setup_s(self) -> float:
        return self.import_s + statistics.median(self.setup_ref_s())

    @property
    def blocks_per_wall_s(self) -> float:
        return self._region("blocks") / self.region_ref_s

    @property
    def tx_per_wall_s(self) -> float:
        return self._region("ops") / self.region_ref_s

    @property
    def wall_drift(self) -> float:
        """Last third of the region over its first third (equal simulated
        lengths, so ~1 unless cost grows with history)."""
        slices = self.slice_ref_s()
        third = len(slices) // 3
        return sum(slices[-third:]) / sum(slices[:third])

    def end_to_end(self) -> dict:
        """The driver-gated metrics: name -> (value, unit)."""
        return {
            "setup_s": (self.setup_s, "s"),
            "blocks_per_wall_s": (self.blocks_per_wall_s, "1/s"),
            "tx_per_wall_s": (self.tx_per_wall_s, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "commit_p50_sim_s": (self.sim_metrics["commit_p50_sim_s"], "sim_s"),
            "commit_p99_sim_s": (self.sim_metrics["commit_p99_sim_s"], "sim_s"),
        }

    @property
    def outside_dispatch_share(self) -> float:
        """Share of the region's wall spent in the scheduler itself."""
        return 1.0 - self.dispatch_wall_s / self.region_wall_s

    def deterministic(self) -> dict:
        """Everything that must be bit-equal between repeats of one seed
        and between the untraced and traced passes."""
        counters = hashlib.sha256(repr(sorted(self.counters.items())).encode())
        return {
            "digest": self.digest,
            "counters_digest": counters.hexdigest(),
            "chain_forks": self.chain_forks,
            "attempted": self.attempted,
            "failed": self.failed,
            "refused": self.refused,
            "region_blocks": self._region("blocks"),
            "region_ops": self._region("ops"),
            "region_events": self._region("events"),
            **self.sim_metrics,
        }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    out_dir: str,
    setups: int,
    calibrator: Calibrator,
    import_s: float = 0.0,
    tracer=None,
) -> RunResult:
    """Set up *setups* times, measure once, drain, check.

    *import_s* is what importing the program cost, in reference seconds.
    *tracer* (a ``tracer.LayerTracer`` whose wrappers are already
    installed) is attached to the measured deployment's dispatch bus and
    reset at the region start; ``None`` is the untraced pass.
    """
    cls = WORKLOADS[name]
    region_sim_s = float(round(cls.SIM_S_PER_SECOND * seconds))
    setup_spans = []
    workload = None
    for _attempt in range(setups):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        first = calibrator.sample()
        workload = cls(seed, region_sim_s, out_dir)
        workload.build()
        calibrator.sample()
        stop_sampling = workload.sim.every(
            cls.WARMUP_SIM_S / WARMUP_SAMPLES, calibrator.sample, label=MARK_LABEL
        )
        workload.warm_up()
        stop_sampling()
        setup_spans.append((first, calibrator.sample()))

    result = RunResult(
        workload=name, seed=seed, region_sim_s=region_sim_s,
        calibrator=calibrator, setup_spans=setup_spans, import_s=import_s,
    )
    sim = workload.sim
    marks = result.marks

    def mark() -> None:
        marks.append(
            Mark(
                calibrator.sample(), workload.frontier_heights(),
                workload.committed_ops(), sim.events_executed,
            )
        )

    slices = max(3, round(SLICES_PER_SECOND * seconds))
    begin = sim.now
    for index in range(1, slices):
        sim.schedule_at(begin + region_sim_s * index / slices, mark, label=MARK_LABEL)
    sim.schedule_at(begin + region_sim_s, mark, label=MARK_LABEL)

    if tracer is not None:
        tracer.attach(sim)
    gc.collect()
    workload.begin_region()
    counters_before = _counter_values(sim)
    cache_before = cid_cache_stats()
    dispatch_before = _program_dispatch_s(sim)
    if tracer is not None:
        tracer.reset()
    mark()
    workload.run_region()
    if tracer is not None:
        tracer.freeze(result.region_span_s)
    result.dispatch_wall_s = _program_dispatch_s(sim) - dispatch_before
    result.counters = {
        name: value - counters_before.get(name, 0)
        for name, value in _counter_values(sim).items()
        if value != counters_before.get(name, 0)
    }
    result.cid_cache = {
        kind: value - cache_before[kind] for kind, value in cid_cache_stats().items()
    }
    workload.end_region()
    workload.drain()

    result.attempted = workload.attempted_ops()
    result.failed = workload.failed_ops()
    result.refused = workload.log.refused
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.digest = workload.digest()
    result.problems = workload.problems()
    result.chain_forks = sum(
        node.store.fork_count() for nodes in workload.chains.values() for node in nodes
    )
    _collect_sim_metrics(workload, result)
    return result


def _program_dispatch_s(sim) -> float:
    """Wall seconds inside dispatched events (the DispatchBus's own timing),
    the harness's marker and sampler events left out."""
    return sum(
        seconds for label, seconds in sim.dispatch.wall_seconds.items()
        if not label.startswith(HARNESS_LABEL)
    )


def _counter_values(sim) -> dict:
    return {name: counter.value for name, counter in sim.metrics.counters.items()}


def _collect_sim_metrics(workload, result: RunResult) -> None:
    metrics = result.sim_metrics
    latencies = workload.commit_latencies()
    metrics["commit_p50_sim_s"] = percentile(latencies, 50.0)
    value, used, count = tail(latencies)
    metrics["commit_p99_sim_s"] = value
    result.tails["commit_p99_sim_s"] = (used, count)
    if used != 99.0:
        result.problems.append(
            f"only {count} ops: p99 unsupported (p{used:g} is the highest with "
            "10 samples beyond it); lengthen the region"
        )
    metrics["failed_ops_ratio"] = (
        result.failed / result.attempted if result.attempted else 0.0
    )
    metrics["max_service_gap_sim_s"] = workload.max_service_gap()
    for route in ROUTES:
        samples = workload.route_latencies(route) if route in workload.crossnet else []
        p99, used, count = tail(samples)
        metrics[f"xnet_{route}_p50_sim_s"] = percentile(samples, 50.0) if samples else 0.0
        metrics[f"xnet_{route}_p99_sim_s"] = p99 if samples else 0.0
        result.tails[f"xnet_{route}_p99_sim_s"] = (used, count)
    metrics["recovery_sim_s"] = max(
        (seconds for seconds, _recovered in workload.recovery_times()), default=0.0
    )
