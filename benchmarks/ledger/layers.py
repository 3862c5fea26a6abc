"""Per-layer metrics: the traced pass's aggregates turned into named numbers.

Every name here appears under ``per_layer`` in ``BENCHMARK.json``.  A
metric that does not apply to a workload (cross-net latencies on a single
chain, recovery time without faults) reads 0: the driver wants every
per-layer metric from every workload, and 0 is never a legitimate value of
those metrics.

Times (``*_self_s``, ``self_share``) come from the traced pass and carry
its overhead; like every duration of the ledger they are in reference
seconds (the traced region's wall, scaled as a whole by what its
calibration samples say the host's speed was).  Counts come from the
program's own ``sim.metrics`` counters, ``cid_cache_stats()``,
``ChainStore.fork_count()`` and the boundary wrappers, and repeat exactly.  Simulated-time metrics are outputs of the
deterministic simulation, identical with tracing on or off (checked on
every traced run), so reporting them here loses nothing.
"""

from __future__ import annotations

from compare import SPECIFIC_BOUNDS
from tracer import LAYERS, OTHER, OUTSIDE

CONSENSUS_HANDLES = (
    "RoundRobinEngine.handle", "ProofOfStakeEngine.handle", "ProofOfWorkEngine.handle",
    "TendermintEngine.handle", "MirEngine.handle",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_sum(counters: dict, prefix: str, suffix: str) -> int:
    return sum(
        value for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def per_layer_metrics(traced, reference: dict, tracer, probes: dict) -> dict:
    """name -> (value, unit) for every per-layer metric.

    *traced* is the traced pass's ``RunResult``; *reference* the detail
    record of the untraced pass of the same workload and seed (its wall
    clock is the one to trust); *probes* the isolated probe results.
    """
    det = traced.deterministic()
    blocks, ops, events = det["region_blocks"], det["region_ops"], det["region_events"]
    counters = traced.counters
    wall = tracer.region_wall_s
    scale = reference_scale(traced)
    out: dict = {}

    kind = tracer.kind

    def self_s(*names: str) -> float:
        return scale * sum(kind(name)["self_s"] for name in names)

    def calls(*names: str) -> int:
        return sum(kind(name)["calls"] for name in names)

    totals = tracer.layer_totals()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (scale * totals[layer]["self_s"], "s")
        out[f"{layer}.self_share"] = (_ratio(totals[layer]["self_s"], wall), "ratio")
        out[f"{layer}.calls"] = (totals[layer]["calls"], "count")

    out["sim.events_per_block"] = (_ratio(events, blocks), "count")
    out["sim.events_per_wall_s"] = (_ratio(events, reference["region_ref_s"]), "1/s")
    out["sim.outside_dispatch_share"] = (reference["outside_dispatch_share"], "ratio")
    out["sim.queue_push_calls"] = (calls("EventQueue.push"), "count")
    out["sim.wall_drift"] = (reference["wall_drift"], "ratio")

    hits, misses = traced.cid_cache.get("hits", 0), traced.cid_cache.get("misses", 0)
    out["crypto.encode_calls_per_tx"] = (_ratio(calls("encoding.canonical_encode"), ops), "count")
    out["crypto.cid_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["crypto.sign_calls"] = (calls("signature.sign"), "count")
    out["crypto.verify_calls"] = (calls("signature.verify"), "count")
    out["crypto.threshold_combine_calls"] = (calls("ThresholdScheme.combine"), "count")

    roots = calls("StateTree.root")
    out["storage.root_calls_per_block"] = (_ratio(roots, blocks), "count")
    out["storage.buckets_rehashed_per_root"] = (
        _ratio(tracer.frozen["observed"]["storage.buckets_rehashed"], roots), "count"
    )
    out["storage.root_self_s"] = (self_s("StateTree.root"), "s")
    out["storage.fork_calls"] = (calls("StateTree.fork"), "count")
    out["storage.layer_depth_max"] = (
        tracer.frozen["observed"]["storage.layer_depth_max"], "count"
    )

    sent = counters.get("net.sent", 0)
    dropped = counters.get("net.lost", 0) + counters.get("net.partitioned_drops", 0)
    published = counters.get("gossip.published", 0)
    out["net.sent_per_block"] = (_ratio(sent, blocks), "count")
    out["net.gossip_published_per_block"] = (_ratio(published, blocks), "count")
    out["net.gossip_delivered_per_published"] = (
        _ratio(counters.get("gossip.delivered", 0), published), "count"
    )
    out["net.publish_self_s"] = (self_s("GossipNetwork.publish"), "s")
    out["net.dropped_ratio"] = (_ratio(dropped, sent + dropped), "ratio")

    applies = calls("VM.apply_message")
    out["vm.apply_calls_per_tx"] = (_ratio(applies, ops), "count")
    out["vm.apply_self_us_per_call"] = (
        _ratio(self_s("VM.apply_message") * 1e6, applies), "us"
    )
    out["vm.failed_receipts_ratio"] = (
        _ratio(tracer.frozen["observed"]["vm.failed_receipts"], applies), "ratio"
    )

    out["chain.pool_add_calls"] = (calls("MessagePool.add"), "count")
    out["chain.pool_select_self_s"] = (self_s("MessagePool.select"), "s")
    out["chain.add_block_calls"] = (calls("ChainStore.add_block"), "count")
    out["chain.forks"] = (traced.chain_forks, "count")
    out["chain.reorgs"] = (_counter_sum(counters, "chain.", ".reorgs"), "count")

    proposed = sum(
        _counter_sum(counters, "consensus.", suffix) for suffix in (".proposed", ".mined")
    )
    out["consensus.handle_calls_per_block"] = (_ratio(calls(*CONSENSUS_HANDLES), blocks), "count")
    out["consensus.rounds_per_height"] = (
        _ratio(
            _counter_sum(counters, "consensus.", ".rounds"),
            _counter_sum(counters, "consensus.", ".committed"),
        ),
        "count",
    )
    out["consensus.proposed_over_accepted"] = (_ratio(proposed, blocks), "ratio")
    out["consensus.handle_self_s"] = (self_s(*CONSENSUS_HANDLES), "s")

    out["runtime.assemble_self_s"] = (self_s("NodeRuntime.assemble_block"), "s")
    out["runtime.receive_block_calls_per_block"] = (
        _ratio(calls("NodeRuntime.receive_block"), blocks), "count"
    )
    out["runtime.range_sync_requests"] = (calls("NodeRuntime.request_block_range"), "count")

    requests = calls("ResolutionService.request")
    out["hierarchy.checkpoints_submitted"] = (
        _counter_sum(counters, "checkpoint.", ".submitted"), "count"
    )
    out["hierarchy.checkpoint_self_s"] = (
        self_s("CheckpointService.on_block", "CheckpointService.handle"), "s"
    )
    out["hierarchy.sca_apply_calls"] = (
        calls("SubnetCoordinatorActor.apply_topdown", "SubnetCoordinatorActor.apply_bottomup"),
        "count",
    )
    out["hierarchy.crosspool_scan_self_s"] = (
        self_s("CrossMsgPool.scan_parent", "CrossMsgPool.scan_own", "CrossMsgPool.select"), "s"
    )
    out["hierarchy.resolution_requests"] = (requests, "count")
    out["hierarchy.resolution_miss_ratio"] = (
        _ratio(counters.get("resolution.pull_sent", 0), requests), "ratio"
    )

    out["workloads.submit_self_us_per_tx"] = (
        _ratio(scale * totals["workloads"]["self_s"] * 1e6, det["attempted"]), "us"
    )

    def optional_kind_self(name: str) -> float:
        return self_s(name) if tracer.has_kind(name) else 0.0

    out["telemetry.spans_self_s"] = (self_s("SpanTracer.on_block_commit"), "s")
    out["telemetry.monitor_self_s"] = (self_s("InvariantMonitor.on_block_commit"), "s")
    out["telemetry.rounds_self_s"] = (self_s("RoundTracer.on_round_event"), "s")
    out["telemetry.recorder_self_s"] = (
        self_s("FlightRecorder.note_health", "FlightRecorder.dump")
        + optional_kind_self("FlightRecorder.<dispatch hook>"),
        "s",
    )
    out["telemetry.health_self_s"] = (self_s("HealthProbe.sample"), "s")

    out["trace.overhead_ratio"] = (
        _ratio(traced.region_ref_s, reference["region_ref_s"]), "ratio"
    )
    out["trace.host_slowdown"] = (traced.host_slowdown, "ratio")

    for name in SPECIFIC_BOUNDS:
        unit = "ratio" if name.endswith("_ratio") else "sim_s"
        out[name] = (traced.sim_metrics[name], unit)
    for name, value in probes.items():
        out[name] = (value, "us")
    return out


def reference_scale(traced) -> float:
    """Reference seconds per wall second over the traced region."""
    return traced.region_ref_s / traced.region_wall_s


def block_cost_table(tracer, blocks: int, scale: float) -> str:
    """The "cost of one committed block by layer" table: microseconds of
    self time per committed block, dispatch-label family x layer, wall
    seconds multiplied by *scale*."""
    matrix = {
        family: {layer: scale * seconds for layer, seconds in cells.items()}
        for family, cells in tracer.matrix().items()
    }
    wall = scale * tracer.region_wall_s
    columns = [layer for layer in LAYERS + (OTHER,)
               if any(cells.get(layer) for cells in matrix.values())]
    families = sorted(
        matrix, key=lambda family: -sum(matrix[family].values())
    )
    width = max(len(family) for family in families + ["dispatch label family"])
    header = f"{'dispatch label family':<{width}} " + " ".join(
        f"{column:>10}" for column in columns + ["total"]
    )
    lines = [header, "-" * len(header)]
    column_totals = dict.fromkeys(columns, 0.0)
    for family in families:
        cells = matrix[family]
        total = sum(cells.values())
        if total * 1e6 / blocks < 0.05 and family != OUTSIDE:
            continue
        for column in columns:
            column_totals[column] += cells.get(column, 0.0)
        lines.append(
            f"{family:<{width}} "
            + " ".join(f"{cells.get(column, 0.0) * 1e6 / blocks:>10.1f}" for column in columns)
            + f" {total * 1e6 / blocks:>10.1f}"
        )
    lines.append("-" * len(header))
    grand = sum(column_totals.values())
    lines.append(
        f"{'us per committed block':<{width}} "
        + " ".join(f"{column_totals[column] * 1e6 / blocks:>10.1f}" for column in columns)
        + f" {grand * 1e6 / blocks:>10.1f}"
    )
    lines.append(
        f"{'share of traced wall':<{width}} "
        + " ".join(
            f"{_ratio(column_totals[column], wall):>10.3f}" for column in columns
        )
        + f" {_ratio(grand, wall):>10.3f}"
    )
    return "\n".join(lines)
