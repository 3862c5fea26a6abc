"""Unit tests for the sampling profiler (`repro.telemetry.profiler`).

Covers the three pillars: label attribution of CPU samples, tracemalloc
bucket accounting through the dispatch hooks, and the snapshot/publish/
collapsed-stack/Perfetto export surfaces — plus the determinism contract
(profiling must not move `end_state_digest` under any tie order).
"""

import time

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.sim.scheduler import Simulator
from repro.telemetry import (
    SamplingProfiler,
    enable_telemetry,
    telemetry_snapshot,
    to_chrome_trace,
)
from repro.telemetry.profiler import OUTSIDE_DISPATCH, PROFILE_SCHEMA, read_rss_bytes


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _run_hot_cold(interval: float = 0.001, hot_s: float = 0.25, cold_s: float = 0.02):
    """A sim run whose wall-clock time is dominated by the ``hot`` label."""
    sim = Simulator(seed=1)
    sim.schedule(1.0, _spin, hot_s, label="hot")
    sim.schedule(2.0, _spin, cold_s, label="cold")
    profiler = SamplingProfiler(sim, interval=interval).start()
    sim.run()
    return sim, profiler.stop()


def test_label_attribution_hot_vs_cold():
    _, profiler = _run_hot_cold()
    shares = profiler.label_shares()
    assert profiler.snapshot()["samples"] > 0
    assert "hot" in shares, shares
    # 0.25s vs 0.02s of spinning: the hot label must dominate decisively.
    assert shares["hot"] > 3 * shares.get("cold", 0.0), shares
    assert shares["hot"] > 0.5, shares
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_samples_outside_dispatch_get_the_outside_label():
    sim = Simulator(seed=2)
    profiler = SamplingProfiler(sim, interval=0.001).start()
    _spin(0.05)  # on the target thread, but not inside any event
    profiler.stop()
    shares = profiler.label_shares()
    assert shares, "sampler took no samples in 50ms at 1ms interval"
    assert OUTSIDE_DISPATCH in shares


def test_start_stop_idempotent_and_restart_accumulates():
    sim = Simulator(seed=3)
    profiler = SamplingProfiler(sim, interval=0.001)
    assert not profiler.running
    assert profiler.start() is profiler
    assert profiler.start() is profiler  # second start: no-op
    assert profiler.running
    _spin(0.03)
    profiler.stop()
    profiler.stop()  # second stop: no-op
    assert not profiler.running
    first = profiler.snapshot()["samples"]
    assert first > 0

    profiler.start()
    _spin(0.03)
    profiler.stop()
    second = profiler.snapshot()["samples"]
    assert second > first  # restart accumulates, not resets
    assert profiler.snapshot()["active_s"] >= 0.06 * 0.5


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SamplingProfiler(Simulator(), interval=0.0)


def test_tracemalloc_buckets_allocations_per_label():
    sim = Simulator(seed=4)
    sink = []

    def allocate():
        sink.append(bytearray(512 * 1024))

    sim.schedule(1.0, allocate, label="alloc-heavy")
    sim.schedule(2.0, lambda: None, label="idle")
    profiler = SamplingProfiler(sim, interval=0.05, memory=True).start()
    sim.run()
    profiler.stop()

    snap = profiler.snapshot()
    heavy = snap["labels"]["alloc-heavy"]
    assert heavy["alloc_bytes"] >= 512 * 1024
    assert heavy["alloc_events"] == 1
    idle = snap["labels"]["idle"]
    assert idle["alloc_events"] == 1
    assert idle["alloc_bytes"] < heavy["alloc_bytes"]
    # Whole-run accounting captured at stop.
    assert snap["mem"]["traced_bytes"] >= 0
    assert snap["mem"]["traced_peak_bytes"] >= snap["mem"]["traced_bytes"]
    assert snap["alloc_top"], "memory mode must record top allocation sites"
    site, size = snap["alloc_top"][0]
    assert isinstance(site, str) and ":" in site and size > 0
    # Hooks are removed at stop: further dispatches are not accounted.
    sim.schedule(1.0, allocate, label="late")
    sim.run()
    assert "late" not in profiler.snapshot()["labels"]


def test_suppressed_events_do_not_corrupt_memory_accounting():
    sim = Simulator(seed=5)
    sim.dispatch.on_pre_dispatch(
        lambda event: event.cancel() if event.label == "dropped" else None
    )
    sink = []
    sim.schedule(1.0, lambda: None, label="dropped")
    sim.schedule(2.0, lambda: sink.append(bytearray(256 * 1024)), label="kept")
    profiler = SamplingProfiler(sim, interval=0.05, memory=True).start()
    sim.run()
    profiler.stop()
    snap = profiler.snapshot()
    # The suppressed event ran pre- but not post-dispatch; its stale stack
    # frame must not steal or distort the kept event's delta.
    assert "dropped" not in snap["labels"] or snap["labels"]["dropped"]["alloc_events"] == 0
    assert snap["labels"]["kept"]["alloc_events"] == 1
    assert snap["labels"]["kept"]["alloc_bytes"] >= 256 * 1024


def test_snapshot_schema_and_share_normalization():
    _, profiler = _run_hot_cold(hot_s=0.1, cold_s=0.05)
    snap = profiler.snapshot(top_frames=3)
    assert snap["schema"] == PROFILE_SCHEMA
    assert snap["interval_s"] == 0.001
    assert snap["memory"] is False
    assert snap["samples"] == sum(row["samples"] for row in snap["labels"].values())
    assert abs(sum(row["cpu_share"] for row in snap["labels"].values()) - 1.0) < 1e-9
    for row in snap["labels"].values():
        assert len(row["top_frames"]) <= 3
        for frame, count in row["top_frames"]:
            assert isinstance(frame, str) and count > 0
    assert snap["mem"]["rss_points"] >= 2  # at least the start/stop points
    assert snap["mem"]["allocated_blocks"] > 0
    assert snap["sampler_s"] < snap["active_s"]


def test_publish_exports_profile_and_mem_gauges():
    sim, profiler = _run_hot_cold(hot_s=0.1, cold_s=0.02)
    profiler.publish(sim.metrics)
    gauges = sim.metrics.snapshot()["gauges"]
    assert gauges["profile.samples"] == profiler.snapshot()["samples"]
    assert gauges["profile.interval_s"] == 0.001
    assert gauges["profile.cpu_share.hot"] > 0.0
    assert gauges["mem.allocated_blocks"] > 0
    if read_rss_bytes() is not None:
        assert gauges["mem.rss_bytes"] > 0


def test_collapsed_stack_format(tmp_path):
    _, profiler = _run_hot_cold(hot_s=0.1, cold_s=0.02)
    lines = profiler.collapsed_stacks()
    assert lines
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert int(count) > 0
        frames = stack.split(";")
        assert len(frames) >= 2  # label root + at least one real frame
    # The hottest line belongs to the dominant label and is label-rooted.
    assert lines[0].startswith("hot;")
    path = tmp_path / "profile.collapsed"
    profiler.write_collapsed(str(path))
    assert path.read_text().splitlines() == lines


def test_perfetto_export_grows_profiler_track():
    sim, profiler = _run_hot_cold(hot_s=0.1, cold_s=0.02)
    sim.attach(profiler)
    trace = to_chrome_trace(sim)
    prof = [e for e in trace["traceEvents"] if e.get("pid") == 3]
    assert prof, "profiler track missing from Perfetto export"
    slices = [e for e in prof if e.get("ph") == "X"]
    assert any(e["name"] == "hot" for e in slices)
    for e in slices:
        assert e["dur"] > 0
        assert e["args"]["samples"] > 0
        assert 0.0 <= e["args"]["cpu_share"] <= 1.0
    counters = [e for e in prof if e.get("ph") == "C"]
    if profiler.rss_series():
        assert counters and all(e["args"]["bytes"] > 0 for e in counters)
    # Without a profiler the track is absent entirely.
    sim.detach(profiler)
    bare = to_chrome_trace(sim)
    assert not [e for e in bare["traceEvents"] if e.get("pid") == 3]


def test_enable_telemetry_profile_starts_and_registers_a_sampler():
    system = HierarchicalSystem(seed=1).start()
    profiler = enable_telemetry(system, profile=True)["profile"]
    try:
        assert profiler.running
        system.run_for(2)
    finally:
        profiler.stop()
    assert telemetry_snapshot(system.sim)["profile"]["schema"] == PROFILE_SCHEMA


def _digest_scenario(monkeypatch, tie_shuffle, profile: bool) -> str:
    """Compact spawn/fund/cross-send run; returns the end-state digest."""
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=11, root_validators=3, root_block_time=0.5,
        checkpoint_period=4, wallet_funds={"alice": 10_000},
    ).start()
    if profile:
        # The planes enable_telemetry(profile=True) attaches, with a
        # faster sampler and allocation accounting on.
        enable_telemetry(system)
        profiler = system.sim.attach(
            SamplingProfiler(system.sim, interval=0.001, memory=True).start()
        )
        assert profiler.running
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", validators=3, block_time=0.25, checkpoint_period=4)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 2_000)
    assert system.wait_for(
        lambda: system.balance(subnet, alice.address) >= 2_000, timeout=60.0
    )
    bob = system.create_wallet("bob")
    system.cross_send(alice, subnet, ROOTNET, bob.address, 300)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, bob.address) == 300, timeout=120.0
    )
    system.run_until(25.0)
    if profile:
        profiler.stop()
    return system.end_state_digest()


def test_profiling_is_digest_neutral_across_tie_orders(monkeypatch):
    """An attached, sampling profiler must not move the end-state digest —
    neither under FIFO tie order nor under shuffled schedules."""
    digests = set()
    for tie_shuffle in (None, 1, 2):
        digests.add(_digest_scenario(monkeypatch, tie_shuffle, profile=False))
        digests.add(_digest_scenario(monkeypatch, tie_shuffle, profile=True))
    assert len(digests) == 1, digests
