"""Flight recorder bundles: run documents, rendered by the report CLI."""

import json
from pathlib import Path

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.sim.tracing import RING
from repro.telemetry import enable_telemetry, telemetry_snapshot
from repro.telemetry.export import RUN_SCHEMA, WALL_CLOCK_KEYS
from repro.telemetry.recorder import TAIL
from repro.telemetry.report import main as report_main
from repro.telemetry.report import render


def _run_system(postmortem_dir=None, poke=False):
    system = HierarchicalSystem(seed=23)
    system.start()
    enable_telemetry(
        system, health_interval=2.0, monitors=True, postmortem_dir=postmortem_dir
    )
    alice = system.create_wallet("alice", fund=500_000)
    sub = system.spawn_subnet(SubnetConfig(name="pm", validators=3, block_time=0.5))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(12)
    if poke:
        # Inject a synthetic violation mid-run so the dump happens at a
        # deterministic simulated time with live rings.
        system.sim.planes["invariants"].record(
            "supply", "/root", "synthetic violation for the recorder test"
        )
    system.run_for(8)
    return system


@pytest.fixture(scope="module")
def poked(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles")
    return _run_system(postmortem_dir=str(out), poke=True), out


def test_violation_dumps_bundle_to_disk(poked):
    system, _out = poked
    recorder = system.sim.planes["recorder"]
    assert len(recorder.bundles) == 1
    assert len(recorder.paths) == 1
    bundle = recorder.bundles[0]
    assert bundle["schema"] == RUN_SCHEMA
    assert bundle["extra"]["reason"] == "invariant-violation"
    assert bundle["extra"]["violation"]["auditor"] == "supply"
    assert bundle["sim"]["seed"] == 23
    ring = bundle["recorder"]
    assert ring["trace_tail"], "trace ring should not be empty mid-run"
    assert ring["dispatch_tail"], "dispatch ring should not be empty"
    assert ring["heads"]["/root"]["height"] > 0
    assert ring["heads"]["/root/pm"]["height"] > 0
    # The on-disk artifact round-trips.
    with open(recorder.paths[0], encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == bundle


def _without_wall_clock(document: dict) -> str:
    return json.dumps(
        {k: v for k, v in document.items() if k not in WALL_CLOCK_KEYS}, sort_keys=True
    )


def test_bundle_body_is_deterministic(poked):
    """Same seed, same poke → the same bundle and the same plain dump,
    byte for byte outside the named wall-clock keys."""
    system, _out = poked
    repeat = _run_system(poke=True)
    for a, b in (
        (system.sim.planes["recorder"].bundles[0], repeat.sim.planes["recorder"].bundles[0]),
        (telemetry_snapshot(system.sim), telemetry_snapshot(repeat.sim)),
    ):
        assert set(WALL_CLOCK_KEYS) & set(a)
        assert _without_wall_clock(a) == _without_wall_clock(b)


def test_on_demand_dump(poked):
    system, _out = poked
    before = len(system.sim.planes["recorder"].bundles)
    bundle = system.sim.planes["recorder"].dump(reason="benchmark-exception")
    assert bundle["extra"]["reason"] == "benchmark-exception"
    assert bundle["extra"]["violation"] is None
    # An on-demand dump still carries the run's accumulated violations.
    assert bundle["invariants"]["all"]
    assert len(system.sim.planes["recorder"].bundles) == before + 1


def test_render_sections(poked):
    system, _out = poked
    text = render(system.sim.planes["recorder"].bundles[0])
    assert "postmortem: reason=invariant-violation" in text
    assert "synthetic violation for the recorder test" in text
    assert "subnet heads" in text
    assert "-- trace tail" in text
    assert "-- dispatch tail" in text


def test_cli_renders_bundle(poked, capsys):
    system, out = poked
    path = system.sim.planes["recorder"].paths[0]
    assert Path(path).parent == Path(str(out))
    assert report_main([str(path)]) == 0
    captured = capsys.readouterr()
    assert "postmortem: reason=invariant-violation" in captured.out
    assert captured.err == ""  # a bundle is a run document: no schema warning


def test_cli_missing_file_is_one_line_error(capsys):
    assert report_main(["/nonexistent/bundle.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read run document" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_health_ring_fed_by_probe(poked):
    system, _out = poked
    # The recorder subscribes to HealthSampled; nobody wires probe to recorder.
    bundle = system.sim.planes["recorder"].dump(reason="health-check")
    assert bundle["recorder"]["health_ring"], "health samples should reach the ring"
    latest = bundle["recorder"]["health_ring"][-1]
    assert "/root/pm" in latest
    assert "height" in latest["/root/pm"]


@pytest.mark.parametrize("monitors_first", [True, False])
def test_health_ring_fed_whichever_plane_is_enabled_first(monitors_first):
    """The recorder subscribes to the stream, not to a probe that may not
    exist yet: every health round reaches its ring whether monitors or
    health sampling was asked for first."""
    system = HierarchicalSystem(seed=23).start()
    steps = [{"monitors": True}, {"health_interval": 1.0}]
    for options in steps if monitors_first else reversed(steps):
        enable_telemetry(system, **options)
    system.run_for(5)
    bundle = system.sim.planes["recorder"].dump(reason="health-check")
    assert len(bundle["recorder"]["health_ring"]) == 5


def test_recorder_tail_cannot_outgrow_the_trace_ring():
    """A trace tail longer than the log's ring would be cut short without
    notice."""
    assert TAIL <= RING


def test_a_bundle_taken_inside_an_event_ends_with_that_event():
    """The recorder's ring takes each event as it is dispatched, so a
    bundle dumped from inside an event closes with that event itself."""
    system = HierarchicalSystem(seed=23).start()
    enable_telemetry(system, monitors=True)
    recorder = system.sim.planes["recorder"]
    bundles = []
    system.sim.schedule(
        1.25, lambda: bundles.append(recorder.dump(reason="mid-event")), label="test:dump"
    )
    system.run_for(2)
    (bundle,) = bundles
    assert bundle["recorder"]["dispatch_tail"][-1] == [1.25, "test:dump"]
