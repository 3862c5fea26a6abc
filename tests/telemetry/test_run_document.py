"""One reader for every writer: each run document the tree writes — a plain
dump, a violation bundle, a ``wait_for``-timeout bundle and a benchmark's
``BENCH_<name>.json`` — renders through ``python -m repro.telemetry.report``
with the sections it carries."""

import importlib.util
import json
import os

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry import enable_telemetry, telemetry_snapshot, write_json
from repro.telemetry.export import RUN_SCHEMA
from repro.telemetry.report import main as report_main


def _bench_common():
    """``benchmarks/common.py``, loaded by path as the benchmarks import it."""
    spec = importlib.util.spec_from_file_location(
        "bench_common",
        os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "common.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Every kind of run document, written by its writer from one run."""
    out = tmp_path_factory.mktemp("run")
    system = HierarchicalSystem(seed=5).start()
    planes = enable_telemetry(system, health_interval=1.0, monitors=True, postmortem_dir=str(out))
    system.spawn_subnet(SubnetConfig(name="s0", validators=3, block_time=0.5))
    system.run_for(4)
    planes["invariants"].record("supply", "/root", "synthetic breach for the reader test")
    assert not system.wait_for(lambda: False, timeout=1.0, label="never")
    paths = dict(zip(("violation", "timeout"), planes["recorder"].paths))
    paths["plain"] = write_json(str(out / "dump.json"), telemetry_snapshot(system.sim))

    common = _bench_common()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BENCH_OUT_DIR", str(out))
        common.RUN.capture(system.sim, system)
        paths["bench"] = common.write_bench_json("demo", rows=[{"latency": float("nan")}])
    return paths


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


RUN_SECTIONS = ("run report —", "cross-net spans", "invariants: 1 violation(s)",
                "subnet heads", "-- dispatch tail", "-- trace tail")


@pytest.mark.parametrize("kind, sections", [
    ("plain", RUN_SECTIONS),
    ("violation", RUN_SECTIONS + (
        "postmortem: reason=invariant-violation",
        "violation #0 [supply] at t=", "in /root: synthetic breach for the reader test",
    )),
    ("timeout", RUN_SECTIONS + (
        "postmortem: reason=wait-timeout:never", "stall report: /root/s0",
    )),
    ("bench", RUN_SECTIONS + ("bench: demo", "end-state digest: ")),
])
def test_report_renders_every_document(documents, capsys, kind, sections):
    path = documents[kind]
    document = _load(path)
    assert document["schema"] == RUN_SCHEMA
    assert report_main([path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for section in sections:
        assert section in captured.out, section
    for report in (document.get("extra") or {}).get("stall_reports") or ():
        assert report["quorum"]["line"] in captured.out


def test_bench_document_carries_rows_and_digest_under_extra(documents):
    extra = _load(documents["bench"])["extra"]
    assert extra["bench"] == "demo"
    assert extra["rows"] == [{"latency": None}]  # NaN made JSON-safe
    assert len(extra["state_digest"]) == 64

