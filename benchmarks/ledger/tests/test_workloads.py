"""A 5 sim-second smoke of every workload builder, and the contract file."""

import json
import os

import pytest

from calibrate import Calibrator
from measure import run_workload
from workloads import WORKLOADS

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_five_simulated_seconds_of_each_workload(name, tmp_path):
    workload = WORKLOADS[name](seed=0, region_sim_s=5.0, out_dir=str(tmp_path))
    workload.build()
    workload.advance(2.0)
    workload.begin_region()
    workload.run_region()
    workload.end_region()
    workload.drain()
    assert workload.region_blocks() > 0
    assert workload.attempted_ops() > 0
    assert workload.committed_ops() > 0
    assert len(workload.digest()) == 64
    if workload.FAULT_FREE:
        assert workload.problems() == []
        assert workload.failed_ops() == 0
    workload.close()


def test_same_seed_same_run_and_another_seed_another_run(tmp_path):
    def run(seed):
        result = run_workload(
            "bft-votes", seed, seconds=0.5, out_dir=str(tmp_path), setups=1,
            calibrator=Calibrator(),
        )
        return result.deterministic()

    first, again, other = run(3), run(3), run(4)
    assert first == again
    assert first["digest"] != other["digest"]


def test_benchmark_json_names_what_the_harness_reports(tmp_path):
    from layers import per_layer_metrics
    from probes import run_probes
    from tracer import LayerTracer

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]

    calibrator = Calibrator()
    tracer = LayerTracer().install()
    try:
        result = run_workload(
            "bft-votes", 0, seconds=0.5, out_dir=str(tmp_path), setups=1,
            calibrator=calibrator, tracer=tracer,
        )
    finally:
        tracer.uninstall()
    reference = {"region_ref_s": 1.0, "outside_dispatch_share": 0.1, "wall_drift": 1.0}
    per_layer = per_layer_metrics(result, reference, tracer, run_probes(calibrator))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: unit for name, (_v, unit) in per_layer.items()} == declared
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: unit for name, (_v, unit) in result.end_to_end().items()} == declared
    # No telemetry plane is installed on a fault-free workload.
    assert per_layer["telemetry.calls"][0] == 0
    assert per_layer["consensus.calls"][0] > 0
