"""The percentile rule, the calibration and the slice arithmetic of a run."""

import pytest

from calibrate import REF_UNIT_S
from conftest import sampled_calibrator
from measure import Mark, RunResult, supported_tail, tail


def test_p99_needs_ten_samples_beyond_it():
    assert supported_tail(1000) == 99.0
    assert supported_tail(999) == 95.0
    assert supported_tail(200) == 95.0
    assert supported_tail(199) == 90.0
    assert supported_tail(100) == 90.0
    assert supported_tail(40) == 75.0
    assert supported_tail(20) == 50.0
    assert supported_tail(3) == 50.0


def test_tail_reports_the_percentile_used_and_the_sample_count():
    values = [float(i) for i in range(200)]
    value, used, count = tail(values)
    assert (used, count) == (95.0, 200)
    assert value == pytest.approx(189.05)
    value, used, count = tail([float(i) for i in range(2000)])
    assert (used, count) == (99.0, 2000)
    _, used, count = tail([])
    assert count == 0


def _result(slice_walls, units=None) -> RunResult:
    """A run whose set-ups took 2, 3 and 10 s and whose slices took
    *slice_walls* seconds, 10 blocks each."""
    setups = [2.0, 3.0, 10.0]
    if units is not None:
        units = [REF_UNIT_S] * 4 + units
    gaps = setups + [0.0] + slice_walls
    calibrator = sampled_calibrator(units or [REF_UNIT_S] * (len(gaps) + 1), gaps)
    result = RunResult(
        workload="x", seed=0, region_sim_s=1.0, calibrator=calibrator,
        setup_spans=[(0, 1), (1, 2), (2, 3)], import_s=0.5,
    )
    for index in range(len(slice_walls) + 1):
        result.marks.append(Mark(4 + index, 10 * index, 100 * index, 1000 * index))
    return result


def test_rates_are_region_totals_over_region_seconds():
    result = _result([1.0] * 7 + [5.0] + [1.0] * 4)
    assert result.region_wall_s == pytest.approx(16.0)
    assert result.region_ref_s == pytest.approx(16.0)
    assert result.region_span_s == pytest.approx(16.0 + 11 * REF_UNIT_S)
    assert result.blocks_per_wall_s == pytest.approx(7.5)
    assert result.tx_per_wall_s == pytest.approx(75.0)
    assert result.deterministic()["region_events"] == 12000


def test_a_slow_host_is_divided_out():
    # The host runs at half speed throughout the region: the unit costs
    # twice as much, and so does every slice.
    result = _result([2.0] * 12, units=[2 * REF_UNIT_S] * 13)
    assert result.region_wall_s == pytest.approx(24.0)
    assert result.slice_ref_s() == pytest.approx([1.0] * 12)
    assert result.blocks_per_wall_s == pytest.approx(10.0)
    assert result.host_slowdown == pytest.approx(2.0)
    assert result.wall_drift == pytest.approx(1.0)


def test_wall_drift_is_the_last_third_over_the_first_third():
    assert _result([1.0] * 6 + [2.0] * 6).wall_drift == pytest.approx(2.0)
    assert _result([1.0] * 12).wall_drift == pytest.approx(1.0)


def test_setup_is_import_plus_the_median_setup():
    assert _result([1.0] * 6).setup_s == pytest.approx(3.5)
