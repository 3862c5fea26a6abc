"""The calibration unit and the reference-second arithmetic."""

import gc

import pytest

import calibrate
from calibrate import REF_UNIT_S, WINDOW, Calibrator
from conftest import sampled_calibrator


def test_a_short_span_is_one_window_scaled_by_the_mean_of_its_samples():
    # Three samples: the unit costs REF, then 2 x REF twice; mean 5/3 x REF.
    calibrator = sampled_calibrator([REF_UNIT_S, 2 * REF_UNIT_S, 2 * REF_UNIT_S], [10.0, 20.0])
    assert calibrator.wall_seconds(0, 2) == pytest.approx(30.0)
    assert calibrator.gaps(0, 2) == pytest.approx([6.0, 12.0])
    assert calibrator.ref_seconds(0, 2) == pytest.approx(18.0)
    assert calibrator.ref_seconds(1, 2) == pytest.approx(10.0)
    assert calibrator.span_seconds(0, 2) == pytest.approx(30.0 + 2 * REF_UNIT_S)
    assert calibrator.slowdown(0, 2) == pytest.approx(5.0 / 3.0)
    assert calibrator.ref_seconds(1, 1) == 0.0


def test_a_long_span_is_cut_into_windows_each_with_its_own_scale():
    # 2 x WINDOW stretches of 1 s; the host is 3 x slow for the second half.
    count = 2 * WINDOW
    units = [REF_UNIT_S] * WINDOW + [3 * REF_UNIT_S] * (WINDOW + 1)
    calibrator = sampled_calibrator(units, [1.0] * WINDOW + [3.0] * WINDOW)
    gaps = calibrator.gaps(0, count)
    assert len(gaps) == count
    # The first window ends on the first slow sample, so it reads a little
    # short; the second is scaled by exactly 3.
    first_scale = (WINDOW + 1) / (WINDOW + 3)
    assert gaps[:WINDOW] == pytest.approx([first_scale] * WINDOW)
    assert gaps[WINDOW:] == pytest.approx([1.0] * WINDOW)
    assert calibrator.wall_seconds(0, count) == pytest.approx(4.0 * WINDOW)


def test_stolen_time_slices_are_divided_out_without_bias():
    # Every fourth sample is hit by a gap as long as three units, and so is
    # the program: the host runs at 4/7 of its speed, whichever samples a
    # stretch happens to sit between.  (Scaling each stretch by its own two
    # samples would read 22 % long here: two of four see no gap at all.)
    units = [4 * REF_UNIT_S if i % 4 == 2 else REF_UNIT_S for i in range(65)]
    calibrator = sampled_calibrator(units, [1.75] * 64)
    assert calibrator.ref_seconds(0, 64) == pytest.approx(64.0, rel=0.03)


def test_sampling_times_one_unit_and_returns_its_index(monkeypatch):
    ticks = iter([1.0, 1.5, 7.0, 7.25])
    monkeypatch.setattr(calibrate, "perf_counter", lambda: next(ticks))
    calibrator = Calibrator()
    assert calibrator.sample() == 0
    assert calibrator.sample() == 1
    assert calibrator.unit_seconds(0) == 0.5
    assert calibrator.unit_seconds(1) == 0.25
    assert calibrator.wall_seconds(0, 1) == 5.5


def test_the_unit_does_the_same_work_every_time_and_leaves_nothing_behind():
    calibrator = Calibrator()
    heap_size = len(calibrator._heap)
    sequence = calibrator._sequence
    gc.collect()
    tracked = len(gc.get_objects())
    for _ in range(5):
        calibrator.sample()
    assert len(calibrator._heap) == heap_size
    assert calibrator._sequence == sequence + 5 * calibrate._HEAP_ROUNDS
    gc.collect()
    assert abs(len(gc.get_objects()) - tracked) < 50
