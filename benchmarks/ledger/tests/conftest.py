"""Harness unit tests (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests``.  The
harness modules import each other by bare name (``run.py`` is executed as
a script from its own directory), so that directory goes on ``sys.path``.
"""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)


def sampled_calibrator(units, gaps):
    """A ``Calibrator`` whose samples cost *units* seconds each, *gaps*
    seconds apart, starting at time 0."""
    from calibrate import Calibrator

    calibrator = Calibrator()
    now = 0.0
    for index, unit in enumerate(units):
        calibrator.starts.append(now)
        now += unit
        calibrator.ends.append(now)
        if index < len(gaps):
            now += gaps[index]
    return calibrator
