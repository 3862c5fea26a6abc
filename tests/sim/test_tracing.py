"""Unit tests for the trace log."""

import hashlib

from repro.sim.scheduler import Simulator
from repro.sim.tracing import RING, TraceLog


def test_emit_records_time_and_details():
    time = {"now": 1.25}
    log = TraceLog(clock=lambda: time["now"])
    log.emit("block", "subnet-a", "height=3")
    assert len(log) == 1
    record = log.records[0]
    assert record.time == 1.25
    assert record.kind == "block"
    assert record.subject == "subnet-a"
    assert record.detail == ("height=3",)


def test_count_by_kind_and_records_by_subject():
    log = TraceLog()
    log.emit("a", "x")
    log.emit("a", "y")
    log.emit("b", "x")
    assert log.count("a") == 2 and log.count("b") == 1
    assert [r.kind for r in log.records if r.subject == "x"] == ["a", "b"]


def test_digest_changes_with_content():
    log_a = TraceLog()
    log_a.emit("k", "s", 1)
    log_b = TraceLog()
    log_b.emit("k", "s", 2)
    assert log_a.digest() != log_b.digest()


def test_digest_equal_for_equal_logs():
    log_a = TraceLog()
    log_b = TraceLog()
    for log in (log_a, log_b):
        log.emit("k", "s", "same")
    assert log_a.digest() == log_b.digest()


def test_unbounded_log_never_drops():
    """Past the ring, the log still counts and digests every record: the
    digest is the one a pass over every rendered record gives."""
    log = TraceLog()
    lines = []
    for i in range(RING + 100):
        log.emit("even" if i % 2 == 0 else "odd", "s", i)
        lines.append(log.records[-1].render())
    assert len(log) == RING + 100
    assert log.count("even") == log.count("odd") == (RING + 100) // 2
    assert len(log.records) == RING and log.records[0].detail == ("100",)
    assert log.digest() == hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
    assert [r.detail for r in log.tail(2)] == [(str(RING + 98),), (str(RING + 99),)]
    assert log.tail(0) == [] and len(log.tail(RING + 100)) == RING


def test_identical_simulations_have_identical_digests():
    def run():
        sim = Simulator(seed=99)
        rng = sim.rng("worker")

        def tick():
            sim.trace.emit("tick", "worker", round(rng.random(), 9))

        sim.every(0.5, tick)
        sim.run_until(5.0)
        return sim.trace.digest()

    assert run() == run()
