"""Unit tests for the trace log, a plane on the observation stream."""

import hashlib
from types import SimpleNamespace

from repro.crypto.cid import cid_of
from repro.sim.observe import BlockCommitted, ChainReorg, CheckpointSubmitted, Noted
from repro.sim.scheduler import Simulator
from repro.sim.tracing import RING, TraceLog


def _traced(seed=0):
    sim = Simulator(seed=seed)
    return sim, sim.attach(TraceLog(sim))


def test_noted_records_time_and_details():
    sim, log = _traced()
    sim.now = 1.25
    sim.observe(Noted, "block", "subnet-a", ("height=3",))
    assert len(log) == 1
    record = log.records[0]
    assert record.time == 1.25
    assert record.kind == "block"
    assert record.subject == "subnet-a"
    assert record.detail == ("height=3",)


def test_count_by_kind_and_records_by_subject():
    sim, log = _traced()
    sim.observe(Noted, "a", "x", ())
    sim.observe(Noted, "a", "y", ())
    sim.observe(Noted, "b", "x", ())
    assert log.count("a") == 2 and log.count("b") == 1
    assert [r.kind for r in log.records if r.subject == "x"] == ["a", "b"]


def test_digest_changes_with_content():
    (sim_a, log_a), (sim_b, log_b) = _traced(), _traced()
    sim_a.observe(Noted, "k", "s", (1,))
    sim_b.observe(Noted, "k", "s", (2,))
    assert log_a.digest() != log_b.digest()


def test_digest_equal_for_equal_logs():
    (sim_a, log_a), (sim_b, log_b) = _traced(), _traced()
    for sim in (sim_a, sim_b):
        sim.observe(Noted, "k", "s", ("same",))
    assert log_a.digest() == log_b.digest()
    assert log_a.summary() == {"records": 1, "digest": log_a.digest()}


def test_unbounded_log_never_drops():
    """Past the ring, the log still counts and digests every record: the
    digest is the one a pass over every rendered record gives."""
    sim, log = _traced()
    lines = []
    for i in range(RING + 100):
        sim.observe(Noted, "even" if i % 2 == 0 else "odd", "s", (i,))
        lines.append(log.records[-1].render())
    assert len(log) == RING + 100
    assert log.count("even") == log.count("odd") == (RING + 100) // 2
    assert len(log.records) == RING and log.records[0].detail == ("100",)
    assert log.digest() == hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
    assert [r.detail for r in log.tail(2)] == [(str(RING + 98),), (str(RING + 99),)]
    assert log.tail(0) == [] and len(log.tail(RING + 100)) == RING


def test_commit_reorg_and_checkpoint_records_render_their_lines():
    """The three records the stream already carries render to the lines
    their producers once wrote to the log themselves."""
    sim, log = _traced()
    sim.now = 2.5
    block = SimpleNamespace(height=7, cid=cid_of("b7"), messages=[1, 2, 3])
    node = SimpleNamespace(subnet_id="/root/a")
    sim.observe(BlockCommitted, node, block, ())
    sim.observe(ChainReorg, node, cid_of("old"), block, 1)
    sim.observe(CheckpointSubmitted, cid_of("ckpt").hex(), "/root/a", 3)
    assert [r.render() for r in log.records] == [
        f"[    2.500000] block.commit             /root/a h=7, {cid_of('b7').short()}, msgs=3",
        f"[    2.500000] chain.reorg              /root/a {cid_of('old').short()}, "
        f"{cid_of('b7').short()}",
        f"[    2.500000] checkpoint.submit        /root/a window=3, {cid_of('ckpt').short()}",
    ]


def test_an_unwatched_simulator_has_no_log():
    sim = Simulator()
    sim.observe(Noted, "k", "s", ())
    assert not hasattr(sim, "trace") and "trace" not in sim.planes


def test_identical_simulations_have_identical_digests():
    def run():
        sim, log = _traced(seed=99)
        rng = sim.rng("worker")

        def tick():
            sim.observe(Noted, "tick", "worker", (round(rng.random(), 9),))

        sim.every(0.5, tick)
        sim.run_until(5.0)
        return log.digest()

    assert run() == run()
