"""PoA, PoS and Mir are leader rules over one ``SlotLeaderEngine``.

The literals below were captured from the three separate engines before
they were folded into the shared shell: block ``consensus_data``, the
ticker's dispatch label and the round-event sequence must not move (block
CIDs, the ledger's label→layer map and the exporter goldens hang off them).
"""

import pytest

from repro.consensus import (
    MirEngine, ProofOfStakeEngine, RoundRobinEngine, SlotLeaderEngine,
)
from repro.scenario.faults import rogue_proposer_engine
from repro.telemetry import RoundTracer

from tests.chain.canonical import canonical_chain

# (kind, fields-without-cid) per engine, as seen by n0 then n1; 3 validators,
# block_time 1.0, seed 21, mir_leaders 2, run for 3.2 s.
PINNED = {
    "poa": {
        "consensus_data": [{"engine": "poa", "slot": s} for s in (1, 2, 3)],
        "n0": [
            ("commit", {"height": 1, "slot": 1, "proposer": "n1"}),
            ("commit", {"height": 2, "slot": 2, "proposer": "n2"}),
            ("propose", {"height": 3, "slot": 3, "proposer": "n0"}),
            ("commit", {"height": 3, "slot": 3}),
        ],
        "n1": [
            ("propose", {"height": 1, "slot": 1, "proposer": "n1"}),
            ("commit", {"height": 1, "slot": 1}),
            ("commit", {"height": 2, "slot": 2, "proposer": "n2"}),
            ("commit", {"height": 3, "slot": 3, "proposer": "n0"}),
        ],
        "debug": {"engine": "poa", "running": True, "slot": 3, "leader": "n0",
                  "head_height": 3},
    },
    "pos": {
        "consensus_data": [{"engine": "pos", "slot": s} for s in (1, 2, 3)],
        "n0": [
            ("commit", {"height": 1, "slot": 1, "proposer": "n2"}),
            ("commit", {"height": 2, "slot": 2, "proposer": "n1"}),
            ("commit", {"height": 3, "slot": 3, "proposer": "n1"}),
        ],
        "n1": [
            ("commit", {"height": 1, "slot": 1, "proposer": "n2"}),
            ("propose", {"height": 2, "slot": 2, "proposer": "n1"}),
            ("commit", {"height": 2, "slot": 2}),
            ("propose", {"height": 3, "slot": 3, "proposer": "n1"}),
            ("commit", {"height": 3, "slot": 3}),
        ],
        "debug": {"engine": "pos", "running": True, "slot": 3, "leader": "n1",
                  "head_height": 3},
    },
    "mir": {
        "consensus_data": [
            {"engine": "mir", "sub_slot": s, "bucket": s % 2} for s in range(1, 7)
        ],
        "n0": [
            ("commit", {"height": 1, "slot": 1, "proposer": "n1"}),
            ("commit", {"height": 2, "slot": 2, "proposer": "n2"}),
            ("propose", {"height": 3, "slot": 3, "proposer": "n0"}),
            ("commit", {"height": 3, "slot": 3}),
            ("commit", {"height": 4, "slot": 4, "proposer": "n1"}),
            ("commit", {"height": 5, "slot": 5, "proposer": "n2"}),
            ("propose", {"height": 6, "slot": 6, "proposer": "n0"}),
            ("commit", {"height": 6, "slot": 6}),
        ],
        "n1": [
            ("propose", {"height": 1, "slot": 1, "proposer": "n1"}),
            ("commit", {"height": 1, "slot": 1}),
            ("commit", {"height": 2, "slot": 2, "proposer": "n2"}),
            ("commit", {"height": 3, "slot": 3, "proposer": "n0"}),
            ("propose", {"height": 4, "slot": 4, "proposer": "n1"}),
            ("commit", {"height": 4, "slot": 4}),
            ("commit", {"height": 5, "slot": 5, "proposer": "n2"}),
            ("commit", {"height": 6, "slot": 6, "proposer": "n0"}),
        ],
        "debug": {"engine": "mir", "running": True, "slot": 6, "leader": "n0",
                  "head_height": 6, "epoch": 1, "bucket": 0},
    },
}


@pytest.mark.parametrize("engine", ["poa", "pos", "mir"])
def test_slot_engines_keep_their_wire_and_trace_shape(make_cluster, engine):
    cluster = make_cluster(
        3, engine=engine, block_time=1.0, seed=21,
        consensus_overrides={"mir_leaders": 2},
    )
    tracer = cluster.sim.attach(RoundTracer(cluster.sim))
    labels = set()
    dispatch = cluster.sim.dispatch
    dispatch.on_pre_dispatch(lambda event: labels.add(dispatch.label_of(event)))
    cluster.start().run(3.2)

    pinned = PINNED[engine]
    chain = canonical_chain(cluster.nodes[0].store)
    assert [b.header.consensus_data for b in chain[1:]] == pinned["consensus_data"]
    assert {label for label in labels if label.startswith(f"{engine}:")} == {
        f"{engine}:n0", f"{engine}:n1", f"{engine}:n2"
    }
    cids = {b.height: b.cid.hex()[:16] for b in chain}
    for node in ("n0", "n1"):
        timeline = tracer.timeline("/root", node)
        assert [
            (kind, {k: v for k, v in fields.items() if k != "cid"})
            for _, kind, fields in timeline
        ] == pinned[node]
        # Field order is part of the exporters' byte-identical output.
        for _, kind, fields in timeline:
            if kind == "propose":
                assert list(fields) == ["height", "slot", "proposer", "cid"]
                assert fields["cid"] == cids[fields["height"]]
            else:
                assert list(fields) == ["height", "slot", "proposer"][: len(fields)]
    assert cluster.nodes[0].engine.debug_state() == pinned["debug"]


def test_an_engine_is_a_leader_rule():
    for engine_class in (RoundRobinEngine, ProofOfStakeEngine, MirEngine):
        assert issubclass(engine_class, SlotLeaderEngine)
        own = set(vars(engine_class)) - {"__module__", "__doc__", "NAME"}
        assert "leader_for_slot" in own
        # The schedule, proposal and intake are inherited, never re-stated.
        assert not own & {"start", "stop", "handle", "_on_slot", "_current_slot"}
    assert set(vars(ProofOfStakeEngine)) - {"__module__", "__doc__", "NAME"} == {
        "leader_for_slot"
    }


def test_instance_assigned_leader_rule_drives_proposal(make_cluster):
    """``rogue_proposer_engine`` swaps the rule on one instance: it proposes
    in every slot and accepts nobody else's blocks, while honest validators
    — still on the real rule — reject whatever it mines out of turn."""
    cluster = make_cluster(4, engine="poa", block_time=0.5, seed=23).start()
    cluster.run(2.2)
    rogue = cluster.nodes[3]
    rogue.swap_engine(rogue_proposer_engine)
    cluster.run(2.0)  # slots 5..8: n3 leads one of them, proposes in all four
    rogue_blocks = [
        b for b in canonical_chain(rogue.store)
        if b.header.miner == rogue.miner_address and b.header.timestamp > 2.2
    ]
    assert len(rogue_blocks) == 4
    honest = cluster.nodes[:3]
    out_of_turn = [b for b in rogue_blocks if not honest[0].engine.eligible(b)]
    assert len(out_of_turn) == 3
    # Three honest validators each refuse the three out-of-turn blocks, and
    # the rogue refuses the three honest blocks of slots it now claims.
    for node in honest:
        assert not any(node.store.has(b.cid) for b in out_of_turn)
    honest_blocks = [
        b for b in canonical_chain(honest[0].store)
        if b.header.miner != rogue.miner_address and b.header.timestamp > 2.2
    ]
    assert len(honest_blocks) == 3
    assert not any(rogue.store.has(b.cid) for b in honest_blocks)
