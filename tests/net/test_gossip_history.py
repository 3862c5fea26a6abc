"""A peer's dedup history against the structure it replaced.

``_PeerState`` keeps bare ids plus ``[heartbeat_no, count]`` runs; it used
to keep one ``(heartbeat_no, msg_id)`` tuple per id.  The model below is
that deque.  After every heartbeat both must hold the same ``seen`` keys
for every registered peer and have advertised the same IHAVE id lists —
under bursts longer than the 50-id advertisement, idle heartbeats, short
histories and ``stop``/``restart``.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.transport import Transport
from tests.net.test_gossip_oracle import CONFIGS, GAPS, HEARTBEAT, PEER, SCRIPTS, Run


class TupleHistory:
    """The old ``seen`` / ``seen_order`` pair of one peer."""

    def __init__(self):
        self.order = deque()  # (heartbeat_no, msg_id)
        self.seen = {}  # msg_id -> topic

    def record(self, heartbeat_no, envelope):
        self.seen[envelope.msg_id] = envelope.topic
        self.order.append((heartbeat_no, envelope.msg_id))

    def heartbeat(self, horizon):
        """Expire, then the ids to advertise per topic, oldest first."""
        while self.order and self.order[0][0] < horizon:
            self.seen.pop(self.order.popleft()[1], None)
        advertised = {}
        for _, msg_id in list(self.order)[-50:]:
            if msg_id in self.seen:
                advertised.setdefault(self.seen[msg_id], []).append(msg_id)
        return advertised


class Audited(Run):
    """A run that replays every record into the model and compares the two
    after each heartbeat event."""

    def __init__(self, config):
        self.models = {}
        self.ihaves = {}  # src -> {topic: ids} sent during the current heartbeat
        self.heartbeats = self.expired = self.truncated = 0
        super().__init__(Transport, config)
        send = self.transport.send

        def audited_send(src, dst, kind, payload):
            if kind == "gossip:ihave":
                topic, envelopes = payload
                ids = [envelope.msg_id for envelope in envelopes]
                assert self.ihaves.setdefault(src, {}).setdefault(topic, ids) == ids
            return send(src, dst, kind, payload)

        self.transport.send = audited_send
        self.sim.dispatch.on_pre_dispatch(self._before)
        self.sim.dispatch.on_post_dispatch(self._after)

    def _join(self, peer):
        model = self.models.setdefault(peer, TupleHistory())
        for topic in self._topics_of(peer):
            self.network.subscribe(
                peer, topic,
                lambda envelope: model.record(self.network._heartbeat_no, envelope),
            )

    def _before(self, event):
        if event.label == "gossip:heartbeat":
            self.ihaves.clear()

    def _after(self, event, _elapsed):
        if event.label != "gossip:heartbeat":
            return
        self.heartbeats += 1
        network = self.network
        horizon = network._heartbeat_no - network.params.history_length
        for peer, state in network._peers.items():
            model = self.models.setdefault(peer, TupleHistory())  # a bare publisher
            before = len(model.seen)
            advertised = model.heartbeat(horizon)
            self.expired += before - len(model.seen)
            self.truncated += len(model.order) > 50
            assert set(state.seen) == set(model.seen), peer
            assert list(state.seen_order) == [msg_id for _, msg_id in model.order], peer
            assert sum(count for _, count in state.seen_runs) == len(state.seen_order)
            sent = self.ihaves.get(peer, {})
            # A topic with nobody else on it has no one to advertise to.
            assert all(advertised[topic] == ids for topic, ids in sent.items()), peer
            assert all(topic in sent or len(network._topic_members.get(topic, set()) - {peer}) == 0
                       for topic in advertised), peer


BURST = st.tuples(GAPS, PEER, st.integers(20, 70)).map(
    lambda b: [(b[0], "publish", b[1], 0)] + [(0.0, "publish", b[1], 0)] * (b[2] - 1)
)
IDLE = st.integers(1, 8).map(lambda beats: [(beats * HEARTBEAT, "heal")])
LONGER = st.lists(st.one_of(SCRIPTS, SCRIPTS, BURST, IDLE), min_size=1, max_size=4).map(
    lambda parts: [step for part in parts for step in part]
)


def test_history_expires_and_advertises_like_the_tuple_deque():
    reached = {"heartbeats": 0, "expired": 0, "truncated": 0}

    @settings(max_examples=80, deadline=None)
    @given(CONFIGS, LONGER)
    def check(config, script):
        run = Audited(config).play(script)
        for name in reached:
            reached[name] += getattr(run, name)

    check()
    assert all(reached.values()), reached  # expiry and the 50-id cut were both exercised
