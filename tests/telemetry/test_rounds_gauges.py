"""``RoundTracer`` sets its gauges only when something they show has moved.

The model below keeps its own books from the event stream and recomputes
all five gauges after every event that names a height, which is what the
tracer did on every event; the registry must read the same — which gauges
exist, and what they hold — after each event of any stream: stragglers,
heightless events, repeated votes and quorum changes included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.telemetry.test_rounds import SUBNET, _feed, _tracer


class RefreshAlways:
    def __init__(self):
        self.frontier = self.quorum = None
        self.books = {}  # (height, round, vote_type) -> {voter: power}
        self.shown = {}

    def feed(self, kind, height=None, round=None, quorum=None, vote_type=None,
             voter=None, power=None, **_ignored):
        if kind in ("round_start", "round_skip") and quorum is not None:
            self.quorum = quorum
        if kind == "vote":
            self.books.setdefault((height, round, vote_type), {}).setdefault(voter, power)
        if height is None:
            return
        self.frontier = max(filter(None, [self.frontier, (height, round or 0)]))
        self.shown["height"], self.shown["number"] = self.frontier
        if self.quorum is not None:
            self.shown["quorum_power"] = self.quorum
        for vote_type in ("prevote", "precommit"):
            book = self.books.get((*self.frontier, vote_type), {})
            self.shown[f"{vote_type}_power"] = sum(book.values())


HEIGHT = st.one_of(st.none(), st.integers(1, 3))
ROUND = st.one_of(st.none(), st.integers(0, 2))
EVENTS = st.one_of(
    st.tuples(st.sampled_from(["round_start", "round_skip"]), st.fixed_dictionaries(
        {"height": HEIGHT, "round": ROUND,
         "quorum": st.sampled_from([None, 3, 3, 5]), "total": st.sampled_from([4, 7])})),
    st.tuples(st.just("vote"), st.fixed_dictionaries(
        {"height": HEIGHT, "round": ROUND, "vote_type": st.sampled_from(["prevote", "precommit"]),
         "voter": st.sampled_from(["v0", "v1", "v2"]), "power": st.integers(1, 3)})),
    st.tuples(st.sampled_from(["commit", "timeout", "lock", "proposal"]),
              st.fixed_dictionaries({"height": HEIGHT, "round": ROUND})),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(EVENTS, max_size=30))
def test_gauges_read_as_if_refreshed_on_every_event(events):
    sim, tracer = _tracer()
    model = RefreshAlways()
    prefix = f"consensus.round.{SUBNET}."
    for index, (kind, fields) in enumerate(events):
        fields = {name: value for name, value in fields.items() if value is not None}
        _feed(tracer, kind, float(index), **fields)
        model.feed(kind, **fields)
        assert {
            name[len(prefix):]: gauge.value for name, gauge in sim.metrics.gauges.items()
        } == model.shown
