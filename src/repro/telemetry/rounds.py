"""Consensus-round tracing and quorum-aware stall diagnosis.

Span tracing, the invariant auditors and the dispatch profile all watch
*committed blocks*, never the rounds that produce them.  This module
watches the rounds.

:class:`RoundTracer` receives the :class:`~repro.sim.observe.RoundEvent`
every consensus engine reports through
:meth:`~repro.consensus.base.ConsensusEngine._trace_round` at each
round/view transition — round start, proposal, vote arrival, lock,
commit, timeout, round skip — with the leader identity attached.  It
produces:

- per-validator round **timelines** (bounded rings, exported as one
  Perfetto track per validator by :mod:`repro.telemetry.export`);
- per-subnet quorum progress in its ``rounds`` section: the working
  frontier ``(height, round)``, prevote/precommit power held at the
  frontier vs. the quorum power needed, and a count per event kind;
- the ``consensus.round.*.per_height`` histogram (rounds needed per
  committed height).

:class:`StallDiagnoser` turns a stalled subnet into a *stall report*: it
snapshots every validator's live engine state
(:meth:`~repro.consensus.base.ConsensusEngine.debug_state` —
height/round/step, locked value, vote books, head CID), the gossip mesh,
partition state and degraded links, and names the **missing quorum**: who
holds the frontier, who voted, who is *silent* (no vote at the working
height) and who is *misaligned* (votes exist but at other rounds or for
another head — a round-desync signature), summed up in the report's one
quorum line.  The scenario :class:`~repro.scenario.runner.ProgressWatchdog`
and ``wait_for`` timeouts attach these reports to their diagnostics, and a
postmortem bundle carries them under ``extra.stall_reports``.

Determinism: the tracer writes only its own state and ``sim.metrics``
(never the trace log, never RNG, never wall clock) and the diagnoser is a
pure read of engine/network state, so enabling either cannot change the
end-state digest.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.hierarchy.subnet_id import SubnetID
from repro.sim.observe import Plane, RoundEvent, WaitTimedOut

#: Round events kept per validator timeline, newest last.
TIMELINE_CAPACITY = 512

#: Event kinds engines feed (see ConsensusEngine._trace_round):
#:   round_start  — a validator entered (height, round); fields carry the
#:                  proposer plus quorum/total power
#:   round_skip   — entered via f+1 higher-round catch-up, not a timeout
#:   propose      — this validator broadcast a proposal
#:   proposal     — an acceptable proposal arrived
#:   vote         — a prevote/precommit was recorded (voter, power, cid)
#:   lock         — a polka locked this validator on a block
#:   timeout      — a phase timeout fired (step in fields)
#:   commit       — a block committed (slot engines emit this per block)
EVENT_KINDS = (
    "round_start", "round_skip", "propose", "proposal",
    "vote", "lock", "timeout", "commit",
)


class RoundTracer(Plane):
    """Collects per-validator consensus-round events from every engine.

    ``sim.attach(RoundTracer(sim))`` and every engine's
    ``_trace_round`` reaches it.  It writes nothing the simulation reads,
    so it is digest-neutral; timelines live in bounded per-validator rings.
    """

    section = "rounds"
    observes = {RoundEvent: "on_round_event"}

    def __init__(self, sim) -> None:
        self.sim = sim
        self.metrics = sim.metrics
        # (subnet, node_id) -> ring of (time, kind, fields)
        self.timelines: dict[tuple, deque] = {}
        # subnet -> frontier bookkeeping
        self._frontier: dict[str, tuple] = {}  # subnet -> (height, round)
        self._quorum: dict[str, tuple] = {}  # subnet -> (quorum, total)
        # subnet -> (height, round, vote_type) -> {voter: power}, at the
        # frontier height only: nothing reads a book below it.  Dedup across
        # observers: the first validator to record a voter's vote wins,
        # which is deterministic on a deterministic simulator.
        self._votes: dict[str, dict] = {}
        # per-subnet counts for summary()
        self._counts: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Feed
    # ------------------------------------------------------------------
    def on_round_event(self, event: RoundEvent) -> None:
        subnet, node_id, kind, time, fields = event
        key = (subnet, node_id)
        ring = self.timelines.get(key)
        if ring is None:
            ring = self.timelines[key] = deque(maxlen=TIMELINE_CAPACITY)
        ring.append((time, kind, fields))

        counts = self._counts.get(subnet)
        if counts is None:
            counts = self._counts[subnet] = dict.fromkeys(EVENT_KINDS, 0)
        counts[kind] = counts.get(kind, 0) + 1

        height = fields.get("height")
        round_ = fields.get("round")

        if kind in ("round_start", "round_skip"):
            quorum = fields.get("quorum")
            if quorum is not None:
                self._quorum[subnet] = (quorum, fields.get("total"))
        elif kind == "vote":
            frontier = self._frontier.get(subnet)
            if height is not None and (frontier is None or height >= frontier[0]):
                books = self._votes.get(subnet)
                if books is None:
                    books = self._votes[subnet] = {}
                book = books.setdefault((height, round_, fields.get("vote_type")), {})
                book.setdefault(fields.get("voter"), fields.get("power", 1))
        elif kind == "commit":
            # Rounds are 0-based; a height that committed at round r took
            # r+1 rounds.  Slot engines commit at "round" 0 (their slot).
            self.metrics.histogram(
                "consensus.round.*.per_height", subnet
            ).observe((round_ or 0) + 1)

        self._advance_frontier(subnet, height, round_)

    def _advance_frontier(
        self, subnet: str, height: Optional[int], round_: Optional[int]
    ) -> None:
        if height is None:
            return
        candidate = (height, round_ or 0)
        frontier = self._frontier.get(subnet)
        if frontier is None or candidate > frontier:
            self._frontier[subnet] = candidate
            books = self._votes.get(subnet)
            if books and frontier is not None and height > frontier[0]:
                for key in [key for key in books if key[0] < height]:
                    del books[key]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def frontier(self, subnet: str) -> Optional[tuple]:
        """The working ``(height, round)`` frontier of *subnet*."""
        return self._frontier.get(subnet)

    def votes_at(self, subnet: str, height: int, round_: int, vote_type: str) -> dict:
        """``voter -> power`` recorded at ``(height, round, vote_type)`` —
        empty below the frontier height."""
        return dict(self._votes.get(subnet, {}).get((height, round_, vote_type), ()))

    def timeline(self, subnet: str, node_id: str) -> list:
        """The (time, kind, fields) ring of one validator, oldest first."""
        return list(self.timelines.get((subnet, node_id), ()))

    def subnets(self) -> list:
        return sorted({subnet for subnet, _ in self.timelines})

    def summary(self) -> dict:
        """Plain-data overview used by the exporters and the report CLI."""
        per_subnet = {}
        for subnet in self.subnets():
            frontier = self._frontier.get(subnet)
            quorum = self._quorum.get(subnet, (None, None))
            counts = self._counts.get(subnet, {})
            entry = {
                "frontier_height": frontier[0] if frontier else None,
                "frontier_round": frontier[1] if frontier else None,
                "quorum_power": quorum[0],
                "total_power": quorum[1],
                "validators": sorted(
                    node for s, node in self.timelines if s == subnet
                ),
                "counts": {k: v for k, v in sorted(counts.items()) if v},
            }
            if frontier is not None:
                for vote_type in ("prevote", "precommit"):
                    entry[f"{vote_type}_power"] = sum(
                        self.votes_at(subnet, *frontier, vote_type).values()
                    )
            per_subnet[subnet] = entry
        return {
            "subnets": per_subnet,
            "events": sum(len(ring) for ring in self.timelines.values()),
        }


# ----------------------------------------------------------------------
# Stall diagnosis
# ----------------------------------------------------------------------
class StallDiagnoser(Plane):
    """Builds quorum-aware stall reports for a stuck subnet.

    A report is a pure read of live state: every validator's
    ``engine.debug_state()``, its head, the gossip mesh, partition and
    link-degradation state, plus a quorum analysis at the subnet's working
    height — who voted, who is silent, who is misaligned.  Constructed
    with the :class:`~repro.hierarchy.network.HierarchicalSystem` it
    inspects; an attached :class:`RoundTracer` is optional (round frontiers
    enrich the report but engine vote books alone suffice).
    """

    section = "stall"
    observes = {WaitTimedOut: "on_wait_timeout"}

    def __init__(self, system) -> None:
        self.system = system

    def on_wait_timeout(self, timed_out: WaitTimedOut) -> None:
        # A report per subnet: the timed-out predicate does not say which
        # subnet it was watching, and a fully stalled subnet is
        # indistinguishable from a healthy one in a single health sample —
        # so snapshot them all (a bounded pure read).
        diagnosis = timed_out.diagnosis
        diagnosis["stall_reports"] = [
            self.diagnose(path) for path in sorted(diagnosis["health"])
        ]

    # ------------------------------------------------------------------
    def diagnose(self, subnet_path: str) -> dict:
        """One stall report for *subnet_path*."""
        system = self.system
        subnet = SubnetID(subnet_path)
        nodes = system.nodes_by_subnet[subnet]
        engine_name = nodes[0].engine.NAME

        validators = []
        for node in nodes:
            head = node.head()
            validators.append({
                "node": node.node_id,
                "running": node.engine.running,
                "head_height": head.height if head else None,
                "head_cid": head.cid.hex()[:16] if head else None,
                "state": node.engine.debug_state(),
            })

        quorum = self._missing_quorum(nodes, validators)
        quorum["line"] = _quorum_line(quorum)
        report = {
            "subnet": subnet.path,
            "time": system.sim.now,
            "engine": engine_name,
            "validators": validators,
            "quorum": quorum,
            "network": self._network_state(nodes),
        }
        tracer = system.sim.planes.get("rounds")
        if tracer is not None:
            report["frontier"] = tracer.frontier(subnet.path)
            report["recent_events"] = {
                node.node_id: [
                    [time, kind, self._brief(fields)]
                    for time, kind, fields in tracer.timeline(
                        subnet.path, node.node_id
                    )[-8:]
                ]
                for node in nodes
            }
        return report

    @staticmethod
    def _brief(fields: dict) -> dict:
        keep = ("height", "round", "step", "vote_type", "voter", "proposer")
        return {k: fields[k] for k in keep if fields.get(k) is not None}

    # ------------------------------------------------------------------
    def _missing_quorum(self, nodes, validators) -> dict:
        """Name the missing quorum at the subnet's working height.

        BFT engines expose their vote books via ``debug_state``; the
        working height is the highest any validator is deciding.  A
        validator in the set is *silent* when it holds no vote at that
        height anywhere in the books, and *misaligned* when its votes
        exist but only at rounds other than the busiest one (the
        round-desync signature).  Slot engines have no votes — for them
        the analysis reports the expected leader instead.  PoW has no
        leader either: its analysis is the mining race, the heads being
        mined on and the height every validator holds final — and, a race
        having no power threshold, no ``needed_power``.
        """
        engine = nodes[0].engine
        vset = engine.validators
        racing = engine.NAME == "pow"
        result = {
            "needed_power": None if racing else vset.quorum_power,
            "total_power": vset.total_power,
        }
        heights = [v["head_height"] for v in validators if v["head_height"] is not None]
        spread = max(heights) - min(heights) if heights else None
        states = [v["state"] for v in validators]

        if racing:
            result.update({
                "kind": "mining-race",
                "head_spread": spread,
                "mining_on": sorted({s.get("mining_on") for s in states} - {None}),
                "final_height": min(
                    (s["final_height"] for s in states if "final_height" in s), default=None
                ),
            })
            return result

        if not any(state.get("prevotes") for state in states):
            # Slot engine: no votes to analyse; name the leader.
            result.update({
                "kind": "leader-schedule",
                "expected_leader": states[0].get("leader"),
                "head_spread": spread,
            })
            return result

        working = max(
            v["state"].get("height") or 0 for v in validators
        )
        # The union of every validator's books (vote *existence*: did a
        # vote ever happen anywhere?) and the best single view (vote
        # *delivery*: quorums form inside one validator's book, never
        # across a partition — a union that looks complete while no node
        # holds a quorum is exactly the partition signature).
        union = {"prevote": {}, "precommit": {}}
        views = []  # (held_power, round, observer, voters)
        current_round = None
        for v in validators:
            state = v["state"]
            if state.get("height") != working:
                continue
            if isinstance(state.get("round"), int):
                current_round = max(
                    current_round if current_round is not None else -1,
                    state["round"],
                )
            for vote_type, book_key in (
                ("prevote", "prevotes"), ("precommit", "precommits")
            ):
                for round_str, book in (state.get(book_key) or {}).items():
                    target = union[vote_type].setdefault(int(round_str), {})
                    for voter, cid in book.items():
                        target.setdefault(voter, cid)
                    if vote_type == "prevote":
                        views.append((
                            vset.power_of(book), int(round_str),
                            v["node"], sorted(book),
                        ))
        # Anchor on the round the subnet is stuck at NOW (a historical
        # round may show a full prevote quorum that still failed at
        # precommit); when no votes exist there yet, fall back to the
        # highest round that has any — never to a bygone quorum.
        best = max(
            (c for c in views if c[1] == current_round),
            key=lambda c: c[:2], default=None,
        )
        if best is None and union["prevote"]:
            frontier_round = max(union["prevote"])
            best = max(
                (c for c in views if c[1] == frontier_round),
                key=lambda c: c[:2], default=None,
            )

        voted_rounds: dict[str, set] = {}
        for vote_type in ("prevote", "precommit"):
            for round_, book in union[vote_type].items():
                for voter in book:
                    voted_rounds.setdefault(voter, set()).add(round_)

        members = [v.node_id for v in vset]
        held, busiest, observer, voted = best if best else (0, None, None, [])
        missing = [m for m in members if m not in voted]
        unreachable, misaligned, silent = [], [], []
        for m in missing:
            if busiest is not None and m in union["prevote"].get(busiest, ()):
                # Voted at the very round the best view is missing power
                # at — the vote exists but was never delivered there.
                unreachable.append(m)
            elif m in voted_rounds:
                misaligned.append(
                    {"voter": m, "rounds": sorted(voted_rounds[m])}
                )
            else:
                silent.append(m)
        result.update({
            "kind": "vote-quorum",
            "height": working,
            "round": busiest,
            "observer": observer,
            "voted": voted,
            "held_power": held,
            "missing_power": max(vset.quorum_power - held, 0),
            "unreachable": unreachable,
            "silent": silent,
            "misaligned": misaligned,
            "rounds_active": sorted(union["prevote"]),
        })
        return result

    # ------------------------------------------------------------------
    def _network_state(self, nodes) -> dict:
        """Partition/link/mesh state among the subnet's validators."""
        stack = self.system.stack
        topology = stack.topology
        ids = [node.node_id for node in nodes]

        degraded, unreachable = [], []
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if not topology.can_communicate(a, b):
                    unreachable.append([a, b])
                profile = topology.link_profile(a, b)
                if profile is not None and (
                    profile.loss or profile.extra_latency
                ):
                    degraded.append({
                        "link": [a, b],
                        "loss": profile.loss,
                        "extra_latency": profile.extra_latency,
                    })

        mesh = {}
        for node in nodes:
            peers = stack.gossip._peers.get(node.node_id)
            topic_mesh = peers.mesh.get(node.topic) if peers else None
            mesh[node.node_id] = sorted(topic_mesh) if topic_mesh else []

        return {
            "partitions_active": topology.partitions_active,
            "unreachable_pairs": unreachable,
            "degraded_links": degraded,
            "mesh": mesh,
        }


def _quorum_line(quorum: dict) -> str:
    """A stall report's quorum analysis in one line: the power held against
    the power needed and who is missing, a slot engine's leader, or a
    mining race's heads."""
    if quorum["kind"] == "leader-schedule":
        return (
            f"slot engine: expected leader {quorum['expected_leader']}, "
            f"head spread {quorum['head_spread']}"
        )
    if quorum["kind"] == "mining-race":
        heads = quorum["mining_on"]
        return (
            f"mining race: head spread {quorum['head_spread']}, mining on "
            f"{len(heads)} head(s) [{', '.join(heads)}], final height {quorum['final_height']}"
        )
    missing = (
        quorum["silent"] + quorum["unreachable"]
        + [entry["voter"] for entry in quorum["misaligned"]]
    )
    return (
        f"quorum at h{quorum['height']} r{quorum['round']}: "
        f"{quorum['held_power']}/{quorum['needed_power']} power "
        f"(of {quorum['total_power']}), short {quorum['missing_power']}; "
        f"missing: {', '.join(missing) or '-'}"
    )


#: The ``debug_state`` keys a report prints per validator: a BFT engine's
#: position, a slot engine's slot, a miner's race.
_STATE_KEYS = ("height", "round", "step", "slot", "mining_on", "power", "final_height")


def render_stall_report(report: dict) -> str:
    """Human-readable multi-line view of one stall report."""
    out = [
        f"stall report: {report.get('subnet')} "
        f"engine={report.get('engine')} t={report.get('time')}"
    ]
    quorum = report.get("quorum") or {}
    if quorum.get("line"):
        out.append(f"  {quorum['line']}")
    if quorum.get("kind") == "vote-quorum":
        out.append(f"  best view:   {quorum.get('observer')}")
        if quorum.get("voted"):
            out.append(f"  voted:       {', '.join(quorum['voted'])}")
        if quorum.get("unreachable"):
            out.append(
                f"  unreachable: {', '.join(quorum['unreachable'])}"
                " (voted, but the vote never arrived)"
            )
        if quorum.get("silent"):
            out.append(f"  silent:      {', '.join(quorum['silent'])}")
        for entry in quorum.get("misaligned") or []:
            out.append(
                f"  misaligned: {entry['voter']} voted at rounds "
                f"{entry['rounds']}"
            )
        if quorum.get("rounds_active"):
            out.append(f"  rounds with votes: {quorum['rounds_active']}")
    for v in report.get("validators") or []:
        state = v.get("state") or {}
        detail = " ".join(
            f"{k}={state[k]}" for k in _STATE_KEYS if state.get(k) is not None
        )
        out.append(
            f"  {v['node']}: head={v.get('head_height')} "
            f"running={v.get('running')} {detail}"
        )
    network = report.get("network") or {}
    if network.get("unreachable_pairs"):
        pairs = ", ".join(
            f"{a}↮{b}" for a, b in network["unreachable_pairs"]
        )
        out.append(f"  unreachable: {pairs}")
    for link in network.get("degraded_links") or []:
        a, b = link["link"]
        out.append(
            f"  degraded: {a}↔{b} loss={link.get('loss')} "
            f"latency+={link.get('extra_latency')}"
        )
    return "\n".join(out)
