"""Gossipsub-style pubsub.

The paper uses one gossipsub topic per subnet as the chain transport
(§III-A) and the content resolution protocol publishes push/pull/resolve
messages on subnet topics (§IV-C).  This module implements the mesh-based
core of gossipsub [Vyzovitis et al. 2020]:

- per-topic *mesh*: each subscriber keeps ``D`` mesh links over which full
  messages are eagerly forwarded;
- deduplication by message id (a hash of publisher + sequence number);
- lazy gossip: on a heartbeat, peers advertise recently-seen message ids
  (IHAVE) to a random sample of non-mesh subscribers, which request missing
  messages (IWANT) — this is what heals losses and partitions;
- deterministic mesh construction from the simulation seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.scheduler import Simulator
from repro.net.rpc import RpcChannel
from repro.net.transport import NetMessage, Transport

#: Ids one heartbeat advertises per peer: its newest, across all topics.
ADVERTISED = 50


@dataclass
class GossipParams:
    """Tunables mirroring gossipsub's D/Dlazy/heartbeat/history."""

    degree: int = 4  # mesh degree D
    lazy_degree: int = 3  # gossip fanout for IHAVE
    heartbeat_interval: float = 1.0
    history_length: int = 120  # heartbeats a message id stays advertisable


@dataclass(frozen=True, slots=True)
class PubsubEnvelope:
    """What subscribers receive: topic, data, original publisher, msg id."""

    topic: str
    data: Any
    publisher: str
    msg_id: str
    published_at: float


class _PeerState:
    """Per-peer pubsub state."""

    def __init__(self, peer_id: str) -> None:
        self.peer_id = peer_id
        self.topics: dict[str, Callable[[PubsubEnvelope], None]] = {}
        self.mesh: dict[str, set[str]] = {}
        # Per topic: the transport row of each mesh neighbour, sorted by id,
        # its ``seen`` as the row's record (Transport.row); built by
        # _rebuild_mesh, the only place mesh sets change.
        self.mesh_links: dict[str, tuple] = {}
        # Per topic: the sorted peers a heartbeat samples its IHAVE targets
        # from; dropped by every rebuild (members change only with one).
        self.ihave_candidates: dict[str, list] = {}
        # msg id -> topic: what dedups, and what an IWANT is answered from.
        self.seen: dict[str, str] = {}  # never rebound: neighbours hold it
        # Ids in the order they were recorded, and [heartbeat_no, ids
        # recorded during it] runs that drive expiry.
        self.seen_order: deque = deque()
        self.seen_runs: deque = deque()
        # The envelopes of the newest ADVERTISED ids of seen_order, which
        # is all IHAVE advertises: payloads leave the peer long before
        # their ids do.
        self.recent: deque = deque(maxlen=ADVERTISED)
        self.seq = 0


class GossipNetwork:
    """A shared pubsub fabric over a :class:`Transport`.

    One instance serves every topic in the simulation; subnets simply use
    topic names derived from their subnet ID.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Optional[Transport] = None,
        params: Optional[GossipParams] = None,
    ) -> None:
        self.sim = sim
        self.transport = transport or Transport(sim)
        self.params = params or GossipParams()
        # Peers never leave the fabric (a stopped node unsubscribes its
        # topics), so a peer keeps its dedup history and its sequence
        # numbers for the whole run.
        self._peers: dict[str, _PeerState] = {}
        self._peer_order: Optional[tuple] = None  # sorted ids, for the heartbeat
        self._topic_members: dict[str, set[str]] = {}
        self._rng = sim.rng("net", "gossip")
        # Hot-path metric handles, resolved once (publish/deliver run for
        # every gossiped message); _accept adds to a handle's value
        # directly, sparing an interpreted ``Counter.inc`` call per copy.
        self._published = sim.metrics.counter("gossip.published")
        self._delivered = sim.metrics.counter("gossip.delivered")
        self._elided = sim.metrics.counter("gossip.duplicates_elided")
        self._heartbeat_no = 0
        # How long a record made at or after publication surely lasts.
        self._lifetime = (self.params.history_length - 1) * self.params.heartbeat_interval
        self._rpc: Optional[RpcChannel] = None
        self._stop_heartbeat = sim.every(
            self.params.heartbeat_interval, self._heartbeat, label="gossip:heartbeat"
        )

    @property
    def rpc(self) -> RpcChannel:
        """Shared request/response channel over the same transport.

        Lazy so pure-pubsub fabrics pay nothing; peers use it for direct
        exchanges (e.g. block-range sync) that gossip's bounded IHAVE
        history cannot serve.
        """
        if self._rpc is None:
            self._rpc = RpcChannel(self.sim, self.transport)
        return self._rpc

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: str) -> None:
        """Register a peer on the fabric (idempotent)."""
        if peer_id in self._peers:
            return
        self._peers[peer_id] = _PeerState(peer_id)
        self._peer_order = None
        self.transport.register(peer_id, self._on_transport_message)

    def subscribe(
        self, peer_id: str, topic: str, handler: Callable[[PubsubEnvelope], None]
    ) -> None:
        """Subscribe *peer_id* to *topic*; *handler* gets every new message."""
        self.add_peer(peer_id)
        state = self._peers[peer_id]
        state.topics[topic] = handler
        members = self._topic_members.setdefault(topic, set())
        members.add(peer_id)
        self._rebuild_mesh(topic)

    def unsubscribe(self, peer_id: str, topic: str) -> None:
        state = self._peers.get(peer_id)
        if state is None:
            return
        state.topics.pop(topic, None)
        # _rebuild_mesh only resets mesh entries for remaining members;
        # clear the departing peer's own view so it stops relaying.
        state.mesh.pop(topic, None)
        state.mesh_links.pop(topic, None)
        state.ihave_candidates.pop(topic, None)
        members = self._topic_members.get(topic)
        if members:
            members.discard(peer_id)
            self._rebuild_mesh(topic)

    def _rebuild_mesh(self, topic: str) -> None:
        """Recompute the topic mesh deterministically.

        Every member links to ``degree`` neighbours chosen by seeded shuffle;
        links are symmetric.  Rebuilt on churn, which is infrequent in our
        workloads, so the simplicity beats incremental GRAFT/PRUNE.
        """
        for peer in self._peers.values():
            peer.ihave_candidates.pop(topic, None)
        members = sorted(self._topic_members.get(topic, set()))
        for member in members:
            self._peers[member].mesh[topic] = set()
            self._peers[member].mesh_links[topic] = ()
        if len(members) <= 1:
            return
        rng = self.sim.seeds.rng("gossip-mesh", topic, len(members))
        degree = min(self.params.degree, len(members) - 1)
        for member in members:
            others = [m for m in members if m != member]
            rng.shuffle(others)
            for neighbour in others[:degree]:
                self._peers[member].mesh[topic].add(neighbour)
                self._peers[neighbour].mesh[topic].add(member)
        row = self.transport.row
        for member in members:
            state = self._peers[member]
            state.mesh_links[topic] = tuple(
                row(n, self._peers[n].seen) for n in sorted(state.mesh[topic])
            )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, topic: str, data: Any) -> str:
        """Publish *data* on *topic* from *peer_id*; returns the message id.

        Publishing does not require being subscribed (gossipsub fanout): the
        message is sent to mesh members of the topic.
        """
        self.add_peer(peer_id)
        state = self._peers[peer_id]
        msg_id = f"{peer_id}:{state.seq}"
        state.seq += 1
        envelope = PubsubEnvelope(
            topic=topic,
            data=data,
            publisher=peer_id,
            msg_id=msg_id,
            published_at=self.sim.now,
        )
        self._published.inc()
        self._accept(state, envelope)
        # If the publisher is not in the topic, seed the flood at a few members.
        if topic not in state.topics:
            members = sorted(self._topic_members.get(topic, set()))
            if members:
                rng = self._rng
                fanout = members if len(members) <= self.params.degree else rng.sample(
                    members, self.params.degree
                )
                row = self.transport.row
                self.transport.fanout(peer_id, [row(m) for m in fanout], "gossip:pub", envelope)
        return msg_id

    def _accept(self, state: _PeerState, envelope: PubsubEnvelope) -> bool:
        """Record a message at a peer, deliver it and forward it over its mesh.

        Returns whether the peer now holds the id on record — what the
        transport needs to know about the copies that rode behind this one.
        """
        msg_id = envelope.msg_id
        if msg_id in state.seen:
            return True
        topic = envelope.topic
        handler = state.topics.get(topic)
        if handler is None:
            # Not subscribed — a stopped peer catching an in-flight
            # delivery, or a bare publisher (whose flood publish() seeds
            # explicitly).  Recording the message as seen here would make
            # IHAVE repair skip it forever once the peer (re)subscribes,
            # so drop it unrecorded.
            return False
        state.seen[msg_id] = topic
        state.seen_order.append(msg_id)
        state.recent.append(envelope)
        runs = state.seen_runs
        if runs and runs[-1][0] == self._heartbeat_no:
            runs[-1][1] += 1
        else:
            runs.append([self._heartbeat_no, 1])
        self._delivered.value += 1
        handler(envelope)
        # A neighbour whose ``seen`` holds this id will drop the copy on its
        # first check, and a record made at or after publication outlives
        # history_length - 1 further heartbeats: until then the copy is a
        # proven no-op, which the transport accounts without scheduling.
        _sent, elided = self.transport.fanout(
            state.peer_id, state.mesh_links[topic], "gossip:pub", envelope,
            msg_id, envelope.published_at + self._lifetime,
        )
        self._elided.value += elided
        return True

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    def _on_transport_message(self, message: NetMessage) -> Optional[bool]:
        state = self._peers[message.dst]
        if message.kind == "gossip:pub":
            return self._accept(state, message.payload)
        elif message.kind == "gossip:ihave":
            # The wire carries ids; the envelopes ride along because every
            # peer holds the same immutable object and the transport models
            # no bytes, so the IWANT can hand them back to their advertiser.
            topic, envelopes = message.payload
            seen = state.seen
            missing = [e for e in envelopes if e.msg_id not in seen]
            if missing and topic in state.topics:
                self.transport.send(message.dst, message.src, "gossip:iwant", missing)
        elif message.kind == "gossip:iwant":
            # Built from an IHAVE this peer sent: answered iff the id is
            # still in its history, as if the payload had been kept there.
            seen = state.seen
            for envelope in message.payload:
                if envelope.msg_id in seen:
                    self.transport.send(message.dst, message.src, "gossip:pub", envelope)

    # ------------------------------------------------------------------
    # Heartbeat (lazy gossip)
    # ------------------------------------------------------------------
    def _heartbeat(self) -> None:
        self._heartbeat_no += 1
        horizon = self._heartbeat_no - self.params.history_length
        if self._peer_order is None:
            self._peer_order = tuple(sorted(self._peers))
        for peer_id in self._peer_order:
            state = self._peers[peer_id]
            # Expire old history.
            runs = state.seen_runs
            while runs and runs[0][0] < horizon:
                for _ in range(runs.popleft()[1]):
                    state.seen.pop(state.seen_order.popleft(), None)
            # ... and the payloads of expired ids with them.
            recent = state.recent
            while len(recent) > len(state.seen_order):
                recent.popleft()
            # Advertise recent ids per topic to non-mesh members.
            recent_by_topic: dict[str, list[PubsubEnvelope]] = {}
            for envelope in state.recent:
                recent_by_topic.setdefault(envelope.topic, []).append(envelope)
            for topic, envelopes in recent_by_topic.items():
                candidates = state.ihave_candidates.get(topic)
                if candidates is None:
                    candidates = state.ihave_candidates[topic] = self._ihave_candidates(
                        state, topic
                    )
                if not candidates:
                    continue
                sample_size = min(self.params.lazy_degree, len(candidates))
                for target in self._rng.sample(candidates, sample_size):
                    self.transport.send(peer_id, target, "gossip:ihave", (topic, envelopes))

    def _ihave_candidates(self, state: _PeerState, topic: str) -> list:
        members = self._topic_members.get(topic, set())
        candidates = sorted(members - state.mesh.get(topic, set()) - {state.peer_id})
        if not candidates:
            # Small topics are fully meshed; lazy gossip must still reach
            # mesh peers, or partition recovery has no path to re-advertise
            # history.
            candidates = sorted(members - {state.peer_id})
        return candidates

    def shutdown(self) -> None:
        """Stop the heartbeat (ends the simulation cleanly)."""
        self._stop_heartbeat()
