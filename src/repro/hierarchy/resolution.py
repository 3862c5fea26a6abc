"""The subnet cross-msg content resolution protocol (§IV-C, Fig. 4).

Bottom-up checkpoints carry only the ``msgsCid`` of each cross-msg batch;
the raw messages travel separately:

- **push**: when a checkpoint is submitted, a subnet validator publishes
  the batch contents on the destination subnet's resolution topic.  Peers
  "may choose to pick them up and cache/store them locally or discard
  them" — the service's ``cache_pushes`` flag (and a configurable drop
  probability) models that choice for the E4 experiment.
- **pull**: a subnet that cannot resolve a CID locally publishes a pull
  request on the *source* subnet's topic; any peer there answers by
  publishing a **resolve** message on the requester's topic, giving "every
  cross-msg pool a new opportunity to store or cache the content".

Batches are served from the SCA's in-state registry (the paper's
"content-addressable key-value store") or from the local cache.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.crypto.cid import CID
from repro.hierarchy.crossmsg import batch_cid
from repro.hierarchy.subnet_id import SubnetID
from repro.net.gossip import GossipNetwork, PubsubEnvelope


def resolution_topic(subnet_id: SubnetID) -> str:
    return f"resolve:{subnet_id.path}"


class ResolutionService:
    """One node's participation in the content resolution protocol."""

    def __init__(
        self,
        sim,
        node_id: str,
        subnet_id: SubnetID,
        gossip: GossipNetwork,
        state_reader: Callable[[str], Optional[tuple]],
        cache_pushes: bool = True,
        push_drop_rng=None,
        push_drop_probability: float = 0.0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.subnet_id = subnet_id
        self.gossip = gossip
        self._read_registry = state_reader  # msgs_cid hex -> tuple | None
        self.cache_pushes = cache_pushes
        self.push_drop_probability = push_drop_probability
        self._push_drop_rng = push_drop_rng
        self._cache: dict[CID, tuple] = {}
        self._waiting: dict[CID, list[Callable[[tuple], None]]] = {}
        gossip.subscribe(node_id, resolution_topic(subnet_id), self._on_message)

    # ------------------------------------------------------------------
    # Local store
    # ------------------------------------------------------------------
    def resolve_local(self, msgs_cid: CID) -> Optional[tuple]:
        """Messages behind *msgs_cid* if locally available, else None."""
        cached = self._cache.get(msgs_cid)
        if cached is not None:
            return cached
        from_state = self._read_registry(msgs_cid.hex())
        if from_state is not None:
            self._cache[msgs_cid] = tuple(from_state)
        return from_state

    def store(self, msgs_cid: CID, messages: tuple) -> bool:
        """Cache a batch after verifying it hashes to its CID."""
        messages = tuple(messages)
        if batch_cid(messages) != msgs_cid:
            self.sim.metrics.counter("resolution.bad_content").inc()
            return False
        self._cache[msgs_cid] = messages
        for callback in self._waiting.pop(msgs_cid, []):
            callback(messages)
        return True

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------
    def push(self, destination: SubnetID, msgs_cid: CID, messages: tuple) -> None:
        """Publish a batch on the destination subnet's topic (Fig. 4)."""
        self.sim.metrics.counter("resolution.push_sent").inc()
        self.gossip.publish(
            self.node_id,
            resolution_topic(destination),
            ("push", msgs_cid, tuple(messages)),
        )

    def request(self, source: SubnetID, msgs_cid: CID,
                on_resolved: Optional[Callable[[tuple], None]] = None) -> None:
        """Pull a batch from its source subnet; *on_resolved* fires when the
        content lands (immediately if already local)."""
        local = self.resolve_local(msgs_cid)
        if local is not None:
            if on_resolved is not None:
                on_resolved(local)
            return
        if on_resolved is not None:
            self._waiting.setdefault(msgs_cid, []).append(on_resolved)
        self.sim.metrics.counter("resolution.pull_sent").inc()
        self.gossip.publish(
            self.node_id,
            resolution_topic(source),
            ("pull", msgs_cid, self.subnet_id.path),
        )

    # ------------------------------------------------------------------
    # Topic handler
    # ------------------------------------------------------------------
    def _on_message(self, envelope: PubsubEnvelope) -> None:
        kind, msgs_cid, payload = envelope.data
        if kind == "push":
            if not self.cache_pushes:
                return
            if self.push_drop_probability and self._push_drop_rng is not None:
                if self._push_drop_rng.random() < self.push_drop_probability:
                    self.sim.metrics.counter("resolution.push_dropped").inc()
                    return
            if self.store(msgs_cid, payload):
                self.sim.metrics.counter("resolution.push_stored").inc()
        elif kind == "pull":
            requester = SubnetID(payload)
            content = self.resolve_local(msgs_cid)
            if content is None:
                self.sim.metrics.counter("resolution.pull_miss").inc()
                return
            self.sim.metrics.counter("resolution.pull_served").inc()
            self.gossip.publish(
                self.node_id,
                resolution_topic(requester),
                ("resolve", msgs_cid, tuple(content)),
            )
        elif kind == "resolve":
            if self.store(msgs_cid, payload):
                self.sim.metrics.counter("resolution.resolved").inc()

    def detach(self) -> None:
        self.gossip.unsubscribe(self.node_id, resolution_topic(self.subnet_id))
