"""Point-to-point message transport over the simulator."""

from __future__ import annotations

from typing import Any, Callable, Collection, Iterable, Optional

from repro.sim.scheduler import Simulator
from repro.net.topology import Topology


class NetMessage:
    """A delivered network message.

    A copy sent under a *key* (:meth:`Transport.fanout`) also knows when it
    lands, and holds its ``riders``: ``(arrival, src, sent_at, msg_id)`` of
    each later-landing copy of the key that was accounted behind it.
    """

    __slots__ = ("src", "dst", "kind", "payload", "sent_at", "msg_id", "key", "arrival", "riders")

    def __init__(
        self, src: str, dst: str, kind: str, payload: Any, sent_at: float, msg_id: int = 0,
        key: Any = None, arrival: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.msg_id = msg_id
        self.key = key
        self.arrival = arrival
        self.riders: Optional[list] = None


def _link_name(endpoint: str) -> str:
    """Endpoint namespaces (rpc:<peer>) share the peer's physical link:
    partitions, loss and latency overrides keyed by the bare peer id must
    apply to its RPC traffic too."""
    return endpoint[4:] if endpoint.startswith("rpc:") else endpoint


class Transport:
    """Delivers messages between registered peers with simulated latency.

    Each peer registers a single handler ``handler(NetMessage)``.  Message
    delivery respects the topology's latency model, loss rate and active
    partitions.  Loss and partition checks happen at *send* time — a message
    in flight when a partition lands still arrives, matching how real
    networks behave at these time scales.
    """

    def __init__(self, sim: Simulator, topology: Optional[Topology] = None) -> None:
        self.sim = sim
        self.topology = topology or Topology()
        self._handlers: dict[str, Callable[[NetMessage], Any]] = {}
        self._link_of: dict[str, str] = {}  # registered endpoint -> link name
        # Registered endpoint -> key -> the earliest-landing copy of that key
        # still queued for it: the one later copies ride behind.
        self._queued: dict[str, dict[Any, NetMessage]] = {}
        self._next_msg_id = 0
        self._rng = sim.rng("net", "transport")
        # Hot-path metric handles, resolved once (send/deliver run for
        # every simulated packet).
        self._sent = sim.metrics.counter("net.sent")
        self._delivered = sim.metrics.counter("net.delivered")
        self._latency = sim.metrics.histogram("net.latency")
        self._partitioned_drops = sim.metrics.counter("net.partitioned_drops")
        self._lost = sim.metrics.counter("net.lost")
        self._labels: dict[str, str] = {}

    def register(self, peer_id: str, handler: Callable[[NetMessage], Any]) -> None:
        """Attach *handler* for messages addressed to *peer_id*.

        Its return matters for copies sent under a key (:meth:`fanout`):
        true says the peer holds the key on record, anything else that the
        copy was dropped unrecorded.
        """
        if peer_id in self._handlers:
            raise ValueError(f"peer {peer_id} already registered")
        self._handlers[peer_id] = handler
        self._link_of[peer_id] = _link_name(peer_id)
        self._queued[peer_id] = {}

    def unregister(self, peer_id: str) -> None:
        self._handlers.pop(peer_id, None)
        self._link_of.pop(peer_id, None)
        self._queued.pop(peer_id, None)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._handlers

    @property
    def peers(self) -> list[str]:
        return sorted(self._handlers)

    def send(self, src: str, dst: str, kind: str, payload: Any) -> bool:
        """Send a message; returns False if dropped (loss/partition/unknown).

        Delivery happens asynchronously through the simulator queue after a
        sampled latency.
        """
        return self.fanout(src, (dst,), kind, payload)[0] == 1

    def fanout(
        self,
        src: str,
        dsts: Iterable[str],
        kind: str,
        payload: Any,
        settled: Collection[str] = (),
        settled_until: float = 0.0,
        key: Any = None,
    ) -> tuple[int, int]:
        """Send *payload* to each of *dsts*, in order; returns ``(sent, elided)``.

        Every link is modelled alike: partition check, loss draw, latency
        draw, in that order on the one RNG stream, counted in ``net.sent``
        and ``net.latency``.  A copy to a peer in *settled* that lands
        before *settled_until* is one the caller has proved a no-op at its
        receiver: it is accounted, but never becomes a message or an event.

        *key* names what the copies are idempotent under: once a receiver's
        handler has returned true for one copy, every other copy of the key
        landing before *settled_until* is a no-op there.  Which of two
        queued copies lands first is fixed when the second is sent, so a
        keyed copy landing no earlier than one already queued for its
        receiver is accounted the same way and *rides* on that copy until
        :meth:`_deliver` learns whether the key was recorded.
        """
        link_of = self._link_of
        link_src = link_of.get(src) or _link_name(src)
        topology = self.topology
        clean = topology.is_clean
        sample = topology.latency.sample
        rng = self._rng
        now = self.sim.now
        # PR 16's short path onto the heap: EventQueue.push assigns tie/seq
        # exactly as under sim.schedule_at; skipped are its kwargs packing and
        # its past-time check (arrival >= now by construction).
        push = self.sim.queue.push  # lint: disable=SIM001
        deliver = self._deliver
        queued = self._queued
        riding_until = settled_until if key is not None else 0.0
        label = self._labels.get(kind) or self._labels.setdefault(kind, f"net:{kind}")
        first_id = self._next_msg_id
        sent = 0
        elided = []  # latencies of the copies that stay off the queue
        for dst in dsts:
            link_dst = link_of.get(dst)
            if link_dst is None:
                continue
            if clean:
                arrival = now + sample(link_src, link_dst, rng)
            elif not topology.can_communicate(link_src, link_dst):
                self._partitioned_drops.inc()
                continue
            elif topology.is_lost(link_src, link_dst, rng):
                self._lost.inc()
                continue
            else:
                arrival = now + topology.sample_latency(link_src, link_dst, rng)
            if dst in settled and arrival < settled_until:
                elided.append(arrival - now)
            elif arrival < riding_until:
                table = queued[dst]
                ahead = table.get(key)
                if ahead is not None and ahead.arrival <= arrival:
                    rider = (arrival, src, now, first_id + sent)
                    if ahead.riders is None:
                        ahead.riders = [rider]
                    else:
                        ahead.riders.append(rider)
                    elided.append(arrival - now)
                else:  # the first copy on its way, or one that overtakes it
                    message = NetMessage(src, dst, kind, payload, now, first_id + sent, key, arrival)
                    table[key] = message
                    push(arrival, deliver, (message,), None, label)
            else:
                message = NetMessage(src, dst, kind, payload, now, first_id + sent)
                push(arrival, deliver, (message,), None, label)
            sent += 1
        self._next_msg_id = first_id + sent
        self._sent.inc(sent)
        if elided:
            self._latency.observe_many(elided)
        return sent, len(elided)

    def _deliver(self, message: NetMessage) -> None:
        dst = message.dst
        key = message.key
        if key is not None:
            table = self._queued.get(dst)
            if table is not None and table.get(key) is message:
                del table[key]
        handler = self._handlers.get(dst)
        if handler is None:
            recorded = False  # peer left between send and delivery
        else:
            self._delivered.inc()
            self._latency.observe(self.sim.now - message.sent_at)
            recorded = handler(message)
        if message.riders and not recorded:
            # Dropped unrecorded, so its riders are not proven no-ops: each
            # becomes the event it would have been, at the time it drew.
            for arrival, src, sent_at, msg_id in message.riders:
                rider = NetMessage(src, dst, message.kind, message.payload, sent_at, msg_id)
                self.sim.schedule_at(
                    arrival, self._deliver_rider, rider, label=self._labels[message.kind]
                )

    def _deliver_rider(self, message: NetMessage) -> None:
        """A re-queued rider lands; it was counted and observed when sent."""
        handler = self._handlers.get(message.dst)
        if handler is not None:
            handler(message)

    # ------------------------------------------------------------------
    # Fault-injection conveniences (deterministic ordering throughout)
    # ------------------------------------------------------------------
    @staticmethod
    def _peer_group(spec) -> frozenset:
        if isinstance(spec, str):
            return frozenset((spec,))
        return frozenset(spec)

    def partition(self, *groups) -> int:
        """Split the network into *groups* of peer ids; returns a handle.

        Each group is a peer id or an iterable of peer ids.  A single
        group isolates it from everyone else; multiple groups may only
        talk within their own group (unlisted peers form one implicit
        remainder group).  Groups are normalized and sorted before
        installation, so call-site ordering never affects the schedule.
        """
        if not groups:
            raise ValueError("partition needs at least one group")
        return self.topology.partition_groups(
            tuple(self._peer_group(group) for group in groups)
        )

    def heal(self, handle: Optional[int] = None) -> None:
        """Heal one partition (*handle*) — or, with no argument, restore a
        pristine network: every partition healed, every link override
        cleared."""
        if handle is not None:
            self.topology.heal(handle)
            return
        self.topology.heal_all()
        self.topology.clear_links()

    def set_link(
        self,
        a,
        b,
        loss: Optional[float] = None,
        extra_latency: Optional[float] = None,
    ) -> None:
        """Degrade every link between peer groups *a* and *b* (symmetric).

        *a*/*b* are peer ids or iterables of peer ids; all cross pairs are
        updated in sorted order.  ``loss`` stacks independently with the
        topology-wide loss rate; ``extra_latency`` (seconds) adds onto the
        latency model.  Zeroing both removes the override.
        """
        for src in sorted(self._peer_group(a)):
            for dst in sorted(self._peer_group(b)):
                if src == dst:
                    continue
                self.topology.set_link(src, dst, loss=loss, extra_latency=extra_latency)
