"""Point-to-point message transport over the simulator."""

from __future__ import annotations

from typing import Any, Callable, Container, Iterable, Optional

from repro.sim.scheduler import Simulator
from repro.net.topology import Topology


class NetMessage:
    """A delivered network message.

    A copy sent under a *key* (:meth:`Transport.fanout`) also knows when it
    lands, and holds its ``riders``: ``(arrival, src, msg_id)`` of each
    later-landing copy of the key that was accounted behind it.
    """

    __slots__ = ("src", "dst", "kind", "payload", "msg_id", "key", "arrival", "riders")

    def __init__(
        self, src: str, dst: str, kind: str, payload: Any, msg_id: int = 0,
        key: Any = None, arrival: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.msg_id = msg_id
        self.key = key
        self.arrival = arrival
        self.riders: Optional[list] = None


#: The record of a row whose receiver keeps none: no key is ever on it.
_NO_RECORD: frozenset = frozenset()


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
        # Registered endpoint -> key -> the earliest-landing copy of that key
        # still queued for it: the one later copies ride behind.
        self._queued: dict[str, dict[Any, NetMessage]] = {}
        # Registered endpoint -> its plain row (see row()).
        self._rows: dict[str, tuple] = {}
        self._next_msg_id = 0
        self._rng = sim.rng("net", "transport")
        # Hot-path metric handles, resolved once (send/deliver run for
        # every simulated packet); those paths add to a handle's value
        # directly, sparing an interpreted ``Counter.inc`` call per copy.
        self._sent = sim.metrics.counter("net.sent")
        self._delivered = sim.metrics.counter("net.delivered")
        self._partitioned_drops = sim.metrics.counter("net.partitioned_drops")
        self._lost = sim.metrics.counter("net.lost")
        self._labels: dict[str, str] = {}
        # The link model as of one topology version (see _compile).
        self._model = self._compile()

    def _compile(self) -> tuple:
        """``(version, clean, jittered, low, span, routes)``: what
        :meth:`fanout` needs of the topology, rebuilt when its version
        moves.  ``routes`` maps a source link to ``{destination link:
        Topology.route}``, filled as copies take them."""
        topology = self.topology
        latency = topology.latency
        low = latency.base - latency.jitter
        # random.uniform(a, b) is a + (b - a) * random(): the same draw.
        span = (latency.base + latency.jitter) - low
        return (topology.version, topology.is_clean, latency.jitter != 0, low, span, {})

    def register(self, peer_id: str, handler: Callable[[NetMessage], Any]) -> None:
        """Attach *handler* for messages addressed to *peer_id*.

        Its return matters for copies sent under a key (:meth:`fanout`):
        true says the peer holds the key on record, anything else that the
        copy was dropped unrecorded.
        """
        if peer_id in self._handlers:
            raise ValueError(f"peer {peer_id} already registered")
        self._handlers[peer_id] = handler
        queued = self._queued[peer_id] = {}
        self._rows[peer_id] = (peer_id, _link_name(peer_id), _NO_RECORD, queued)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._handlers

    def row(self, peer_id: str, record: Optional[Container] = None) -> tuple:
        """The row :meth:`fanout` sends to registered *peer_id* over:
        ``(peer_id, link name, record, queued)``, ``queued`` being this
        transport's table of the keyed copies on their way to it.

        *record* is the receiver's own table of the keys it holds on record
        (a gossip peer's ``seen``), read when a copy is sent; without one
        the row is the endpoint's plain row, whose record is empty.
        """
        plain = self._rows[peer_id]
        if record is None:
            return plain
        return (peer_id, plain[1], record, plain[3])

    def send(self, src: str, dst: str, kind: str, payload: Any) -> bool:
        """Send a message; returns False if dropped (loss/partition/unknown).

        Delivery happens asynchronously through the simulator queue after a
        sampled latency.
        """
        row = self._rows.get(dst)
        if row is None:
            return False
        return self.fanout(src, (row,), kind, payload)[0] == 1

    def fanout(
        self,
        src: str,
        rows: Iterable[tuple],
        kind: str,
        payload: Any,
        key: Any = None,
        until: float = 0.0,
    ) -> tuple[int, int]:
        """Send *payload* over each of *rows* (:meth:`row`), in order;
        returns ``(sent, elided)``.

        Every link is modelled alike: partition check, loss draw (when the
        link's loss rate is above zero), latency draw (when the model has
        jitter), in that order on the one RNG stream, counted in
        ``net.sent``.  Then each copy is decided in the same pass.

        *key* names what the copies are idempotent under, and *until* how
        long a receiver's record of it is sure to last; a send without a
        key leaves *until* at 0.  A copy landing before *until* is:

        - *settled* if its row's record holds the key: the receiver will
          drop it as a no-op, so it is counted among the *elided* but never
          becomes a message or an event;
        - a *rider* if it lands no earlier than a copy of the key already
          queued for its receiver: which of the two lands first is fixed
          when the second is sent, so it is accounted the same way and
          rides on that copy until :meth:`_deliver` learns whether the key
          was recorded;
        - otherwise the first copy on its way (or one that overtakes it),
          kept in its row's ``queued`` table for later copies to ride on.

        Any other copy is a plain message and event.
        """
        plain = self._rows.get(src)
        link_src = plain[1] if plain else _link_name(src)
        topology = self.topology
        model = self._model
        if model[0] != topology.version:
            model = self._model = self._compile()
        _version, clean, jittered, low, span, routes = model
        if not clean:
            routes = routes.get(link_src) or routes.setdefault(link_src, {})
        draw = self._rng.random
        now = self.sim.now
        # PR 16's short path onto the heap: EventQueue.push assigns tie/seq
        # exactly as under sim.schedule_at; skipped are its kwargs packing and
        # its past-time check (arrival >= now by construction).  SIM001's one
        # allowed finding (tests/lint/rules.py, keyed by this line's text).
        push = self.sim.queue.push
        deliver = self._deliver
        label = self._labels.get(kind) or self._labels.setdefault(kind, f"net:{kind}")
        first_id = self._next_msg_id
        sent = 0
        elided = 0  # copies that stay off the queue
        for dst, link_dst, record, table in rows:
            if clean:
                arrival = now + (low + span * draw() if jittered else low)
            else:
                route = routes.get(link_dst)
                if route is None:
                    route = routes[link_dst] = topology.route(link_src, link_dst)
                blocked, loss, extra = route
                if blocked:
                    self._partitioned_drops.value += 1
                    continue
                if loss > 0 and draw() < loss:
                    self._lost.value += 1
                    continue
                # extra is 0.0 on an undegraded link, which adds exactly nothing.
                arrival = now + ((low + span * draw() if jittered else low) + extra)
            if key in record and arrival < until:
                elided += 1
            elif arrival < until:
                ahead = table.get(key)
                if ahead is not None and ahead.arrival <= arrival:
                    rider = (arrival, src, first_id + sent)
                    if ahead.riders is None:
                        ahead.riders = [rider]
                    else:
                        ahead.riders.append(rider)
                    elided += 1
                else:  # the first copy on its way, or one that overtakes it
                    message = NetMessage(src, dst, kind, payload, first_id + sent, key, arrival)
                    table[key] = message
                    push(arrival, deliver, (message,), None, label)
            else:
                message = NetMessage(src, dst, kind, payload, first_id + sent)
                push(arrival, deliver, (message,), None, label)
            sent += 1
        self._next_msg_id = first_id + sent
        self._sent.value += sent
        return sent, elided

    def _deliver(self, message: NetMessage) -> None:
        dst = message.dst
        key = message.key
        if key is not None:
            table = self._queued[dst]
            if table.get(key) is message:
                del table[key]
        self._delivered.value += 1
        recorded = self._handlers[dst](message)
        if message.riders and not recorded:
            # Dropped unrecorded, so its riders are not proven no-ops: each
            # becomes the event it would have been, at the time it drew.
            for arrival, src, msg_id in message.riders:
                rider = NetMessage(src, dst, message.kind, message.payload, msg_id)
                self.sim.schedule_at(
                    arrival, self._deliver_rider, rider, label=self._labels[message.kind]
                )

    def _deliver_rider(self, message: NetMessage) -> None:
        """A re-queued rider lands; it was counted when sent."""
        self._handlers[message.dst](message)

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
        """Heal one partition or link degradation (*handle*) — or, with no
        argument, restore a pristine network: every partition healed, every
        link degradation cleared."""
        if handle is not None:
            self.topology.heal(handle)
            return
        self.topology.heal_all()
        self.topology.clear_links()

    def set_link(self, a, b, loss: float = 0.0, extra_latency: float = 0.0) -> int:
        """Degrade every link between peer groups *a* and *b* (symmetric);
        returns the handle :meth:`heal` takes to undo exactly this.

        *a*/*b* are peer ids or iterables of peer ids.  ``loss`` stacks
        independently with the topology-wide loss rate and with any other
        degradation of the same link; ``extra_latency`` (seconds) adds onto
        the latency model and onto theirs.
        """
        return self.topology.set_link(
            self._peer_group(a), self._peer_group(b), loss, extra_latency
        )
