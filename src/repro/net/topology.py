"""Network topology: who can talk to whom, at what latency, with what loss.

A :class:`Topology` holds the base link model — one :class:`UniformLatency`
and one loss rate for every link, both fixed at construction — and the
faults installed on top of it during a run: partitions, and per-link
degradations (:class:`LinkProfile`).  Every fault gets a heal handle from
one counter, and every mutation bumps :attr:`Topology.version`.

Nothing here runs per copy.  :meth:`Topology.route` folds the active faults
for one link into ``(blocked, loss, extra_latency)``, and
:class:`~repro.net.transport.Transport` keeps the routes it has asked for
until the version moves, drawing loss and latency inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass
class LinkProfile:
    """A degradation of one or more links.

    ``loss`` combines independently with the topology-wide ``loss_rate``;
    ``extra_latency`` adds onto whatever the latency model samples.
    """

    loss: float = 0.0
    extra_latency: float = 0.0

    @property
    def is_noop(self) -> bool:
        return self.loss == 0.0 and self.extra_latency == 0.0


@dataclass(frozen=True)
class UniformLatency:
    """Latency drawn uniformly from [base - jitter, base + jitter]."""

    base: float = 0.05
    jitter: float = 0.02

    def __post_init__(self) -> None:
        if self.base - self.jitter < 0:
            raise ValueError("latency cannot be negative")


class Topology:
    """Who can talk to whom, at what latency, with what loss.

    Partitions split the network into groups that can only talk among
    themselves (peers outside every group form one implicit extra group);
    they can be installed and healed during a run to test recovery.
    Link degradations add loss and latency on top of the topology-wide
    model; overlapping ones compose (:meth:`link_profile`).
    """

    def __init__(
        self,
        latency: Optional[UniformLatency] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.latency = latency or UniformLatency()
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        #: Bumped by every mutation: a route cached at an older version is stale.
        self.version = 0
        # One counter for every fault, never reset: a stale handle heals nothing.
        self._next_handle = 0
        # handle -> the disjoint peer groups of an active partition.
        self._partitions: dict[int, tuple[frozenset, ...]] = {}
        # handle -> (sorted (a, b) peer pairs it covers, its profile), for the
        # active degradations that are not no-ops.  Kept empty unless faults
        # are installed: the send hot path must draw zero extra RNG when no
        # link is degraded.
        self._links: dict[int, tuple[frozenset, LinkProfile]] = {}

    def _install(self, table: dict, entry) -> int:
        handle = self._next_handle
        self._next_handle += 1
        if entry is not None:
            table[handle] = entry
        self.version += 1
        return handle

    @property
    def is_clean(self) -> bool:
        """No partition, no link degradation, no loss: every send gets
        through and only the latency model draws from the RNG."""
        return not (self.loss_rate or self._links or self._partitions)

    @staticmethod
    def _link_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def route(self, src: str, dst: str) -> tuple[bool, float, float]:
        """``(blocked, loss, extra_latency)`` for a copy from *src* to *dst*.

        A blocked copy is a partitioned drop; any other is lost with
        probability ``loss`` and lands ``extra_latency`` after what the
        latency model samples.
        """
        if not self.can_communicate(src, dst):
            return True, 0.0, 0.0
        rate = self.loss_rate
        link = self.link_profile(src, dst)
        if link is None:
            return False, rate, 0.0
        if link.loss:
            # Independent loss processes: survive both to get through.
            rate = 1.0 - (1.0 - rate) * (1.0 - link.loss)
        return False, rate, link.extra_latency

    # ------------------------------------------------------------------
    # Per-link degradation
    # ------------------------------------------------------------------
    def set_link(
        self,
        a: Iterable[str],
        b: Iterable[str],
        loss: float = 0.0,
        extra_latency: float = 0.0,
    ) -> int:
        """Degrade every link between peer groups *a* and *b* (symmetric)
        until :meth:`heal` is given the returned handle."""
        if not 0.0 <= loss < 1.0:
            raise ValueError("link loss must be in [0, 1)")
        if extra_latency < 0:
            raise ValueError("extra latency cannot be negative")
        profile = LinkProfile(loss, extra_latency)
        pairs = frozenset(self._link_key(x, y) for x in a for y in b if x != y)
        return self._install(
            self._links, None if profile.is_noop or not pairs else (pairs, profile)
        )

    def clear_links(self) -> None:
        self._links = {}
        self.version += 1

    def link_profile(self, a: str, b: str) -> Optional[LinkProfile]:
        """The degradations active on link *a*↔*b*, composed in the order
        they were installed — losses as independent processes, extra
        latencies added — or None when none covers it."""
        key = self._link_key(a, b)
        composed = None
        for pairs, profile in self._links.values():
            if key not in pairs:
                continue
            if composed is None:
                composed = LinkProfile(profile.loss, profile.extra_latency)
                continue
            if profile.loss:
                composed.loss = (
                    1.0 - (1.0 - composed.loss) * (1.0 - profile.loss)
                    if composed.loss else profile.loss
                )
            composed.extra_latency += profile.extra_latency
        return composed

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, peers: set) -> int:
        """Isolate *peers* from the rest of the network; returns a handle."""
        return self.partition_groups((peers,))

    def partition_groups(self, groups) -> int:
        """Split the network into *groups* (iterables of peer ids).

        Peers may only talk within their own group; peers in none of the
        groups form one implicit group of their own.  Groups are stored in
        a canonical sorted order so installation is deterministic no
        matter how callers assembled them.  Returns a heal handle.
        """
        normalized = tuple(
            sorted((frozenset(group) for group in groups), key=sorted)
        )
        for i, group in enumerate(normalized):
            for other in normalized[i + 1:]:
                if group & other:
                    raise ValueError("partition groups must be disjoint")
        return self._install(self._partitions, normalized or None)

    def heal(self, handle: int) -> None:
        """Remove the partition or link degradation *handle* names (a
        no-op once it is healed)."""
        self._partitions.pop(handle, None)
        self._links.pop(handle, None)
        self.version += 1

    def heal_all(self) -> None:
        """Remove every partition (link degradations stay)."""
        self._partitions = {}
        self.version += 1

    @property
    def partitions_active(self) -> int:
        return len(self._partitions)

    def can_communicate(self, src: str, dst: str) -> bool:
        """False when a partition separates *src* and *dst*."""
        for groups in self._partitions.values():
            src_group = dst_group = -1
            for index, group in enumerate(groups):
                if src in group:
                    src_group = index
                if dst in group:
                    dst_group = index
            if src_group != dst_group:
                return False
        return True
