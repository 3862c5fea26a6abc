"""Network topology and latency models."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass
class LinkProfile:
    """Per-link degradation installed on top of the base topology.

    ``loss`` combines independently with the topology-wide ``loss_rate``;
    ``extra_latency`` adds onto whatever the latency model samples.
    """

    loss: float = 0.0
    extra_latency: float = 0.0

    @property
    def is_noop(self) -> bool:
        return self.loss == 0.0 and self.extra_latency == 0.0


class LatencyModel:
    """Base class: latency in seconds for a (src, dst) pair."""

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        raise NotImplementedError


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from [base - jitter, base + jitter]."""

    def __init__(self, base: float = 0.05, jitter: float = 0.02) -> None:
        if base - jitter < 0:
            raise ValueError("latency cannot be negative")
        self.base = base
        self.jitter = jitter

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        if self.jitter == 0:
            return self.base
        return rng.uniform(self.base - self.jitter, self.base + self.jitter)


class Topology:
    """Who can talk to whom, at what latency, with what loss.

    Partitions split the network into groups that can only talk among
    themselves (peers outside every group form one implicit extra group);
    they can be installed and healed during a run to test recovery.
    Per-link :class:`LinkProfile` overrides degrade individual links with
    extra loss and latency on top of the topology-wide models.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.latency = latency or UniformLatency()
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        # Each entry is a tuple of disjoint peer groups; a healed entry is
        # the empty tuple (handles stay stable).
        self._partitions: list[tuple[frozenset, ...]] = []
        # Symmetric per-link overrides keyed by sorted (a, b) peer pair.
        # Kept empty unless faults are installed: the send hot path must
        # draw zero extra RNG when no link is degraded.
        self._links: dict[tuple[str, str], LinkProfile] = {}

    @property
    def is_clean(self) -> bool:
        """No partition, no link override, no loss: every send gets through
        and only the latency model draws from the RNG."""
        return not (self.loss_rate or self._links or any(self._partitions))

    @staticmethod
    def _link_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def sample_latency(self, src: str, dst: str, rng: random.Random) -> float:
        latency = self.latency.sample(src, dst, rng)
        if self._links:
            link = self._links.get(self._link_key(src, dst))
            if link is not None:
                latency += link.extra_latency
        return latency

    def is_lost(self, src: str, dst: str, rng: random.Random) -> bool:
        rate = self.loss_rate
        if self._links:
            link = self._links.get(self._link_key(src, dst))
            if link is not None and link.loss:
                # Independent loss processes: survive both to get through.
                rate = 1.0 - (1.0 - rate) * (1.0 - link.loss)
        return rate > 0 and rng.random() < rate

    # ------------------------------------------------------------------
    # Per-link degradation
    # ------------------------------------------------------------------
    def set_link(
        self,
        a: str,
        b: str,
        loss: Optional[float] = None,
        extra_latency: Optional[float] = None,
    ) -> None:
        """Install (or update) a symmetric degradation on link *a*↔*b*.

        ``None`` leaves that field as-is; an all-zero profile is removed so
        undegraded links never cost an RNG draw.
        """
        key = self._link_key(a, b)
        link = self._links.get(key) or LinkProfile()
        if loss is not None:
            if not 0.0 <= loss < 1.0:
                raise ValueError("link loss must be in [0, 1)")
            link.loss = loss
        if extra_latency is not None:
            if extra_latency < 0:
                raise ValueError("extra latency cannot be negative")
            link.extra_latency = extra_latency
        if link.is_noop:
            self._links.pop(key, None)
        else:
            self._links[key] = link

    def clear_links(self) -> None:
        self._links = {}

    def link_profile(self, a: str, b: str) -> Optional[LinkProfile]:
        return self._links.get(self._link_key(a, b))

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
        self._partitions.append(normalized)
        return len(self._partitions) - 1

    def heal(self, handle: int) -> None:
        """Remove a previously installed partition."""
        if 0 <= handle < len(self._partitions):
            self._partitions[handle] = ()

    def heal_all(self) -> None:
        self._partitions = []

    def can_communicate(self, src: str, dst: str) -> bool:
        """False when a partition separates *src* and *dst*."""
        for groups in self._partitions:
            src_group = dst_group = -1
            for index, group in enumerate(groups):
                if src in group:
                    src_group = index
                if dst in group:
                    dst_group = index
            if src_group != dst_group:
                return False
        return True
