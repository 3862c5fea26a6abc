"""`NetworkStack` — the shared transport fabric under every deployment.

One deployment (the hierarchy, a baseline, a consensus test cluster) builds
exactly one stack: a deterministic :class:`~repro.sim.scheduler.Simulator`,
a latency/loss :class:`~repro.net.topology.Topology`, a point-to-point
:class:`~repro.net.transport.Transport` and the gossipsub-style
:class:`~repro.net.gossip.GossipNetwork` over it.  Every node routes its
traffic through this facade instead of assembling a private copy of the
net layer.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.gossip import GossipNetwork, GossipParams
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator

# Sim seconds between two checks of a wait_for predicate.
WAIT_STEP = 0.25


class NetworkStack:
    """Simulator + topology + transport + gossip, composed once."""

    def __init__(
        self,
        seed: int = 1,
        latency: float = 0.02,
        loss_rate: float = 0.0,
        gossip_params: Optional[GossipParams] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.topology = Topology(
            UniformLatency(base=latency, jitter=latency / 2), loss_rate=loss_rate
        )
        self.transport = Transport(self.sim, self.topology)
        self.gossip = GossipNetwork(self.sim, self.transport, gossip_params)

    # ------------------------------------------------------------------
    # Clock helpers shared by every deployment built on the stack
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def run_for(self, seconds: float) -> "NetworkStack":
        self.sim.run_until(self.sim.now + seconds)
        return self

    def run_until(self, time: float) -> "NetworkStack":
        self.sim.run_until(time)
        return self

    def wait_for(self, predicate: Callable[[], bool], timeout: float = 120.0) -> bool:
        """Advance simulated time until *predicate* holds; False on timeout."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run_until(min(self.sim.now + WAIT_STEP, deadline))
        return predicate()

    def shutdown(self) -> None:
        self.gossip.shutdown()
