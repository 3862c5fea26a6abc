"""Simulated P2P networking.

Substitutes libp2p: the paper's transport layer is a gossipsub topic per
subnet ("a new attack-resilient pubsub topic that peers use as the transport
layer", §III-A).  Here:

- :class:`~repro.net.topology.Topology` models link latency (uniform, plus
  per-link degradations), loss and partitions;
- :class:`~repro.net.transport.Transport` delivers point-to-point messages
  through the simulator's event queue;
- :class:`~repro.net.gossip.GossipNetwork` implements mesh-based pubsub with
  per-topic meshes, message deduplication and lazy IHAVE/IWANT recovery;
- :class:`~repro.net.rpc.RpcChannel` is a request/response convenience used
  by the content resolution protocol.
"""

from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport, NetMessage
from repro.net.gossip import GossipNetwork, GossipParams
from repro.net.rpc import RpcChannel

__all__ = [
    "Topology",
    "UniformLatency",
    "Transport",
    "NetMessage",
    "GossipNetwork",
    "GossipParams",
    "RpcChannel",
]
