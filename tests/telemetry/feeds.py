"""Hand-feed the observation stream the way the protocol would.

The synthetic telemetry tests drive a bare simulator: these helpers say
"this happened" through ``sim.observe`` exactly as ``runtime/``,
``consensus/`` and ``hierarchy/`` do, so a plane under test receives its
records through the same entry point as in a real run.
"""

from types import SimpleNamespace

from repro.sim.observe import BlockCommitted


def stub_node(subnet_id="/root", node_id="n0", **attrs):
    return SimpleNamespace(subnet_id=subnet_id, node_id=node_id, **attrs)


def commit(sim, node, events, block=None):
    """*node* (a stub, or ``(subnet_id, node_id)``) committed *block*."""
    if isinstance(node, tuple):
        node = stub_node(*node)
    sim.observe(BlockCommitted, node, block, tuple(events))
