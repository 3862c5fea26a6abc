"""LAY001 golden fixture: downward imports only (must stay silent).

Checked under a fake path inside ``repro/hierarchy/``.
"""
from repro.chain.block import FullBlock
from repro.crypto.cid import cid_of


def head_cid(block: FullBlock):
    from repro.sim.observe import BlockCommitted  # downward, wherever it sits

    return cid_of(block), BlockCommitted
