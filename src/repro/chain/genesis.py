"""Genesis block construction.

Spawning a subnet "instantiates a new independent state with all its
subnet-specific requirements to operate independently … a new mempool
instance, a new instance of the Virtual Machine, as well as any other
additional module required by the consensus" (§III-A).  ``build_genesis``
produces exactly that: a fresh VM with system actors and initial
allocations, plus the height-0 block committing its state root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.keys import Address
from repro.chain.block import BlockHeader, FullBlock, ZERO_CID
from repro.vm.actor import ActorRegistry
from repro.vm.builtin import default_registry
from repro.vm.vm import VM

GENESIS_MINER = Address.actor(1)


@dataclass
class GenesisParams:
    """Everything needed to instantiate a subnet's chain.

    ``allocations`` maps addresses to initial balances (in the subnet these
    come from cross-net fund injections; the rootnet's genesis allocation is
    the network's initial token supply).  ``system_actors`` is a list of
    (address, code, constructor-params, balance) created in order.
    """

    subnet_id: str = "/root"
    allocations: dict = field(default_factory=dict)
    system_actors: list = field(default_factory=list)
    gas_price: int = 0
    timestamp: float = 0.0


def build_genesis(
    params: GenesisParams,
    registry: Optional[ActorRegistry] = None,
) -> tuple:
    """Return ``(genesis_block, vm)`` for a new chain."""
    vm = VM(
        subnet_id=params.subnet_id,
        registry=registry or default_registry(),
        gas_price=params.gas_price,
    )
    for address, code, actor_params, balance in params.system_actors:
        receipt = vm.create_actor(address, code, params=actor_params, balance=balance)
        if not receipt.ok:
            raise RuntimeError(
                f"genesis actor {code} at {address} failed: {receipt.error}"
            )
    for address, balance in sorted(params.allocations.items(), key=lambda kv: kv[0].raw):
        vm.mint(address, balance)

    header = BlockHeader(
        subnet_id=params.subnet_id,
        height=0,
        parent=ZERO_CID,
        state_root=vm.state_root(),
        messages_root=FullBlock.compute_messages_root((), ()),
        timestamp=params.timestamp,
        miner=GENESIS_MINER,
        consensus_data={"genesis": True},
    )
    return FullBlock(header=header), vm
