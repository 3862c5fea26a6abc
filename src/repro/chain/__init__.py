"""Blockchain data structures: blocks, chain store, mempool, validation.

Each subnet instantiates "a new chain with its own state" (§II).  This
package provides the chain machinery every subnet (and the rootnet) runs:
block headers linked by CID, a store that tracks heads and supports forks
and reorgs (needed by the PoW engine), a nonce-ordered message pool, and
stateless block validation rules.
"""

from repro.chain.block import BlockHeader, FullBlock, HeaderOnly, ZERO_CID
from repro.chain.chainstore import ChainStore
from repro.chain.message_pool import MessagePool
from repro.chain.validation import ValidationError, validate_block_shape
from repro.chain.genesis import GenesisParams, build_genesis

__all__ = [
    "BlockHeader",
    "FullBlock",
    "HeaderOnly",
    "ZERO_CID",
    "ChainStore",
    "MessagePool",
    "ValidationError",
    "validate_block_shape",
    "GenesisParams",
    "build_genesis",
]
