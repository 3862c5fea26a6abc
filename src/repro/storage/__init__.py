"""Content-addressed and versioned storage substrate.

- :class:`~repro.storage.blockstore.Blockstore` — CID → object store, the
  backing store for chain data and for the CrossMsgMeta registry the content
  resolution protocol reads (§IV-C).
- :class:`~repro.storage.statetree.StateTree` — versioned key/value state
  with O(1) snapshot/revert and O(1) ``fork()`` (structural sharing), used
  by the VM for transactional message application and by the runtime for
  per-block state branching.
- :class:`~repro.storage.backend.StateBackend` — the read-only floor a
  state tree bottoms out on; :class:`~repro.storage.backend.MemoryBackend`
  is the in-memory default, and an out-of-core implementation can slot in
  without touching the VM/chain/runtime layers.
"""

from repro.storage.backend import MemoryBackend, StateBackend, bucket_of
from repro.storage.blockstore import Blockstore
from repro.storage.statetree import StateTree

__all__ = [
    "Blockstore",
    "StateTree",
    "StateBackend",
    "MemoryBackend",
    "bucket_of",
]
