"""Versioned state storage.

- :class:`~repro.storage.statetree.StateTree` — versioned key/value state
  with O(1) snapshot/revert and cheap ``fork()`` (structural sharing), used
  by the VM for transactional message application and by the runtime for
  per-block state branching.
- :class:`~repro.storage.backend.StateBackend` — the read-only floor a
  state tree bottoms out on; :class:`~repro.storage.backend.MemoryBackend`
  is the in-memory default and what a snapshot-synced node's tree is
  rebuilt over (``NodeRuntime.adopt_snapshot``); an out-of-core
  implementation can slot in without touching the VM/chain/runtime layers.
"""

from repro.storage.backend import MemoryBackend, StateBackend, bucket_of
from repro.storage.statetree import StateTree

__all__ = [
    "StateTree",
    "StateBackend",
    "MemoryBackend",
    "bucket_of",
]
