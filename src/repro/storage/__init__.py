"""Versioned state storage.

- :class:`~repro.storage.statetree.StateTree` — versioned key/value state
  with O(1) snapshot/revert and cheap ``fork()`` (structural sharing), used
  by the VM for transactional message application and by the runtime for
  per-block state branching.
- :class:`~repro.storage.backend.MemoryBackend` — the read-only floor a
  state tree bottoms out on: empty by default, and what a snapshot-synced
  node's tree is rebuilt over (``NodeRuntime.adopt_snapshot``).
"""

from repro.storage.backend import MemoryBackend, bucket_of
from repro.storage.statetree import StateTree

__all__ = [
    "StateTree",
    "MemoryBackend",
    "bucket_of",
]
