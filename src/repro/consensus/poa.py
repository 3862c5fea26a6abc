"""Round-robin proof-of-authority.

The simplest engine: slot ``s`` (of length ``block_time``) belongs to
validator ``s mod n``.  The engine subnets default to in our experiments,
because its behaviour is the easiest to reason about in latency
measurements.
"""

from __future__ import annotations

from repro.consensus.base import Validator, register_engine
from repro.consensus.slots import SlotLeaderEngine


@register_engine
class RoundRobinEngine(SlotLeaderEngine):
    """Slot-based round-robin block production."""

    NAME = "poa"

    def leader_for_slot(self, slot: int) -> Validator:
        return self.validators.round_robin(slot)
