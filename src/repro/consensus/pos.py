"""Stake-weighted proof-of-stake leader lottery.

Like :mod:`repro.consensus.poa` but the slot leader is drawn by a
stake-weighted lottery seeded from (subnet, slot) — a stand-in for the
VRF-based leader election of PoS chains.  Every validator computes the same
lottery locally, so eligibility is verifiable without extra messages.

This is the engine the paper's checkpointing story is most concerned with:
PoS subnets are where long-range attacks apply and where anchoring to the
parent via checkpoints matters (§I, §II).
"""

from __future__ import annotations

import random

from repro.consensus.base import Validator, register_engine
from repro.consensus.slots import SlotLeaderEngine


@register_engine
class ProofOfStakeEngine(SlotLeaderEngine):
    """Slot-based PoS with a deterministic, stake-weighted leader lottery."""

    NAME = "pos"

    def leader_for_slot(self, slot: int) -> Validator:
        """The lottery: every validator derives the same leader for a slot.

        Uses a *fresh* generator seeded from (subnet, slot) — not the cached
        scoped stream — so every node's draw sees identical generator state.
        """
        seed = self.sim.seeds.seed_for("pos-lottery", self.node.subnet_id, slot)
        return self.validators.weighted_choice(random.Random(seed))
