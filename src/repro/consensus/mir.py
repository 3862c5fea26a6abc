"""Mir-style multi-leader consensus.

MirBFT (Stathakopoulou et al., JSys 2022) raises BFT throughput by letting
multiple leaders propose in parallel, partitioning the mempool into
*buckets* by sender hash so leaders never duplicate each other's messages,
and rotating bucket assignment across epochs to stop a faulty leader from
censoring a bucket forever.

This engine reproduces those three mechanisms on our linear-chain
substrate: every slot of length ``block_time`` has ``L = mir_leaders``
sub-slots; the leader of sub-slot ``k`` proposes at ``slot_start + k·δ``
(δ = block_time / L) on the current head, selecting only messages whose
sender falls in its bucket for the current epoch.  The result is the
characteristic Mir behaviour: ~L× the block rate of single-leader rotation
at the same slot length, with disjoint leader workloads.

The agreement layer is delegated to leader-eligibility checks (as in
:mod:`repro.consensus.poa`) rather than a full PBFT instance per bucket —
the hierarchy experiments measure throughput and cadence, which these
mechanisms determine.  (DESIGN.md records this simplification.)
"""

from __future__ import annotations

import hashlib

from repro.consensus.base import Validator, register_engine
from repro.consensus.slots import SlotLeaderEngine


@register_engine
class MirEngine(SlotLeaderEngine):
    """Multi-leader rotation with hashed sender buckets (slot = sub-slot)."""

    NAME = "mir"
    SLOT_KEY = "sub_slot"

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self.leaders = max(1, min(params.mir_leaders, len(validators)))

    @property
    def slot_time(self) -> float:
        return self.params.block_time / self.leaders

    def leader_for_slot(self, slot: int) -> Validator:
        return self.validators.round_robin(slot)

    def bucket_of(self, sender_raw: str, epoch: int) -> int:
        """The mempool bucket of a sender in *epoch* (rotates per epoch)."""
        digest = hashlib.sha256(sender_raw.encode()).digest()
        base = int.from_bytes(digest[:4], "big") % self.leaders
        return (base + epoch) % self.leaders

    def _epoch(self, slot: int) -> int:
        return slot // (self.leaders * len(self.validators))

    def _consensus_data(self, slot: int) -> dict:
        return {**super()._consensus_data(slot), "bucket": slot % self.leaders}

    def _message_filter(self, slot: int):
        epoch = self._epoch(slot)
        my_bucket = slot % self.leaders

        def in_my_bucket(signed) -> bool:
            return self.bucket_of(signed.message.from_addr.raw, epoch) == my_bucket

        return in_my_bucket

    def debug_state(self) -> dict:
        """Sub-slot rotation state: leader, plus epoch and bucket right now."""
        state = super().debug_state()
        slot = state["slot"]
        state.update({"epoch": self._epoch(slot), "bucket": slot % self.leaders})
        return state
