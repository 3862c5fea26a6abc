"""Checkpoints and cross-msg metadata (§III-B).

A checkpoint is ``⟨s, proof, prev, children, crossMeta⟩``:

- ``s``: the source subnet;
- ``proof``: CID of the latest subnet chain block being committed;
- ``prev``: CID of the subnet's previous checkpoint;
- ``children``: (subnet id, checkpoint CID) for every child checkpoint
  aggregated in this window;
- ``crossMeta``: the tree of :class:`CrossMsgMeta` — one entry per
  (source, destination) batch of bottom-up cross-msgs, carrying only the
  batch's ``msgsCid``; the raw messages travel via the content resolution
  protocol (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.crypto.cid import CID, cached_cid
from repro.crypto.encoding import canonical_body, memo
from repro.hierarchy.subnet_id import SubnetID

ZERO_CHECKPOINT = CID(b"\x00" * 32)


@dataclass(frozen=True, slots=True)
class CrossMsgMeta:
    """Metadata for one batch of bottom-up cross-msgs (§III-B).

    ``from_subnet`` is the batch's origin, ``to_subnet`` its destination,
    ``nonce`` the origin SCA's batch counter, and ``msgs_cid`` the CID of
    the ordered message list (resolvable via §IV-C).  ``value`` is the
    batch's total token value — carried so relaying subnets and experiments
    can reason about flows; the destination still verifies the resolved
    messages against ``msgs_cid`` before trusting anything.
    """

    from_subnet: SubnetID
    to_subnet: SubnetID
    nonce: int
    msgs_cid: CID
    count: int = 0
    value: int = 0
    _cid: Optional[CID] = memo()  # cached_cid's

    def to_canonical(self):
        return (
            self.from_subnet.path,
            self.to_subnet.path,
            self.nonce,
            self.msgs_cid.to_canonical(),
            self.count,
            self.value,
        )

    @property
    def cid(self) -> CID:
        return cached_cid(self)


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One subnet checkpoint, committed to the parent chain via the SA."""

    source: SubnetID
    proof: CID  # latest subnet block committed by this checkpoint
    prev: CID  # previous checkpoint CID (ZERO_CHECKPOINT for the first)
    children: tuple = field(default_factory=tuple)  # ((subnet_path, ckpt_cid), …)
    cross_meta: tuple = field(default_factory=tuple)  # (CrossMsgMeta, …)
    window: int = 0  # checkpoint period index, for traceability
    epoch: int = 0  # subnet chain height at sealing
    _cid: Optional[CID] = memo()  # cached_cid's

    def to_canonical(self):
        return (
            self.source.path,
            self.proof.to_canonical(),
            self.prev.to_canonical(),
            tuple((path, cid.to_canonical()) for path, cid in self.children),
            tuple(canonical_body(meta) for meta in self.cross_meta),
            self.window,
            self.epoch,
        )

    @property
    def cid(self) -> CID:
        return cached_cid(self)


@dataclass(frozen=True, slots=True)
class SignedCheckpoint:
    """A checkpoint plus the signature bundle required by the SA policy.

    ``signatures`` is whatever the policy demands: a tuple of individual
    :class:`~repro.crypto.signature.Signature` objects (single/multisig
    policies) or one :class:`~repro.crypto.threshold.ThresholdSignature`.
    """

    checkpoint: Checkpoint
    signatures: Any

    def to_canonical(self):
        signatures = self.signatures
        if isinstance(signatures, tuple):
            signatures = tuple(canonical_body(s) for s in signatures)
        elif hasattr(signatures, "to_canonical"):
            signatures = canonical_body(signatures)
        return (canonical_body(self.checkpoint), signatures)


def chain_findings(
    last: Optional[Checkpoint], checkpoint: Checkpoint, signers: Optional[tuple]
) -> Iterator[tuple[str, str]]:
    """What is wrong with *checkpoint* as the successor of *last* (None: it
    is the chain's first), as ``(rule key, description)``: it must chain
    from *last*, advance its window and epoch, and carry a bundle the
    signature policy accepts — *signers* is the policy's verdict on it
    (None: no quorum).  Every reader of a checkpoint chain applies these."""
    last_cid = ZERO_CHECKPOINT if last is None else last.cid
    if checkpoint.prev != last_cid:
        yield "prev", (
            f"prev {checkpoint.prev.hex()[:16]} does not chain from last "
            f"committed {last_cid.hex()[:16]}"
        )
    if last is not None and checkpoint.window <= last.window:
        yield "window", (
            f"window {checkpoint.window} not greater than previous window {last.window}"
        )
    if last is not None and checkpoint.epoch <= last.epoch:
        yield "epoch", (
            f"epoch {checkpoint.epoch} not greater than previous epoch {last.epoch}"
        )
    if signers is None:
        yield "policy", "committed checkpoint does not satisfy the SA signature policy"
