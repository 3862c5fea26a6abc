"""Light-client checkpoint verification (§II).

"Subnets periodically commit a proof of their state in their parent
through checkpoints.  These proofs are propagated to the top of the
hierarchy, making them accessible to any member of the system.  They
should include enough information that any client receiving it is able to
verify the correctness of the subnet consensus … With this, users are able
to determine the level of trust over a subnet according to the security
level of the consensus run by the subnet and the proofs provided to light
clients."

:class:`CheckpointLightClient` tracks one subnet **without running its
consensus or syncing its chain**: it consumes the signed checkpoints
committed on the parent chain, verifies the subnet's signature policy and
the ``prev``-linkage of the checkpoint chain, and can then answer:

- what is the latest proven subnet chain commitment (``proof`` CID)?
- was a given batch of cross-msgs really emitted by the subnet
  (inclusion under a verified checkpoint's ``crossMeta``)?
- how much policy weight (signer count) backs the latest checkpoint —
  the client's quantitative "level of trust"?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.crypto.signature import verify
from repro.crypto.threshold import ThresholdSignature
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import batch_cid
from repro.hierarchy.subnet_actor import SignaturePolicy, threshold_scheme_for
from repro.hierarchy.subnet_id import SubnetID


class VerificationError(Exception):
    """A checkpoint failed light-client verification; the reason is the message."""


@dataclass
class VerifiedCheckpoint:
    """A checkpoint the client accepted, with its observed signer weight."""

    checkpoint: Checkpoint
    signers: tuple  # addresses (multisig) or share indices (threshold)


class CheckpointLightClient:
    """Verifies a subnet's checkpoint chain from signed checkpoints alone."""

    def __init__(
        self,
        subnet,
        policy: SignaturePolicy,
        validators: Sequence[Address],
    ) -> None:
        self.subnet = SubnetID(subnet)
        self.policy = policy
        self.validators = list(validators)
        self.chain: list[VerifiedCheckpoint] = []

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    @property
    def _expected_prev(self) -> CID:
        if not self.chain:
            return ZERO_CHECKPOINT
        return self.chain[-1].checkpoint.cid

    def _verify_signatures(self, signed: SignedCheckpoint) -> tuple:
        """Return the verified signer identities, or raise."""
        payload = signed.checkpoint.cid.hex()
        if self.policy.kind == "threshold":
            signature = signed.signatures
            if not isinstance(signature, ThresholdSignature):
                raise VerificationError("threshold policy requires a ThresholdSignature")
            scheme = threshold_scheme_for(f"tss:{self.subnet.path}")
            if scheme is None or signature.group_id != f"tss:{self.subnet.path}":
                raise VerificationError("unknown or mismatched threshold group")
            if not scheme.verify(signature, payload):
                raise VerificationError("threshold signature invalid")
            return tuple(signature.participants)
        signatures = signed.signatures
        if not isinstance(signatures, tuple):
            signatures = (signatures,)
        valid = []
        allowed = set(self.validators)
        for signature in signatures:
            if signature.signer in allowed and verify(signature, payload):
                valid.append(signature.signer)
        needed = 1 if self.policy.kind == "single" else self.policy.threshold
        if len(set(valid)) < needed:
            raise VerificationError(
                f"policy needs {needed} validator signatures, got {len(set(valid))}"
            )
        return tuple(sorted(set(valid), key=lambda a: a.raw))

    def observe(self, signed: SignedCheckpoint) -> VerifiedCheckpoint:
        """Verify and append the next checkpoint of the subnet's chain.

        Raises :class:`VerificationError` on any policy, source or linkage
        violation.  Observing is idempotent for the current head.
        """
        checkpoint = signed.checkpoint
        if checkpoint.source != self.subnet:
            raise VerificationError(
                f"checkpoint for {checkpoint.source}, tracking {self.subnet}"
            )
        if self.chain and checkpoint.cid == self.chain[-1].checkpoint.cid:
            return self.chain[-1]
        if checkpoint.prev != self._expected_prev:
            raise VerificationError(
                "checkpoint does not chain from the last verified checkpoint"
            )
        if self.chain and checkpoint.window <= self.chain[-1].checkpoint.window:
            raise VerificationError("checkpoint window did not advance")
        signers = self._verify_signatures(signed)
        verified = VerifiedCheckpoint(checkpoint=checkpoint, signers=signers)
        self.chain.append(verified)
        return verified

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def head(self) -> Optional[VerifiedCheckpoint]:
        return self.chain[-1] if self.chain else None

    @property
    def latest_proof(self) -> Optional[CID]:
        """The latest proven subnet chain commitment (the ``proof`` CID)."""
        return self.head.checkpoint.proof if self.head else None

    @property
    def trust_weight(self) -> int:
        """Signer count behind the latest checkpoint (§II's 'level of trust')."""
        return len(self.head.signers) if self.head else 0

    def verify_cross_batch(self, messages: tuple) -> bool:
        """Did the subnet genuinely emit this batch of cross-msgs?

        True iff some verified checkpoint carries a meta whose ``msgsCid``
        matches the batch — the check a destination subnet's light view
        performs before trusting pushed content.
        """
        msgs_cid = batch_cid(messages)
        for verified in self.chain:
            for meta in verified.checkpoint.cross_meta:
                if meta.msgs_cid == msgs_cid:
                    return True
        return False

    def child_checkpoint_cids(self) -> dict:
        """Latest verified checkpoint CID per descendant subnet — the
        aggregated `children` tree flowing to the top of the hierarchy."""
        latest: dict[str, CID] = {}
        for verified in self.chain:
            for child_path, ckpt_cid in verified.checkpoint.children:
                latest[child_path] = ckpt_cid
        return latest


def follow_parent_chain(parent_node, sa_addr: Address, subnet, policy, validators) -> CheckpointLightClient:
    """Build a light client from the checkpoints the subnet's SA holds in a
    parent node's state (``ckpt_history/<window>``, every window the SA ever
    accepted) — which survive the parent pruning the blocks that carried them.

    This is what a light client does against the parent: read what is
    committed there, verify everything locally — the SA's acceptance is not
    taken on trust.
    """
    client = CheckpointLightClient(subnet, policy, validators)
    state = parent_node.vm.state
    last_window = state.get(f"actor/{sa_addr.raw}/last_ckpt_window", -1)
    for window in range(last_window + 1):
        signed_ckpt = state.get(f"actor/{sa_addr.raw}/ckpt_history/{window}")
        if signed_ckpt is None:
            continue  # windows may be skipped; the SA only requires them to advance
        try:
            client.observe(signed_ckpt)
        except VerificationError:
            continue  # the light client skips what it cannot verify
    return client
