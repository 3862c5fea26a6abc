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

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import batch_cid
from repro.hierarchy.subnet_actor import SignaturePolicy, committed_checkpoints
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
        head = self.head
        if head is not None and checkpoint.cid == head.checkpoint.cid:
            return head
        if checkpoint.prev != (head.checkpoint.cid if head else ZERO_CHECKPOINT):
            raise VerificationError(
                "checkpoint does not chain from the last verified checkpoint"
            )
        if head is not None and checkpoint.window <= head.checkpoint.window:
            raise VerificationError("checkpoint window did not advance")
        signers = self.policy.signers(signed, self.validators, self.subnet.path)
        if signers is None:
            raise VerificationError("checkpoint signatures do not satisfy the policy")
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
    for signed_ckpt in committed_checkpoints(parent_node.vm.state, sa_addr):
        try:
            client.observe(signed_ckpt)
        except VerificationError:
            continue  # the light client skips what it cannot verify
    return client
