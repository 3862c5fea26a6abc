"""Stateless block validation rules.

Stateful validation (state root after execution) happens in the node, which
executes the block against its own VM; these checks are the cheap structural
ones every node runs before execution.
"""

from __future__ import annotations

from typing import Optional

from repro.chain.block import FullBlock, ZERO_CID


class ValidationError(Exception):
    """A block failed validation; the reason is the message."""


MAX_PAYLOAD = 10_000  # user messages plus cross-msgs, in any block


def validate_block_shape(
    block: FullBlock,
    parent: Optional[FullBlock],
    expected_subnet: str,
    max_messages: int = MAX_PAYLOAD,
) -> None:
    """Raise :class:`ValidationError` on any structural rule violation;
    *max_messages* is the subnet's block size, in user messages."""
    header = block.header
    if header.subnet_id != expected_subnet:
        raise ValidationError(
            f"block for subnet {header.subnet_id}, expected {expected_subnet}"
        )
    if header.height < 0:
        raise ValidationError("negative height")
    count = len(block.messages)
    if count > max_messages or count + len(block.cross_messages) > MAX_PAYLOAD:
        raise ValidationError("block exceeds message capacity")
    if not block.messages_root_matches():
        raise ValidationError("messages root does not match payload")

    if header.is_genesis:
        if parent is not None:
            raise ValidationError("genesis block cannot have a parent")
        return

    if parent is None:
        raise ValidationError("non-genesis block requires its parent")
    if header.parent == ZERO_CID:
        raise ValidationError("non-genesis block with zero parent")
    if parent.cid != header.parent:
        raise ValidationError("parent CID mismatch")
    if header.height != parent.height + 1:
        raise ValidationError(
            f"height {header.height} does not follow parent height {parent.height}"
        )
    if header.timestamp < parent.header.timestamp:
        raise ValidationError("timestamp earlier than parent")

    for signed in block.messages:
        if not signed.verify_signature():
            raise ValidationError(f"bad signature on message {signed.cid.short()}")
