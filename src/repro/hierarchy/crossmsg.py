"""Cross-net messages (§IV-A).

A :class:`CrossMsg` moves value (and optionally an actor call) between
addresses in different subnets.  Relative to any subnet on its route it is
*top-down* (destination below), *bottom-up* (destination above, same
prefix) or a *path* message (destination in another branch, travelling
bottom-up to the least common ancestor and top-down from there).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.cid import CID, cached_cid, cid_of
from repro.crypto.encoding import canonical_body, memo
from repro.crypto.keys import Address
from repro.hierarchy.subnet_id import SubnetID


class Direction(enum.Enum):
    """A cross-msg's direction relative to a given subnet."""

    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"
    LOCAL = "local"  # destination is the given subnet itself


def classify(at: SubnetID, destination: SubnetID) -> Direction:
    """How a message for *destination* must leave (or stay in) subnet *at*."""
    if at == destination:
        return Direction.LOCAL
    if at.is_ancestor_of(destination):
        return Direction.TOP_DOWN
    return Direction.BOTTOM_UP


@dataclass(frozen=True, slots=True)
class CrossMsg:
    """One cross-net message.

    ``kind`` distinguishes ordinary transfers/calls (``"user"``) from
    protocol-generated reverts (``"revert"``, §IV-B: a cross-msg that cannot
    be applied triggers a new cross-msg back to the original source) and
    atomic-execution notifications (``"atomic"``, §IV-D).
    """

    from_subnet: SubnetID
    from_addr: Address
    to_subnet: SubnetID
    to_addr: Address
    value: int
    method: str = "send"
    params: Any = None
    kind: str = "user"
    origin_nonce: int = 0  # disambiguates otherwise-identical messages
    _cid: Optional[CID] = memo()  # cached_cid's
    # Re-hashed at every hop (payload CIDs, batch CIDs, registry leaves),
    # so a cross-msg carries its bytes as well: canonical_body's.
    _body: Optional[bytes] = memo()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("cross-msg value cannot be negative")
        if self.from_subnet == self.to_subnet:
            raise ValueError("cross-msg must cross subnets")

    def to_canonical(self):
        params = self.params
        if hasattr(params, "to_canonical"):
            params = params.to_canonical()
        return (
            self.from_subnet.path,
            self.from_addr.raw,
            self.to_subnet.path,
            self.to_addr.raw,
            self.value,
            self.method,
            params,
            self.kind,
            self.origin_nonce,
        )

    @property
    def cid(self) -> CID:
        return cached_cid(self)

    def make_revert(self) -> "CrossMsg":
        """The protocol's failure response: send the funds back (§IV-B).

        A failed revert is terminal — its value accrues to the SCA where it
        failed rather than looping forever.
        """
        return CrossMsg(
            from_subnet=self.to_subnet,
            from_addr=self.to_addr,
            to_subnet=self.from_subnet,
            to_addr=self.from_addr,
            value=self.value,
            method="send",
            params=None,
            kind="revert",
            origin_nonce=self.origin_nonce,
        )


@dataclass(frozen=True, slots=True)
class ApplyTopDown:
    """Block payload entry: apply one parent-committed top-down message.

    Proposed by the cross-msg pool (Fig. 3 left: "These messages are
    proposed inside the next block of the consensus"); executing it calls
    the SCA's ``apply_topdown`` with the parent-assigned nonce.
    """

    message: CrossMsg
    nonce: int
    _cid: Optional[CID] = memo()  # cached_cid's

    def to_canonical(self):
        return ("apply-topdown", canonical_body(self.message), self.nonce)

    @property
    def cid(self) -> CID:
        return cached_cid(self)


@dataclass(frozen=True, slots=True)
class ApplyBottomUp:
    """Block payload entry: apply one resolved bottom-up batch.

    Carries the raw messages fetched via content resolution; the SCA
    verifies them against the queued meta's ``msgsCid`` (Fig. 3 right).
    """

    nonce: int
    messages: tuple
    _cid: Optional[CID] = memo()  # cached_cid's

    def to_canonical(self):
        return (
            "apply-bottomup",
            self.nonce,
            tuple(canonical_body(m) for m in self.messages),
        )

    @property
    def cid(self) -> CID:
        return cached_cid(self)


def batch_cid(messages) -> CID:
    """The ``msgsCid`` of an ordered cross-msg batch (§III-B): hashed over
    the complete batch bytes, joined from the messages' own."""
    return cid_of(tuple(messages))
