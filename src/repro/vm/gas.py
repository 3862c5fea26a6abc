"""Gas accounting.

Gas makes execution cost explicit and funds subnet miners: "Miners in
subnets are rewarded with fees for the transactions executed in the subnet"
(§II).  The schedule is deliberately simple — flat costs per operation class
— because experiments measure protocol behaviour, not EVM-grade metering.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.encoding import canonical_encode


class OutOfGas(Exception):
    """Raised internally when an invocation exhausts its gas limit."""


# Cost constants (in gas units).
BASE_MESSAGE = 100  # flat cost of including any message
PER_PARAM_BYTE = 1  # serialized parameter size
METHOD_INVOCATION = 50  # dispatching into an actor
STATE_READ = 5
STATE_WRITE = 20
NESTED_SEND = 30
VALUE_TRANSFER = 25


def message_intrinsic(params, size: Optional[int] = None) -> int:
    """Intrinsic cost of a message before any execution: a flat base plus
    its params' canonical size, *size* when signing measured it."""
    if size is None:
        try:
            size = len(canonical_encode(params))
        except TypeError:
            size = 64  # opaque params get a flat estimate
    return BASE_MESSAGE + PER_PARAM_BYTE * size


class GasTracker:
    """Tracks gas consumption against a limit for one top-level message."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, amount: int, reason: str = "", subject: Optional[str] = None) -> None:
        """Consume *amount* gas; raises :class:`OutOfGas` past the limit.

        *reason* (a verb) and *subject* (what it acted on) are only put
        together when the limit is hit — state access charges on every
        read and write, and the text is read on none of them.
        """
        if amount < 0:
            raise ValueError("gas charge cannot be negative")
        self.used += amount
        if self.used > self.limit:
            what = (reason or "charge") if subject is None else f"{reason} {subject}"
            raise OutOfGas(f"gas limit {self.limit} exceeded ({what})")
