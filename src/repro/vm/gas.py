"""Gas accounting.

Gas makes execution cost explicit and funds subnet miners: "Miners in
subnets are rewarded with fees for the transactions executed in the subnet"
(§II).  The schedule is deliberately simple — flat costs per operation class
— because experiments measure protocol behaviour, not EVM-grade metering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.encoding import canonical_encode


class OutOfGas(Exception):
    """Raised internally when an invocation exhausts its gas limit."""


@dataclass(frozen=True)
class GasSchedule:
    """Cost constants (in gas units)."""

    base_message: int = 100  # flat cost of including any message
    per_param_byte: int = 1  # serialized parameter size
    method_invocation: int = 50  # dispatching into an actor
    state_read: int = 5
    state_write: int = 20
    nested_send: int = 30
    value_transfer: int = 25

    def message_intrinsic(self, params) -> int:
        """Intrinsic cost of a message before any execution."""
        try:
            size = len(canonical_encode(params))
        except TypeError:
            size = 64  # opaque params get a flat estimate
        return self.base_message + self.per_param_byte * size


class GasTracker:
    """Tracks gas consumption against a limit for one top-level message."""

    def __init__(self, limit: int, schedule: GasSchedule) -> None:
        self.limit = limit
        self.schedule = schedule
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

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)
