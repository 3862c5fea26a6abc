"""The subnet-internal message pool (mempool).

Nodes keep "an internal pool to track unverified messages originating in and
targeting the subnet" (§IV-B).  Messages are keyed by (sender, nonce) only: a
duplicate is the message already in its slot.  Selection returns, per sender,
a gap-free nonce run starting at the sender's current chain nonce so every
selected message is applicable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable

from repro.crypto.keys import Address
from repro.vm.message import SignedMessage


class MessagePool:
    """Pending user messages, with nonce-aware block selection."""

    def __init__(self, capacity: int = 10_000) -> None:
        self.capacity = capacity
        self._by_sender: dict[Address, dict[int, SignedMessage]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, signed: SignedMessage) -> bool:
        """Add a verified-signature message; returns False on dup/invalid/full."""
        message = signed.message
        sender_queue = self._by_sender.get(message.from_addr)
        existing = sender_queue.get(message.nonce) if sender_queue else None
        if existing is not None and (existing is signed or existing.cid == signed.cid):
            return False
        if self._count >= self.capacity:
            return False
        if not signed.verify_signature():
            return False
        if existing is not None:
            return False  # first-seen wins; no replace-by-fee in this model
        if sender_queue is None:
            sender_queue = self._by_sender[message.from_addr] = {}
        sender_queue[message.nonce] = signed
        self._count += 1
        return True

    def select(
        self,
        nonce_of: Callable[[Address], int],
        max_messages: int = 500,
    ) -> list:
        """Pick up to *max_messages* applicable messages for a new block.

        For each sender, takes the consecutive nonce run starting at the
        sender's current chain nonce.  Senders are visited in address order
        for determinism; the run is interleaved round-robin so one spammy
        sender cannot monopolise a block.
        """
        runs = []
        for sender in sorted(self._by_sender, key=attrgetter("raw")):  # Address order
            queue = self._by_sender[sender]
            next_nonce = nonce_of(sender)
            run = []
            while next_nonce in queue:
                run.append(queue[next_nonce])
                next_nonce += 1
            if run:
                runs.append(run)
        selected: list[SignedMessage] = []
        index = 0
        while len(selected) < max_messages and runs:
            runs = [run for run in runs if index < len(run)]
            for run in runs:
                if index < len(run) and len(selected) < max_messages:
                    selected.append(run[index])
            index += 1
        return selected

    def remove_included(self, messages: Iterable[SignedMessage]) -> int:
        """Drop messages that a committed block included; returns count."""
        removed = 0
        for signed in messages:
            queue = self._by_sender.get(signed.message.from_addr)
            if not queue:
                continue
            existing = queue.get(signed.message.nonce)
            if existing is not None and (existing is signed or existing.cid == signed.cid):
                del queue[signed.message.nonce]
                removed += 1
            if not queue:
                self._by_sender.pop(signed.message.from_addr, None)
        self._count -= removed
        return removed

    def drop_stale(self, nonce_of: Callable[[Address], int]) -> int:
        """Drop messages whose nonce is below the sender's chain nonce.

        Called after commits/reorgs: such messages can never apply again.
        """
        dropped = 0
        for sender in list(self._by_sender):
            floor = nonce_of(sender)
            queue = self._by_sender[sender]
            for nonce in [n for n in queue if n < floor]:
                del queue[nonce]
                dropped += 1
            if not queue:
                del self._by_sender[sender]
        self._count -= dropped
        return dropped

    def pending_for(self, sender: Address) -> list:
        """All pending messages from *sender*, nonce order."""
        queue = self._by_sender.get(sender, {})
        return [queue[n] for n in sorted(queue)]
