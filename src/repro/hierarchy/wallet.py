"""Client-side wallet: signs and submits messages with nonce pipelining."""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.keys import Address, KeyPair
from repro.vm.message import Message, SignedMessage


class Wallet:
    """A keypair plus per-chain local nonce tracking.

    Sending several messages within one block interval requires assigning
    consecutive nonces before the chain reflects them; the wallet tracks
    the next nonce per subnet locally, synced forward from chain state.
    """

    def __init__(self, keypair: KeyPair) -> None:
        self.keypair = keypair
        self.address = keypair.address
        self._next_nonce: dict[str, int] = {}

    def next_nonce(self, node) -> int:
        chain_nonce = node.vm.nonce_of(self.address)
        local = self._next_nonce.get(node.subnet_id, 0)
        return max(chain_nonce, local)

    def send(
        self,
        node,
        to: Address,
        method: str = "send",
        params: Any = None,
        value: int = 0,
        gas_limit: int = 1_000_000,
    ) -> Optional[SignedMessage]:
        """Sign and submit a message through *node*; returns it, or None if
        the node's mempool rejected it."""
        nonce = self.next_nonce(node)
        message = Message(
            from_addr=self.address,
            to_addr=to,
            value=value,
            method=method,
            params=params,
            nonce=nonce,
            gas_limit=gas_limit,
        )
        signed = SignedMessage.create(message, self.keypair)
        if not node.submit_message(signed):
            return None
        self._next_nonce[node.subnet_id] = nonce + 1
        return signed

    def __repr__(self) -> str:
        return f"Wallet({self.keypair.name}, {self.address})"
