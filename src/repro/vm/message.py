"""VM messages (transactions) and receipts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crypto.cid import CID, cached_cid
from repro.crypto.encoding import canonical_body, memo
from repro.crypto.keys import Address, KeyPair
from repro.crypto.signature import Signature, sign, verify
from repro.vm.exitcode import ExitCode

DEFAULT_GAS_LIMIT = 1_000_000


@dataclass(frozen=True, slots=True)
class Message:
    """An unsigned transaction.

    ``value`` is in integer token base units (attoFIL-like).  ``method`` is
    the exported actor method name; plain value transfers use method
    ``"send"`` with empty params.
    """

    from_addr: Address
    to_addr: Address
    value: int
    method: str = "send"
    params: Any = None
    nonce: int = 0
    gas_limit: int = DEFAULT_GAS_LIMIT
    _cid: Optional[CID] = memo()  # cached_cid's
    _msg_digest: Optional[bytes] = memo()  # message_digest's

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("message value cannot be negative")
        if self.nonce < 0:
            raise ValueError("nonce cannot be negative")
        if self.gas_limit <= 0:
            raise ValueError("gas limit must be positive")

    def to_canonical(self):
        params = self.params
        if hasattr(params, "to_canonical"):
            params = params.to_canonical()
        return (
            self.from_addr.raw,
            self.to_addr.raw,
            self.value,
            self.method,
            params,
            self.nonce,
            self.gas_limit,
        )

    @property
    def cid(self) -> CID:
        return cached_cid(self)


@dataclass(frozen=True, slots=True)
class SignedMessage:
    """A message plus its sender's signature."""

    message: Message
    signature: Signature
    _cid: Optional[CID] = memo()  # cached_cid's
    _sig_ok: Optional[bool] = memo()  # verify_signature's (True only)

    @classmethod
    def create(cls, message: Message, keypair: KeyPair) -> "SignedMessage":
        if keypair.address != message.from_addr:
            raise ValueError("signer does not match message sender")
        return cls(message=message, signature=sign(keypair, message))

    def verify_signature(self) -> bool:
        # Memoized (True only): the registry is append-only, so a signature
        # that verified once stays valid — but a failing one may verify
        # later (its sign() not yet recorded), so failures are re-checked.
        # Every validator re-verifies each gossiped message; this caches
        # that work per object.
        if self._sig_ok:
            return True
        if self.signature.signer != self.message.from_addr:
            return False
        ok = verify(self.signature, self.message)
        if ok:
            object.__setattr__(self, "_sig_ok", True)
        return ok

    def to_canonical(self):
        return (canonical_body(self.message), canonical_body(self.signature))

    @property
    def cid(self) -> CID:
        return cached_cid(self)


@dataclass(frozen=True, slots=True)
class Receipt:
    """The result of applying one message."""

    exit_code: ExitCode
    return_value: Any = None
    gas_used: int = 0
    error: str = ""
    events: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.exit_code == ExitCode.OK
