"""Key pairs and addresses.

A :class:`KeyPair`'s secret is derived deterministically from a seed path so
that simulations are reproducible, but the secret never reaches protocol
code: it handles only :class:`Address` and public key bytes.  Besides
itself, a key pair is held only by this module's key table, which
:func:`repro.crypto.signature.verify` consults in place of public-key math.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

# Public key -> every KeyPair built in this process: the simulation's
# stand-in for the public-key math that lets anyone check a tag against a
# public key (and the address derived from it).  One entry per key, so it
# is bounded by the deployment, not by its traffic.
_KEYS: dict[bytes, "KeyPair"] = {}


class Address:
    """A wallet/actor address derived from a public key or an actor ID.

    Rendered like Filecoin addresses: ``f1…`` for key addresses, ``f0<id>``
    for builtin system actors.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: str) -> None:
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("Address is immutable")

    def __reduce__(self):  # copy/pickle rebuild through __init__, not setattr
        return (Address, (self.raw,))

    @classmethod
    def from_pubkey(cls, pubkey: bytes) -> "Address":
        return cls("f1" + hashlib.sha256(pubkey).hexdigest()[:20])

    @classmethod
    def actor(cls, actor_id: int) -> "Address":
        return cls(f"f0{actor_id}")

    @property
    def is_system_actor(self) -> bool:
        return self.raw.startswith("f0")

    def to_canonical(self):
        return self.raw

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Address) and other.raw == self.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    def __lt__(self, other: "Address") -> bool:
        return self.raw < other.raw

    def __repr__(self) -> str:
        return f"Address({self.raw})"

    def __str__(self) -> str:
        return self.raw


class KeyPair:
    """A deterministic signing key pair (simulated).

    The public key is a hash of the secret; signatures are keyed digests
    (see :mod:`repro.crypto.signature`).  Within the simulation nobody can
    forge a signature without access to this object's private bytes.
    """

    __slots__ = ("_secret", "public", "address", "name")

    def __init__(self, seed: Any, name: str = "") -> None:
        material = f"keypair:{seed!r}".encode("utf-8")
        self._secret = hashlib.sha256(material).digest()
        self.public = hashlib.sha256(b"pub:" + self._secret).digest()
        self.address = Address.from_pubkey(self.public)
        self.name = name or self.address.raw
        _KEYS[self.public] = self

    def secret_for_signing(self) -> bytes:
        """Return the private bytes.  Only :mod:`repro.crypto.signature` and
        :mod:`repro.crypto.threshold` should call this."""
        return self._secret

    def __repr__(self) -> str:
        return f"KeyPair({self.name}, addr={self.address})"


def key_for_public(public: bytes) -> Optional[KeyPair]:
    """The key pair behind *public*, or None for a key no KeyPair holds.
    Only :func:`repro.crypto.signature.verify` calls this (the full-tree
    lint test holds every other module to that)."""
    return _KEYS.get(public)
