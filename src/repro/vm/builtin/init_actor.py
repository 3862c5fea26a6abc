"""The init actor: in-protocol actor deployment.

Subnet Actors are "user-defined and untrusted" contracts deployed by peers
(§III-A); deployment must therefore go through consensus like any other
transaction.  The init actor creates new actors at deterministic addresses
derived from (code, label) — which is exactly what makes subnet IDs
"inferred deterministically … from the ID of the SA" discoverable without
a directory service.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.crypto.keys import Address
from repro.vm.actor import Actor, export

INIT_ACTOR_ADDRESS = Address.actor(3)


def derive_actor_address(code: str, label: str) -> Address:
    """The deterministic deployment address for (code, label)."""
    digest = hashlib.sha256(f"deploy:{code}:{label}".encode()).hexdigest()
    return Address("f2" + digest[:20])


class InitActor(Actor):
    """Deploys actors at deterministic addresses."""

    CODE = "init"

    @export
    def deploy(self, ctx, code: str = "", label: str = "", params: Any = None) -> str:
        """Create an actor of *code* at ``derive_actor_address(code, label)``.

        Returns the new actor's address string.  Aborts if the label is
        taken (same code+label ⇒ same address ⇒ collision).
        """
        ctx.require(code, "actor code required")
        ctx.require(label, "deployment label required")
        addr = derive_actor_address(code, label)
        ctx.create_actor(addr, code, params if isinstance(params, dict) else None)
        ctx.state_set(f"deployed/{addr.raw}", {"code": code, "label": label,
                                               "deployer": ctx.caller.raw})
        ctx.emit("init.deployed", (code, label, addr.raw))
        return addr.raw
