"""The invocation context actors execute against."""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.keys import Address
from repro.vm.exitcode import ActorError, ExitCode
from repro.vm.gas import GasTracker


def actor_key(addr, key: str) -> str:
    """Where the state tree keeps *key* of the actor at *addr* (an
    :class:`Address` or its raw string).  An actor reaches its own state
    through its context; this is the same layout for readers outside the VM."""
    return f"actor/{addr}/{key}"


class InvocationContext:
    """Everything an actor may touch during one method invocation.

    Provides scoped state access (reads/writes land under the actor's own
    namespace in the VM state tree), token operations, nested sends, and
    environment data (caller, epoch, subnet id).
    """

    def __init__(
        self,
        vm,
        actor_addr: Address,
        caller: Address,
        value_received: int,
        gas: GasTracker,
        origin: Address,
        depth: int = 0,
    ) -> None:
        self._vm = vm
        self.actor_addr = actor_addr
        self.caller = caller
        self.value_received = value_received
        self.gas = gas
        self.origin = origin  # the top-level signer of this execution
        self.depth = depth
        self.events: list[tuple[str, Any]] = []

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Current chain epoch (block height) of the executing chain."""
        return self._vm.epoch

    @property
    def subnet_id(self) -> str:
        """The executing subnet's ID string (set by the chain layer)."""
        return self._vm.subnet_id

    # ------------------------------------------------------------------
    # Actor state (scoped)
    # ------------------------------------------------------------------
    def _scoped(self, key: str) -> str:
        # actor_key(), inlined: every state operation of every actor pays this.
        return f"actor/{self.actor_addr.raw}/{key}"

    def state_get(self, key: str, default: Any = None) -> Any:
        self.gas.charge(self._vm.gas_schedule.state_read, "read", key)
        return self._vm.state.get(self._scoped(key), default)

    def state_set(self, key: str, value: Any) -> None:
        self.gas.charge(self._vm.gas_schedule.state_write, "write", key)
        self._vm.state.set(self._scoped(key), value)

    def state_delete(self, key: str) -> None:
        self.gas.charge(self._vm.gas_schedule.state_write, "delete", key)
        self._vm.state.delete(self._scoped(key))

    def state_has(self, key: str) -> bool:
        self.gas.charge(self._vm.gas_schedule.state_read, "has", key)
        return self._vm.state.has(self._scoped(key))

    def state_keys(self, prefix: str = "") -> list:
        self.gas.charge(self._vm.gas_schedule.state_read, "list", prefix)
        scope = self._scoped(prefix)
        strip = len(self._scoped(""))
        return [k[strip:] for k in self._vm.state.keys(scope)]

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------
    def balance_of(self, addr: Address) -> int:
        self.gas.charge(self._vm.gas_schedule.state_read, "balance")
        return self._vm.balance_of(addr)

    @property
    def own_balance(self) -> int:
        return self.balance_of(self.actor_addr)

    def transfer(self, to: Address, amount: int) -> None:
        """Move tokens from this actor's balance to *to*."""
        self.gas.charge(self._vm.gas_schedule.value_transfer, "transfer")
        self._vm.transfer(self.actor_addr, to, amount)

    def burn(self, amount: int) -> None:
        """Destroy tokens from this actor's balance (cross-net fund burns)."""
        self.gas.charge(self._vm.gas_schedule.value_transfer, "burn")
        self._vm.burn(self.actor_addr, amount)

    def mint(self, to: Address, amount: int) -> None:
        """Create tokens out of thin air.  Restricted to system actors —
        the paper's top-down fund minting (§IV-A) is done by the SCA."""
        if not self.actor_addr.is_system_actor:
            raise ActorError(ExitCode.USR_FORBIDDEN, "only system actors may mint")
        self.gas.charge(self._vm.gas_schedule.value_transfer, "mint")
        self._vm.mint(to, amount)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def send(
        self,
        to: Address,
        method: str = "send",
        params: Any = None,
        value: int = 0,
        caller: Optional[Address] = None,
    ):
        """Synchronously invoke another actor; returns its Receipt.

        The nested call runs in its own state snapshot: if it aborts, its
        writes are reverted, and the caller receives the failed receipt and
        decides whether to tolerate or propagate the failure.

        *caller* lets **system actors only** present a different caller
        identity to the callee — the SCA uses it so a delivered cross-net
        call appears to come from its original sender, not from the SCA
        (the funds still flow from this actor's balance).
        """
        if caller is not None and not self.actor_addr.is_system_actor:
            raise ActorError(
                ExitCode.USR_FORBIDDEN, "caller impersonation is system-only"
            )
        self.gas.charge(self._vm.gas_schedule.nested_send, "send", method)
        return self._vm.internal_send(self, to, method, params, value, caller=caller)

    def create_actor(self, addr: Address, code: str, params: Optional[dict] = None) -> None:
        """Deploy a new actor at *addr* (used by the init actor).

        Aborts if an actor already exists there or its constructor fails.
        """
        self.gas.charge(self._vm.gas_schedule.state_write * 2, "create actor")
        receipt = self._vm.create_actor(addr, code, params)
        if not receipt.ok:
            raise ActorError(receipt.exit_code, f"constructor failed: {receipt.error}")

    def abort(self, exit_code: ExitCode, message: str = "") -> None:
        """Abort this invocation (reverting all its writes)."""
        raise ActorError(exit_code, message)

    def require(self, condition: bool, message: str, exit_code: ExitCode = ExitCode.USR_ILLEGAL_ARGUMENT) -> None:
        """Abort unless *condition* holds."""
        if not condition:
            raise ActorError(exit_code, message)

    def emit(self, kind: str, payload: Any = None) -> None:
        """Record an event visible in the receipt (and to chain watchers)."""
        self.events.append((kind, payload))
