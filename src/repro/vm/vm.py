"""The VM: transactional message application over a state tree."""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.storage.statetree import StateTree
from repro.vm.actor import Actor, ActorRegistry
from repro.vm.exitcode import ActorError, ExitCode
from repro.vm.gas import METHOD_INVOCATION, GasTracker, OutOfGas, message_intrinsic
from repro.vm.message import Message, Receipt
from repro.vm.runtime import InvocationContext

# The address that receives burned funds' accounting (never spendable).
BURN_ADDRESS = Address.actor(99)
# Implicit sender for system-originated calls (window sealing, cross-msg
# application by consensus).
SYSTEM_ADDRESS = Address.actor(0)

_MAX_CALL_DEPTH = 32


def _malformed(err: Exception, gas_used: int) -> Receipt:
    """A message its actor cannot take (an unknown or ill-typed param) fails
    like an ActorError: escaping, it would stay pooled and halt the chain.
    The error is the type name alone, equal on every Python version."""
    return Receipt(ExitCode.USR_ASSERTION_FAILED, gas_used=gas_used, error=type(err).__name__)


class VM:
    """One subnet's execution environment.

    Holds the state tree, actor registry and token accounting.  The chain
    layer owns one VM per node per subnet and calls :meth:`apply_message`
    for every message in every block, in block order.
    """

    def __init__(
        self,
        subnet_id: str = "/root",
        registry: Optional[ActorRegistry] = None,
        gas_price: int = 0,
    ) -> None:
        self.subnet_id = subnet_id
        self.registry = registry or ActorRegistry()
        if not self.registry.has(Actor.CODE):
            self.registry.register(Actor)
        self.gas_price = gas_price
        self.state = StateTree()
        self.epoch = 0
        self._instances: dict[str, Actor] = {}

    # ------------------------------------------------------------------
    # Token accounting
    # ------------------------------------------------------------------
    def balance_of(self, addr: Address) -> int:
        return self.state.get(f"balance/{addr.raw}", 0)

    def _set_balance(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ActorError(
                ExitCode.SYS_INSUFFICIENT_FUNDS, f"negative balance for {addr}"
            )
        self.state.set(f"balance/{addr.raw}", amount)

    def transfer(self, src: Address, dst: Address, amount: int) -> None:
        """Move *amount* from *src* to *dst*; aborts on insufficient funds."""
        if amount < 0:
            raise ActorError(ExitCode.USR_ILLEGAL_ARGUMENT, "negative transfer")
        if amount == 0 or src == dst:
            return
        balance = self.balance_of(src)
        if balance < amount:
            raise ActorError(
                ExitCode.SYS_INSUFFICIENT_FUNDS,
                f"{src} has {balance}, needs {amount}",
            )
        self._set_balance(src, balance - amount)
        self._set_balance(dst, self.balance_of(dst) + amount)

    def mint(self, to: Address, amount: int) -> None:
        """Create tokens (top-down cross-msg arrival, genesis allocations)."""
        if amount < 0:
            raise ActorError(ExitCode.USR_ILLEGAL_ARGUMENT, "negative mint")
        self._set_balance(to, self.balance_of(to) + amount)
        self.state.set("supply/minted", self.state.get("supply/minted", 0) + amount)

    def burn(self, src: Address, amount: int) -> None:
        """Destroy tokens from *src* (bottom-up cross-msg departure)."""
        self.transfer(src, BURN_ADDRESS, amount)
        self.state.set("supply/burned", self.state.get("supply/burned", 0) + amount)

    @property
    def total_minted(self) -> int:
        return self.state.get("supply/minted", 0)

    @property
    def total_burned(self) -> int:
        return self.state.get("supply/burned", 0)

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def create_actor(
        self,
        addr: Address,
        code: str,
        params: Optional[dict] = None,
        balance: int = 0,
    ) -> Receipt:
        """Instantiate an actor of *code* at *addr* and run its constructor."""
        if self.state.has(f"actorcode/{addr.raw}"):
            raise ActorError(ExitCode.USR_ILLEGAL_STATE, f"actor exists at {addr}")
        self.registry.get(code)  # validate the code exists
        self.state.set(f"actorcode/{addr.raw}", code)
        if balance:
            self.mint(addr, balance)
        return self.apply_implicit(
            SYSTEM_ADDRESS, addr, "constructor", params or {}, value=0
        )

    def actor_code(self, addr: Address) -> Optional[str]:
        return self.state.get(f"actorcode/{addr.raw}")

    def _instance(self, addr: Address) -> Actor:
        """Return (caching) the dispatcher instance for the actor at *addr*.

        Plain accounts (no registered code) get the base Actor, which
        supports bare ``send``.
        """
        code = self.actor_code(addr) or Actor.CODE
        instance = self._instances.get(code)
        if instance is None:
            instance = self.registry.get(code)()
            self._instances[code] = instance
        return instance

    # ------------------------------------------------------------------
    # Nonces
    # ------------------------------------------------------------------
    def nonce_of(self, addr: Address) -> int:
        return self.state.get(f"nonce/{addr.raw}", 0)

    # ------------------------------------------------------------------
    # Message application
    # ------------------------------------------------------------------
    def apply_message(self, message: Message, miner: Optional[Address] = None) -> Receipt:
        """Apply a top-level user message transactionally.

        Checks and bumps the nonce before any charge, checks the balance,
        transfers value, dispatches the method and commits — or reverts
        everything except the nonce bump and gas fee (at most the limit),
        which are kept so failed messages still cost their sender (and cannot
        be replayed).
        """
        intrinsic = message_intrinsic(message.params, message._params_size)
        nonce_key = f"nonce/{message.from_addr.raw}"
        nonce = self.state.get(nonce_key, 0)  # a cold key probes each frozen layer: once
        if message.nonce != nonce:
            return Receipt(
                ExitCode.SYS_SENDER_STATE_INVALID,
                gas_used=min(intrinsic, message.gas_limit),
                error=f"bad nonce {message.nonce}, expected {nonce}",
            )
        self.state.set(nonce_key, nonce + 1)

        gas = GasTracker(message.gas_limit)
        try:
            gas.charge(intrinsic, "intrinsic")
        except OutOfGas:
            gas.used = message.gas_limit
            self._settle_gas(message.from_addr, miner, gas)
            return Receipt(ExitCode.SYS_OUT_OF_GAS, gas_used=gas.used, error="intrinsic gas")

        max_fee = message.gas_limit * self.gas_price
        if self.balance_of(message.from_addr) < message.value + max_fee:
            receipt = Receipt(
                ExitCode.SYS_INSUFFICIENT_FUNDS,
                gas_used=gas.used,
                error="cannot cover value plus max gas fee",
            )
            self._settle_gas(message.from_addr, miner, gas)
            return receipt

        token = self.state.snapshot()
        ctx = InvocationContext(
            vm=self,
            actor_addr=message.to_addr,
            caller=message.from_addr,
            value_received=message.value,
            gas=gas,
            origin=message.from_addr,
        )
        try:
            self.transfer(message.from_addr, message.to_addr, message.value)
            gas.charge(METHOD_INVOCATION, message.method)
            result = self._instance(message.to_addr).dispatch(ctx, message.method, message.params)
            self.state.commit(token)
            receipt = Receipt(
                ExitCode.OK,
                return_value=result,
                gas_used=gas.used,
                events=tuple(ctx.events),
            )
        except ActorError as err:
            self.state.revert(token)
            receipt = Receipt(err.exit_code, gas_used=gas.used, error=err.message)
        except OutOfGas as err:
            self.state.revert(token)
            receipt = Receipt(ExitCode.SYS_OUT_OF_GAS, gas_used=message.gas_limit, error=str(err))
            gas.used = message.gas_limit
        except Exception as err:  # a malformed message: see _malformed
            self.state.revert(token)
            receipt = _malformed(err, gas.used)
        self._settle_gas(message.from_addr, miner, gas)
        return receipt

    def _settle_gas(self, sender: Address, miner: Optional[Address], gas: GasTracker) -> None:
        """Pay the miner fee = gas_used × gas_price, capped by the balance."""
        if miner is None or self.gas_price == 0:
            return
        fee = min(gas.used * self.gas_price, self.balance_of(sender))
        if fee > 0:
            self.transfer(sender, miner, fee)

    def apply_implicit(
        self,
        from_addr: Address,
        to_addr: Address,
        method: str,
        params: Any = None,
        value: int = 0,
        gas_limit: int = 10_000_000,
    ) -> Receipt:
        """Apply a system-originated message: no nonce, no signature, no fee.

        Used for constructors, window sealing and consensus-driven cross-msg
        application (the paper's SCA state changes triggered by committed
        blocks and checkpoints).
        """
        gas = GasTracker(gas_limit)
        token = self.state.snapshot()
        ctx = InvocationContext(
            vm=self,
            actor_addr=to_addr,
            caller=from_addr,
            value_received=value,
            gas=gas,
            origin=from_addr,
        )
        try:
            if value:
                self.transfer(from_addr, to_addr, value)
            result = self._instance(to_addr).dispatch(ctx, method, params)
            self.state.commit(token)
            return Receipt(ExitCode.OK, return_value=result, gas_used=gas.used, events=tuple(ctx.events))
        except ActorError as err:
            self.state.revert(token)
            return Receipt(err.exit_code, gas_used=gas.used, error=err.message)
        except OutOfGas as err:
            self.state.revert(token)
            return Receipt(ExitCode.SYS_OUT_OF_GAS, gas_used=gas_limit, error=str(err))

    def internal_send(
        self,
        parent_ctx: InvocationContext,
        to_addr: Address,
        method: str,
        params: Any,
        value: int,
        caller: Optional[Address] = None,
    ) -> Receipt:
        """Nested actor-to-actor call sharing the parent's gas tracker.

        *caller* overrides the presented caller identity (system actors
        only, enforced by the runtime): value still flows from the calling
        actor's own balance.
        """
        if parent_ctx.depth + 1 > _MAX_CALL_DEPTH:
            raise ActorError(ExitCode.USR_ILLEGAL_STATE, "call depth exceeded")
        token = self.state.snapshot()
        ctx = InvocationContext(
            vm=self,
            actor_addr=to_addr,
            caller=caller if caller is not None else parent_ctx.actor_addr,
            value_received=value,
            gas=parent_ctx.gas,
            origin=parent_ctx.origin,
            depth=parent_ctx.depth + 1,
        )
        try:
            if value:
                self.transfer(parent_ctx.actor_addr, to_addr, value)
            result = self._instance(to_addr).dispatch(ctx, method, params)
            self.state.commit(token)
            parent_ctx.events.extend(ctx.events)
            return Receipt(ExitCode.OK, return_value=result, gas_used=0, events=tuple(ctx.events))
        except ActorError as err:
            self.state.revert(token)
            return Receipt(err.exit_code, gas_used=0, error=err.message)
        except OutOfGas:
            raise  # it aborts the whole top message
        except Exception as err:  # a malformed message: see _malformed
            self.state.revert(token)
            return _malformed(err, 0)

    # ------------------------------------------------------------------
    # Commitments
    # ------------------------------------------------------------------
    def state_root(self) -> CID:
        return self.state.root()

    def branch(self, state: StateTree, epoch: int) -> "VM":
        """A VM configured like this one over a fork of *state*
        (shared history, no copy) at *epoch*."""
        clone = VM(
            subnet_id=self.subnet_id,
            registry=self.registry,
            gas_price=self.gas_price,
        )
        clone.state = state.fork()
        clone.epoch = epoch
        return clone
