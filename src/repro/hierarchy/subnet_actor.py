"""The Subnet Actor (SA).

"To spawn a new subnet, peers need to deploy a new Subnet Actor that
implements the core logic for the new subnet.  The contract specifies the
consensus protocol to be run by the subnet and the set of policies to be
enforced for new members, leaving members, checkpointing, killing the
subnet, etc." (§III-A).

One SA lives in the *parent* chain per child subnet.  It is user-deployed
and untrusted — the SCA enforces the economics — but it owns membership
and the checkpoint signature policy:

- ``join``/``leave``: miners stake and unstake; the SA forwards collateral
  to/from the SCA, which flips the subnet active/inactive around
  ``minCollateral`` (§III-B, §III-C);
- ``submit_checkpoint``: verifies the policy-required signatures (single,
  k-multisig, or k-of-n threshold) before relaying the checkpoint to the
  SCA (§III-B);
- ``submit_fraud_proof``: validates equivocation evidence — two conflicting
  policy-valid checkpoints chaining from the same ``prev`` — and asks the
  SCA to slash (§III-B);
- ``vote_kill``: unanimous validator vote kills the subnet (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.crypto.keys import Address, KeyPair
from repro.crypto.multisig import valid_signers
from repro.crypto.signature import Signature, sign
from repro.crypto.threshold import ThresholdScheme, ThresholdSignature
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint
from repro.hierarchy.gateway import SCA_ADDRESS
from repro.hierarchy.subnet_id import SubnetID
from repro.vm.actor import Actor, export
from repro.vm.exitcode import ExitCode
from repro.vm.runtime import actor_key

# Stand-in for distributed key generation: threshold schemes dealt per
# subnet, addressable by group id.  A real deployment runs DKG among subnet
# validators; the experiments need only the verification semantics.
_THRESHOLD_SCHEMES: dict[str, ThresholdScheme] = {}


def register_threshold_scheme(scheme: ThresholdScheme) -> None:
    _THRESHOLD_SCHEMES[scheme.group_id] = scheme


def _group_id(subnet_path) -> str:
    """The id a subnet's threshold group is dealt and looked up under."""
    return f"tss:{subnet_path}"


@dataclass(frozen=True)
class SignaturePolicy:
    """The SA's checkpoint signature policy (§III-B).

    ``kind`` is ``"single"`` (any one validator), ``"multisig"`` (at least
    ``threshold`` distinct validator signatures) or ``"threshold"``
    (a combined k-of-n threshold signature for the subnet's group).

    Whatever depends on the kind is a method here; :meth:`signers` is the
    one verification the SA, a light client and the auditors all run.
    """

    kind: str = "multisig"
    threshold: int = 1

    def __post_init__(self):
        if self.kind not in ("single", "multisig", "threshold"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.threshold < 1:
            raise ValueError("policy threshold must be >= 1")

    def to_canonical(self):
        return (self.kind, self.threshold)

    @property
    def quorum(self) -> int:
        """How many distinct validators must contribute."""
        return 1 if self.kind == "single" else self.threshold

    @property
    def grouped(self) -> bool:
        """Validators sign as one dealt group, not each under their own key."""
        return self.kind == "threshold"

    @staticmethod
    def _group(subnet_path) -> Optional[ThresholdScheme]:
        return _THRESHOLD_SCHEMES.get(_group_id(subnet_path))

    def deal(self, subnet_path: str, participants: int, seed: int) -> None:
        """Deal the subnet's threshold group, if the policy has one."""
        if self.grouped:
            register_threshold_scheme(
                ThresholdScheme(_group_id(subnet_path), self.threshold, participants, seed)
            )

    def sign(self, keypair: KeyPair, share_index: int, subnet_path, payload: Any):
        """One validator's contribution over *payload*: its own signature,
        or the partial of its 1-based group share (None: no group dealt)."""
        if not self.grouped:
            return sign(keypair, payload)
        scheme = self._group(subnet_path)
        if scheme is None:
            return None
        return ThresholdScheme.partial_sign(scheme.share_for(share_index), payload)

    def bundle(self, contributions, subnet_path, payload: Any):
        """What ``SignedCheckpoint.signatures`` carries for *contributions*
        (in collection order), or None below quorum."""
        contributions = list(contributions)
        if len(contributions) < self.quorum:
            return None
        if not self.grouped:
            return tuple(sorted(contributions, key=lambda s: s.signer))
        scheme = self._group(subnet_path)
        if scheme is None:
            return None
        try:
            return scheme.combine(contributions, payload)
        except ValueError:
            return None

    def signers(
        self, signed: SignedCheckpoint, validators: Sequence[Address], subnet_path
    ) -> Optional[tuple]:
        """Who validly signed *signed* — sorted validator addresses, or the
        share indices behind a threshold signature — or None when that does
        not satisfy the policy.  Every authorised signature is verified;
        signatures by anyone else are ignored, not fatal."""
        payload = signed.checkpoint.cid.hex()
        signatures = signed.signatures
        if self.grouped:
            scheme = self._group(subnet_path)
            if (
                scheme is None
                or not isinstance(signatures, ThresholdSignature)
                or not scheme.verify(signatures, payload)
            ):
                return None
            return tuple(signatures.participants)
        if not isinstance(signatures, tuple):
            signatures = (signatures,)
        if not all(isinstance(signature, Signature) for signature in signatures):
            return None
        valid = valid_signers(signatures, payload, validators)
        return tuple(sorted(valid)) if len(valid) >= self.quorum else None


# Reading an SA's books from outside the VM (a parent node's ``vm.state``).
def last_committed_window(state, sa_addr) -> int:
    """The newest window the SA at *sa_addr* accepted (-1: none yet)."""
    return state.get(actor_key(sa_addr, "last_ckpt_window"), -1)


def committed_checkpoints(state, sa_addr, after: int = -1) -> Iterator[SignedCheckpoint]:
    """The signed checkpoints the SA accepted for windows past *after*, in
    window order (the SA only requires windows to advance, so some are
    skipped); they outlive the parent blocks that carried them."""
    for window in range(after + 1, last_committed_window(state, sa_addr) + 1):
        signed = state.get(actor_key(sa_addr, f"ckpt_history/{window}"))
        if signed is not None:
            yield signed


def last_committed_checkpoint(state, sa_addr) -> Optional[Checkpoint]:
    """The subnet's newest checkpoint as the SA holds it."""
    window = last_committed_window(state, sa_addr)
    signed = state.get(actor_key(sa_addr, f"ckpt_history/{window}"))
    return None if signed is None else signed.checkpoint


def registered_validators(state, sa_addr) -> dict:
    """The SA's validator registry: raw address -> stake."""
    return state.get(actor_key(sa_addr, "validators"), {})


def policy_signers(state, sa_addr, signed: SignedCheckpoint) -> Optional[tuple]:
    """:meth:`SignaturePolicy.signers` of *signed* under the policy and
    registry the SA holds now — the SA's own check, re-run by a reader."""
    policy = state.get(actor_key(sa_addr, "policy"))
    return policy.signers(
        signed,
        [Address(a) for a in registered_validators(state, sa_addr)],
        state.get(actor_key(sa_addr, "subnet_path")),
    )


class SubnetActor(Actor):
    """Per-subnet governance contract, deployed in the parent chain."""

    CODE = "subnet-actor"

    # ==================================================================
    # Construction
    # ==================================================================
    @export
    def constructor(
        self,
        ctx,
        subnet_path: str = "",
        consensus: str = "poa",
        checkpoint_period: int = 10,
        activation_collateral: int = 100,
        policy: SignaturePolicy = None,
        min_validators: int = 1,
        permissioned: bool = False,
        allowlist: tuple = (),
        max_validators: int = 0,
        min_join_stake: int = 0,
        min_remaining_validators: int = 0,
    ) -> None:
        child_id = SubnetID(subnet_path)
        ctx.require(not child_id.is_root, "cannot govern the rootnet")
        ctx.require(checkpoint_period > 0, "checkpoint_period must be positive")
        ctx.require(activation_collateral > 0, "activation_collateral must be positive")
        ctx.require(min_validators >= 1, "min_validators must be >= 1")
        ctx.state_set("subnet_path", subnet_path)
        ctx.state_set("consensus", consensus)
        ctx.state_set("checkpoint_period", checkpoint_period)
        ctx.state_set("activation_collateral", activation_collateral)
        ctx.state_set("policy", policy or SignaturePolicy())
        ctx.state_set("min_validators", min_validators)
        ctx.state_set("status", "instantiated")  # → active → killed
        ctx.state_set("validators", {})  # addr -> stake
        ctx.state_set("kill_votes", ())
        ctx.state_set("last_ckpt_window", -1)
        # Membership policies (§III-A: "the set of policies to be enforced
        # for new members, leaving members, …").
        ctx.require(max_validators >= 0, "max_validators cannot be negative")
        ctx.require(min_join_stake >= 0, "min_join_stake cannot be negative")
        ctx.state_set("permissioned", bool(permissioned))
        ctx.state_set("allowlist", tuple(str(a) for a in allowlist))
        ctx.state_set("max_validators", max_validators)
        ctx.state_set("min_join_stake", min_join_stake)
        ctx.state_set("min_remaining_validators", min_remaining_validators)

    # ==================================================================
    # Membership (§III-A, §III-C)
    # ==================================================================
    @export
    def join(self, ctx) -> str:
        """Stake the attached value and join the validator set.

        Once total stake reaches ``activation_collateral`` and the validator
        count reaches ``min_validators``, the SA registers the subnet with
        the SCA, forwarding the collateral.  Returns the SA status.
        """
        ctx.require(ctx.value_received > 0, "joining requires stake")
        status = ctx.state_get("status")
        ctx.require(status != "killed", "subnet is killed",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        # Membership policy checks (§III-A).
        if ctx.state_get("permissioned", False):
            ctx.require(
                ctx.caller.raw in ctx.state_get("allowlist", ()),
                "subnet is permissioned; caller not on the allowlist",
                exit_code=ExitCode.USR_FORBIDDEN,
            )
        min_join = ctx.state_get("min_join_stake", 0)
        ctx.require(
            ctx.value_received >= min_join,
            f"join stake {ctx.value_received} below policy minimum {min_join}",
            exit_code=ExitCode.USR_INSUFFICIENT_FUNDS,
        )
        validators = dict(ctx.state_get("validators"))
        cap = ctx.state_get("max_validators", 0)
        if cap and ctx.caller.raw not in validators:
            ctx.require(
                len(validators) < cap,
                f"validator set is full ({cap})",
                exit_code=ExitCode.USR_FORBIDDEN,
            )
        validators[ctx.caller.raw] = validators.get(ctx.caller.raw, 0) + ctx.value_received
        ctx.state_set("validators", validators)
        total = sum(validators.values())

        if status == "instantiated":
            if (
                total >= ctx.state_get("activation_collateral")
                and len(validators) >= ctx.state_get("min_validators")
            ):
                receipt = ctx.send(
                    SCA_ADDRESS,
                    method="register",
                    params={
                        "subnet_path": ctx.state_get("subnet_path"),
                        "checkpoint_period": ctx.state_get("checkpoint_period"),
                    },
                    value=total,
                )
                ctx.require(
                    receipt.ok,
                    f"SCA registration failed: {receipt.error}",
                    exit_code=ExitCode.USR_ILLEGAL_STATE,
                )
                ctx.state_set("status", "active")
                ctx.emit("sa.activated", ctx.state_get("subnet_path"))
        else:
            # Already registered: forward the new stake as extra collateral.
            receipt = ctx.send(
                SCA_ADDRESS,
                method="add_collateral",
                params={"subnet_path": ctx.state_get("subnet_path")},
                value=ctx.value_received,
            )
            ctx.require(receipt.ok, f"collateral top-up failed: {receipt.error}",
                        exit_code=ExitCode.USR_ILLEGAL_STATE)
        return ctx.state_get("status")

    @export
    def leave(self, ctx) -> int:
        """Withdraw the caller's stake (§III-C).

        The SA asks the SCA to release the collateral back to the miner; if
        that leaves the subnet under ``minCollateral`` the SCA marks it
        inactive.  Returns the released amount.
        """
        validators = dict(ctx.state_get("validators"))
        stake = validators.get(ctx.caller.raw, 0)
        ctx.require(stake > 0, "caller is not a validator",
                    exit_code=ExitCode.USR_FORBIDDEN)
        floor = ctx.state_get("min_remaining_validators", 0)
        ctx.require(
            len(validators) - 1 >= floor,
            f"leave refused: policy keeps at least {floor} validators",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        del validators[ctx.caller.raw]
        ctx.state_set("validators", validators)
        if ctx.state_get("status") == "active":
            receipt = ctx.send(
                SCA_ADDRESS,
                method="release_collateral",
                params={
                    "subnet_path": ctx.state_get("subnet_path"),
                    "to_addr": ctx.caller.raw,
                    "amount": stake,
                },
            )
            ctx.require(receipt.ok, f"release failed: {receipt.error}",
                        exit_code=ExitCode.USR_ILLEGAL_STATE)
        else:
            # Stake still held by the SA (never forwarded): refund directly.
            ctx.transfer(ctx.caller, stake)
        ctx.emit("sa.left", ctx.caller.raw)
        return stake

    @export
    def vote_kill(self, ctx) -> str:
        """Vote to kill the subnet; unanimity among validators executes it.

        On execution the SCA returns all remaining collateral to this SA,
        which refunds validators pro-rata (§III-C).  Returns the status.
        """
        validators = ctx.state_get("validators")
        ctx.require(ctx.caller.raw in validators, "caller is not a validator",
                    exit_code=ExitCode.USR_FORBIDDEN)
        ctx.require(ctx.state_get("status") == "active", "subnet not active",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        votes = set(ctx.state_get("kill_votes"))
        votes.add(ctx.caller.raw)
        ctx.state_set("kill_votes", tuple(sorted(votes)))
        if votes < set(validators):
            return "pending"
        receipt = ctx.send(
            SCA_ADDRESS,
            method="kill_subnet",
            params={"subnet_path": ctx.state_get("subnet_path")},
        )
        ctx.require(receipt.ok, f"kill failed: {receipt.error}",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        returned = receipt.return_value or 0
        total_stake = sum(validators.values())
        for addr, stake in sorted(validators.items()):
            share = returned * stake // total_stake if total_stake else 0
            if share:
                ctx.transfer(Address(addr), share)
        ctx.state_set("status", "killed")
        ctx.state_set("validators", {})
        ctx.emit("sa.killed", ctx.state_get("subnet_path"))
        return "killed"

    # ==================================================================
    # Checkpoints (§III-B)
    # ==================================================================
    def _policy_met(self, ctx, signed: SignedCheckpoint) -> bool:
        """Check the checkpoint's signatures against the SA policy."""
        policy: SignaturePolicy = ctx.state_get("policy")
        validators = [Address(a) for a in ctx.state_get("validators")]
        # Read (and charged) only when the policy names a group by it.
        subnet_path = ctx.state_get("subnet_path") if policy.grouped else None
        return policy.signers(signed, validators, subnet_path) is not None

    @export
    def submit_checkpoint(self, ctx, signed: SignedCheckpoint = None) -> None:
        """Validate a signed checkpoint and relay it to the SCA.

        "Checkpoints need to be signed by miners of a child chain and
        committed to the parent chain through their corresponding SA …
        After performing the corresponding checks, this actor triggers a
        message function to the SCA" (§III-B).
        """
        ctx.require(signed is not None, "missing checkpoint")
        checkpoint = signed.checkpoint
        ctx.require(
            checkpoint.source.path == ctx.state_get("subnet_path"),
            "checkpoint for a different subnet",
        )
        ctx.require(ctx.state_get("status") == "active", "subnet not active",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        ctx.require(
            checkpoint.window > ctx.state_get("last_ckpt_window"),
            f"window {checkpoint.window} already checkpointed",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        ctx.require(
            self._policy_met(ctx, signed),
            "signature policy not satisfied",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        receipt = ctx.send(
            SCA_ADDRESS,
            method="commit_child_checkpoint",
            params={"checkpoint": checkpoint},
        )
        ctx.require(receipt.ok, f"SCA rejected checkpoint: {receipt.error}",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        ctx.state_set("last_ckpt_window", checkpoint.window)
        ctx.state_set(f"ckpt_history/{checkpoint.window}", signed)
        ctx.emit("sa.checkpoint", (checkpoint.window, checkpoint.cid.hex()))

    # ==================================================================
    # Fraud proofs & slashing (§III-B)
    # ==================================================================
    @export
    def submit_fraud_proof(
        self, ctx, first: SignedCheckpoint = None, second: SignedCheckpoint = None,
        slash_amount: int = 0,
    ) -> int:
        """Slash on equivocation: two *different* policy-valid checkpoints
        chaining from the same ``prev``.

        "Checkpoints for a subnet can be verified at any point using the
        state of the subnet chain which can then be used to generate
        equivocation proofs (or so-called fraud proofs) which, in turn, can
        be used for penalizing misbehaving entities" (§III-B).
        Returns the slashed amount.
        """
        ctx.require(first is not None and second is not None, "need two checkpoints")
        ca, cb = first.checkpoint, second.checkpoint
        subnet_path = ctx.state_get("subnet_path")
        ctx.require(
            ca.source.path == subnet_path and cb.source.path == subnet_path,
            "checkpoints are not for this subnet",
        )
        ctx.require(ca.cid != cb.cid, "checkpoints are identical — no fraud")
        ctx.require(
            ca.prev == cb.prev,
            "checkpoints do not conflict (different prev)",
        )
        ctx.require(
            self._policy_met(ctx, first) and self._policy_met(ctx, second),
            "evidence not policy-signed — cannot attribute fraud",
        )
        amount = slash_amount or ctx.state_get("activation_collateral")
        receipt = ctx.send(
            SCA_ADDRESS,
            method="slash",
            params={"subnet_path": subnet_path, "amount": amount},
        )
        ctx.require(receipt.ok, f"slash failed: {receipt.error}",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        ctx.emit("sa.slashed", (subnet_path, receipt.return_value))
        return receipt.return_value
