"""Atomic execution (§IV-D, Fig. 5): the SCA's half and the client's.

:class:`AtomicExecutionActor` runs the protocol on chain; the SCA inherits
it, so every subnet's SCA can coordinate an execution (as the parties'
closest common ancestor, the LCA) and hold a party's assets and locks.
Its state lives under five keys of the SCA's scope, which no other module
spells: ``atomic/`` (parties, outputs, status), ``atomic_output/``,
``asset/`` (owner, lock), ``locks/`` and ``atomic_result/``.

:class:`AtomicExecutionClient` drives the parties through a running system:

1. *Initialization*: each party locks its input assets in its own subnet's
   SCA, and one party opens the execution in the LCA's SCA.
2. *Off-chain execution*: each party reads the others' locked inputs and
   runs the executor, a pure ``f(inputs) -> {"owners": {asset: owner}}``
   (:func:`swap_executor` is the paper's motivating swap).
3. *Commit*: each party submits the output CID (and the output) to the
   LCA's SCA, which commits when all submissions match, or aborts on an
   ABORT message or mismatching outputs.
4. *Termination*: the LCA notifies every party subnet by cross-net
   message; each applies the output (reassigning locked assets) or
   releases the locks.  Only consensus, or the LCA for a party local to
   it, may apply a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.crypto.cid import CID, cid_of
from repro.crypto.keys import Address
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.subnet_id import SubnetID
from repro.hierarchy.wallet import Wallet
from repro.vm.actor import Actor, export
from repro.vm.exitcode import ExitCode

#: Where every subnet's SCA lives (:mod:`repro.hierarchy.gateway` re-exports it).
SCA_ADDRESS = Address.actor(64)


class AtomicExecutionActor(Actor):
    """The SCA's §IV-D methods.  The SCA supplies ``_self_id(ctx)`` and
    ``_route_outbound(ctx, message)``."""

    # ==================================================================
    # Coordination (Fig. 5) — runs in the LCA
    # ==================================================================
    @export
    def init_atomic(self, ctx, exec_id: str = "", parties: tuple = ()) -> None:
        """Open an atomic execution between *parties*: ((subnet, addr), …)."""
        ctx.require(exec_id, "exec_id required")
        ctx.require(len(parties) >= 2, "atomic execution needs >= 2 parties")
        ctx.require(
            ctx.state_get(f"atomic/{exec_id}") is None,
            f"execution {exec_id} already exists",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        ctx.state_set(
            f"atomic/{exec_id}",
            {
                "parties": tuple((str(s), str(a)) for s, a in parties),
                "outputs": {},
                "status": "pending",
                "opened_epoch": ctx.epoch,
            },
        )
        ctx.emit("atomic.init", exec_id)

    @export
    def submit_output(self, ctx, exec_id: str = "", output_cid: CID = None, output: Any = None) -> str:
        """A party commits its locally computed output state (Fig. 5).

        When every party has submitted and all CIDs match, the execution is
        marked successful and result notifications are routed to each
        party's subnet.  Returns the execution status.
        """
        record = ctx.state_get(f"atomic/{exec_id}")
        ctx.require(record is not None, f"no execution {exec_id}",
                    exit_code=ExitCode.USR_NOT_FOUND)
        ctx.require(
            record["status"] == "pending",
            f"execution is {record['status']}",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        party_key = self._caller_party(ctx, record)
        record = dict(record)
        outputs = dict(record["outputs"])
        outputs[party_key] = output_cid.hex()
        record["outputs"] = outputs
        if output is not None:
            ctx.state_set(f"atomic_output/{exec_id}/{output_cid.hex()}", output)

        if len(outputs) == len(record["parties"]):
            distinct = set(outputs.values())
            if len(distinct) == 1:
                record["status"] = "committed"
                ctx.emit("atomic.committed", exec_id)
                self._notify_atomic(ctx, record, exec_id, "committed", output_cid)
            else:
                record["status"] = "aborted"
                ctx.emit("atomic.mismatch", exec_id)
                self._notify_atomic(ctx, record, exec_id, "aborted", None)
        ctx.state_set(f"atomic/{exec_id}", record)
        return record["status"]

    @export
    def abort_atomic(self, ctx, exec_id: str = "") -> None:
        """Any party may abort a pending execution at any time (Fig. 5)."""
        record = ctx.state_get(f"atomic/{exec_id}")
        ctx.require(record is not None, f"no execution {exec_id}",
                    exit_code=ExitCode.USR_NOT_FOUND)
        ctx.require(
            record["status"] == "pending",
            f"execution is {record['status']}; aborts no longer accepted",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        self._caller_party(ctx, record)
        record = dict(record)
        record["status"] = "aborted"
        ctx.state_set(f"atomic/{exec_id}", record)
        ctx.emit("atomic.aborted", exec_id)
        self._notify_atomic(ctx, record, exec_id, "aborted", None)

    def _caller_party(self, ctx, record: dict) -> str:
        """``"subnet|addr"`` of the caller's party entry; aborts if none."""
        for subnet, addr in record["parties"]:
            if addr == ctx.caller.raw:
                return f"{subnet}|{addr}"
        ctx.abort(ExitCode.USR_FORBIDDEN, "caller is not a party")

    def _notify_atomic(self, ctx, record: dict, exec_id: str, status: str, output_cid) -> None:
        """Route result notifications to every party's subnet (Fig. 5:
        "subnets are notified, through a cross-net message")."""
        self_id = self._self_id(ctx)
        output = None
        if output_cid is not None:
            output = ctx.state_get(f"atomic_output/{exec_id}/{output_cid.hex()}")
        notified = set()
        for subnet, _addr in record["parties"]:
            if subnet in notified:
                continue
            notified.add(subnet)
            destination = SubnetID(subnet)
            if destination == self_id:
                # A party local to the execution subnet: apply directly.
                self._apply_result(ctx, exec_id, status, output)
                continue
            message = CrossMsg(
                from_subnet=self_id,
                from_addr=ctx.actor_addr,
                to_subnet=destination,
                to_addr=SCA_ADDRESS,
                value=0,
                method="apply_atomic_result",
                params={"exec_id": exec_id, "status": status, "output": output},
                kind="atomic",
            )
            # Routed in an isolated self-send so an unroutable party subnet
            # cannot abort the commit/abort decision itself.
            receipt = ctx.send(
                ctx.actor_addr, method="route_internal", params={"message": message}
            )
            if not receipt.ok:
                ctx.emit("atomic.notify_failed", (subnet, receipt.error))

    @export
    def route_internal(self, ctx, message: CrossMsg = None) -> None:
        """Self-call wrapper around the SCA's ``_route_outbound`` so it can
        route protocol-generated messages in an isolated sub-transaction."""
        ctx.require(
            ctx.caller == ctx.actor_addr,
            "route_internal is SCA-internal",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        self._route_outbound(ctx, message)

    # ==================================================================
    # Party side: assets and locks — runs in each party's subnet
    # ==================================================================
    @export
    def create_asset(self, ctx, name: str = "") -> None:
        """Register an asset record owned by the caller in this subnet."""
        ctx.require(name, "asset name required")
        ctx.require(
            ctx.state_get(f"asset/{name}") is None,
            f"asset {name} exists",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        ctx.state_set(f"asset/{name}", {"owner": ctx.caller.raw, "locked_by": None})

    @export
    def lock_atomic(self, ctx, exec_id: str = "", assets: tuple = ()) -> None:
        """Lock the caller's input assets for an atomic execution.

        "each user needs to lock, in their subnet, the state that will be
        used as input … This prevents new messages from affecting the state"
        (§IV-D).
        """
        ctx.require(exec_id, "exec_id required")
        for name in assets:
            asset = ctx.state_get(f"asset/{name}")
            ctx.require(asset is not None, f"no asset {name}",
                        exit_code=ExitCode.USR_NOT_FOUND)
            ctx.require(
                asset["owner"] == ctx.caller.raw,
                f"caller does not own {name}",
                exit_code=ExitCode.USR_FORBIDDEN,
            )
            ctx.require(
                asset["locked_by"] is None,
                f"{name} already locked by {asset['locked_by']}",
                exit_code=ExitCode.USR_ILLEGAL_STATE,
            )
            ctx.state_set(f"asset/{name}", {**asset, "locked_by": exec_id})
        locks = ctx.state_get(f"locks/{exec_id}", ())
        ctx.state_set(f"locks/{exec_id}", tuple(locks) + tuple(assets))
        ctx.emit("atomic.locked", (exec_id, tuple(assets)))

    @export
    def transfer_asset(self, ctx, name: str = "", to_addr: str = "") -> None:
        """Plain (non-atomic) ownership transfer of an unlocked asset."""
        asset = ctx.state_get(f"asset/{name}")
        ctx.require(asset is not None, f"no asset {name}",
                    exit_code=ExitCode.USR_NOT_FOUND)
        ctx.require(asset["owner"] == ctx.caller.raw, "not the owner",
                    exit_code=ExitCode.USR_FORBIDDEN)
        ctx.require(asset["locked_by"] is None, "asset is locked",
                    exit_code=ExitCode.USR_ILLEGAL_STATE)
        ctx.state_set(f"asset/{name}", {**asset, "owner": to_addr})

    @export
    def apply_atomic_result(self, ctx, exec_id: str = "", status: str = "", output: Any = None) -> None:
        """Apply a finished execution's outcome in this subnet (Fig. 5).

        Only consensus delivers a result (a cross-msg from the LCA, applied
        by a system actor) — a user calling this directly is refused.
        """
        ctx.require(
            ctx.caller.is_system_actor or ctx.caller == ctx.actor_addr,
            "atomic results arrive via consensus",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        self._apply_result(ctx, exec_id, status, output)

    def _apply_result(self, ctx, exec_id: str, status: str, output: Any) -> None:
        """On commit: assets locked under *exec_id* take the owners the output
        assigns (entries of the output that concern other subnets are
        ignored here).  On abort: locks are simply released, state unchanged."""
        locked = ctx.state_get(f"locks/{exec_id}", ())
        new_owners = {}
        if status == "committed" and output:
            new_owners = dict(output.get("owners", {}))
        for name in locked:
            asset = ctx.state_get(f"asset/{name}")
            if asset is None:
                continue
            owner = new_owners.get(name, asset["owner"])
            ctx.state_set(f"asset/{name}", {"owner": owner, "locked_by": None})
        ctx.state_delete(f"locks/{exec_id}")
        ctx.state_set(f"atomic_result/{exec_id}", status)
        ctx.emit("atomic.applied", (exec_id, status))


@dataclass
class AtomicParty:
    """One participant: its wallet, home subnet and input assets."""

    wallet: Wallet
    subnet: SubnetID
    assets: tuple  # asset names owned in `subnet`


def swap_executor(inputs: dict) -> dict:
    """The canonical two-party swap: every asset goes to the *other* owner.

    *inputs* maps asset name → {"owner": addr, "subnet": path}.  With
    exactly two distinct owners, each asset's new owner is the counterpart.
    """
    owners = sorted({record["owner"] for record in inputs.values()})
    if len(owners) != 2:
        raise ValueError("swap_executor needs exactly two distinct owners")
    swap = {owners[0]: owners[1], owners[1]: owners[0]}
    return {"owners": {name: swap[record["owner"]] for name, record in inputs.items()}}


class AtomicExecutionClient:
    """Drives an atomic execution among parties through a running system."""

    def __init__(
        self,
        system,
        exec_id: str,
        parties: list,
        executor: Callable[[dict], dict] = swap_executor,
    ) -> None:
        if len(parties) < 2:
            raise ValueError("atomic execution needs at least two parties")
        self.system = system
        self.exec_id = exec_id
        self.parties = list(parties)
        self.executor = executor
        self.lca = self.parties[0].subnet
        for party in self.parties[1:]:
            self.lca = self.lca.common_ancestor(party.subnet)
        self.output: Optional[dict] = None

    # ------------------------------------------------------------------
    # Phase 1: initialization (locks + open at the LCA)
    # ------------------------------------------------------------------
    def initialize(self, timeout: float = 60.0) -> bool:
        """Lock all inputs and open the execution in the LCA's SCA."""
        for party in self.parties:
            party.wallet.send(
                self.system.node(party.subnet),
                SCA_ADDRESS,
                method="lock_atomic",
                params={"exec_id": self.exec_id, "assets": tuple(party.assets)},
            )
        opener = self.parties[0]
        opener.wallet.send(
            self.system.node(self.lca),
            SCA_ADDRESS,
            method="init_atomic",
            params={
                "exec_id": self.exec_id,
                "parties": tuple(
                    (p.subnet.path, p.wallet.address.raw) for p in self.parties
                ),
            },
        )
        return self.system.wait_for(self._all_locked, timeout=timeout)

    def _all_locked(self) -> bool:
        for party in self.parties:
            for asset in party.assets:
                if asset_lock(self.system, party.subnet, asset) != self.exec_id:
                    return False
        return self.system.sca_state(self.lca, f"atomic/{self.exec_id}") is not None

    # ------------------------------------------------------------------
    # Phase 2: off-chain execution
    # ------------------------------------------------------------------
    def gather_inputs(self) -> dict:
        """Collect every party's locked input state.

        Models the off-chain input exchange: "The CID of the input state is
        shared between the different users … and is leveraged by each user
        to request from the other subnets the locked input states" — here
        each party reads the locked records from the counterpart subnet's
        chain (to which it has light-client access).
        """
        inputs = {}
        for party in self.parties:
            for asset in party.assets:
                inputs[asset] = {
                    "owner": asset_owner(self.system, party.subnet, asset),
                    "subnet": party.subnet.path,
                }
        return inputs

    def execute_offchain(self) -> dict:
        """Run the executor locally (every party computes the same output)."""
        self.output = self.executor(self.gather_inputs())
        return self.output

    # ------------------------------------------------------------------
    # Phase 3: commit at the LCA
    # ------------------------------------------------------------------
    def submit_outputs(self, dissenting_outputs: Optional[dict] = None) -> None:
        """Each party submits its computed output to the LCA's SCA.

        *dissenting_outputs* (party index → output) lets tests model a
        faulty party submitting a different result.
        """
        if self.output is None:
            self.execute_offchain()
        for index, party in enumerate(self.parties):
            output = (dissenting_outputs or {}).get(index, self.output)
            party.wallet.send(
                self.system.node(self.lca),
                SCA_ADDRESS,
                method="submit_output",
                params={
                    "exec_id": self.exec_id,
                    "output_cid": cid_of(output),
                    "output": output,
                },
            )

    def abort(self, party_index: int = 0) -> None:
        """Send an ABORT from one party (allowed any time before commit)."""
        party = self.parties[party_index]
        party.wallet.send(
            self.system.node(self.lca),
            SCA_ADDRESS,
            method="abort_atomic",
            params={"exec_id": self.exec_id},
        )

    # ------------------------------------------------------------------
    # Phase 4: termination
    # ------------------------------------------------------------------
    def status_at_lca(self) -> Optional[str]:
        record = self.system.sca_state(self.lca, f"atomic/{self.exec_id}")
        return record["status"] if record else None

    def applied_everywhere(self) -> bool:
        """True once every party subnet has applied the result."""
        return all(
            self.system.sca_state(party.subnet, f"atomic_result/{self.exec_id}") is not None
            for party in self.parties
        )

    def wait_terminated(self, timeout: float = 120.0) -> bool:
        return self.system.wait_for(self.applied_everywhere, timeout=timeout)


def asset_owner(system, subnet, asset_name: str) -> Optional[str]:
    """The current owner (address string) of an asset in *subnet*."""
    return (system.sca_state(subnet, f"asset/{asset_name}") or {}).get("owner")


def asset_lock(system, subnet, asset_name: str) -> Optional[str]:
    """The execution id holding an asset in *subnet* locked (None if free)."""
    return (system.sca_state(subnet, f"asset/{asset_name}") or {}).get("locked_by")
