"""The Subnet Coordinator Actor (SCA).

"The SCA is a system actor that exposes the interface for subnets to
interact with the hierarchical consensus protocol … it also enforces
security assumptions, fund management, and the cryptoeconomics of
hierarchical consensus" (§III-A).

One SCA instance lives in every subnet's VM at :data:`SCA_ADDRESS`.  It
owns:

- the child registry: collateral, active/inactive/killed status, and each
  child's **circulating supply** — the firewall property's ledger (§II);
- top-down queues: nonce-ordered cross-msgs awaiting application by each
  child (§IV-A);
- bottom-up queues: nonce-ordered :class:`~repro.hierarchy.checkpoint.CrossMsgMeta`
  collected from child checkpoints and awaiting resolution + application;
- the outgoing batch for the current checkpoint window and the metas being
  relayed upward, sealed into a :class:`~repro.hierarchy.checkpoint.Checkpoint`
  every ``checkpoint_period`` epochs (§III-B, Fig. 2);
- the content-resolution registry (msgsCid → raw messages, §IV-C);
- the ``save()`` snapshots from which users reclaim funds out of killed
  subnets (§III-C).

Its §IV-D half (atomic execution) is the base class it inherits,
:class:`~repro.hierarchy.atomic.AtomicExecutionActor`.

The SCA's token balance *is* the frozen-funds pool: every top-down
injection leaves its value here, and every bottom-up release pays out of
here.  A compromised child can therefore never extract more than what was
genuinely injected — the firewall bound enforced in
:meth:`SubnetCoordinatorActor.apply_bottomup`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, Optional

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.hierarchy.atomic import SCA_ADDRESS, AtomicExecutionActor
from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import CrossMsg, Direction, batch_cid, classify
from repro.hierarchy.subnet_id import SubnetID
from repro.vm.actor import export
from repro.vm.exitcode import ExitCode
from repro.vm.runtime import actor_key

_SCA_SCOPE = actor_key(SCA_ADDRESS, "")

STATUS_ACTIVE = "active"
STATUS_INACTIVE = "inactive"
STATUS_KILLED = "killed"


def sca_key(key: str) -> str:
    """Where a subnet's state tree keeps the SCA's *key* — for the readers
    outside the VM (the pools and services that watch a node's ``vm.state``)."""
    return _SCA_SCOPE + key


def _child_key(path: str) -> str:
    return f"child/{path}"


def child_key(path: str) -> str:
    """Where a subnet's state tree keeps its SCA's record of child *path*."""
    return sca_key(_child_key(path))


def child_records(state) -> Iterator[tuple[str, dict]]:
    """``(child path, registry record)`` for every child subnet registered
    with the SCA whose chain state *state* is, in path order."""
    prefix = child_key("")
    for key, record in state.items(prefix):
        yield key[len(prefix):], record


@lru_cache(maxsize=1024)
def _parsed_subnet(path: str) -> SubnetID:
    """``SubnetID(path)``, validated once per distinct stored string (an SCA
    reads its own ``self_id`` on nearly every call; SubnetIDs are immutable)."""
    return SubnetID(path)


class SubnetCoordinatorActor(AtomicExecutionActor):
    """The per-subnet hierarchical-consensus system actor."""

    CODE = "sca"

    # ==================================================================
    # Construction
    # ==================================================================
    @export
    def constructor(
        self,
        ctx,
        subnet_path: str = "/root",
        min_collateral: int = 100,
        checkpoint_period: int = 10,
    ) -> None:
        ctx.require(min_collateral > 0, "min_collateral must be positive")
        ctx.require(checkpoint_period > 0, "checkpoint_period must be positive")
        SubnetID(subnet_path)  # validate
        ctx.state_set("self_id", subnet_path)
        ctx.state_set("min_collateral", min_collateral)
        ctx.state_set("checkpoint_period", checkpoint_period)
        ctx.state_set("td_applied_nonce", 0)
        ctx.state_set("bu_nonce", 0)
        ctx.state_set("bu_applied_nonce", 0)
        ctx.state_set("last_ckpt_cid", ZERO_CHECKPOINT.hex())
        ctx.state_set("last_window_sealed", -1)

    # ==================================================================
    # Internal helpers
    # ==================================================================
    def _self_id(self, ctx) -> SubnetID:
        return _parsed_subnet(ctx.state_get("self_id"))

    def _child(self, ctx, path: str, required: bool = True) -> Optional[dict]:
        record = ctx.state_get(_child_key(path))
        if record is None and required:
            ctx.abort(ExitCode.USR_NOT_FOUND, f"unknown child subnet {path}")
        return record

    def _put_child(self, ctx, path: str, record: dict) -> None:
        ctx.state_set(_child_key(path), record)

    def _require_sa(self, ctx, record: dict, path: str) -> None:
        ctx.require(
            ctx.caller.raw == record["sa_addr"],
            f"only the SA of {path} may call this",
            exit_code=ExitCode.USR_FORBIDDEN,
        )

    def _next_hop_child(self, ctx, destination: SubnetID) -> str:
        self_id = self._self_id(ctx)
        return self_id.next_hop_down(destination).path

    # ==================================================================
    # Child registry & collateral (§III-A, §III-B, §III-C)
    # ==================================================================
    @export
    def register(
        self,
        ctx,
        subnet_path: str = "",
        checkpoint_period: int = 10,
    ) -> None:
        """Register a new child subnet.  Caller must be the child's SA;
        the message value is the initial collateral."""
        self_id = self._self_id(ctx)
        child_id = SubnetID(subnet_path)
        ctx.require(
            child_id.parent() == self_id,
            f"{subnet_path} is not a direct child of {self_id}",
        )
        ctx.require(
            ctx.state_get(_child_key(subnet_path)) is None,
            f"{subnet_path} already registered",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        min_collateral = ctx.state_get("min_collateral")
        ctx.require(
            ctx.value_received >= min_collateral,
            f"collateral {ctx.value_received} below minimum {min_collateral}",
            exit_code=ExitCode.USR_INSUFFICIENT_FUNDS,
        )
        self._put_child(
            ctx,
            subnet_path,
            {
                "sa_addr": ctx.caller.raw,
                "collateral": ctx.value_received,
                "status": STATUS_ACTIVE,
                "circulating": 0,
                "injected_total": 0,  # cumulative top-down value into the child
                "released_total": 0,  # cumulative bottom-up value out of it
                "registered_epoch": ctx.epoch,
                "checkpoint_period": checkpoint_period,
                "last_ckpt_cid": ZERO_CHECKPOINT.hex(),
                "slashed_total": 0,
            },
        )
        ctx.emit("subnet.registered", subnet_path)

    @export
    def add_collateral(self, ctx, subnet_path: str = "") -> None:
        """Top up a child's collateral (reactivates if above the minimum)."""
        record = self._child(ctx, subnet_path)
        self._require_sa(ctx, record, subnet_path)
        ctx.require(ctx.value_received > 0, "no collateral attached")
        ctx.require(
            record["status"] != STATUS_KILLED,
            "subnet is killed",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        record = dict(record)
        record["collateral"] += ctx.value_received
        if record["collateral"] >= ctx.state_get("min_collateral"):
            if record["status"] == STATUS_INACTIVE:
                ctx.emit("subnet.reactivated", subnet_path)
            record["status"] = STATUS_ACTIVE
        self._put_child(ctx, subnet_path, record)

    @export
    def release_collateral(
        self, ctx, subnet_path: str = "", to_addr: str = "", amount: int = 0
    ) -> None:
        """Release collateral to a leaving miner (§III-C).  Caller: the SA.

        Dropping below ``min_collateral`` flips the subnet to *inactive*.
        """
        record = self._child(ctx, subnet_path)
        self._require_sa(ctx, record, subnet_path)
        ctx.require(amount > 0, "amount must be positive")
        ctx.require(
            record["collateral"] >= amount,
            "release exceeds held collateral",
            exit_code=ExitCode.USR_INSUFFICIENT_FUNDS,
        )
        record = dict(record)
        record["collateral"] -= amount
        if record["collateral"] < ctx.state_get("min_collateral") and record["status"] == STATUS_ACTIVE:
            record["status"] = STATUS_INACTIVE
            ctx.emit("subnet.inactive", subnet_path)
        self._put_child(ctx, subnet_path, record)
        ctx.transfer(Address(to_addr), amount)

    @export
    def kill_subnet(self, ctx, subnet_path: str = "") -> int:
        """Kill a child subnet and return all remaining collateral to the SA
        (which distributes it to miners).  Caller: the SA (§III-C)."""
        record = self._child(ctx, subnet_path)
        self._require_sa(ctx, record, subnet_path)
        ctx.require(
            record["status"] != STATUS_KILLED,
            "already killed",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        remaining = record["collateral"]
        record = dict(record)
        record["collateral"] = 0
        record["status"] = STATUS_KILLED
        self._put_child(ctx, subnet_path, record)
        if remaining:
            ctx.transfer(ctx.caller, remaining)
        ctx.emit("subnet.killed", subnet_path)
        return remaining

    @export
    def slash(self, ctx, subnet_path: str = "", amount: int = 0) -> int:
        """Burn a child's collateral on a validated fraud proof (§III-B).

        Caller: the child's SA (which validated the equivocation evidence).
        Returns the amount actually slashed.
        """
        record = self._child(ctx, subnet_path)
        self._require_sa(ctx, record, subnet_path)
        ctx.require(amount > 0, "slash amount must be positive")
        slashed = min(amount, record["collateral"])
        record = dict(record)
        record["collateral"] -= slashed
        record["slashed_total"] += slashed
        if record["collateral"] < ctx.state_get("min_collateral"):
            record["status"] = STATUS_INACTIVE
            ctx.emit("subnet.inactive", subnet_path)
        self._put_child(ctx, subnet_path, record)
        if slashed:
            ctx.burn(slashed)
        ctx.emit("subnet.slashed", (subnet_path, slashed))
        return slashed

    # ==================================================================
    # Cross-net message origination (§IV-A)
    # ==================================================================
    @export
    def fund(self, ctx, subnet_path: str = "", to_addr: str = "") -> None:
        """Inject the attached value into a descendant subnet (§II)."""
        ctx.require(ctx.value_received > 0, "fund requires attached value")
        self.send_crossmsg(ctx, to_subnet=subnet_path, to_addr=to_addr)

    @export
    def send_crossmsg(
        self,
        ctx,
        to_subnet: str = "",
        to_addr: str = "",
        method: str = "send",
        params: Any = None,
    ) -> None:
        """Originate a cross-net message from this subnet.

        The attached value rides with the message.  Top-down legs freeze the
        value here; bottom-up legs burn it here for release above (§IV-A).
        """
        self_id = self._self_id(ctx)
        destination = SubnetID(to_subnet)
        ctx.require(destination != self_id, "destination is this subnet")
        message = CrossMsg(
            from_subnet=self_id,
            from_addr=ctx.caller,
            to_subnet=destination,
            to_addr=Address(to_addr),
            value=ctx.value_received,
            method=method,
            params=params,
            # Purely state-derived: a monotonic per-SCA counter.  Mixing in
            # ctx.epoch here would bake the inclusion *schedule* into the
            # message identity (and every msgs_cid/checkpoint built on it),
            # breaking end-state digest invariance under tie-shuffled
            # schedules where a tx legally lands one block later.
            origin_nonce=ctx.state_get("origin_seq", 0),
        )
        ctx.state_set("origin_seq", ctx.state_get("origin_seq", 0) + 1)
        self._route_outbound(ctx, message)

    def _route_outbound(self, ctx, message: CrossMsg) -> None:
        """Send *message* on its way: top-down enqueue or bottom-up batch.

        The message's value is already held by the SCA (attached value, a
        released inbound amount, or minted transit funds).
        """
        self_id = self._self_id(ctx)
        direction = classify(self_id, message.to_subnet)
        if direction == Direction.TOP_DOWN:
            self._enqueue_topdown(ctx, message)
        else:
            self._enqueue_bottomup(ctx, message)

    def _enqueue_topdown(self, ctx, message: CrossMsg) -> None:
        """Freeze funds and queue the message for the next-hop child.

        "the SCA of the source subnet (parent) increments a nonce that is
        unique to the top-down transaction directed to each of its child
        subnets … These nonces determine the total order of arrival" (§IV-A).
        """
        child_path = self._next_hop_child(ctx, message.to_subnet)
        record = self._child(ctx, child_path)
        ctx.require(
            record["status"] == STATUS_ACTIVE,
            f"child {child_path} is {record['status']}; cross-net traffic refused",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        nonce = ctx.state_get(f"td_nonce/{child_path}", 0)
        ctx.state_set(f"td_nonce/{child_path}", nonce + 1)
        ctx.state_set(f"td_msg/{child_path}/{nonce}", message)
        record = dict(record)
        record["circulating"] += message.value
        record["injected_total"] += message.value
        self._put_child(ctx, child_path, record)
        # The trailing fields (msg cid, final destination, kind) let chain
        # watchers — notably the telemetry span tracer — correlate this
        # enqueue with the same message's later hops.
        ctx.emit(
            "crossmsg.topdown",
            (child_path, nonce, message.value, message.cid.hex(),
             message.to_subnet.path, message.to_addr.raw, message.kind),
        )

    def _enqueue_bottomup(self, ctx, message: CrossMsg) -> None:
        """Burn funds locally and add the message to the current window's
        outgoing batch; the parent releases them on application (§IV-A)."""
        if message.value:
            ctx.burn(message.value)
        window = ctx.epoch // ctx.state_get("checkpoint_period")
        count = ctx.state_get(f"out_count/{window}", 0)
        ctx.state_set(f"out/{window}/{count}", message)
        ctx.state_set(f"out_count/{window}", count + 1)
        ctx.emit(
            "crossmsg.bottomup",
            (window, count, message.value, message.cid.hex(),
             message.to_subnet.path, message.to_addr.raw, message.kind),
        )

    # ==================================================================
    # Cross-net message application (§IV-B, Fig. 3)
    # ==================================================================
    @export
    def apply_topdown(self, ctx, message: CrossMsg = None, nonce: int = -1) -> None:
        """Apply one parent-committed top-down message in this (child) chain.

        Called implicitly by consensus when a block containing the cross-msg
        commits.  Nonces must be exactly sequential — the total order the
        parent assigned (§IV-A).
        """
        ctx.require(
            ctx.caller.is_system_actor,
            "apply_topdown is consensus-only",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        expected = ctx.state_get("td_applied_nonce")
        ctx.require(
            nonce == expected,
            f"top-down nonce {nonce}, expected {expected}",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        ctx.state_set("td_applied_nonce", expected + 1)
        # The value was frozen in the parent; it materialises here by mint.
        if message.value:
            ctx.mint(ctx.actor_addr, message.value)
        self._deliver_or_forward(ctx, message)

    @export
    def apply_bottomup(self, ctx, nonce: int = -1, messages: tuple = ()) -> dict:
        """Apply one resolved bottom-up batch in this chain (Fig. 3 right).

        *messages* are the raw cross-msgs fetched via content resolution for
        the meta queued at *nonce*; they must hash to the meta's ``msgsCid``.
        Each message passes the **firewall check**: the via-child's recorded
        circulating supply must cover its value, otherwise the message is
        refused — this is the §II bound on a compromised subnet's impact.

        Returns counts of delivered/forwarded/refused messages.
        """
        ctx.require(
            ctx.caller.is_system_actor,
            "apply_bottomup is consensus-only",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        expected = ctx.state_get("bu_applied_nonce")
        ctx.require(
            nonce == expected,
            f"bottom-up nonce {nonce}, expected {expected}",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        entry = ctx.state_get(f"bu_meta/{nonce}")
        ctx.require(entry is not None, f"no bottom-up meta at nonce {nonce}",
                    exit_code=ExitCode.USR_NOT_FOUND)
        meta: CrossMsgMeta = entry["meta"]
        via_child: str = entry["via_child"]
        ctx.require(
            batch_cid(messages) == meta.msgs_cid,
            "resolved messages do not match the meta's msgsCid",
        )
        ctx.state_set("bu_applied_nonce", expected + 1)
        # Cache the resolved batch so this subnet can serve future pulls.
        ctx.state_set(f"registry/{meta.msgs_cid.hex()}", tuple(messages))

        outcome = {"delivered": 0, "forwarded": 0, "refused": 0}
        for message in messages:
            # Fresh read per message: delivery side effects (e.g. a revert
            # re-entering this same child top-down) also touch the record.
            record = self._child(ctx, via_child)
            # FIREWALL: never release more than was genuinely injected.
            if message.value > record["circulating"]:
                outcome["refused"] += 1
                ctx.emit(
                    "firewall.refused",
                    (via_child, message.value, record["circulating"]),
                )
                continue
            record = dict(record)
            record["circulating"] -= message.value
            record["released_total"] += message.value
            self._put_child(ctx, via_child, record)
            self._deliver_or_forward(ctx, message)
            if message.to_subnet == self._self_id(ctx):
                outcome["delivered"] += 1
            else:
                outcome["forwarded"] += 1
        return outcome

    def _deliver_or_forward(self, ctx, message: CrossMsg) -> None:
        """Execute a cross-msg locally, or route it onward.

        The message's funds are in the SCA balance at this point (minted on
        top-down arrival, or released from the frozen pool bottom-up).
        Failed local deliveries trigger the revert cross-msg of §IV-B.
        """
        self_id = self._self_id(ctx)
        if message.to_subnet == self_id:
            # The delivered call presents the *original sender* as caller
            # (its cross-subnet identity), with the value riding along from
            # the SCA's frozen/minted pool.
            receipt = ctx.send(
                message.to_addr,
                method=message.method,
                params=message.params,
                value=message.value,
                caller=message.from_addr,
            )
            if receipt.ok:
                ctx.emit(
                    "crossmsg.delivered",
                    (message.to_addr.raw, message.value, message.cid.hex()),
                )
                return
            ctx.emit(
                "crossmsg.failed",
                (message.to_addr.raw, receipt.error, message.cid.hex()),
            )
            if message.kind == "revert":
                # A failed revert is terminal: funds accrue to the SCA
                # rather than ping-ponging through the hierarchy forever.
                ctx.emit("crossmsg.revert_stranded", message.value)
                return
            self._route_outbound(ctx, message.make_revert())
        else:
            self._route_outbound(ctx, message)

    # ==================================================================
    # Checkpoints (§III-B, Fig. 2)
    # ==================================================================
    @export
    def commit_child_checkpoint(self, ctx, checkpoint: Checkpoint = None) -> None:
        """Record a child's checkpoint: collect metas for us, relay the rest.

        Caller must be the child's SA (which already validated the signature
        policy).  "the SCA … is responsible for aggregating the checkpoint
        from /root/A/B with those of other children … As checkpoints flow up
        the chain, the SCA of each chain picks up these checkpoints and
        inspects them" (§III-B).
        """
        self_id = self._self_id(ctx)
        child_path = checkpoint.source.path
        ctx.require(
            checkpoint.source.parent() == self_id,
            f"checkpoint source {child_path} is not our child",
        )
        record = self._child(ctx, child_path)
        self._require_sa(ctx, record, child_path)
        ctx.require(
            record["status"] == STATUS_ACTIVE,
            f"child {child_path} is {record['status']}; checkpoint refused",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        ctx.require(
            checkpoint.prev.hex() == record["last_ckpt_cid"],
            "checkpoint does not chain from the last committed checkpoint",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        record = dict(record)
        record["last_ckpt_cid"] = checkpoint.cid.hex()
        self._put_child(ctx, child_path, record)

        window = ctx.epoch // ctx.state_get("checkpoint_period")
        seq = ctx.state_get(f"childck_count/{window}", 0)
        ctx.state_set(f"childck/{window}/{seq}", (child_path, checkpoint.cid))
        ctx.state_set(f"childck_count/{window}", seq + 1)

        for meta in checkpoint.cross_meta:
            if meta.to_subnet == self_id or self_id.is_ancestor_of(meta.to_subnet):
                # Ours to apply (possibly the LCA turning point of a path
                # message): queue under the next bottom-up nonce (Fig. 3).
                bu_nonce = ctx.state_get("bu_nonce")
                ctx.state_set("bu_nonce", bu_nonce + 1)
                ctx.state_set(
                    f"bu_meta/{bu_nonce}", {"meta": meta, "via_child": child_path}
                )
                ctx.emit("meta.queued", (bu_nonce, meta.msgs_cid.hex()))
            else:
                # Travelling farther up: relay unverified in our next
                # checkpoint (Fig. 3: "included unverified in the next
                # checkpoint of the parent").
                count = ctx.state_get(f"relay_count/{window}", 0)
                ctx.state_set(f"relay/{window}/{count}", meta)
                ctx.state_set(f"relay_count/{window}", count + 1)
                ctx.emit("meta.relayed", meta.msgs_cid.hex())
        ctx.emit("checkpoint.committed", (child_path, checkpoint.cid.hex()))

    @export
    def seal_window(self, ctx, window: int = -1, proof_cid: CID = None) -> None:
        """Close checkpoint window *window* and build this subnet's
        checkpoint template (Fig. 2).

        Called implicitly by consensus at the first block of the next
        window.  Groups the window's outgoing cross-msgs into per-destination
        metas (registering each batch for content resolution), appends the
        relayed child metas and the aggregated child checkpoint list, and
        stores the resulting :class:`Checkpoint` for validators to sign.
        """
        ctx.require(
            ctx.caller.is_system_actor,
            "seal_window is consensus-only",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        last_sealed = ctx.state_get("last_window_sealed")
        ctx.require(
            window == last_sealed + 1,
            f"sealing window {window}, expected {last_sealed + 1}",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        self_id = self._self_id(ctx)

        # Group this window's outgoing messages by destination subnet.
        outgoing: list[CrossMsg] = []
        for seq in range(ctx.state_get(f"out_count/{window}", 0)):
            outgoing.append(ctx.state_get(f"out/{window}/{seq}"))
        by_destination: dict[str, list[CrossMsg]] = {}
        for message in outgoing:
            by_destination.setdefault(message.to_subnet.path, []).append(message)

        metas = []
        bu_out_nonce = ctx.state_get("bu_out_nonce", 0)
        for destination_path in sorted(by_destination):
            batch = tuple(by_destination[destination_path])
            msgs_cid = batch_cid(batch)
            ctx.state_set(f"registry/{msgs_cid.hex()}", batch)
            metas.append(
                CrossMsgMeta(
                    from_subnet=self_id,
                    to_subnet=SubnetID(destination_path),
                    nonce=bu_out_nonce,
                    msgs_cid=msgs_cid,
                    count=len(batch),
                    value=sum(m.value for m in batch),
                )
            )
            bu_out_nonce += 1
        ctx.state_set("bu_out_nonce", bu_out_nonce)

        for seq in range(ctx.state_get(f"relay_count/{window}", 0)):
            metas.append(ctx.state_get(f"relay/{window}/{seq}"))

        children = tuple(
            ctx.state_get(f"childck/{window}/{seq}")
            for seq in range(ctx.state_get(f"childck_count/{window}", 0))
        )
        checkpoint = Checkpoint(
            source=self_id,
            proof=proof_cid if proof_cid is not None else ZERO_CHECKPOINT,
            prev=CID.from_hex(ctx.state_get("last_ckpt_cid")),
            children=children,
            cross_meta=tuple(metas),
            window=window,
            epoch=ctx.epoch,
        )
        ctx.state_set(f"ckpt/{window}", checkpoint)
        ctx.state_set("last_ckpt_cid", checkpoint.cid.hex())
        ctx.state_set("last_window_sealed", window)
        ctx.emit("checkpoint.sealed", (window, checkpoint.cid.hex()))

    # ==================================================================
    # save() and fund recovery from dead subnets (§III-C)
    # ==================================================================
    @export
    def save_state(
        self, ctx, subnet_path: str = "", epoch: int = 0,
        state_cid: CID = None, balances_root: bytes = b"",
    ) -> None:
        """Persist a child-subnet state snapshot commitment.

        "the SCA includes a save function that allows any participant in the
        subnet to persist the state" (§III-C).  ``balances_root`` is the
        merkle root over the child's (address, balance) pairs at *epoch*;
        individual users later prove their balance against it.
        """
        self._child(ctx, subnet_path)  # must be a known child
        saved = ctx.state_get(f"save/{subnet_path}")
        if saved is not None:
            ctx.require(
                epoch >= saved["epoch"],
                "snapshot older than the saved one",
                exit_code=ExitCode.USR_ILLEGAL_STATE,
            )
        ctx.state_set(
            f"save/{subnet_path}",
            {
                "epoch": epoch,
                "state_cid": state_cid.hex() if state_cid else "",
                "balances_root": balances_root,
                "saved_by": ctx.caller.raw,
                "claimed": (),
            },
        )
        ctx.emit("subnet.saved", (subnet_path, epoch))

    @export
    def claim_saved_funds(
        self, ctx, subnet_path: str = "", balance: int = 0,
        proof: MerkleProof = None,
    ) -> int:
        """Recover funds from a killed subnet using a saved snapshot.

        The caller proves ``(address, balance)`` inclusion under the saved
        ``balances_root``; payout comes from the child's circulating supply
        (the funds frozen here when they were injected).
        """
        record = self._child(ctx, subnet_path)
        ctx.require(
            record["status"] == STATUS_KILLED,
            "claims only from killed subnets",
            exit_code=ExitCode.USR_ILLEGAL_STATE,
        )
        saved = ctx.state_get(f"save/{subnet_path}")
        ctx.require(saved is not None, "no saved snapshot",
                    exit_code=ExitCode.USR_NOT_FOUND)
        ctx.require(
            ctx.caller.raw not in saved["claimed"],
            "already claimed",
            exit_code=ExitCode.USR_FORBIDDEN,
        )
        leaf = (ctx.caller.raw, balance)
        ctx.require(
            proof is not None
            and MerkleTree.verify_against_root(leaf, proof, saved["balances_root"]),
            "balance proof does not verify against the saved snapshot",
        )
        payable = min(balance, record["circulating"])
        record = dict(record)
        record["circulating"] -= payable
        record["released_total"] += payable
        self._put_child(ctx, subnet_path, record)
        ctx.state_set(
            f"save/{subnet_path}",
            {**saved, "claimed": tuple(saved["claimed"]) + (ctx.caller.raw,)},
        )
        if payable:
            ctx.transfer(ctx.caller, payable)
        ctx.emit("funds.claimed", (subnet_path, ctx.caller.raw, payable))
        return payable
