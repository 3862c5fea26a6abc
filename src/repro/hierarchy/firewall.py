"""Firewall property: supply auditing and the compromised-subnet attack.

§II: "The system provides a firewall security property … for token
exchanges, the impact of a child subnet being compromised is limited to,
at most, its circulating supply of the token, determined by the (positive)
balance between cross-net transactions entering the subnet and cross-net
transactions leaving the subnet."

Two tools here:

- :func:`books_findings` holds the supply rules over one SCA's books, and
  :func:`audit_system` runs them across a
  :class:`~repro.hierarchy.network.HierarchicalSystem` (the live
  ``SupplyAuditor`` runs the same function as the chain grows);
- :class:`CompromisedSubnet` mounts the §II attack: validators of a subnet
  (whose keys the adversary holds) forge a checkpoint claiming arbitrary
  bottom-up value and submit it with genuine policy signatures.  E6
  measures how much the adversary actually extracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.crypto.cid import CID, cid_of
from repro.crypto.keys import Address
from repro.crypto.signature import sign
from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, SignedCheckpoint
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.gateway import SCA_ADDRESS, child_records
from repro.hierarchy.subnet_actor import last_committed_window
from repro.hierarchy.subnet_id import SubnetID
from repro.hierarchy.wallet import Wallet


@dataclass
class SupplyAudit:
    """Outcome of :func:`audit_system`."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def books_findings(
    pool: int, children: Iterable[tuple[str, dict]], system=None
) -> Iterator[tuple[tuple, str]]:
    """What is wrong with one SCA's books, as ``(rule key, description)``.

    *pool* is the SCA's balance — the frozen funds — and *children* its
    child records (:func:`~repro.hierarchy.gateway.child_records`).  For
    every child Cᵢ:

    1. **Cumulative firewall bound**: released_total(Cᵢ) ≤
       injected_total(Cᵢ) — no child subtree has ever extracted more value
       than was genuinely injected into it (the §II bound).
    2. **Ledger consistency**: circulating = injected − released, ≥ 0.
    3. **Child mint bound** (needs *system*, to see Cᵢ's chain): tokens
       minted inside Cᵢ ≤ injected_total(Cᵢ) — a subnet chain only
       materialises value its parent froze for it.  (Relay traffic makes
       the parent's *circulating* an upper bound rather than an exact
       mirror of the child's net supply — the paper relays intermediate
       metas unverified, Fig. 3 — so the sound per-child invariants are
       the cumulative ones.)

    and over all of them, **frozen-pool solvency**: pool ≥ Σ collateral(Cᵢ)
    + Σ circulating(Cᵢ) — every promised release is backed by frozen funds.
    """
    backing = 0
    for child_path, record in children:
        injected = record["injected_total"]
        released = record["released_total"]
        circulating = record["circulating"]
        backing += record["collateral"] + circulating
        if released > injected:
            yield ("released>injected", child_path), (
                f"{child_path}: released {released} exceeds injected "
                f"{injected} — §II firewall bound breached"
            )
        if circulating != injected - released or circulating < 0:
            yield ("ledger", child_path), (
                f"{child_path}: circulating {circulating} != injected "
                f"{injected} - released {released}"
            )
        nodes = () if system is None else system.nodes_by_subnet.get(SubnetID(child_path))
        if nodes:
            minted = max(node.vm.total_minted for node in nodes)
            if minted > injected:
                yield ("mint", child_path), (
                    f"{child_path}: minted {minted} exceeds injected {injected}"
                )
    if pool < backing:
        yield ("solvency",), (
            f"SCA pool {pool} cannot back collateral+circulating {backing}"
        )


def audit_system(system) -> SupplyAudit:
    """Are the books sound?  :func:`books_findings` for every subnet's SCA,
    each finding prefixed with the subnet whose books they are."""
    audit = SupplyAudit()
    for subnet in system.subnets:
        vm = system.node(subnet).vm
        findings = books_findings(
            vm.balance_of(SCA_ADDRESS), child_records(vm.state), system
        )
        audit.violations.extend(f"{subnet}: {description}" for _, description in findings)
    return audit


class CompromisedSubnet:
    """An adversary holding all (or a quorum of) a subnet's validator keys.

    Mounts the forged-extraction attack of §II: builds a checkpoint whose
    cross-msg meta claims *value* flowing bottom-up to an attacker address
    in the parent, signs it with the subnet's genuine validator keys,
    pushes the forged batch into the resolution layer (so the parent can
    apply it), and submits the checkpoint through the SA.
    """

    def __init__(self, system, subnet) -> None:
        self.system = system
        self.subnet = SubnetID(subnet)
        self.parent = self.subnet.parent()
        self.nodes = system.nodes(self.subnet)
        self.sa_addr = system.sa_address(self.subnet)
        self._wallet = Wallet(self.nodes[0].keypair)
        self._window_bump = 0

    def forge_extraction(
        self,
        attacker: Address,
        value: int,
        count: int = 1,
        break_prev: bool = False,
        break_epoch: bool = False,
    ) -> CrossMsgMeta:
        """Submit a forged checkpoint claiming *value* (split over *count*
        messages) for *attacker* on the parent chain.

        Returns the forged meta.  The parent's firewall decides how much of
        it ever pays out.  ``break_prev`` points the forged prev-link at
        garbage — the SCA's prev-chaining check rejects that outright, so
        it probes the defense rather than bypassing it.  ``break_epoch``
        keeps the prev-link genuine but claims epoch 0: the commit path
        validates window monotonicity, prev and signatures but *not* epoch
        monotonicity, so the forgery commits — exactly the gap the
        checkpoint-chain auditor exists to catch.
        """
        per_message = value // count
        amounts = [per_message] * count
        amounts[-1] += value - per_message * count
        forged_messages = tuple(
            CrossMsg(
                from_subnet=self.subnet,
                from_addr=attacker,
                to_subnet=self.parent,
                to_addr=attacker,
                value=amount,
                origin_nonce=i,
            )
            for i, amount in enumerate(amounts)
        )
        msgs_cid = cid_of(forged_messages)
        record = self.system.child_record(self.parent, self.subnet) or {}
        parent_state = self.system.node(self.parent).vm.state
        window = last_committed_window(parent_state, self.sa_addr) + 1 + self._window_bump
        self._window_bump += 1
        meta = CrossMsgMeta(
            from_subnet=self.subnet,
            to_subnet=self.parent,
            nonce=999_000 + window,
            msgs_cid=msgs_cid,
            count=count,
            value=value,
        )
        prev = (
            cid_of(("forged-prev", self.subnet.path, window))
            if break_prev
            else CID.from_hex(record.get("last_ckpt_cid", "00" * 32))
        )
        checkpoint = Checkpoint(
            source=self.subnet,
            proof=cid_of(("forged-proof", window)),
            prev=prev,
            cross_meta=(meta,),
            window=window,
            epoch=0 if break_epoch else (window + 1) * 10,
        )
        # Genuine quorum signatures — the adversary holds the keys.
        quorum = self.system.configs[self.subnet].policy.quorum
        signatures = tuple(
            sign(node.keypair, checkpoint.cid.hex()) for node in self.nodes[:quorum]
        )
        signed = SignedCheckpoint(checkpoint=checkpoint, signatures=signatures)
        # Push the forged batch so the parent's pools can resolve it.
        for node in self.nodes:
            node.resolution.store(msgs_cid, forged_messages)
        self.nodes[0].resolution.push(self.parent, msgs_cid, forged_messages)
        # Submit through the SA like any checkpoint.
        self._wallet.send(
            self.system.node(self.parent),
            self.sa_addr,
            method="submit_checkpoint",
            params={"signed": signed},
        )
        return meta
