"""Live invariant monitors over the running hierarchy.

The paper's safety claims — the §II firewall bound, checkpoint-chain
integrity (§III-B) and exactly-once cross-net application (§IV-A) — are
checked after the fact by :func:`repro.hierarchy.firewall.audit_system`
and the test suite.  :class:`InvariantMonitor` checks them *while the
simulation runs*: attached to the simulator, it receives every
:class:`~repro.sim.observe.BlockCommitted` (a newly-canonical block with
its receipt events) and :class:`~repro.sim.observe.ChainReorg` that a
:class:`~repro.runtime.node.NodeRuntime` reports.

Five auditors ship by default:

- :class:`SupplyAuditor` — continuous firewall/supply conservation: the
  books rules of ``audit_system`` every K commits per subnet, plus
  two live-only checks: a ``firewall.refused`` receipt event (an attempted
  over-extraction the firewall stopped) and a cumulative
  released-vs-subtree-burn bound that catches forged bottom-up value the
  parent's books alone cannot see.
- :class:`CheckpointAuditor` — every committed checkpoint chains from the
  previous one (prev-link), windows/epochs are strictly monotone, and the
  stored signatures still satisfy the SA's signature policy.
- :class:`ExactlyOnceAuditor` — no CrossMsg CID is applied twice at a
  destination on one chain, and per-route nonces never repeat with a
  different payload or go backwards.
- :class:`FinalityAuditor` — no two *final* blocks at the same height
  (across all nodes of a subnet), and no reorg deeper than the engine's
  finality depth.
- :class:`MembershipAuditor` — the parent SCA/SA registry agrees with the
  live validator cluster of every active child subnet.

Determinism contract (same as the span tracer, DESIGN.md § Observability):
auditors read committed state and write only their own violation list
(the run document's ``invariants`` section, with a count per auditor), the
exactly-once auditor's two ``invariant.exactly_once.*`` counters and (via
the :class:`~repro.telemetry.recorder.FlightRecorder`) postmortem bundles —
never to the trace log, never to RNG streams, and never with wall-clock
time — so the trace digest is byte-identical with monitors on or off.
Violations are deduplicated first-observation-wins, which is
deterministic on a deterministic simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hierarchy.checkpoint import Checkpoint, chain_findings
from repro.hierarchy.firewall import books_findings
from repro.hierarchy.gateway import SCA_ADDRESS, child_key, child_records
from repro.hierarchy.subnet_actor import (
    committed_checkpoints,
    policy_signers,
    registered_validators,
)
from repro.hierarchy.subnet_id import SubnetID
from repro.sim.observe import BlockCommitted, ChainReorg, Plane


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, recorded at simulated time (never wall clock)."""

    seq: int
    time: float
    auditor: str
    subnet: str
    description: str

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "auditor": self.auditor,
            "subnet": self.subnet,
            "description": self.description,
        }


class Auditor:
    """Base class: override any of the three feed hooks."""

    name = "auditor"

    def on_block_commit(self, monitor, node, block, events) -> None:
        """A newly-canonical block (with its receipt events) on some node."""

    def on_periodic(self, monitor, node) -> None:
        """Every K commits per subnet — for whole-state sweeps."""

    def on_reorg(self, monitor, node, old_head, new_head_block, depth: int) -> None:
        """The node abandoned *depth* blocks of its previous canonical chain."""


#: Postmortem bundles a monitor asks its recorder for; later violations
#: are recorded without one.
MAX_BUNDLES = 8


class InvariantMonitor(Plane):
    """Registry of auditors fed from commit-time events.

    ``sim.attach(InvariantMonitor(system))`` and every node's commits and
    reorgs reach the auditors.  ``system`` is the
    :class:`~repro.hierarchy.network.HierarchicalSystem` under audit —
    auditors that need cross-subnet state (supply, membership) no-op
    without it, so a bare ``InvariantMonitor(sim=sim, auditors=[...])``
    works for unit tests.
    """

    section = "invariants"
    observes = {BlockCommitted: "on_block_commit", ChainReorg: "on_reorg"}

    def __init__(
        self,
        system=None,
        sim=None,
        auditors: Optional[list] = None,
        check_interval: int = 10,
        recorder=None,
    ) -> None:
        if sim is None:
            if system is None:
                raise ValueError("InvariantMonitor needs a system or a sim")
            sim = system.sim
        self.system = system
        self.sim = sim
        self.check_interval = max(1, check_interval)
        self.recorder = recorder
        self.auditors = list(
            auditors if auditors is not None else (auditor() for auditor in AUDITORS)
        )
        self.violations: list[InvariantViolation] = []
        self._seen: set = set()
        self._commit_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Feed
    # ------------------------------------------------------------------
    def on_block_commit(self, commit: BlockCommitted) -> None:
        node, block, events = commit
        for auditor in self.auditors:
            auditor.on_block_commit(self, node, block, events)
        count = self._commit_counts.get(node.subnet_id, 0) + 1
        self._commit_counts[node.subnet_id] = count
        if count % self.check_interval == 0:
            for auditor in self.auditors:
                auditor.on_periodic(self, node)

    def on_reorg(self, reorg: ChainReorg) -> None:
        for auditor in self.auditors:
            auditor.on_reorg(self, *reorg)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, auditor: str, subnet: str, description: str, dedup_key=None
    ) -> Optional[InvariantViolation]:
        """Record one violation; duplicates (same dedup key) are dropped.

        The first committing node wins, like the span tracer's
        deduplication, so the violation list is deterministic.
        """
        key = (auditor, subnet, dedup_key if dedup_key is not None else description)
        if key in self._seen:
            return None
        self._seen.add(key)
        violation = InvariantViolation(
            seq=len(self.violations),
            time=self.sim.now,
            auditor=auditor,
            subnet=subnet,
            description=description,
        )
        self.violations.append(violation)
        if self.recorder is not None and len(self.recorder.bundles) < MAX_BUNDLES:
            self.recorder.dump(violation=violation)
        return violation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def violations_for(self, auditor: str) -> list:
        return [v for v in self.violations if v.auditor == auditor]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        """Plain-data overview used by the exporters and the report CLI."""
        by_auditor: dict[str, int] = {}
        for violation in self.violations:
            by_auditor[violation.auditor] = by_auditor.get(violation.auditor, 0) + 1
        return {
            "auditors": [a.name for a in self.auditors],
            "violations": len(self.violations),
            "by_auditor": by_auditor,
            "latest": self.violations[-1].as_dict() if self.violations else None,
            # Bounded: record() keeps only the first observation of a breach.
            "all": [v.as_dict() for v in self.violations],
        }


# ======================================================================
# Auditor 1 — firewall/supply conservation (§II)
# ======================================================================
class SupplyAuditor(Auditor):
    """:func:`~repro.hierarchy.firewall.books_findings` as the chain grows.

    The rules ``audit_system`` checks after the fact, on every K-th commit,
    plus two live-only signals: a ``firewall.refused`` event means someone
    just tried to extract beyond the circulating supply, and cumulative
    ``released_total`` must never exceed what the child *subtree* actually
    burned — the check that catches a forged checkpoint even when its claim
    stays within the circulating supply (sound books, stolen value).
    """

    name = "supply"

    def on_block_commit(self, monitor, node, block, events) -> None:
        for kind, payload in events:
            if kind == "firewall.refused":
                via_child, value, circulating = payload
                monitor.record(
                    self.name,
                    node.subnet_id,
                    f"firewall engaged: bottom-up release of {value} from "
                    f"{via_child} exceeds its circulating supply {circulating} "
                    "— forged or replayed extraction attempt",
                    dedup_key=("refused", via_child),
                )

    def on_periodic(self, monitor, node) -> None:
        system = monitor.system
        children = list(child_records(node.vm.state))
        pool = node.vm.balance_of(SCA_ADDRESS)
        for key, description in books_findings(pool, children, system):
            monitor.record(self.name, node.subnet_id, description, dedup_key=key)
        if system is None:
            return
        # Every genuine bottom-up release was burned somewhere in the
        # child's subtree first (relayed metas burn at their origin, Fig. 3).
        for child_path, record in children:
            if record["status"] == "killed":
                continue
            child_id = SubnetID(child_path)
            subtree = [
                s for s in system.nodes_by_subnet
                if s == child_id or child_id.is_ancestor_of(s)
            ]
            if not subtree:
                continue  # subnet chain not instantiated locally; cannot see burns
            burned = sum(
                max(n.vm.total_burned for n in system.nodes_by_subnet[s])
                for s in subtree
            )
            if record["released_total"] > burned:
                monitor.record(
                    self.name, node.subnet_id,
                    f"{child_path}: released {record['released_total']} exceeds "
                    f"the {burned} ever burned in its subtree — forged bottom-up "
                    "value",
                    dedup_key=("released>burned", child_path),
                )


# ======================================================================
# Auditor 2 — checkpoint-chain integrity (§III-B)
# ======================================================================
class CheckpointAuditor(Auditor):
    """Walks each child's committed-checkpoint history at the parent.

    Every committed checkpoint must pass
    :func:`~repro.hierarchy.checkpoint.chain_findings` against the
    previously committed one, its signatures checked by the SA's policy over
    its current validator set.
    """

    name = "checkpoint-chain"

    def __init__(self) -> None:
        # (parent subnet, child path) -> last committed Checkpoint
        self._chains: dict[tuple, Checkpoint] = {}

    def on_block_commit(self, monitor, node, block, events) -> None:
        for kind, payload in events:
            if kind == "checkpoint.committed":
                child_path, _ckpt_hex = payload
                self._verify_chain(monitor, node, child_path)

    def _verify_chain(self, monitor, node, child_path: str) -> None:
        state = node.vm.state
        record = state.get(child_key(child_path))
        if record is None:
            return
        sa_raw = record["sa_addr"]
        key = (node.subnet_id, child_path)
        last = self._chains.get(key)
        after = -1 if last is None else last.window
        for signed in committed_checkpoints(state, sa_raw, after=after):
            checkpoint = signed.checkpoint
            # Re-run the SA's signature check against its current registry.
            signers = policy_signers(state, sa_raw, signed)
            for rule, description in chain_findings(last, checkpoint, signers):
                monitor.record(
                    self.name, node.subnet_id,
                    f"{child_path} window {checkpoint.window}: {description}",
                    dedup_key=(rule, child_path, checkpoint.window),
                )
            last = checkpoint
        self._chains[key] = last


# ======================================================================
# Auditor 3 — exactly-once cross-msg application (§IV-A)
# ======================================================================
class ExactlyOnceAuditor(Auditor):
    """No CrossMsg CID delivered twice on one chain; nonces monotone.

    Re-observations of the *same* block by other validators of the subnet
    deduplicate; a second delivery in a *different* block is a violation
    when the two blocks lie on one chain, and a ``fork_replays`` metric
    (not a violation) when they lie on rival forks — commit listeners get
    no un-commit signal, so fork-capable engines legitimately re-apply
    along the winning branch.
    """

    name = "exactly-once"

    def __init__(self) -> None:
        # (subnet, msg cid) -> (block cid, height) of the first delivery
        self._delivered: dict[tuple, tuple] = {}
        # route key -> {"max": int, "cids": {nonce: cid}}
        self._routes: dict[tuple, dict] = {}

    def on_block_commit(self, monitor, node, block, events) -> None:
        for kind, payload in events:
            if kind == "crossmsg.delivered":
                _to_addr, _value, cid = payload
                self._check_delivery(monitor, node, block, cid)
            elif kind == "crossmsg.topdown":
                child_path, nonce, _value, cid, _to, _addr, _mkind = payload
                self._check_nonce(
                    monitor, node, ("topdown", node.subnet_id, child_path),
                    nonce, cid,
                )
            elif kind == "meta.queued":
                bu_nonce, msgs_cid = payload
                self._check_nonce(
                    monitor, node, ("bottomup", node.subnet_id), bu_nonce, msgs_cid
                )

    def _check_delivery(self, monitor, node, block, cid: str) -> None:
        key = (node.subnet_id, cid)
        block_cid = block.cid if block is not None else None
        first = self._delivered.get(key)
        if first is None:
            height = block.height if block is not None else None
            self._delivered[key] = (block_cid, height)
            return
        first_cid, first_height = first
        if block_cid is None or first_cid is None or block_cid == first_cid:
            return  # the same block, seen from another validator
        store = getattr(node, "store", None)
        same_chain = store is not None and (
            store.is_extension(first_cid, block_cid)
            or store.is_extension(block_cid, first_cid)
        )
        if same_chain:
            monitor.record(
                self.name, node.subnet_id,
                f"cross-msg {cid[:16]} applied twice on one chain "
                f"(heights {first_height} and "
                f"{block.height if block is not None else '?'})",
                dedup_key=("twice", cid),
            )
        else:
            monitor.sim.metrics.counter("invariant.exactly_once.fork_replays").inc()

    def _check_nonce(self, monitor, node, route: tuple, nonce: int, cid: str) -> None:
        entry = self._routes.setdefault(route, {"max": None, "cids": {}})
        known = entry["cids"].get(nonce)
        if known == cid:
            return  # re-observation of the same enqueue
        if known is not None:
            monitor.record(
                self.name, node.subnet_id,
                f"route {route}: nonce {nonce} reused with a different "
                f"payload ({known[:16]} then {cid[:16]})",
                dedup_key=("nonce-reuse", route, nonce),
            )
            return
        entry["cids"][nonce] = cid
        if entry["max"] is not None:
            if nonce <= entry["max"]:
                monitor.record(
                    self.name, node.subnet_id,
                    f"route {route}: nonce went backwards ({nonce} after "
                    f"{entry['max']})",
                    dedup_key=("nonce-regress", route, nonce),
                )
            elif nonce != entry["max"] + 1:
                # A forward gap is suspicious but can also be a monitor
                # installed mid-stream; count it, don't convict.
                monitor.sim.metrics.counter("invariant.exactly_once.nonce_gaps").inc()
        entry["max"] = nonce if entry["max"] is None else max(entry["max"], nonce)


# ======================================================================
# Auditor 4 — per-subnet finality safety
# ======================================================================
class FinalityAuditor(Auditor):
    """No two *final* blocks at one height; no reorg past finality depth.

    Final height is the engine's own (:meth:`ConsensusEngine.final_height`,
    which the checkpoint service acts on too).  The per-height
    map is shared across all nodes of a subnet, so diverging *final*
    prefixes between validators surface too (e.g. a quorum-less engine
    committing solo blocks under a partition — a genuine safety breach of
    that configuration, not a monitor artefact).
    """

    name = "finality"

    def __init__(self) -> None:
        self._final: dict[tuple, str] = {}  # (subnet, height) -> block cid hex
        self._checked: dict[tuple, int] = {}  # (subnet, node) -> height

    def on_block_commit(self, monitor, node, block, events) -> None:
        store = getattr(node, "store", None)
        if store is None or block is None:
            return
        final_height = node.engine.final_height()
        key = (node.subnet_id, node.node_id)
        # Genesis is trivially agreed; a node that adopted a snapshot holds
        # nothing below its base, and is audited from there on.
        height = max(self._checked.get(key, 0) + 1, store.base)
        while height <= final_height:
            final_block = store.block_at_height(height)
            if final_block is None:
                break
            cid = final_block.cid.hex()
            shared = (node.subnet_id, height)
            recorded = self._final.get(shared)
            if recorded is None:
                self._final[shared] = cid
            elif recorded != cid:
                monitor.record(
                    self.name, node.subnet_id,
                    f"two final blocks at height {height}: {recorded[:16]} "
                    f"and {cid[:16]}",
                    dedup_key=("conflict", height),
                )
            self._checked[key] = height
            height += 1

    def on_reorg(self, monitor, node, old_head, new_head_block, depth: int) -> None:
        lag = new_head_block.height - node.engine.final_height()
        if depth > lag:
            monitor.record(
                self.name, node.subnet_id,
                f"reorg abandoned {depth} blocks, deeper than the finality "
                f"depth {lag}",
                dedup_key=("deep-reorg", node.node_id, new_head_block.height),
            )


# ======================================================================
# Auditor 5 — parent/child membership consistency (§III-A)
# ======================================================================
class MembershipAuditor(Auditor):
    """The SA validator registry must mirror the live validator cluster."""

    name = "membership"

    def on_periodic(self, monitor, node) -> None:
        system = monitor.system
        if system is None:
            return
        state = node.vm.state
        for child_path, record in child_records(state):
            if record["status"] != "active":
                continue
            child_id = SubnetID(child_path)
            if child_id not in system.nodes_by_subnet:
                continue
            registered = set(registered_validators(state, record["sa_addr"]))
            live = {
                n.keypair.address.raw for n in system.nodes_by_subnet[child_id]
            }
            if registered != live:
                missing = sorted(registered - live)
                extra = sorted(live - registered)
                monitor.record(
                    self.name, node.subnet_id,
                    f"{child_path}: SA registry and live cluster diverge "
                    f"(registered-only={missing}, live-only={extra})",
                    dedup_key=(
                        "membership", child_path,
                        tuple(missing), tuple(extra),
                    ),
                )


#: What a monitor arms unless told otherwise — so also the ``name``s a
#: scenario's expectation may refer to.
AUDITORS = (
    SupplyAuditor, CheckpointAuditor, ExactlyOnceAuditor, FinalityAuditor, MembershipAuditor,
)
