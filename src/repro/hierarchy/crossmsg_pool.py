"""The cross-msg pool (§IV-B).

"Nodes in subnets keep two types of message pools: an internal pool …
and a cross-msg pool that listens to unverified cross-msgs directed at
(or traversing) the subnet."

The pool has two feeds:

- **top-down**: it watches the parent chain's SCA state (child validators
  run full nodes on the parent, §II) and caches every queued top-down
  message for this subnet, keyed by the parent-assigned nonce;
- **bottom-up**: it watches this subnet's own SCA for metas queued by
  committed child checkpoints, and asks the resolution service for the raw
  messages behind each ``msgsCid``.

``select`` hands the consensus proposer the nonce-contiguous run of
applicable entries — top-down messages directly, bottom-up batches only
once resolved (an unresolved batch blocks later nonces, preserving the
SCA's total order).
"""

from __future__ import annotations

from repro.hierarchy.crossmsg import ApplyBottomUp, ApplyTopDown, CrossMsg
from repro.hierarchy.checkpoint import CrossMsgMeta
from repro.hierarchy.gateway import sca_key
from repro.hierarchy.resolution import ResolutionService
from repro.hierarchy.subnet_id import SubnetID


class CrossMsgPool:
    """One node's cache of unverified cross-msgs awaiting proposal."""

    def __init__(
        self,
        sim,
        subnet_id: SubnetID,
        resolution: ResolutionService,
        parent_node=None,
        max_per_block: int = 100,
    ) -> None:
        self.sim = sim
        self.subnet_id = subnet_id
        self.resolution = resolution
        self.parent_node = parent_node
        self.max_per_block = max_per_block
        self._topdown: dict[int, CrossMsg] = {}
        self._td_scanned = 0  # next parent nonce to look for
        self._bu_metas: dict[int, CrossMsgMeta] = {}
        self._bu_scanned = 0
        if parent_node is not None:
            parent_node.on_commit(lambda block: self.scan_parent())

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def scan_parent(self) -> int:
        """Pick up newly committed top-down messages from the parent SCA.

        Returns how many new messages were cached.
        """
        if self.parent_node is None:
            return 0
        state = self.parent_node.vm.state
        found = 0
        while True:
            key = sca_key(f"td_msg/{self.subnet_id.path}/{self._td_scanned}")
            message = state.get(key)
            if message is None:
                break
            self._topdown[self._td_scanned] = message
            self._td_scanned += 1
            found += 1
        if found:
            self.sim.metrics.counter("crosspool.*.topdown_seen", self.subnet_id).inc(found)
        return found

    def scan_own(self, node) -> int:
        """Pick up newly queued bottom-up metas from this subnet's SCA and
        kick off resolution for each.  Returns how many were found."""
        state = node.vm.state
        found = 0
        while True:
            entry = state.get(sca_key(f"bu_meta/{self._bu_scanned}"))
            if entry is None:
                break
            meta: CrossMsgMeta = entry["meta"]
            self._bu_metas[self._bu_scanned] = meta
            self._bu_scanned += 1
            found += 1
            # Fetch the raw messages (push may already have cached them).
            self.resolution.request(meta.from_subnet, meta.msgs_cid)
        if found:
            self.sim.metrics.counter("crosspool.*.bottomup_seen", self.subnet_id).inc(found)
        return found

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def select(self, scratch_vm) -> list:
        """Applicable cross-msg payload entries for the next block.

        Reads the applied nonces from *scratch_vm* (the proposer's view of
        the parent state of the block being built) and returns contiguous
        runs starting there.
        """
        selected = []
        td_next = scratch_vm.state.get(sca_key("td_applied_nonce"), 0)
        while td_next in self._topdown and len(selected) < self.max_per_block:
            selected.append(ApplyTopDown(message=self._topdown[td_next], nonce=td_next))
            td_next += 1
        bu_next = scratch_vm.state.get(sca_key("bu_applied_nonce"), 0)
        while bu_next in self._bu_metas and len(selected) < self.max_per_block:
            meta = self._bu_metas[bu_next]
            messages = self.resolution.resolve_local(meta.msgs_cid)
            if messages is None:
                # Unresolved content blocks this and all later nonces — the
                # SCA's total order must not be violated (§IV-A).
                break
            selected.append(ApplyBottomUp(nonce=bu_next, messages=tuple(messages)))
            bu_next += 1
        return selected

    def prune_applied(self, vm) -> None:
        """Drop entries the chain has already applied (post-commit)."""
        td_applied = vm.state.get(sca_key("td_applied_nonce"), 0)
        for nonce in [n for n in self._topdown if n < td_applied]:
            del self._topdown[nonce]
        bu_applied = vm.state.get(sca_key("bu_applied_nonce"), 0)
        for nonce in [n for n in self._bu_metas if n < bu_applied]:
            del self._bu_metas[nonce]

    def resume_from(self, vm) -> None:
        """Restart at an adopted state: nothing *vm* has applied is pending,
        and the bottom-up scan need not revisit what it queued."""
        self.prune_applied(vm)
        self._bu_scanned = max(
            self._bu_scanned, vm.state.get(sca_key("bu_applied_nonce"), 0)
        )

    @property
    def pending(self) -> int:
        """Cached entries, both directions, not yet applied by the chain."""
        return len(self._topdown) + len(self._bu_metas)
