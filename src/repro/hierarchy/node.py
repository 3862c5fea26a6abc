"""A hierarchical-consensus subnet validator node.

Extends the shared :class:`~repro.runtime.node.NodeRuntime` with everything
§II asks of subnet full nodes:

- syncing the parent chain ("child subnet nodes also run full nodes on the
  parent subnet"): the node holds a parent full-node view and watches its
  SCA state through the cross-msg pool;
- proposing and applying cross-msgs from the cross-msg pool (§IV-B);
- sealing checkpoint windows in-state at every period boundary and driving
  the signature/submission flow (§III-B) via the checkpoint service;
- serving and requesting cross-msg content through the resolution service
  (§IV-C).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.chain.block import ZERO_CID
from repro.chain.validation import ValidationError
from repro.hierarchy.checkpointing import CheckpointConfig, CheckpointService
from repro.hierarchy.crossmsg import ApplyBottomUp, ApplyTopDown
from repro.hierarchy.crossmsg_pool import CrossMsgPool
from repro.hierarchy.gateway import SCA_ADDRESS, sca_key
from repro.hierarchy.resolution import ResolutionService
from repro.hierarchy.subnet_actor import last_committed_checkpoint
from repro.hierarchy.subnet_id import SubnetID
from repro.runtime.node import NodeRuntime
from repro.vm.vm import SYSTEM_ADDRESS, VM


class SubnetNode(NodeRuntime):
    """A validator (or observer) of one subnet in the hierarchy."""

    def __init__(
        self,
        sim,
        node_id: str,
        keypair,
        subnet: SubnetID,
        genesis_block,
        genesis_vm,
        gossip,
        validators,
        consensus_params,
        checkpoint_period: int,
        parent_node: Optional["SubnetNode"] = None,
        checkpoint_config: Optional[CheckpointConfig] = None,
        byzantine: Optional[set] = None,
        cache_pushes: bool = True,
        push_drop_probability: float = 0.0,
        accelerate: bool = False,
    ) -> None:
        super().__init__(
            sim=sim,
            node_id=node_id,
            keypair=keypair,
            subnet_id=subnet.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            gossip=gossip,
            validators=validators,
            consensus_params=consensus_params,
            byzantine=byzantine,
        )
        self.subnet = subnet
        self.checkpoint_period = checkpoint_period
        self.parent_node = parent_node
        self.resolution = ResolutionService(
            sim=sim,
            node_id=node_id,
            subnet_id=subnet,
            gossip=gossip,
            # the SCA's registry in this node's own chain state
            state_reader=lambda cid_hex: self.vm.state.get(sca_key(f"registry/{cid_hex}")),
            cache_pushes=cache_pushes,
            push_drop_rng=sim.rng("resolution-drop", node_id),
            push_drop_probability=push_drop_probability,
        )
        self.crosspool = CrossMsgPool(
            sim=sim,
            subnet_id=subnet,
            resolution=self.resolution,
            parent_node=parent_node,
        )
        self.checkpoints: Optional[CheckpointService] = None
        if checkpoint_config is not None and parent_node is not None:
            self.checkpoints = CheckpointService(sim, self, checkpoint_config)
        self.acceleration = None
        if accelerate:
            from repro.hierarchy.acceleration import AccelerationService

            self.acceleration = AccelerationService(sim, self)
        self.on_commit(self._on_own_block)

    # ------------------------------------------------------------------
    # Commit-driven housekeeping
    # ------------------------------------------------------------------
    def _on_own_block(self, block) -> None:
        self.crosspool.scan_own(self)
        self.crosspool.prune_applied(self.vm)
        if self.checkpoints is not None:
            self.checkpoints.on_block(block)
            if block.height % self.checkpoint_period == 0:
                # Forget nothing the parent has not checkpointed: the anchor
                # a peer behind our floor will ask for stays servable.  Read
                # once a window; a stale hold only keeps a little more.
                checkpoint = self._parent_checkpoint()
                self.store.hold = -1 if checkpoint is None else checkpoint.epoch - 1
                if checkpoint is not None:
                    self.checkpoints.forget_below(checkpoint.window)

    # ------------------------------------------------------------------
    # Snapshot sync: the parent names the anchor (§III-B)
    # ------------------------------------------------------------------
    def _parent_checkpoint(self):
        """This subnet's last checkpoint as the parent's SA holds it."""
        return last_committed_checkpoint(
            self.parent_node.vm.state, self.checkpoints.config.sa_addr
        )

    def snapshot_anchor(self) -> Optional[CID]:
        """``proof`` of this subnet's last checkpoint in the parent — the
        child block the parent chain commits to.  While the parent holds no
        checkpoint yet that is a CID no header has; the rootnet has no
        parent to ask (None)."""
        if self.checkpoints is None:
            return None
        checkpoint = self._parent_checkpoint()
        return ZERO_CID if checkpoint is None else checkpoint.proof

    def adopt_snapshot(self, header, items) -> bool:
        if not super().adopt_snapshot(header, items):
            return False
        # The services that follow the chain by cursor restart at the floor.
        self.crosspool.resume_from(self.vm)
        if self.checkpoints is not None:
            self.checkpoints.resume_after(
                (header.height + 1) // self.checkpoint_period - 1
            )
        return True

    # ------------------------------------------------------------------
    # Pubsub routing (checkpoint traffic shares the subnet topic)
    # ------------------------------------------------------------------
    def _on_pubsub(self, envelope) -> None:
        kind, payload = envelope.data
        if kind.startswith("ckpt:"):
            if envelope.publisher != self.node_id and self.checkpoints is not None:
                self.checkpoints.handle(kind, payload)
            return
        super()._on_pubsub(envelope)

    # ------------------------------------------------------------------
    # Cross-msg proposal and application
    # ------------------------------------------------------------------
    def select_cross_messages(self, scratch_vm: VM) -> list:
        # Freshen the top-down cache right before proposing (the parent may
        # have committed since the last notification).
        self.crosspool.scan_parent()
        return self.crosspool.select(scratch_vm)

    def apply_cross_message(self, vm: VM, cross, miner: Address):
        """Execute one block cross-msg entry against *vm*; returns the receipt.

        Failures are deterministic across nodes (same inputs, same state),
        so a failed receipt simply records the refusal; state roots still
        agree.
        """
        if isinstance(cross, ApplyTopDown):
            receipt = vm.apply_implicit(
                SYSTEM_ADDRESS, SCA_ADDRESS, "apply_topdown",
                {"message": cross.message, "nonce": cross.nonce},
            )
            direction = "topdown"
            family = "crossmsg.*.topdown_ok" if receipt.ok else "crossmsg.*.topdown_failed"
        elif isinstance(cross, ApplyBottomUp):
            receipt = vm.apply_implicit(
                SYSTEM_ADDRESS, SCA_ADDRESS, "apply_bottomup",
                {"nonce": cross.nonce, "messages": cross.messages},
            )
            direction = "bottomup"
            family = "crossmsg.*.bottomup_ok" if receipt.ok else "crossmsg.*.bottomup_failed"
        else:
            raise ValidationError(f"unknown cross-msg payload {type(cross).__name__}")
        self.sim.metrics.counter(family, self.subnet_id).inc()
        if not receipt.ok:
            self.sim.trace.emit("crossmsg.apply_failed", self.subnet_id, direction, receipt.error)
        return receipt

    # ------------------------------------------------------------------
    # Window sealing
    # ------------------------------------------------------------------
    def _execute_payload(self, vm, messages, cross_messages, miner, height, parent_cid=None):
        """Seal the previous checkpoint window before the block's payload.

        At the first block of each window (height divisible by the period)
        the SCA deterministically builds the previous window's checkpoint
        template, using the parent block's CID as the chain ``proof``.
        """
        events: list = []
        if (
            height > 0
            and height % self.checkpoint_period == 0
            and vm.actor_code(SCA_ADDRESS) == "sca"
        ):
            window = height // self.checkpoint_period - 1
            receipt = vm.apply_implicit(
                SYSTEM_ADDRESS, SCA_ADDRESS, "seal_window",
                {"window": window, "proof_cid": parent_cid},
            )
            events.extend(receipt.events)
            if not receipt.ok:
                self.sim.trace.emit(
                    "checkpoint.seal_failed", self.subnet_id,
                    f"window={window}", receipt.error,
                )
        events.extend(
            super()._execute_payload(vm, messages, cross_messages, miner, height, parent_cid)
        )
        return events
