"""Node-side checkpointing: sign sealed windows, aggregate, submit (§III-B).

The SCA seals a checkpoint template in-state at each period boundary (a
deterministic function of the chain, so every validator derives the same
checkpoint).  This service then:

1. signs the sealed checkpoint per the SA policy (an individual signature,
   or a threshold partial) and gossips the signature on the subnet topic
   (Fig. 2's "signature window");
2. aggregates signatures until the policy quorum is met;
3. when this validator is the window's designated submitter (rotating by
   window index), submits the :class:`SignedCheckpoint` to the SA on the
   parent chain — with a timed fallback so a crashed submitter cannot stall
   checkpointing;
4. pushes the checkpoint's cross-msg batches to their destination subnets'
   resolution topics (§IV-C: "Whenever a subnet submits a new checkpoint to
   its parent, it pushes the messages behind the CIDs");
5. watches for policy-valid *conflicting* checkpoints and submits fraud
   proofs (§III-B) — the evidence that triggers slashing.

Byzantine behaviour hooks: ``equivocate_checkpoint`` makes this validator
also sign a forged conflicting checkpoint (the attack E8 measures).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.cid import CID, cid_of
from repro.crypto.keys import Address
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint
from repro.hierarchy.gateway import sca_key
from repro.hierarchy.subnet_actor import SignaturePolicy, last_committed_window
from repro.hierarchy.wallet import Wallet
from repro.sim.observe import CheckpointSubmitted


@dataclass
class CheckpointConfig:
    """Everything the service needs to know about its subnet's policy."""

    period: int  # blocks per checkpoint window
    policy: SignaturePolicy
    sa_addr: str  # the SA's address on the parent chain
    validator_index: int  # position in the sorted set; share index - 1
    validator_count: int
    submit_fallback_delay: float = 10.0  # seconds before backups also submit
    # How long the designated submitter waits for stragglers before
    # submitting a partial (but still quorum-satisfying) signature set.
    # The grace deadline makes the submitted bundle deterministic: at
    # sign-time + grace every signature that will ever arrive has arrived,
    # so the bundle is "all non-withheld signatures" independent of the
    # order in which same-timestamp deliveries happened to fire.
    submit_grace_delay: float = 2.0


@dataclass
class _WindowBook:
    """What one validator knows about one checkpoint window."""

    genuine: Optional[Checkpoint] = None  # what this chain sealed, once final
    # ckpt cid hex -> {"sigs": {signer id -> signature/partial}, "body": Checkpoint?}
    # for every checkpoint anyone signed: a second complete one is equivocation.
    seen: dict = field(default_factory=dict)
    submitted: bool = False
    fraud_reported: bool = False

    def entry(self, ckpt_cid: CID) -> dict:
        return self.seen.setdefault(ckpt_cid.hex(), {"sigs": {}, "body": None})

    @property
    def signatures(self) -> dict:
        """Contributions over the genuine checkpoint, in arrival order."""
        return self.entry(self.genuine.cid)["sigs"]


class CheckpointService:
    """Drives the checkpoint duties of a subnet validator (one that has a
    parent: the rootnet runs none)."""

    def __init__(self, sim, node, config: CheckpointConfig) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.wallet = Wallet(node.keypair)
        # window -> what we hold for it (created on first mention)
        self._books: defaultdict[int, _WindowBook] = defaultdict(_WindowBook)
        self._last_processed_window = -1

    # ------------------------------------------------------------------
    # Block-driven progress
    # ------------------------------------------------------------------
    def on_block(self, block) -> None:
        """Called for every committed block on this subnet's chain."""
        finality_lag = (
            self.node.engine.params.finality_depth
            if self.node.engine.SUPPORTS_FORKS
            else 0
        )
        final_height = self.node.head().height - finality_lag
        # Sealed windows become actionable once their sealing block is final.
        while True:
            next_window = self._last_processed_window + 1
            seal_height = (next_window + 1) * self.config.period
            if seal_height > final_height:
                break
            checkpoint = self.node.vm.state.get(sca_key(f"ckpt/{next_window}"))
            if checkpoint is None:
                break  # not sealed yet (chain shorter than expected)
            self._last_processed_window = next_window
            self._sign_and_gossip(next_window, checkpoint)

    def resume_after(self, window: int) -> None:
        """Restart at an adopted state whose anchor is *window*'s ``proof``:
        the parent already holds every window up to it."""
        self._last_processed_window = max(self._last_processed_window, window)

    def forget_below(self, window: int) -> None:
        """The parent holds *window*: drop the books of every earlier one.
        *window* itself and anything newer stay, so a late conflicting
        signature can still become a fraud proof."""
        for stale in [w for w in self._books if w < window]:
            del self._books[stale]

    def _sign_and_gossip(self, window: int, checkpoint: Checkpoint) -> None:
        # Signatures that arrived before we processed the seal — gossip can
        # outrun a node's own block pipeline — are already in the book.
        book = self._books[window]
        book.genuine = checkpoint
        book.entry(checkpoint.cid)["body"] = checkpoint
        payload = checkpoint.cid.hex()
        signature = self._produce_signature(payload)
        if signature is None:
            return
        self._record_signature(window, checkpoint.cid, self.node.node_id, signature)
        self.node.broadcast(
            "ckpt:sig", (window, checkpoint.cid, self.node.node_id, signature)
        )
        if self.node.is_byzantine("equivocate_checkpoint"):
            forged = Checkpoint(
                source=checkpoint.source,
                proof=cid_of(("forged", window, self.node.node_id)),
                prev=checkpoint.prev,
                children=checkpoint.children,
                cross_meta=checkpoint.cross_meta,
                window=checkpoint.window,
                epoch=checkpoint.epoch,
            )
            forged_sig = self._produce_signature(forged.cid.hex())
            self.sim.metrics.counter(
                "checkpoint.*.equivocations", self.node.subnet_id
            ).inc()
            self.node.broadcast(
                "ckpt:sig", (window, forged.cid, self.node.node_id, forged_sig)
            )
            # Gossip the forged checkpoint body so watchers can build proofs.
            self.node.broadcast("ckpt:body", (window, forged))
        # Fallback submission if the designated submitter stalls.
        self.sim.schedule(
            self.config.submit_fallback_delay,
            self._fallback_submit,
            window,
            label="ckpt:fallback",
        )
        if self._is_designated_submitter(window):
            # Grace deadline: submit with whatever quorum exists once every
            # signature that will ever arrive has had time to arrive.  Until
            # then _maybe_submit only fires on a complete signature set, so
            # the submitted bundle never depends on delivery tie order.
            self.sim.schedule(
                self.config.submit_grace_delay,
                self._maybe_submit,
                window,
                True,
                label="ckpt:grace",
            )
        self._maybe_submit(window)

    def _produce_signature(self, payload: str):
        if self.node.is_byzantine("withhold_checkpoint_sig"):
            return None
        return self.config.policy.sign(
            self.node.keypair, self.config.validator_index + 1, self.node.subnet_id, payload
        )

    # ------------------------------------------------------------------
    # Signature aggregation
    # ------------------------------------------------------------------
    def handle(self, kind: str, payload) -> None:
        """Process checkpoint-related pubsub traffic."""
        if kind == "ckpt:sig":
            window, ckpt_cid, signer_id, signature = payload
            self._record_signature(window, ckpt_cid, signer_id, signature)
            self._check_equivocation(window)
            self._maybe_submit(window)
        elif kind == "ckpt:body":
            window, checkpoint = payload
            self._books[window].entry(checkpoint.cid)["body"] = checkpoint
            self._check_equivocation(window)

    def _record_signature(self, window: int, ckpt_cid: CID, signer_id: str, signature) -> None:
        if signature is not None:
            self._books[window].entry(ckpt_cid)["sigs"][signer_id] = signature

    def _bundle(self, checkpoint: Checkpoint, contributions: dict):
        """The policy's signature bundle over *checkpoint*, or None below quorum."""
        return self.config.policy.bundle(
            contributions.values(), self.node.subnet_id, checkpoint.cid.hex()
        )

    # ------------------------------------------------------------------
    # Submission to the parent
    # ------------------------------------------------------------------
    def _is_designated_submitter(self, window: int) -> bool:
        return window % self.config.validator_count == self.config.validator_index

    def _maybe_submit(self, window: int, grace_over: bool = False) -> None:
        # Only the *complete* signature set is submitted eagerly.  A partial
        # set that merely satisfies quorum would depend on which deliveries
        # happened to fire first among same-timestamp events — a tie-order
        # race (caught by ``Simulator(tie_shuffle=...)``).  Incomplete sets
        # wait for the deterministic grace deadline instead.
        book = self._books.get(window)
        if book is None or book.genuine is None or book.submitted:
            return
        if not self._is_designated_submitter(window):
            return
        if grace_over or len(book.signatures) >= self.config.validator_count:
            self._try_submit(window, book)

    def _fallback_submit(self, window: int, attempt: int = 0) -> None:
        """Backup path: while the parent still lacks this window, (re)submit.

        Also covers the case where an earlier submission failed to chain
        (e.g. a predecessor window landed late): the SA's recorded window is
        the ground truth, so we keep retrying with backoff until it shows.
        """
        book = self._books.get(window)  # gone: the parent holds a later one
        if attempt > 10 or book is None:
            return
        if last_committed_window(self.node.parent_node.vm.state, self.config.sa_addr) >= window:
            book.submitted = True
            return
        self._try_submit(window, book)
        self.sim.schedule(
            self.config.submit_fallback_delay,
            self._fallback_submit,
            window,
            attempt + 1,
            label="ckpt:fallback",
        )

    def _try_submit(self, window: int, book: _WindowBook) -> None:
        if self.node.is_byzantine("withhold_checkpoint"):
            return
        checkpoint = book.genuine
        bundle = self._bundle(checkpoint, book.signatures)
        if bundle is None:
            return
        signed = SignedCheckpoint(checkpoint=checkpoint, signatures=bundle)
        self.wallet.send(
            self.node.parent_node,
            Address(self.config.sa_addr),
            method="submit_checkpoint",
            params={"signed": signed},
        )
        book.submitted = True
        self.sim.metrics.counter("checkpoint.*.submitted", self.node.subnet_id).inc()
        self.sim.trace.emit(
            "checkpoint.submit", str(self.node.subnet_id),
            f"window={window}", checkpoint.cid.short(),
        )
        self.sim.observe(
            CheckpointSubmitted, checkpoint.cid.hex(), str(self.node.subnet_id), window
        )
        self._push_contents(checkpoint)

    def _push_contents(self, checkpoint: Checkpoint) -> None:
        """Push each batch to the subnets that will need it (Fig. 4).

        The final destination applies the messages, and for path messages
        the parent (as LCA or relay hop) applies them first — push to both.
        """
        resolution = self.node.resolution
        parent = self.node.subnet.parent()
        for meta in checkpoint.cross_meta:
            messages = resolution.resolve_local(meta.msgs_cid)
            if messages is None:
                continue
            resolution.push(meta.to_subnet, meta.msgs_cid, messages)
            if meta.to_subnet != parent:
                resolution.push(parent, meta.msgs_cid, messages)

    # ------------------------------------------------------------------
    # Fraud proofs (§III-B)
    # ------------------------------------------------------------------
    def _check_equivocation(self, window: int) -> None:
        """Two policy-signed conflicting checkpoints → submit a fraud proof."""
        book = self._books[window]
        if book.fraud_reported or len(book.seen) < 2:
            return
        # Sort by checkpoint CID so the proof pair (and its order inside the
        # fraud-proof transaction) is independent of gossip arrival order.
        quorum = self.config.policy.quorum
        complete = [
            entry
            for _cid_hex, entry in sorted(book.seen.items())
            if entry["body"] is not None and len(entry["sigs"]) >= quorum
        ]
        if len(complete) < 2 or complete[0]["body"].prev != complete[1]["body"].prev:
            return
        proofs = [
            SignedCheckpoint(
                checkpoint=entry["body"],
                signatures=self._bundle(entry["body"], entry["sigs"]),
            )
            for entry in complete[:2]
        ]
        if any(proof.signatures is None for proof in proofs):
            return  # shares that do not combine attribute nothing
        book.fraud_reported = True
        self.wallet.send(
            self.node.parent_node,
            Address(self.config.sa_addr),
            method="submit_fraud_proof",
            params={"first": proofs[0], "second": proofs[1]},
        )
        self.sim.metrics.counter("checkpoint.*.fraud_proofs", self.node.subnet_id).inc()
        self.sim.trace.emit("checkpoint.fraud_proof", str(self.node.subnet_id), f"window={window}")
