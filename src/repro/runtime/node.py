"""The generic validator node — one runtime for every chain in the system.

``NodeRuntime`` owns one chain's store, VM, mempool and consensus engine,
wired to the subnet's pubsub topic.  Consensus is pluggable through the
engine registry (:func:`repro.consensus.base.make_engine`); transport is
the shared :class:`~repro.net.gossip.GossipNetwork` facade over
:class:`~repro.net.transport.Transport`; the block pipeline (assembly,
validation, execution, reorg housekeeping) comes from :mod:`repro.chain`.

The hierarchy layer subclasses this with cross-net behaviour (cross-msg
pool, checkpoint signing, parent syncing); the single-chain and sharded
baselines and the consensus unit tests instantiate it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.crypto.cid import CID
from repro.crypto.keys import Address, KeyPair
from repro.chain.block import BlockHeader, FullBlock
from repro.chain.chainstore import ChainStore
from repro.chain.message_pool import MessagePool
from repro.chain.validation import ValidationError, validate_block_shape
from repro.consensus.base import ConsensusParams, ValidatorSet, make_engine
from repro.net.gossip import GossipNetwork, PubsubEnvelope
from repro.sim.observe import BlockCommitted, ChainReorg
from repro.storage.backend import MemoryBackend
from repro.storage.statetree import StateTree
from repro.vm.builtin.reward import REWARD_ACTOR_ADDRESS
from repro.vm.message import SignedMessage
from repro.vm.vm import SYSTEM_ADDRESS, VM


def subnet_topic(subnet_id: str) -> str:
    """The pubsub topic carrying a subnet's chain traffic (§III-A)."""
    return f"subnet:{subnet_id}"


#: The RPC endpoints a node serves: canonical-chain blocks in [start, end],
#: and — for a requester further behind than this node's floor — the header
#: and flat state at a block the requester can check against its parent.
BLOCK_RANGE_RPC = "chain:blocks"
SNAPSHOT_RPC = "chain:snapshot"


class BelowFloor(LookupError):
    """A range request reached below the bodies the serving node still holds."""


class NodeRuntime:
    """A full node validating one subnet chain."""

    def __init__(
        self,
        sim,
        node_id: str,
        keypair: KeyPair,
        subnet_id: str,
        genesis_block: FullBlock,
        genesis_vm: VM,
        gossip: GossipNetwork,
        validators: ValidatorSet,
        consensus_params: ConsensusParams,
        byzantine: Optional[set] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.keypair = keypair
        self.miner_address = keypair.address
        self.subnet_id = subnet_id
        self.gossip = gossip
        self.validators = validators
        self.byzantine = set(byzantine or ())

        self.store = ChainStore()
        self.store.add_block(genesis_block)
        self.vm = genesis_vm.copy()
        self.vm.epoch = 0
        self.mempool = MessagePool()
        # parent -> {cid: waiting block}; a block redelivered n times parks once
        self._orphans: dict[CID, dict[CID, FullBlock]] = {}
        # Post-states of blocks this node assembled itself, keyed by block
        # CID: when the block comes back through receive_block unchanged,
        # the deterministic execution need not be repeated.  Bounded; an
        # entry is dropped on use or overflow (engines that mutate the
        # header after assembly simply miss and re-execute).
        self._assembled: dict[CID, tuple[VM, tuple]] = {}
        self._commit_listeners: list[Callable[[FullBlock], None]] = []
        self._restart_epoch = 0  # invalidates pending restart resumes
        # Blocks already announced, and the protocol events (receipt events)
        # of executed-but-not-yet-announced ones — the latter kept only while
        # a commit-time observer (span tracer or invariant monitor) is
        # installed on the simulator.  Both forget a block when the store does.
        self._notified: set[CID] = {genesis_block.cid}
        self._block_events: dict[CID, tuple] = {}
        self.store.on_forget(self._forget_block)
        #: User transactions on this node's canonical chain, counted at commit.
        self.committed_txs = 0

        self.engine = make_engine(sim, self, validators, consensus_params)
        # State snapshots are kept for every engine (pruned by depth): even
        # "fork-free" engines fork transiently under partitions, and a
        # recovering node must be able to validate blocks off its own head.
        # Snapshots are O(1) tree forks sharing structure with the live VM.
        self.store.put_state(genesis_block.cid, self.vm.state.fork())

        self.topic = subnet_topic(subnet_id)
        gossip.subscribe(node_id, self.topic, self._on_pubsub)
        # Direct sync for peers that fall further behind than gossip's IHAVE
        # history window covers: a block range, or past the server's floor a
        # snapshot.  One request in flight at a time.
        self._sync_inflight = False
        gossip.rpc.expose(node_id, BLOCK_RANGE_RPC, self._serve_block_range)
        gossip.rpc.expose(node_id, SNAPSHOT_RPC, self._serve_snapshot)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.engine.start()

    def stop(self) -> None:
        self.engine.stop()
        self._restart_epoch += 1  # cancel any pending sync-grace resume
        self.gossip.unsubscribe(self.node_id, self.topic)

    def restart(
        self, sync_grace: float = 1.0, max_sync_wait: float = 15.0
    ) -> None:
        """Rejoin the subnet after a :meth:`stop` (crash/restart faults).

        Re-subscribes the chain topic immediately — gossip (eager mesh
        push plus lazy IHAVE/IWANT repair) starts filling the blocks the
        node missed while down — but keeps the engine paused until the
        local head looks *caught up* (its timestamp within two block
        times of now).  A validator proposing off a stale head the moment
        it comes back self-commits a conflicting block on lag-0 engines,
        so it listens passively first, polling every *sync_grace*
        simulated seconds.  After *max_sync_wait* it starts regardless —
        if the whole subnet is stalled no head ever looks fresh, and a
        proposer is exactly what the subnet is missing.  ``sync_grace=0``
        restores the immediate restart.  Idempotent; a :meth:`stop`
        during the wait cancels the pending resume.
        """
        self.gossip.subscribe(self.node_id, self.topic, self._on_pubsub)
        self._restart_epoch += 1
        token = self._restart_epoch
        if sync_grace <= 0:
            if not self.engine.running:
                self.engine.start()
            return
        deadline = self.sim.now + max_sync_wait
        freshness = 2.0 * self.engine.params.block_time

        def _resume() -> None:
            if token != self._restart_epoch or self.engine.running:
                return
            caught_up = self.sim.now - self.head().header.timestamp <= freshness
            if caught_up or self.sim.now >= deadline:
                self.engine.start()
            else:
                self.sim.schedule(sync_grace, _resume, label="node:restart")

        self.sim.schedule(sync_grace, _resume, label="node:restart")

    def swap_engine(self, engine_factory) -> Any:
        """Replace the consensus engine in place; returns the old engine.

        *engine_factory* is called as ``factory(sim, node, validators,
        params)`` — the same plug point as
        :func:`repro.consensus.base.make_engine`.  The old engine is
        stopped first and handed back so a fault can restore it on heal.
        """
        old = self.engine
        was_running = old.running
        old.stop()
        self.engine = engine_factory(self.sim, self, self.validators, old.params)
        if was_running:
            self.engine.start()
        return old

    def is_byzantine(self, behaviour: str) -> bool:
        return behaviour in self.byzantine

    # ------------------------------------------------------------------
    # Pubsub
    # ------------------------------------------------------------------
    def _on_pubsub(self, envelope: PubsubEnvelope) -> None:
        kind, payload = envelope.data
        if envelope.publisher == self.node_id:
            return  # own messages were handled locally at publish time
        if kind == "msg":
            signed: SignedMessage = payload
            self.mempool.add(signed)
        else:
            self.engine.handle(kind, payload, envelope.publisher)

    def broadcast(self, kind: str, payload: Any) -> None:
        self.gossip.publish(self.node_id, self.topic, (kind, payload))

    # ------------------------------------------------------------------
    # User-facing entry points
    # ------------------------------------------------------------------
    def submit_message(self, signed: SignedMessage) -> bool:
        """Accept a user transaction into the mempool and gossip it."""
        if not self.mempool.add(signed):
            return False
        self.broadcast("msg", signed)
        return True

    def head(self) -> FullBlock:
        return self.store.head

    # ------------------------------------------------------------------
    # Direct sync (RPC; for gaps beyond gossip's IHAVE history).  The rungs
    # above gossip and IWANT: ``chain:blocks`` while the gap lies above the
    # server's floor, ``chain:snapshot`` + the tail once it does not.
    # ------------------------------------------------------------------
    def _serve_block_range(self, caller: str, params) -> list:
        """RPC ``chain:blocks``: canonical-chain blocks in [start, end]."""
        if not self.engine.running:
            raise RuntimeError("node not serving")  # down/syncing nodes abstain
        return self.blocks_in_range(*params)

    def blocks_in_range(self, start: int, end: int) -> list:
        """Canonical blocks [start, min(end, head)] — all of them, or
        :class:`BelowFloor`: a range is never served short."""
        if start < self.store.floor:
            raise BelowFloor(f"bodies start at {self.store.floor}, asked for {start}")
        blocks: list[FullBlock] = []
        cursor = self.store.head
        while cursor is not None and cursor.height >= start:
            if cursor.height <= end:
                blocks.append(cursor)
            cursor = self.store.get_optional(cursor.header.parent)
        blocks.reverse()
        return blocks

    def request_block_range(self, peer: str, start: int, end: int) -> bool:
        """Fetch blocks [start, end] from *peer* and apply them as final.

        Used when a commit certificate proves a future block but the
        ancestors are no longer advertisable over gossip.  One request in
        flight at a time; the parked orphan cascade applies the rest.  A
        peer whose floor lies above *start* says so, and the request moves
        to :meth:`request_snapshot`.
        """
        if self._sync_inflight or end < start or peer == self.node_id:
            return False
        self._sync_inflight = True

        def _on_blocks(result, error) -> None:
            self._sync_inflight = False
            if error is not None and error.startswith(BelowFloor.__name__):
                self.request_snapshot(peer, end)
                return
            # A list that does not begin where we asked cannot connect.
            if error is not None or not result or result[0].height != start:
                self.sim.metrics.counter("chain.*.sync_failed", self.subnet_id).inc()
                return
            self.sim.metrics.counter("chain.*.sync_blocks", self.subnet_id).inc(
                len(result)
            )
            # Synced blocks adopt the engine's own finality semantics —
            # instant-finality engines only serve decided blocks, while
            # fork-capable ones (PoW) keep depth-based finality intact.
            final = self.engine.INSTANT_FINALITY
            for block in result:
                self.receive_block(block, final=final)

        self.gossip.rpc.call(
            self.node_id, peer, BLOCK_RANGE_RPC, (start, end), _on_blocks
        )
        return True

    # -- snapshot sync --------------------------------------------------
    def snapshot_anchor(self) -> Optional[CID]:
        """The block a snapshot must be taken at, as someone this node
        trusts more than the serving peer names it.  The base chain has
        nobody above it (None: its validator set vouches instead); the
        hierarchy node reads its parent."""
        return None

    def _serve_snapshot(self, caller: str, anchor: Optional[CID]) -> tuple:
        """RPC ``chain:snapshot``: see :meth:`snapshot_at`."""
        if not self.engine.running:
            raise RuntimeError("node not serving")
        return self.snapshot_at(anchor)

    def snapshot_at(self, anchor: Optional[CID]) -> tuple:
        """``(header, flat state)`` at block *anchor*; without one,
        at the block this node reports final: the last final height that is
        a multiple of half the horizon, so validators a block or two apart
        name the same header."""
        if anchor is None:
            lag = self.engine.params.finality_depth if self.engine.SUPPORTS_FORKS else 0
            final = self.store.height - lag
            block = self.store.block_at_height(final - final % (self.store.prune_depth // 2))
        else:
            block = self.store.get_optional(anchor)
        state = None if block is None else self._state_at(block.cid)
        if state is None:
            raise LookupError("no state held at the anchor")
        return block.header, state.flatten()

    def request_snapshot(self, peer: str, tail_end: int) -> bool:
        """The last rung: adopt the state at the anchor, then range-sync
        (anchor, *tail_end*] from *peer*.

        With a parent, *peer* alone is asked, for the block the parent's
        checkpoint names; without one, every other validator is asked for
        the header it reports final.  The first reply whose header is
        trusted (:meth:`_anchor_trusted`) and whose state checks out
        (:meth:`adopt_snapshot`) is adopted; the rest are ignored.
        """
        if self._sync_inflight:
            return False
        anchor = self.snapshot_anchor()
        if anchor is not None:
            servers = [peer]
        else:
            servers = [
                v.node_id for v in self.validators.validators if v.node_id != self.node_id
            ]
        if not servers:
            return False
        self._sync_inflight = True
        pending = len(servers)
        adopted = False
        vouchers: dict[CID, list[str]] = {}  # header -> the servers that served it

        def _on_reply(server: str, result, error) -> None:
            nonlocal pending, adopted
            pending -= 1
            if adopted:
                return
            if error is None:
                header, items = result
                vouchers.setdefault(header.cid, []).append(server)
                if self._anchor_trusted(header, vouchers[header.cid]) and (
                    self.adopt_snapshot(header, items)
                ):
                    adopted = True
                    self._sync_inflight = False
                    self._retry_orphans(header.cid, self.engine.INSTANT_FINALITY)
                    self.request_block_range(peer, self.head().height + 1, tail_end)
                    return
            if pending == 0:
                self._sync_inflight = False
                self.sim.metrics.counter("chain.*.sync_failed", self.subnet_id).inc()

        for server in servers:
            self.gossip.rpc.call(
                self.node_id, server, SNAPSHOT_RPC, anchor,
                lambda result, error, server=server: _on_reply(server, result, error),
            )
        return True

    def _anchor_trusted(self, header: BlockHeader, served_by: list) -> bool:
        """Is *header* a block to restart from?  With a parent: only if it
        is what the parent's checkpoint names *now* — a checkpoint
        superseded while the reply was in flight is stale.  Without one:
        once the servers that reported it hold a majority of the validator
        set's power."""
        proof = self.snapshot_anchor()
        if proof is not None:
            return header.cid == proof
        return 2 * self.validators.power_of(served_by) > self.validators.total_power

    def adopt_snapshot(self, header: BlockHeader, items: dict) -> bool:
        """Make *header* and the state *items* this node's floor — if the
        state, rebuilt from nothing, has the root the header commits to.

        Whether *header* itself is to be believed is the caller's question
        (:meth:`request_snapshot`); this answers whether *items* is the
        state it names.
        """
        ahead = header.subnet_id == self.subnet_id and header.height > self.store.height
        tree = StateTree(backend=MemoryBackend(items))
        if not ahead or tree.root() != header.state_root:
            self.sim.metrics.counter("chain.*.snapshot_refused", self.subnet_id).inc()
            self.sim.trace.emit("snapshot.refused", self.subnet_id, header.cid.short())
            return False
        self.store.adopt(header)
        self.vm = self._vm_from_state(tree)
        self.vm.epoch = header.height
        self._notified = {header.cid}
        self._block_events.clear()
        self._assembled.clear()
        self.mempool.drop_stale(self.vm.nonce_of)
        self.sim.metrics.counter("chain.*.snapshot_adopted", self.subnet_id).inc()
        self.sim.trace.emit(
            "snapshot.adopted", self.subnet_id, f"h={header.height}", header.cid.short()
        )
        return True

    # ------------------------------------------------------------------
    # Block assembly (called by the consensus engine when we lead)
    # ------------------------------------------------------------------
    def assemble_block(
        self,
        height: int,
        parent_cid: CID,
        consensus_data: dict,
        message_filter: Optional[Callable[[SignedMessage], bool]] = None,
    ) -> FullBlock:
        parent_state = self._state_at(parent_cid)
        scratch = self._vm_from_state(parent_state)
        scratch.epoch = height

        selected = self.mempool.select(
            nonce_of=scratch.nonce_of,
            max_messages=self.engine.params.max_block_messages,
        )
        if message_filter is not None:
            selected = [s for s in selected if message_filter(s)]
        cross = self.select_cross_messages(scratch)

        events = self._execute_payload(
            scratch, selected, cross, self.miner_address, height, parent_cid
        )
        header = BlockHeader(
            subnet_id=self.subnet_id,
            height=height,
            parent=parent_cid,
            state_root=scratch.state_root(),
            messages_root=FullBlock.compute_messages_root(selected, cross),
            timestamp=self.sim.now,
            miner=self.miner_address,
            consensus_data=consensus_data,
        )
        block = FullBlock(
            header=header, messages=tuple(selected), cross_messages=tuple(cross)
        )
        self._assembled[block.cid] = (scratch, tuple(events))
        while len(self._assembled) > 16:
            self._assembled.pop(next(iter(self._assembled)))
        self._publish_execution(block.cid, scratch.state, events)
        return block

    def select_cross_messages(self, scratch_vm: VM) -> list:
        """Cross-msgs to include; the hierarchy node overrides this."""
        return []

    # ------------------------------------------------------------------
    # Block reception (from the engine, local or remote)
    # ------------------------------------------------------------------
    def receive_block(
        self, block: FullBlock, final: bool, sender: Optional[str] = None
    ) -> bool:
        """Validate, execute and store *block*; returns acceptance.

        Out-of-order blocks (parent unknown) are parked and retried when
        the parent arrives — PoW gossip can deliver children first.  When
        the peer *sender* delivered one from beyond ``head + 1``, the gap
        may be older than gossip's IHAVE history still covers (a long
        outage), so the missing range is fetched from that peer directly;
        the orphan cascade then lands the parked block too.
        """
        if self.store.has(block.cid):
            return False
        parent = self.store.get_optional(block.header.parent)
        if parent is None:
            self._orphans.setdefault(block.header.parent, {})[block.cid] = block
            head_height = self.store.head.height
            if sender is not None and block.height > head_height + 1:
                self.request_block_range(sender, head_height + 1, block.height - 1)
            return False
        try:
            validate_block_shape(block, parent, self.subnet_id)
        except ValidationError as err:
            self.sim.metrics.counter("chain.*.invalid_blocks", self.subnet_id).inc()
            self.sim.trace.emit("block.invalid", self.subnet_id, block.cid.short(), err)
            return False

        assembled = self._assembled.pop(block.cid, None)
        shared = None if assembled is not None else self._shared_execution(block.cid)
        if assembled is not None:
            # Our own assembly: the post-state was already computed from
            # this exact (parent state, payload); execution is deterministic,
            # so re-running it (and re-checking the root it produced) would
            # only reproduce the same result.
            scratch, events = assembled
        elif shared is not None:
            # Another honest validator of this subnet already executed this
            # exact block; fork its published post-state instead of
            # re-deriving it (identical by determinism).
            tree, events = shared
            scratch = self._vm_from_state(tree)
            scratch.epoch = block.height
        else:
            parent_state = self._state_at(block.header.parent)
            if parent_state is None:
                return False  # state pruned too deep to validate; ignore
            scratch = self._vm_from_state(parent_state)
            scratch.epoch = block.height
            events = self._execute_payload(
                scratch, block.messages, block.cross_messages,
                block.header.miner, block.height, block.header.parent,
            )
            if scratch.state_root() != block.header.state_root:
                self.sim.metrics.counter("chain.*.state_mismatch", self.subnet_id).inc()
                self.sim.trace.emit(
                    "block.state_mismatch", self.subnet_id, block.cid.short()
                )
                return False
            self._publish_execution(block.cid, scratch.state, events)
        if shared is None:
            # Only executions that computed a root report root work: on the
            # shared path this node never hashed anything, and publishing a
            # zero would just mask the executing node's sample.
            self.sim.metrics.gauge("state.root.buckets_rehashed").set(
                scratch.state.last_root_rehashed
            )
            self.sim.metrics.gauge("state.root.leaves_encoded").set(
                scratch.state.last_root_leaves_encoded
            )
        self.sim.metrics.gauge("state.tree.layer_depth").set(scratch.state.chain_depth)

        self.store.put_state(block.cid, scratch.state.fork())
        if self.sim.observed(BlockCommitted):
            # A fork that is never announced leaves with its block.
            self._block_events[block.cid] = tuple(events)

        old_head = self.store.head_cid
        head_changed = self.store.add_block(block)
        if head_changed:
            self.vm = scratch
            self._after_head_change(old_head, block)
        self._retry_orphans(block.cid, final)
        return True

    def _retry_orphans(self, parent_cid: CID, final: bool) -> None:
        waiting = self._orphans.pop(parent_cid, {})
        for orphan in waiting.values():
            self.receive_block(orphan, final)

    def _after_head_change(self, old_head: Optional[CID], new_head_block: FullBlock) -> None:
        """Housekeeping when the canonical head moves."""
        new_head = new_head_block.cid
        if old_head is not None and not self.store.is_extension(old_head, new_head):
            self.sim.metrics.counter("chain.*.reorgs", self.subnet_id).inc()
            self.sim.trace.emit(
                "chain.reorg", self.subnet_id, old_head.short(), new_head.short()
            )
            # Depth = abandoned blocks of the old branch (back to the fork
            # point, which is canonical again by now).
            depth = 0
            for block in self.store.ancestors(old_head):
                if self.store.is_canonical(block.cid):
                    break
                depth += 1
            self.sim.metrics.histogram("chain.*.reorg.depth", self.subnet_id).observe(depth)
            self.sim.observe(ChainReorg, self, old_head, new_head_block, depth)
        # Newly canonical segment, oldest first.  Each block is announced to
        # commit listeners at most once ever, even across reorgs (listeners
        # receive no "un-commit" signal; fork-capable engines therefore act
        # only on finalized depths).
        added: list[FullBlock] = []
        floor = self.store.floor  # below it nothing is left to announce
        for block in self.store.ancestors(new_head):
            if block.cid in self._notified or block.height < floor:
                break
            added.append(block)
        added.reverse()
        for block in added:
            self._notified.add(block.cid)
        now, metrics = self.sim.now, self.sim.metrics
        for block in added:
            self.mempool.remove_included(block.messages)
            self.committed_txs += len(block.messages)
            metrics.timeseries("chain.*.txs", self.subnet_id).record(now, len(block.messages))
            metrics.timeseries("chain.*.blocks", self.subnet_id).record(now, 1)
            self.sim.trace.emit(
                "block.commit", self.subnet_id,
                f"h={block.height}", block.cid.short(), f"msgs={len(block.messages)}",
            )
            self.sim.observe(
                BlockCommitted, self, block, self._block_events.pop(block.cid, ())
            )
            for listener in self._commit_listeners:
                listener(block)
        self.mempool.drop_stale(self.vm.nonce_of)

    def _forget_block(self, cid: CID) -> None:
        self._notified.discard(cid)
        self._block_events.pop(cid, None)

    def on_commit(self, listener: Callable[[FullBlock], None]) -> None:
        """Register a callback fired for every newly canonical block."""
        self._commit_listeners.append(listener)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_payload(
        self, vm: VM, messages, cross_messages, miner: Address,
        height: int, parent_cid: Optional[CID] = None,
    ) -> list:
        """Apply a block's payload to *vm* in canonical order.

        Returns the concatenated receipt events of the payload, in
        execution order — the raw material for commit-time observers
        (the telemetry span tracer correlates cross-net hops from them).
        """
        events: list = []
        if vm.actor_code(REWARD_ACTOR_ADDRESS) == "reward":
            receipt = vm.apply_implicit(
                SYSTEM_ADDRESS, REWARD_ACTOR_ADDRESS, "award", {"miner": miner.raw}
            )
            events.extend(receipt.events)
        for cross in cross_messages:
            receipt = self.apply_cross_message(vm, cross, miner)
            if receipt is not None:
                events.extend(receipt.events)
        for signed in messages:
            receipt = vm.apply_message(signed.message, miner=miner)
            events.extend(receipt.events)
        return events

    def apply_cross_message(self, vm: VM, cross, miner: Address):
        """Hook for the hierarchy node; the base chain has no cross-msgs."""
        raise ValidationError("cross messages are not supported on this chain")

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def _state_at(self, block_cid: CID):
        """The state tree after *block_cid*, or None if unavailable.

        The returned tree is only ever forked from (never written), so
        handing out the live VM's tree for the head is safe.
        """
        if block_cid == self.store.head_cid:
            return self.vm.state
        return self.store.get_state(block_cid)

    def _vm_from_state(self, state) -> VM:
        """A scratch VM branched off *state* — an O(1) fork, no state copy."""
        vm = VM(
            subnet_id=self.vm.subnet_id,
            registry=self.vm.registry,
            gas_schedule=self.vm.gas_schedule,
            gas_price=self.vm.gas_price,
        )
        vm.state = state.fork()
        return vm

    # Shared block-execution cache: block execution is a pure function of
    # (parent post-state, block payload), and every honest validator of a
    # subnet holds content-identical parent state for a block it accepts —
    # so the first validator to execute a block publishes its post-state
    # tree (a frozen fork) and receipt events, and the others fork it
    # instead of re-deriving the identical result.  Keyed by block CID
    # (which commits to parent, payload, and claimed state root) plus the
    # subnet and runtime class, so subclasses with different execution
    # hooks never share.  Byzantine nodes neither publish nor consume.
    _EXEC_CACHE_CAP = 512

    def _exec_cache(self) -> dict:
        return self.sim.memo.setdefault("runtime.exec_cache", {})

    def _shared_execution(self, block_cid: CID):
        if self.byzantine:
            return None
        return self._exec_cache().get((self.subnet_id, type(self).__name__, block_cid))

    def _publish_execution(self, block_cid: CID, state, events) -> None:
        if self.byzantine:
            return
        cache = self._exec_cache()
        cache[(self.subnet_id, type(self).__name__, block_cid)] = (
            state.fork(),
            tuple(events),
        )
        while len(cache) > self._EXEC_CACHE_CAP:
            cache.pop(next(iter(cache)))
