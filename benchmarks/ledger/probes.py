"""Isolated layer probes on fixed inputs.

Each probe times calls into one layer's public functions with nothing else
running and reports microseconds per operation as the median of
``BATCHES`` batches of at least ``MIN_BATCH_S`` each.  A probe that moves
while no in-situ ``<layer>.self_s`` moves is a micro-win with no
end-to-end effect; a ``self_s`` that moves while its probe does not means
the layer is being *called* differently, not running faster.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

from repro import HierarchicalSystem, SingleChainBaseline, SubnetConfig
from repro.chain.genesis import GenesisParams, build_genesis
from repro.chain.message_pool import MessagePool
from repro.crypto import ThresholdScheme, canonical_encode, cid_of, sign, verify
from repro.crypto.keys import KeyPair
from repro.hierarchy.checkpointing import CheckpointService
from repro.hierarchy.gateway import SubnetCoordinatorActor
from repro.hierarchy.subnet_actor import SubnetActor
from repro.net.gossip import GossipParams
from repro.runtime import NetworkStack
from repro.sim.events import EventQueue
from repro.storage.statetree import StateTree
from repro.vm.message import Message, SignedMessage

from tracer import drop_export_cache

BATCHES = 5
MIN_BATCH_S = 0.010
ENGINES = ("poa", "pos", "tendermint", "mir", "pow")


def _median_us(run_batch) -> float:
    """``run_batch(n)`` performs n operations and returns the seconds they
    took.  The batch size doubles until one batch lasts MIN_BATCH_S."""
    n = 1
    while run_batch(n) < MIN_BATCH_S:
        n *= 2
    return statistics.median(run_batch(n) / n for _ in range(BATCHES)) * 1e6


def _timed_loop(operation):
    def run_batch(n: int) -> float:
        start = perf_counter()
        for _ in range(n):
            operation()
        return perf_counter() - start

    return run_batch


def _signed_payment(index: int = 0) -> SignedMessage:
    sender = KeyPair(("probe", "sender", index))
    recipient = KeyPair(("probe", "recipient", index))
    return SignedMessage.create(
        Message(from_addr=sender.address, to_addr=recipient.address, value=1), sender
    )


def probe_sim_push_pop() -> float:
    """One push + one pop on a heap holding 1000 pending events."""
    queue = EventQueue()
    state = [12345]

    def next_time() -> float:
        state[0] = (state[0] * 1103515245 + 12345) % (1 << 31)
        return state[0] / (1 << 31)

    def noop() -> None:
        return None

    for _ in range(1000):
        queue.push(next_time(), noop)

    def operation() -> None:
        queue.push(next_time(), noop)
        queue.pop()

    return _median_us(_timed_loop(operation))


def probe_crypto_encode() -> float:
    signed = _signed_payment()
    return _median_us(_timed_loop(lambda: canonical_encode(signed)))


def probe_crypto_cid() -> float:
    signed = _signed_payment()
    return _median_us(_timed_loop(lambda: cid_of(signed)))


def probe_crypto_sign_verify() -> float:
    """sign + verify of a fresh (undigested) message."""
    keypair = KeyPair(("probe", "signer"))
    counter = [0]

    def operation() -> None:
        counter[0] += 1
        message = ("probe", counter[0])  # tuples carry no digest memo
        if not verify(sign(keypair, message), message):
            raise AssertionError("probe signature did not verify")

    return _median_us(_timed_loop(operation))


def probe_crypto_threshold_combine() -> float:
    """Combine 3 of 4 partial signatures."""
    scheme = ThresholdScheme("probe", threshold=3, participants=4, seed=1)
    message = ("probe", "checkpoint")
    partials = [
        ThresholdScheme.partial_sign(scheme.share_for(i), message) for i in (1, 2, 3)
    ]
    return _median_us(_timed_loop(lambda: scheme.combine(partials, message)))


def _wide_tree(keys: int = 20_000) -> StateTree:
    """A tree as a node holds it between blocks: all content in the shared
    frozen chain, bucket digests cached."""
    tree = StateTree()
    for i in range(keys):
        tree.set(f"balance/f1{i:020d}", 10**9)
    tree.root()
    return tree.fork()


def probe_storage_root(dirty: int) -> float:
    """``root()`` of a per-block scratch fork of a 20000-key tree after
    writes to *dirty* distinct keys (the writes are timed too)."""
    base = _wide_tree()
    keys = [f"balance/f1{i * 17:020d}" for i in range(dirty)]

    def run_batch(n: int) -> float:
        scratches = [base.fork() for _ in range(n)]
        start = perf_counter()
        for scratch in scratches:
            for key in keys:
                scratch.set(key, 7)
            scratch.root()
        return perf_counter() - start

    return _median_us(run_batch)


def probe_storage_fork() -> float:
    """``fork()`` after one write (the per-block snapshot); every 32nd
    fork pays the frozen-chain compaction, as in a running node."""
    tree = _wide_tree()
    value = [0]

    def operation() -> None:
        value[0] += 1
        tree.set("balance/f100000000000000000000", value[0])
        tree.fork()

    return _median_us(_timed_loop(operation))


def probe_net_publish() -> float:
    """``publish`` into a 7-peer topic with mesh degree 6 (6 sends)."""
    stack = NetworkStack(seed=1, gossip_params=GossipParams(degree=6))
    for i in range(7):
        stack.gossip.subscribe(f"peer{i}", "probe", lambda envelope: None)

    def run_batch(n: int) -> float:
        start = perf_counter()
        for _ in range(n):
            stack.gossip.publish("peer0", "probe", "payload")
        elapsed = perf_counter() - start
        stack.run_for(1.0)  # deliver, so the heap does not grow across batches
        return elapsed

    result = _median_us(run_batch)
    stack.shutdown()
    return result


def probe_vm_apply_payment() -> float:
    """``apply_message`` of a plain payment between funded accounts."""
    sender = KeyPair(("probe", "payer"))
    recipient = KeyPair(("probe", "payee"))
    _block, vm = build_genesis(GenesisParams(allocations={sender.address: 10**12}))
    nonce = [0]

    def run_batch(n: int) -> float:
        messages = [
            Message(
                from_addr=sender.address, to_addr=recipient.address, value=1,
                nonce=nonce[0] + i,
            )
            for i in range(n)
        ]
        nonce[0] += n
        start = perf_counter()
        for message in messages:
            if not vm.apply_message(message).ok:
                raise AssertionError("probe payment failed")
        return perf_counter() - start

    return _median_us(run_batch)


def probe_chain_pool_select() -> float:
    """``select`` of a full 500-message block from 500 senders."""
    pool = MessagePool()
    for i in range(500):
        pool.add(_signed_payment(i))
    return _median_us(_timed_loop(lambda: pool.select(lambda address: 0, 500)))


def probe_consensus_height(engine: str) -> float:
    """Wall time per committed height of an idle 4-validator cluster."""
    chain = SingleChainBaseline(seed=1, validators=4, engine=engine, block_time=0.5).start()
    chain.run_for(5.0)

    def run_batch(n: int) -> float:
        # n is a number of heights; drive the clock until they are in.
        target = chain.node.head().height + n
        start = perf_counter()
        while chain.node.head().height < target:
            chain.run_for(0.5)
        return perf_counter() - start

    result = _median_us(run_batch)
    chain.cluster.stop()
    chain.stack.shutdown()
    return result


class _InclusiveTimer:
    """Sum of wall time inside a set of (never mutually nested) methods."""

    def __init__(self, targets) -> None:
        self.seconds = 0.0
        self._targets = targets
        self._originals: list = []

    def __enter__(self) -> "_InclusiveTimer":
        for owner, attr in self._targets:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._timed(original))
            drop_export_cache(owner)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
            drop_export_cache(owner)

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start

        return timed


def probe_hierarchy_checkpoint() -> float:
    """One checkpoint, cut to committed: the SCA's ``seal_window``, the
    child validators' sign/gossip/submit (``CheckpointService``) and the
    parent's ``submit_checkpoint`` — wall time per submitted checkpoint on
    an idle root + 3-validator subnet."""
    targets = (
        (SubnetCoordinatorActor, "seal_window"),
        (CheckpointService, "on_block"),
        (CheckpointService, "handle"),
        (SubnetActor, "submit_checkpoint"),
    )
    with _InclusiveTimer(targets) as timer:
        system = HierarchicalSystem(seed=1, root_validators=3, root_block_time=0.5).start()
        subnet = system.spawn_subnet(
            SubnetConfig(name="probe", validators=3, block_time=0.25, checkpoint_period=4)
        )
        counter = system.sim.metrics.counter(f"checkpoint.{subnet.path}.submitted")
        system.run_for(5.0)
        samples = []
        for _ in range(BATCHES):
            seconds, submitted = timer.seconds, counter.value
            system.run_for(10.0)
            samples.append((timer.seconds - seconds) / (counter.value - submitted))
        system.stop()
    return statistics.median(samples) * 1e6


def run_probes(calibrator) -> dict:
    """name -> reference microseconds per operation, for every probe: each
    probe's result is divided by how slow the host ran while it was taken
    (calibration samples right before and after it)."""
    probes = {
        "probe.sim.push_pop_us": probe_sim_push_pop,
        "probe.crypto.encode_signed_msg_us": probe_crypto_encode,
        "probe.crypto.cid_uncached_us": probe_crypto_cid,
        "probe.crypto.sign_verify_us": probe_crypto_sign_verify,
        "probe.crypto.threshold_combine_us": probe_crypto_threshold_combine,
        "probe.storage.root_us_d1": functools.partial(probe_storage_root, 1),
        "probe.storage.root_us_d64": functools.partial(probe_storage_root, 64),
        "probe.storage.root_us_d1024": functools.partial(probe_storage_root, 1024),
        "probe.storage.fork_us": probe_storage_fork,
        "probe.net.publish_us_deg6": probe_net_publish,
        "probe.vm.apply_payment_us": probe_vm_apply_payment,
        "probe.chain.pool_select_us_500": probe_chain_pool_select,
        "probe.hierarchy.checkpoint_us": probe_hierarchy_checkpoint,
    }
    for engine in ENGINES:
        probes[f"probe.consensus.height_us.{engine}"] = functools.partial(
            probe_consensus_height, engine
        )
    results = {}
    before = calibrator.sample()
    for name, probe in probes.items():
        microseconds = probe()
        after = calibrator.sample()
        results[name] = microseconds / calibrator.slowdown(before, after)
        before = after
    return results
