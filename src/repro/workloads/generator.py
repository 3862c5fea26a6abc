"""Workload generators.

Open-loop generators submit transactions at a configured rate through the
simulator, independent of chain progress — throughput experiments need
offered load to exceed capacity.  Latency trackers timestamp each
transaction at submission and at commit (via chain commit listeners).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.crypto.cid import CID
from repro.crypto.keys import KeyPair
from repro.hierarchy.wallet import Wallet


@dataclass
class WorkloadStats:
    """Counts and latencies collected by a workload (C doubles: 8 B per
    op, nothing for the collector to walk)."""

    submitted: int = 0
    committed: int = 0
    latencies: array = field(default_factory=lambda: array("d"))

    def throughput(self, duration: float) -> float:
        return self.committed / duration if duration > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(round((q / 100) * (len(ordered) - 1))))
        return ordered[rank]


class PaymentWorkload:
    """Open-loop intra-subnet payments at a fixed rate.

    *senders* wallets pay random recipients through randomly chosen entry
    nodes.  Commit latency is measured from submission to the transaction
    appearing in a canonical block on the observer node.
    """

    def __init__(
        self,
        sim,
        nodes: list,
        senders: list,
        rate: float,
        value: int = 1,
        rng_scope: str = "payments",
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.nodes = list(nodes)
        self.senders = list(senders)
        self.rate = rate
        self.value = value
        self.stats = WorkloadStats()
        self._rng = sim.rng("workload", rng_scope)
        self._inflight: dict[CID, float] = {}
        self._stop = None
        observer = self.nodes[0]
        observer.on_commit(self._on_commit)

    def start(self) -> "PaymentWorkload":
        interval = 1.0 / self.rate
        self._stop = self.sim.every(interval, self._submit_one, label="workload:pay")
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _submit_one(self) -> None:
        sender: Wallet = self._rng.choice(self.senders)
        recipient = self._rng.choice(self.senders)
        node = self._rng.choice(self.nodes)
        signed = sender.send(node, recipient.address, value=self.value)
        if signed is not None:
            self.stats.submitted += 1
            self._inflight[signed.cid] = self.sim.now

    def _on_commit(self, block) -> None:
        for signed in block.messages:
            submitted_at = self._inflight.pop(signed.cid, None)
            if submitted_at is not None:
                self.stats.committed += 1
                self.stats.latencies.append(self.sim.now - submitted_at)


class CrossNetWorkload:
    """Open-loop cross-net transfers between two subnets of a
    :class:`~repro.hierarchy.network.HierarchicalSystem`.

    Measures end-to-end latency: submission on the source subnet to the
    recipient's balance increasing on the destination subnet.
    """

    def __init__(
        self,
        system,
        from_subnet,
        to_subnet,
        sender: Wallet,
        rate: float,
        value: int = 1,
    ) -> None:
        self.system = system
        self.from_subnet = from_subnet
        self.to_subnet = to_subnet
        self.sender = sender
        self.rate = rate
        self.value = value
        self.stats = WorkloadStats()
        self._recipient = Wallet(KeyPair(("crossnet-sink", str(from_subnet), str(to_subnet))))
        self._expected = 0
        self._pending: list[float] = []  # submission times, FIFO
        self._stop = None

    def start(self) -> "CrossNetWorkload":
        self._stop = self.system.sim.every(
            1.0 / self.rate, self._submit_one, label="workload:crossnet"
        )
        self.system.node(self.to_subnet).on_commit(self._check_arrivals)
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _submit_one(self) -> None:
        signed = self.system.cross_send(
            self.sender, self.from_subnet, self.to_subnet,
            self._recipient.address, self.value,
        )
        if signed is not None:
            self.stats.submitted += 1
            self._pending.append(self.system.sim.now)

    def _check_arrivals(self, block) -> None:
        arrived_value = self.system.balance(self.to_subnet, self._recipient.address)
        arrived = arrived_value // self.value
        while self.stats.committed < arrived and self._pending:
            submitted_at = self._pending.pop(0)
            self.stats.committed += 1
            self.stats.latencies.append(self.system.sim.now - submitted_at)


def sender_fund_spec(n_senders: int, funds: int = 10**9, scope: str = "openloop") -> dict:
    """Wallet-name → funds spec for *n_senders* workload senders.

    Pass the result as ``wallet_funds`` when constructing a system or
    baseline, then look the wallets up by name to build a workload —
    funding flows through genesis (or in-protocol injection), never by
    poking node VMs directly.
    """
    return {f"{scope}-sender-{i}": funds for i in range(n_senders)}
