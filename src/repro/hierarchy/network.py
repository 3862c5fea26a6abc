"""`HierarchicalSystem` — the public orchestration API.

Builds Fig. 1's picture end to end: a rootnet, subnets spawned from any
point in the hierarchy through in-protocol SA deployment and staking,
validator nodes running per-subnet consensus engines over simulated
gossipsub, checkpoint anchoring, cross-net transfers, content resolution
and atomic executions — all on one deterministic simulator.

All networking is composed through :class:`repro.runtime.NetworkStack`
(simulator + topology + transport + gossip) and every validator is a
:class:`repro.runtime.ValidatorCluster` of
:class:`~repro.hierarchy.node.SubnetNode` runtimes — this module only
orchestrates; it owns no delivery or block-production loop of its own.

Subnets spawn through one path, :meth:`HierarchicalSystem.spawn_subnets`:
one tree level at a time, each phase (fund, deploy, join) with one wait
for the whole level, so set-up sim time grows with depth, not with the
number of subnets.  ``spawn_subnet`` is a batch of one: the serial flow.

Typical use (see ``examples/quickstart.py``)::

    system = HierarchicalSystem(seed=42)
    system.start()
    alice = system.create_wallet("alice", fund=100_000)
    sub = system.spawn_subnet(SubnetConfig(name="fast", engine="tendermint"))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(30)
    assert system.balance(sub, alice.address) == 50_000
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.keys import Address, KeyPair
from repro.consensus.base import ConsensusParams
from repro.hierarchy.checkpointing import CheckpointConfig
from repro.hierarchy.gateway import SCA_ADDRESS, child_key, child_records, sca_key
from repro.hierarchy.genesis import hierarchy_registry, subnet_genesis
from repro.hierarchy.node import SubnetNode
from repro.hierarchy.subnet_actor import (
    SignaturePolicy,
    last_committed_window,
    registered_validators,
)
from repro.hierarchy.subnet_id import ROOTNET, SubnetID
from repro.hierarchy.wallet import Wallet
from repro.runtime import NetworkStack, ValidatorCluster, cluster_members
from repro.sim.observe import CrossMsgSubmitted, WaitTimedOut
from repro.vm.builtin.init_actor import INIT_ACTOR_ADDRESS, derive_actor_address

TREASURY_FUNDS = 10**15


class SpawnError(RuntimeError):
    """Raised when a subnet fails to spawn within its deadline."""


@dataclass
class SubnetConfig:
    """Everything needed to spawn one subnet (§III-A).

    ``parent`` defaults to the rootnet.  ``policy`` governs checkpoint
    signatures; ``stake_per_validator × validators`` must reach both the
    SA's ``activation_collateral`` and the parent SCA's ``minCollateral``.
    """

    name: str = "subnet"
    parent: SubnetID = field(default_factory=lambda: ROOTNET)
    validators: int = 4
    engine: str = "poa"
    block_time: float = 0.5
    checkpoint_period: int = 10
    policy: SignaturePolicy = field(default_factory=lambda: SignaturePolicy("multisig", 2))
    stake_per_validator: int = 100
    activation_collateral: int = 100
    min_validators: int = 1
    finality_depth: int = 5
    byzantine: dict = field(default_factory=dict)  # node index -> {behaviours}
    mir_leaders: int = 4
    max_block_messages: int = 500
    gas_price: int = 0  # >0 makes every message pay fees to its block miner (§II)
    accelerate: bool = False  # issue/accept pending-payment certificates (§IV-A)

    @property
    def subnet(self) -> SubnetID:
        """The ID this config spawns: *name* under *parent*."""
        return SubnetID(self.parent).child(self.name)


class HierarchicalSystem:
    """A full hierarchical-consensus deployment on one simulator."""

    def __init__(
        self,
        seed: int = 1,
        latency: float = 0.02,
        loss_rate: float = 0.0,
        root_validators: int = 4,
        root_engine: str = "poa",
        root_block_time: float = 1.0,
        checkpoint_period: int = 10,
        min_collateral: int = 100,
        wallet_funds: Optional[dict] = None,
        accelerate_root: bool = False,
    ) -> None:
        self.stack = NetworkStack(seed=seed, latency=latency, loss_rate=loss_rate)
        self.sim = self.stack.sim
        self.gossip = self.stack.gossip
        self.registry = hierarchy_registry()
        self.checkpoint_period = checkpoint_period
        self.min_collateral = min_collateral

        self.wallets: dict[str, Wallet] = {}
        self.treasury = self._make_wallet("treasury")
        genesis_allocations = {self.treasury.address: TREASURY_FUNDS}
        for name, funds in (wallet_funds or {}).items():
            wallet = self._make_wallet(name)
            genesis_allocations[wallet.address] = funds

        self.clusters: dict[SubnetID, ValidatorCluster] = {}
        self.nodes_by_subnet: dict[SubnetID, list] = {}  # kept in sync with clusters
        self.configs: dict[SubnetID, SubnetConfig] = {}
        self._accelerate_root = accelerate_root
        self._spawn_root(
            root_validators, root_engine, root_block_time, genesis_allocations
        )
        self._started = False
        self.last_timeout: Optional[dict] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_wallet(self, name: str) -> Wallet:
        if name in self.wallets:
            raise ValueError(f"wallet {name!r} exists")
        wallet = Wallet(KeyPair(("wallet", name)))
        self.wallets[name] = wallet
        return wallet

    def _register_cluster(self, subnet: SubnetID, cluster: ValidatorCluster) -> None:
        self.clusters[subnet] = cluster
        self.nodes_by_subnet[subnet] = cluster.nodes

    def _spawn_root(self, n_validators, engine, block_time, allocations) -> None:
        keys = [KeyPair(("validator", "/root", i)) for i in range(n_validators)]
        genesis_block, genesis_vm = subnet_genesis(
            ROOTNET,
            checkpoint_period=self.checkpoint_period,
            min_collateral=self.min_collateral,
            allocations=allocations,
            registry=self.registry,
        )
        params = ConsensusParams(engine=engine, block_time=block_time)

        def root_node(index, member, validators):
            return SubnetNode(
                sim=self.sim,
                node_id=member.node_id,
                keypair=member.keypair,
                subnet=ROOTNET,
                genesis_block=genesis_block,
                genesis_vm=genesis_vm,
                gossip=self.gossip,
                validators=validators,
                consensus_params=params,
                checkpoint_period=self.checkpoint_period,
                parent_node=None,
                accelerate=self._accelerate_root,
            )

        cluster = ValidatorCluster.build(
            cluster_members(keys, id_prefix=ROOTNET.path),
            subnet_id=ROOTNET.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            consensus_params=params,
            stack=self.stack,
            node_factory=root_node,
        )
        self._register_cluster(ROOTNET, cluster)
        self.configs[ROOTNET] = SubnetConfig(
            name="root", validators=n_validators, engine=engine, block_time=block_time,
            checkpoint_period=self.checkpoint_period,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HierarchicalSystem":
        if not self._started:
            self.clusters[ROOTNET].start()
            self._started = True
        return self

    def run_for(self, seconds: float) -> "HierarchicalSystem":
        self.stack.run_for(seconds)
        return self

    def run_until(self, time: float) -> "HierarchicalSystem":
        self.stack.run_until(time)
        return self

    def wait_for(
        self,
        predicate: Callable[[], bool],
        timeout: float = 120.0,
        step: float = 0.25,
        label: Optional[str] = None,
    ) -> bool:
        """Advance simulated time until *predicate* holds; False on timeout.

        A timeout self-diagnoses: the predicate *label*, the sim time and a
        per-subnet health snapshot land on :attr:`last_timeout`, along with
        whatever the attached planes add to a
        :class:`~repro.sim.observe.WaitTimedOut` (stall reports, a
        postmortem bundle tagged ``wait-timeout:<label>``), so a stalled
        campaign or spawn leaves evidence instead of a bare ``False``.
        """
        ok = self.stack.wait_for(predicate, timeout=timeout, step=step)
        if not ok:
            self._note_wait_timeout(
                label or getattr(predicate, "__name__", None) or "<predicate>",
                timeout,
            )
        return ok

    def stop(self) -> None:
        for cluster in self.clusters.values():
            cluster.stop()
        self.stack.shutdown()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def node(self, subnet) -> SubnetNode:
        """A representative (first) node of *subnet*."""
        return self.nodes_by_subnet[SubnetID(subnet)][0]

    def nodes(self, subnet) -> list:
        return list(self.nodes_by_subnet[SubnetID(subnet)])

    @property
    def subnets(self) -> list:
        return sorted(self.nodes_by_subnet)

    def balance(self, subnet, addr: Address) -> int:
        return self.node(subnet).vm.balance_of(addr)

    def end_state_digest(self) -> str:
        """Canonical digest of the system's *semantic* end state.

        This is the fingerprint the tie-shuffle race detector compares
        across shuffle seeds: for a quiescent run, it must be invariant
        under any legal permutation of same-timestamp events.

        It deliberately digests the **value level** — account balances,
        minted/burned supply, and the SCA's per-child value accounting
        (circulating/injected/released/collateral/slashed/status) — and
        NOT chain or checkpoint CIDs.  Block and checkpoint identities
        legitimately commit to the schedule (a subnet's genesis timestamp
        is the sim time its registration landed; a cross-msg's inclusion
        height shifts by a block under a permuted tie order), exactly as
        two honest schedules of a real chain produce different but equally
        valid block histories.  The paper's §II/§IV guarantees — value
        conservation and the firewall bound — live at the value level,
        so that is what must not depend on tie order.
        """
        hasher = hashlib.sha256()
        for subnet in self.subnets:
            node = self.node(subnet)
            vm = node.vm
            hasher.update(
                (
                    f"{SubnetID(subnet).path}"
                    f"|minted={vm.total_minted}|burned={vm.total_burned}\n"
                ).encode("utf-8")
            )
            for key, value in vm.state.items("balance/"):
                hasher.update(f"  {key}={value}\n".encode("utf-8"))
            for child_path, record in child_records(vm.state):
                hasher.update(
                    (
                        f"  {child_key(child_path)}|circ={record['circulating']}"
                        f"|inj={record['injected_total']}"
                        f"|rel={record['released_total']}"
                        f"|coll={record['collateral']}"
                        f"|slash={record['slashed_total']}"
                        f"|status={record['status']}\n"
                    ).encode("utf-8")
                )
        return hasher.hexdigest()

    def health_snapshot(self) -> dict:
        """Per-subnet vitals read directly off the nodes.

        ``height`` is the frontier and ``min_height`` the laggard across
        the subnet's validators — the spread exposes a partitioned or
        crashed one at a glance.
        """
        snapshot: dict[str, dict] = {}
        for subnet in self.subnets:
            nodes = self.nodes_by_subnet[subnet]
            node = nodes[0]
            heights = [n.head().height for n in nodes]
            snapshot[subnet.path] = {
                "height": max(heights),
                "min_height": min(heights),
                "mempool": len(node.mempool),
                "pending_crossmsgs": node.crosspool.pending,
                "checkpoint_lag": self._checkpoint_lag(node),
            }
        return snapshot

    def _checkpoint_lag(self, node) -> Optional[int]:
        """Windows sealed locally beyond what the parent's SA recorded."""
        if node.checkpoints is None:
            return None  # the rootnet anchors to nothing
        sealed = node.vm.state.get(sca_key("last_window_sealed"), -1)
        committed = last_committed_window(
            node.parent_node.vm.state, node.checkpoints.config.sa_addr
        )
        return max(sealed - committed, 0)

    def _note_wait_timeout(self, label: str, timeout: float) -> dict:
        diagnosis = {
            "label": label,
            "timeout": timeout,
            "time": self.sim.now,
            "health": self.health_snapshot(),
        }
        self.sim.observe(WaitTimedOut, diagnosis)
        self.last_timeout = diagnosis
        return diagnosis

    def timeout_detail(self) -> str:
        """Render :attr:`last_timeout` for exception messages and logs."""
        diagnosis = self.last_timeout
        if diagnosis is None:
            return ""
        lines = [
            f" (predicate {diagnosis['label']!r} still false after "
            f"{diagnosis['timeout']:g}s at t={diagnosis['time']:.2f})"
        ]
        for path in sorted(diagnosis["health"]):
            health = diagnosis["health"][path]
            lines.append(
                f"  {path}: height={health['height']}"
                f" min_height={health['min_height']}"
                f" mempool={health['mempool']}"
                f" pending_crossmsgs={health['pending_crossmsgs']}"
                f" checkpoint_lag={health['checkpoint_lag']}"
            )
        for report in diagnosis.get("stall_reports") or []:
            lines.append(f"  {report['subnet']} {report['quorum']['line']}")
        if diagnosis.get("postmortem"):
            lines.append(f"  postmortem: {diagnosis['postmortem']}")
        return "\n".join(lines)

    def sca_state(self, subnet, key: str, default=None):
        return self.node(subnet).vm.state.get(sca_key(key), default)

    def child_record(self, parent, child) -> Optional[dict]:
        return self.node(parent).vm.state.get(child_key(SubnetID(child).path))

    def sa_address(self, subnet) -> Address:
        return derive_actor_address("subnet-actor", SubnetID(subnet).path)

    def validator_wallets(self, subnet) -> list:
        subnet = SubnetID(subnet)
        config = self.configs[subnet]
        return [
            self.wallets[f"{subnet.path}-val{i}"] for i in range(config.validators)
        ]

    # ------------------------------------------------------------------
    # Wallets and funds
    # ------------------------------------------------------------------
    def create_wallet(self, name: str, fund: int = 0) -> Wallet:
        """Create a wallet; optionally fund it on the rootnet from treasury."""
        wallet = self._make_wallet(name)
        if fund:
            self.transfer(self.treasury, ROOTNET, wallet.address, fund)
            self.wait_for(
                lambda: self.balance(ROOTNET, wallet.address) >= fund,
                label=f"wallet-funded:{name}",
            )
        return wallet

    def transfer(self, wallet: Wallet, subnet, to: Address, value: int):
        """An ordinary intra-subnet payment."""
        return wallet.send(self.node(subnet), to, value=value)

    def fund_subnet(self, wallet: Wallet, child, to: Address, value: int):
        """Inject *value* from the child's parent chain into the child (§II)."""
        child = SubnetID(child)
        signed = wallet.send(
            self.node(child.parent()),
            SCA_ADDRESS,
            method="fund",
            params={"subnet_path": child.path, "to_addr": to.raw},
            value=value,
        )
        if signed is not None:
            self.sim.observe(
                CrossMsgSubmitted, child.parent().path, child.path, to.raw, value
            )
        return signed

    def cross_send(
        self,
        wallet: Wallet,
        from_subnet,
        to_subnet,
        to: Address,
        value: int,
        method: str = "send",
        params=None,
    ):
        """Send a general cross-net message from *from_subnet* (§IV-A)."""
        signed = wallet.send(
            self.node(from_subnet),
            SCA_ADDRESS,
            method="send_crossmsg",
            params={
                "to_subnet": SubnetID(to_subnet).path,
                "to_addr": to.raw,
                "method": method,
                "params": params,
            },
            value=value,
        )
        if signed is not None:
            self.sim.observe(
                CrossMsgSubmitted,
                SubnetID(from_subnet).path, SubnetID(to_subnet).path, to.raw, value,
            )
        return signed

    # ------------------------------------------------------------------
    # Spawning subnets (§III-A)
    # ------------------------------------------------------------------
    def spawn_subnet(self, config: SubnetConfig, timeout: float = 240.0) -> SubnetID:
        """Spawn one subnet: a batch of one (see :meth:`spawn_subnets`)."""
        return self.spawn_subnets([config], timeout)[0]

    def spawn_subnets(self, configs, timeout: float = 240.0) -> list:
        """Spawn every subnet in *configs*; returns their IDs in config order.

        The batch runs one tree level at a time — a config whose parent is
        in the batch goes in a later level, so list order does not matter —
        and each level runs the four §III-A phases, with one wait per phase
        for the whole level: fund every new validator's wallet on its
        parent chain; deploy every Subnet Actor through the parent's init
        actor; every validator joins with stake, until each parent SCA marks
        its child *active*; then instantiate each child chain (genesis + SCA,
        nodes, engine, checkpointing), in config order.  A batch of one is
        exactly the serial one-subnet flow.

        Every config is checked before any wallet or message exists, so a
        bad batch changes nothing.  Raises :class:`SpawnError` on a bad
        batch or a timed-out phase.
        """
        if not self._started:
            raise SpawnError("call start() before spawning subnets")
        batch: dict[SubnetID, SubnetConfig] = {}
        for config in configs:
            if config.subnet in self.nodes_by_subnet:
                raise SpawnError(f"{config.subnet} already exists")
            if config.subnet in batch:
                raise SpawnError(f"{config.subnet} is repeated in the batch")
            batch[config.subnet] = config
        levels: dict[int, list] = {}
        for subnet, config in batch.items():
            depth, parent = 0, subnet.parent()
            while parent in batch:
                depth, parent = depth + 1, parent.parent()
            if parent not in self.nodes_by_subnet:
                raise SpawnError(f"parent subnet {parent} does not exist")
            levels.setdefault(depth, []).append(config)
        for depth in sorted(levels):
            self._spawn_level(levels[depth], timeout)
        return list(batch)

    def _spawn_level(self, configs: list, timeout: float) -> None:
        """Spawn one tree level of a batch; every parent chain already runs."""
        subnets = [config.subnet for config in configs]
        sa_addrs = {subnet: self.sa_address(subnet) for subnet in subnets}
        wallets, funded = {}, {}
        for subnet, config in zip(subnets, configs):
            wallets[subnet] = [
                self._make_wallet(f"{subnet.path}-val{i}") for i in range(config.validators)
            ]
            grants = [(w.address, config.stake_per_validator * 2) for w in wallets[subnet]]
            funded[subnet] = self._submit_funds(subnet.parent(), grants, timeout)
        self._await_all("validators-funded", subnets, lambda s: funded[s](), timeout)

        for subnet, config in zip(subnets, configs):
            wallets[subnet][0].send(
                self.node(subnet.parent()), INIT_ACTOR_ADDRESS, method="deploy",
                params={"code": "subnet-actor", "label": subnet.path, "params": {
                    "subnet_path": subnet.path, "consensus": config.engine,
                    "checkpoint_period": config.checkpoint_period,
                    "activation_collateral": config.activation_collateral,
                    "policy": config.policy, "min_validators": config.min_validators,
                }},
            )
        self._await_all(
            "sa-deployed", subnets,
            lambda s: self.node(s.parent()).vm.actor_code(sa_addrs[s]) == "subnet-actor",
            timeout,
        )

        # Validators stake; each SA registers with its SCA at activation.
        for subnet, config in zip(subnets, configs):
            for wallet in wallets[subnet]:
                wallet.send(
                    self.node(subnet.parent()), sa_addrs[subnet], method="join",
                    value=config.stake_per_validator,
                )
        self._await_all(
            "sa-active", subnets,
            lambda s: (self.child_record(s.parent(), s) or {}).get("status") == "active",
            timeout,
        )
        for subnet, config in zip(subnets, configs):
            self._instantiate_subnet(subnet, config, wallets[subnet], sa_addrs[subnet])

    def _await_all(self, label: str, subnets: list, done, timeout: float) -> None:
        """One wait until ``done(subnet)`` holds for every subnet; on timeout
        the wait label and :class:`SpawnError` name the subnets still missing."""
        if self.stack.wait_for(lambda: all(map(done, subnets)), timeout=timeout):
            return
        missing = ",".join(subnet.path for subnet in subnets if not done(subnet))
        self._note_wait_timeout(f"{label}:{missing}", timeout)
        raise SpawnError(f"{label} timed out for {missing}{self.timeout_detail()}")

    def _submit_funds(self, subnet: SubnetID, grants: list, timeout: float):
        """Submit what makes each (address, amount) hold on *subnet*'s chain,
        injecting from the treasury through the hierarchy as needed; returns
        the predicate that they all hold."""
        needed = [(addr, amount) for addr, amount in grants if self.balance(subnet, addr) < amount]
        if needed and subnet.is_root:
            for addr, amount in needed:
                self.transfer(self.treasury, ROOTNET, addr, amount)
        elif needed:
            # fund() executes on the subnet's parent chain, so the treasury
            # must hold funds there first — provision recursively down the
            # hierarchy (each hop is itself a top-down injection).
            total = sum(amount for _, amount in needed)
            self._ensure_treasury_funds(subnet.parent(), total, timeout)
            for addr, amount in needed:
                self.fund_subnet(self.treasury, subnet, addr, amount)
        return lambda: all(self.balance(subnet, addr) >= amount for addr, amount in needed)

    def ensure_funds(self, subnet, grants, timeout: float = 240.0) -> None:
        """Ensure each ``(address, amount)`` balance holds on *subnet*.

        Public wrapper over the spawn-path funding helper — workload and
        scenario drivers stage their senders through it instead of poking
        node VMs (funds always flow in-protocol).
        """
        subnet = SubnetID(subnet)
        funded = self._submit_funds(subnet, list(grants), timeout)
        self._await_all("validators-funded", [subnet], lambda _: funded(), timeout)

    def provision_treasury(self, subnet, amount: int, timeout: float = 240.0) -> None:
        """Public helper: ensure the treasury can spend *amount* on *subnet*.

        Workload drivers at depth > 1 use this to stage funds hop by hop.
        """
        self._ensure_treasury_funds(SubnetID(subnet), amount, timeout)

    def _ensure_treasury_funds(self, subnet: SubnetID, amount: int, timeout: float) -> None:
        """Make sure the treasury holds ≥ *amount* on *subnet*'s chain."""
        if subnet.is_root:
            return  # funded at genesis
        if self.balance(subnet, self.treasury.address) >= amount:
            return
        top_up = max(amount * 4, 1_000_000)
        # The parent needs twice the top-up: it is about to spend top_up on
        # this injection and must keep headroom for its own later traffic.
        self._ensure_treasury_funds(subnet.parent(), top_up * 2, timeout)
        self.fund_subnet(self.treasury, subnet, self.treasury.address, top_up)
        self._await_all(
            "treasury-funded", [subnet],
            lambda _: self.balance(subnet, self.treasury.address) >= amount, timeout,
        )

    def _instantiate_subnet(
        self, subnet: SubnetID, config: SubnetConfig, validator_wallets, sa_addr
    ) -> None:
        parent = subnet.parent()
        # Nodes sign blocks and checkpoints with the same keypairs that
        # staked via the SA — the SA's signature policy validates against
        # the addresses in its validator set.
        keys = [wallet.keypair for wallet in validator_wallets]
        # Stake-weighted engines (pos, pow) read each validator's power from
        # the stake recorded in the SA; equal-vote engines ignore power.
        sa_validators = registered_validators(self.node(parent).vm.state, sa_addr)
        powers = [
            max(1, sa_validators.get(wallet.address.raw, config.stake_per_validator))
            for wallet in validator_wallets
        ]
        genesis_block, genesis_vm = subnet_genesis(
            subnet,
            checkpoint_period=config.checkpoint_period,
            min_collateral=self.min_collateral,
            registry=self.registry,
            timestamp=self.sim.now,
            gas_price=config.gas_price,
        )
        params = ConsensusParams(
            engine=config.engine,
            block_time=config.block_time,
            finality_depth=config.finality_depth,
            mir_leaders=config.mir_leaders,
            max_block_messages=config.max_block_messages,
        )
        config.policy.deal(
            subnet.path, config.validators, self.sim.seeds.seed_for("tss", subnet.path)
        )
        parent_nodes = self.nodes_by_subnet[parent]

        def subnet_node(i, member, validators):
            # The checkpoint-submission wallet is the validator wallet that
            # staked on the parent; its keypair must match the node keypair
            # for signature policies, so nodes use the wallet keypairs.
            checkpoint_config = CheckpointConfig(
                period=config.checkpoint_period,
                policy=config.policy,
                sa_addr=sa_addr.raw,
                validator_index=i,
                validator_count=config.validators,
            )
            return SubnetNode(
                sim=self.sim,
                node_id=member.node_id,
                keypair=member.keypair,
                subnet=subnet,
                genesis_block=genesis_block,
                genesis_vm=genesis_vm,
                gossip=self.gossip,
                validators=validators,
                consensus_params=params,
                checkpoint_period=config.checkpoint_period,
                parent_node=parent_nodes[i % len(parent_nodes)],
                checkpoint_config=checkpoint_config,
                byzantine=config.byzantine.get(i),
                accelerate=config.accelerate,
            )

        cluster = ValidatorCluster.build(
            cluster_members(keys, id_prefix=subnet.path, powers=powers),
            subnet_id=subnet.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            consensus_params=params,
            stack=self.stack,
            node_factory=subnet_node,
        )
        self._register_cluster(subnet, cluster)
        self.configs[subnet] = config
        cluster.start()
        self.sim.trace.emit("subnet.spawned", subnet.path, f"n={config.validators}",
                            config.engine)
