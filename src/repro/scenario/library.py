"""The canonical scenario library (E12's campaign corpus).

Fifteen scenarios: eleven honest-fault cases that must ride out their
faults ``safe``, and four adversarial cases that must trip *exactly* the
auditor their attack targets.  Every entry is a **factory** — faults are
stateful, so each run builds fresh objects.

Honest corpus:

- ``baseline_healthy`` — payments, no faults (the no-op control);
- ``partition_minority`` — a Tendermint minority is partitioned and
  healed; the 2f+1 quorum keeps committing, nobody forks;
- ``partition_parent_link`` — the whole subnet loses its parent for a
  while; the checkpoint fallback resubmits once the link heals;
- ``lossy_links`` / ``latency_spike`` — message loss inside the subnet,
  latency on the parent link; gossip redundancy and the submit fallback
  absorb both;
- ``round_desync`` — a harsher 50% loss window on a Tendermint subnet;
  the regression for the liveness stall fixed by f+1 round catch-up and
  validRound reproposal (the tendermint engine's lock-split deadlock);
- ``leader_crash`` — validator 0 crashes and restarts; PoA skips its
  slots;
- ``validator_churn`` — rolling crash/restart churn;
- ``long_outage`` — a validator stays down for more than ``prune_depth``
  blocks under load; its peers have dropped the bodies it lacks, so it
  adopts the state at the checkpoint its parent holds and range-syncs
  the tail;
- ``crossmsg_spam`` — a cross-msg flood toward the rootnet (legitimate
  value flow, so the books stay balanced);
- ``equivocating_checkpointer`` — one validator signs conflicting
  checkpoints; below quorum the forgery never commits.

Adversarial corpus:

- ``checkpoint_withholding`` — every validator stops checkpointing, then
  a forged epoch-regressing checkpoint lands → ``checkpoint-chain``;
- ``forged_extraction`` — the §II compromised-subnet attack claims real
  value → ``supply`` (any checkpoint-chain fallout is tolerated);
- ``deep_reorg`` — a partitioned PoW miner forks past finality depth →
  ``finality``;
- ``engine_swap`` — a validator swaps in a rogue always-propose engine
  and finalizes a conflicting solo chain → ``finality``.
"""

from __future__ import annotations

from repro.scenario.errors import ScenarioError
from repro.scenario.faults import (
    ChurnFault,
    CrashFault,
    CrossMsgSpamFault,
    CheckpointWithholdFault,
    EngineSwapFault,
    EquivocationFault,
    ForgedCheckpointFault,
    LinkDegradeFault,
    PartitionFault,
    ReorgFault,
    Trigger,
)
from repro.scenario.spec import (
    Expectation,
    PaymentSpec,
    Scenario,
    TopologySpec,
    WorkloadSpec,
    scenario_subnet,
)

SUBNET = "/root/s0"


def _topology(**overrides) -> TopologySpec:
    return TopologySpec(root_validators=3, subnets=[scenario_subnet(**overrides)])


def _payments(rate: float = 4.0) -> WorkloadSpec:
    return WorkloadSpec(payments=[PaymentSpec(subnet=SUBNET, rate=rate)])


# ----------------------------------------------------------------------
# Honest corpus — faults the system must ride out
# ----------------------------------------------------------------------
def baseline_healthy() -> Scenario:
    return Scenario(
        name="baseline-healthy",
        description="payments under no faults; the campaign control",
        topology=_topology(),
        workload=_payments(),
        faults=[],
        duration=20.0,
        expect=Expectation.safe(),
    )


def partition_minority() -> Scenario:
    return Scenario(
        name="partition-minority",
        description="a Tendermint minority partitions and heals; the "
        "quorum keeps committing",
        topology=_topology(validators=4, engine="tendermint"),
        workload=_payments(),
        faults=[
            PartitionFault(
                Trigger(at=4.0, duration=8.0), SUBNET, select="minority"
            ),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


def partition_parent_link() -> Scenario:
    return Scenario(
        name="partition-parent-link",
        description="the subnet loses its parent link; checkpointing "
        "resumes via the submit fallback after heal",
        topology=_topology(),
        workload=_payments(),
        faults=[
            PartitionFault(
                Trigger(at=4.0, duration=6.0), SUBNET, isolate_subnet=True
            ),
        ],
        duration=30.0,
        expect=Expectation.safe(),
    )


def lossy_links() -> Scenario:
    return Scenario(
        name="lossy-links",
        description="15% message loss inside the subnet; the Tendermint "
        "quorum and gossip redundancy absorb it",
        topology=_topology(validators=4, engine="tendermint"),
        workload=_payments(),
        faults=[
            LinkDegradeFault(Trigger(at=3.0, duration=8.0), SUBNET, loss=0.15),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


def round_desync() -> Scenario:
    """Regression for the lossy-links liveness stall (see ROADMAP).

    A 50% loss window over 12s used to wedge Tendermint through three
    distinct defects: a reentrancy clobber in the polka path (nodes stuck
    at round -1), missing f+1 round catch-up (validators phase-shifted
    into disjoint round cadences), and a round-0 lock split with no
    validRound reproposal (a permanent 2-2 prevote split).  With the
    fixes, the subnet must ride the window out and keep committing.
    """
    return Scenario(
        name="round-desync",
        description="50% message loss for 12s inside a Tendermint subnet; "
        "round catch-up and validRound reproposal must restore liveness",
        topology=_topology(validators=4, engine="tendermint"),
        workload=_payments(),
        faults=[
            LinkDegradeFault(Trigger(at=3.0, duration=12.0), SUBNET, loss=0.5),
        ],
        duration=40.0,
        expect=Expectation.safe(),
    )


def latency_spike() -> Scenario:
    return Scenario(
        name="latency-spike",
        description="+150ms on every subnet→parent link; checkpoints "
        "arrive late but intact",
        topology=_topology(),
        workload=_payments(),
        faults=[
            LinkDegradeFault(
                Trigger(at=3.0, duration=10.0), SUBNET,
                extra_latency=0.15, to_parent=True,
            ),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


def leader_crash() -> Scenario:
    return Scenario(
        name="leader-crash",
        description="validator 0 crashes for 5s and restarts; PoA "
        "rotation skips its slots",
        topology=_topology(),
        workload=_payments(),
        faults=[
            CrashFault(Trigger(at=5.0, duration=5.0), SUBNET, select="leader"),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


def validator_churn() -> Scenario:
    return Scenario(
        name="validator-churn",
        description="rolling churn: one validator down at a time",
        topology=_topology(validators=4),
        workload=_payments(),
        faults=[
            ChurnFault(
                Trigger(at=3.0, duration=15.0), SUBNET, period=5.0, downtime=2.0
            ),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


def long_outage() -> Scenario:
    """The one scenario on the far side of the sync ladder's last choice.

    Three of four PoA validators keep three blocks a second going for
    30 s: about 90 blocks, past the 64-block horizon, so ``chain:blocks``
    is refused (``BelowFloor``) and only ``chain:snapshot`` closes the gap.
    """
    return Scenario(
        name="long-outage",
        description="one validator is down for more than prune_depth "
        "blocks under load and recovers from the checkpoint its parent holds",
        topology=_topology(validators=4),
        workload=_payments(),
        faults=[
            CrashFault(Trigger(at=3.0, duration=30.0), SUBNET, select="minority"),
        ],
        duration=45.0,
        expect=Expectation.safe(),
    )


def crossmsg_spam() -> Scenario:
    return Scenario(
        name="crossmsg-spam",
        description="a cross-msg flood toward the rootnet; value flows "
        "legitimately so the books stay balanced",
        topology=_topology(),
        workload=_payments(rate=2.0),
        faults=[
            CrossMsgSpamFault(
                Trigger(at=4.0, duration=8.0), SUBNET, to_subnet="/root",
                rate=10.0,
            ),
        ],
        duration=30.0,
        expect=Expectation.safe(),
    )


def equivocating_checkpointer() -> Scenario:
    return Scenario(
        name="equivocating-checkpointer",
        description="one validator signs conflicting checkpoints; below "
        "quorum the forgery never commits",
        topology=_topology(),
        workload=_payments(),
        faults=[
            EquivocationFault(Trigger(at=4.0, duration=10.0), SUBNET),
        ],
        duration=25.0,
        expect=Expectation.safe(),
    )


# ----------------------------------------------------------------------
# Adversarial corpus — each attack must trip exactly its auditor
# ----------------------------------------------------------------------
def checkpoint_withholding() -> Scenario:
    return Scenario(
        name="checkpoint-withholding",
        description="all validators stop checkpointing, then a forged "
        "epoch-regressing checkpoint lands at the parent SA",
        topology=_topology(),
        workload=_payments(),
        faults=[
            CheckpointWithholdFault(Trigger(at=2.0), SUBNET),  # permanent
            ForgedCheckpointFault(
                Trigger(at=8.0), SUBNET, value=0, break_epoch=True
            ),
        ],
        duration=25.0,
        expect=Expectation.violates("checkpoint-chain"),
    )


def forged_extraction() -> Scenario:
    return Scenario(
        name="forged-extraction",
        description="the §II compromised-subnet attack: a forged "
        "checkpoint claims bottom-up value nobody burned",
        topology=_topology(),
        workload=_payments(),
        faults=[
            ForgedCheckpointFault(Trigger(at=8.0), SUBNET, value=50_000),
        ],
        duration=25.0,
        expect=Expectation.violates("supply", tolerate=("checkpoint-chain",)),
    )


def deep_reorg() -> Scenario:
    return Scenario(
        name="deep-reorg",
        description="a partitioned PoW miner forks past finality depth; "
        "rejoining forces a deep reorg",
        topology=_topology(
            engine="pow", block_time=0.4, finality_depth=2, validators=3
        ),
        workload=_payments(rate=2.0),
        faults=[
            ReorgFault(Trigger(at=4.0, duration=12.0), SUBNET),
        ],
        duration=30.0,
        expect=Expectation.violates("finality"),
    )


def engine_swap() -> Scenario:
    return Scenario(
        name="engine-swap",
        description="a validator swaps in a rogue always-propose engine "
        "and finalizes a conflicting solo chain",
        topology=_topology(),
        workload=_payments(),
        faults=[
            EngineSwapFault(Trigger(at=4.0, duration=10.0), SUBNET),
        ],
        duration=25.0,
        expect=Expectation.violates("finality"),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
CANONICAL = (
    baseline_healthy,
    partition_minority,
    partition_parent_link,
    lossy_links,
    round_desync,
    latency_spike,
    leader_crash,
    validator_churn,
    long_outage,
    crossmsg_spam,
    equivocating_checkpointer,
    checkpoint_withholding,
    forged_extraction,
    deep_reorg,
    engine_swap,
)

#: The PR-gating subset: one honest control, two honest faults (one inside
#: the sync horizon, one past it), two attacks on checkpoints, and the two
#: fork scenarios — a PoW reorg past finality and a validator whose blocks
#: its peers must refuse — that drive block intake and range sync.
SMOKE = (
    baseline_healthy,
    partition_minority,
    long_outage,
    checkpoint_withholding,
    forged_extraction,
    deep_reorg,
    engine_swap,
)

_BY_NAME = {factory().name: factory for factory in CANONICAL}


def names() -> list:
    return sorted(_BY_NAME)


def get(name: str):
    """The factory for a canonical scenario, by its scenario name."""
    factory = _BY_NAME.get(name)
    if factory is None:
        raise ScenarioError(
            f"unknown canonical scenario {name!r}; have {names()}"
        )
    return factory
