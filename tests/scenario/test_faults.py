"""Unit tests for the fault DSL: triggers, selectors, inject/heal pairs.

These run against small stand-in systems (recording transports, stub
nodes) — the full-system behaviour of each fault is covered by the
scenario library integration tests.
"""

import pytest

from repro.scenario.errors import ScenarioError
from repro.scenario.faults import (
    ByzantineFault,
    CheckpointWithholdFault,
    CrashFault,
    EquivocationFault,
    Fault,
    FaultInjector,
    LinkDegradeFault,
    PartitionFault,
    Trigger,
    select_validators,
)


# ----------------------------------------------------------------------
# Stand-ins
# ----------------------------------------------------------------------
class StubNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.byzantine = set()
        self.running = True

    def stop(self):
        self.running = False

    def restart(self, *args, **kwargs):
        self.running = True


class RecordingTransport:
    def __init__(self):
        self.partitions = []
        self.healed = []
        self.links = []
        self.issued = 0  # one handle counter, as Topology keeps

    def _handle(self):
        self.issued += 1
        return self.issued - 1

    def partition(self, group):
        self.partitions.append(tuple(sorted(group)))
        return self._handle()

    def heal(self, handle):
        self.healed.append(handle)

    def set_link(self, a, b, loss=0.0, extra_latency=0.0):
        self.links.append((tuple(sorted(a)), tuple(sorted(b)), loss, extra_latency))
        return self._handle()


class StubStack:
    def __init__(self):
        self.transport = RecordingTransport()


class StubSystem:
    def __init__(self, node_count=4):
        self.stack = StubStack()
        self._nodes = {
            "/root/s0": [StubNode(f"/root/s0#{i}") for i in range(node_count)],
            "/root": [StubNode(f"/root#{i}") for i in range(3)],
        }

    def nodes(self, subnet):
        return self._nodes[str(subnet)]


# ----------------------------------------------------------------------
# Triggers
# ----------------------------------------------------------------------
def test_trigger_rejects_bad_numbers():
    with pytest.raises(ScenarioError):
        Trigger(at=-1.0)
    with pytest.raises(ScenarioError):
        Trigger(at=1.0, duration=0.0)
    with pytest.raises(ScenarioError):
        Trigger(at=1.0, duration=-2.0)


# ----------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------
def test_select_validators_groups():
    system = StubSystem(node_count=4)
    nodes = system.nodes("/root/s0")
    assert select_validators(system, "/root/s0", "all") == nodes
    assert select_validators(system, "/root/s0", None) == nodes
    assert select_validators(system, "/root/s0", "leader") == [nodes[0]]
    # Largest strict minority of 4 is 1, taken from the tail.
    assert select_validators(system, "/root/s0", "minority") == [nodes[3]]
    assert select_validators(system, "/root/s0", "majority") == nodes[:3]
    assert select_validators(system, "/root/s0", 2) == [nodes[2]]
    assert select_validators(system, "/root/s0", [1, 3]) == [nodes[1], nodes[3]]


def test_minority_and_majority_partition_the_cluster():
    for count in (3, 4, 5, 7):
        system = StubSystem(node_count=count)
        minority = select_validators(system, "/root/s0", "minority")
        majority = select_validators(system, "/root/s0", "majority")
        assert len(minority) < len(majority)
        assert sorted(
            node.node_id for node in minority + majority
        ) == sorted(node.node_id for node in system.nodes("/root/s0"))


def test_select_minority_needs_enough_validators():
    with pytest.raises(ScenarioError):
        select_validators(StubSystem(node_count=1), "/root/s0", "minority")


def test_select_rejects_unknown_selector():
    with pytest.raises(ScenarioError):
        select_validators(StubSystem(), "/root/s0", "everyone")


# ----------------------------------------------------------------------
# Inject / heal pairs
# ----------------------------------------------------------------------
def test_partition_fault_heals_its_own_handle():
    system = StubSystem()
    fault = PartitionFault(Trigger(at=1.0, duration=2.0), "/root/s0", select="minority")
    fault.inject(system)
    transport = system.stack.transport
    assert transport.partitions == [("/root/s0#3",)]
    fault.heal(system)
    assert transport.healed == [0]
    fault.heal(system)  # idempotent
    assert transport.healed == [0]


def test_partition_fault_isolate_subnet_cuts_every_validator():
    system = StubSystem(node_count=3)
    fault = PartitionFault(Trigger(at=1.0), "/root/s0", isolate_subnet=True)
    fault.inject(system)
    assert system.stack.transport.partitions == [
        ("/root/s0#0", "/root/s0#1", "/root/s0#2")
    ]


def test_link_degrade_fault_reverts_overrides_on_heal():
    system = StubSystem(node_count=3)
    fault = LinkDegradeFault(
        Trigger(at=1.0, duration=2.0), "/root/s0", select=[2], loss=0.3,
        extra_latency=0.1,
    )
    transport = system.stack.transport
    transport.partition(["/root/s0#0"])  # handle 0: the fault's is the next
    fault.inject(system)
    assert transport.links == [(("/root/s0#2",), ("/root/s0#0", "/root/s0#1"), 0.3, 0.1)]
    fault.heal(system)
    assert transport.healed == [1]  # by its own handle, not by zeroing the links
    fault.heal(system)  # idempotent
    assert transport.healed == [1] and len(transport.links) == 1


def test_link_degrade_all_covers_intra_subnet_links():
    system = StubSystem(node_count=3)
    fault = LinkDegradeFault(Trigger(at=1.0), "/root/s0", select="all", loss=0.2)
    fault.inject(system)
    selected, others, loss, _ = system.stack.transport.links[0]
    assert selected == others  # every intra-subnet pair
    assert loss == 0.2


def test_crash_fault_restarts_exactly_the_crashed():
    system = StubSystem(node_count=4)
    nodes = system.nodes("/root/s0")
    fault = CrashFault(Trigger(at=1.0, duration=2.0), "/root/s0", select=[1, 2])
    fault.inject(system)
    assert [node.running for node in nodes] == [True, False, False, True]
    fault.heal(system)
    assert all(node.running for node in nodes)


def test_byzantine_fault_restores_only_added_flags():
    system = StubSystem(node_count=3)
    nodes = system.nodes("/root/s0")
    nodes[0].byzantine = {"withhold_block"}  # pre-existing, must survive
    fault = ByzantineFault(
        Trigger(at=1.0, duration=2.0), "/root/s0",
        behaviours=("withhold_block", "equivocate_vote"), select="all",
    )
    fault.inject(system)
    assert nodes[0].byzantine == {"withhold_block", "equivocate_vote"}
    assert nodes[1].byzantine == {"withhold_block", "equivocate_vote"}
    fault.heal(system)
    assert nodes[0].byzantine == {"withhold_block"}  # kept what it had
    assert nodes[1].byzantine == set()


def test_byzantine_fault_accepts_single_behaviour_string():
    fault = ByzantineFault(Trigger(at=1.0), "/root/s0", behaviours="withhold_vote")
    assert fault.behaviours == ("withhold_vote",)


def test_specialized_byzantine_faults_set_their_vocabulary():
    equivocation = EquivocationFault(Trigger(at=1.0), "/root/s0")
    assert equivocation.behaviours == ("equivocate_checkpoint",)
    assert equivocation.select == "leader"
    withhold = CheckpointWithholdFault(Trigger(at=1.0), "/root/s0")
    assert set(withhold.behaviours) == {
        "withhold_checkpoint_sig", "withhold_checkpoint",
    }


# ----------------------------------------------------------------------
# The injector (against a real simulator, stub faults)
# ----------------------------------------------------------------------
class _ProbeFault(PartitionFault):
    pass


class _IrreversibleFault(Fault):
    """Inherits ``Fault.heal``: nothing to revert."""

    KIND = "irreversible"

    def inject(self, system) -> None:
        system.marked = True


def test_a_fault_must_say_how_to_inject_but_may_heal_as_nothing():
    from repro.sim.scheduler import Simulator

    with pytest.raises(NotImplementedError):
        Fault(Trigger(at=1.0), "/root/s0").inject(StubSystem())
    system = StubSystem()
    system.sim = Simulator(seed=1)
    fault = _IrreversibleFault(Trigger(at=1.0, duration=2.0), "/root/s0")
    injector = FaultInjector(system, [fault]).arm()
    system.sim.run_until(5.0)
    assert system.marked and (fault.injected_at, fault.healed_at) == (1.0, 3.0)
    assert [entry["event"] for entry in injector.log] == ["inject", "heal"]


def test_injector_fires_at_triggers_and_heals_after_duration():
    from repro.sim.scheduler import Simulator

    system = StubSystem()
    system.sim = Simulator(seed=1)
    fault = _ProbeFault(Trigger(at=2.0, duration=3.0), "/root/s0")
    injector = FaultInjector(system, [fault]).arm()
    system.sim.run_until(10.0)
    assert fault.injected_at == 2.0
    assert fault.healed_at == 5.0
    events = [(entry["time"], entry["event"]) for entry in injector.log]
    assert events == [(2.0, "inject"), (5.0, "heal")]


def test_injector_disarm_heals_active_revertible_faults():
    from repro.sim.scheduler import Simulator

    system = StubSystem()
    system.sim = Simulator(seed=1)
    bounded = _ProbeFault(Trigger(at=1.0, duration=30.0), "/root/s0")
    permanent = _ProbeFault(Trigger(at=1.0), "/root/s0")
    injector = FaultInjector(system, [bounded, permanent]).arm()
    system.sim.run_until(5.0)
    injector.disarm()
    assert bounded.healed_at == 5.0  # still-open window closed
    assert permanent.healed_at is None  # permanent faults stay
