"""A small actor-based virtual machine.

Stands in for the Filecoin VM: subnets in the paper instantiate "a new
instance of the Virtual Machine … as well as any other additional module
required by the consensus" (§III-A), and the hierarchical-consensus logic
itself lives in two *system actors* — the Subnet Coordinator Actor (SCA) and
per-subnet Subnet Actors (SA).

Model:

- persistent state lives only in a :class:`~repro.storage.statetree.StateTree`
  (keys scoped per actor), so message application is transactional;
- actors are stateless method dispatchers subclassing
  :class:`~repro.vm.actor.Actor`, exporting methods with
  :func:`~repro.vm.actor.export`;
- :meth:`~repro.vm.vm.VM.apply_message` charges gas, checks nonces and
  balances, transfers value, dispatches, and commits or reverts atomically;
- aborts are raised as :class:`~repro.vm.exitcode.ActorError` with an
  :class:`~repro.vm.exitcode.ExitCode`.
"""

from repro.vm.exitcode import ActorError, ExitCode
from repro.vm.gas import GasTracker, OutOfGas
from repro.vm.message import Message, Receipt, SignedMessage
from repro.vm.actor import Actor, ActorRegistry, export
from repro.vm.runtime import InvocationContext
from repro.vm.vm import VM

__all__ = [
    "ActorError",
    "ExitCode",
    "GasTracker",
    "OutOfGas",
    "Message",
    "Receipt",
    "SignedMessage",
    "Actor",
    "ActorRegistry",
    "export",
    "InvocationContext",
    "VM",
]
