"""Pluggable consensus engines.

Central to the paper: "Each subnet can run its own independent consensus
algorithm" (§I) and the prototype integrates Tendermint and MirBFT (§VI).
Every engine implements :class:`~repro.consensus.base.ConsensusEngine`
against the same node interface — the node owns block intake, an engine
only decides which blocks are eligible — so a subnet chooses its engine by
name in its Subnet Actor's consensus spec (``poa``, ``pos`` and ``mir`` are
leader rules over :class:`~repro.consensus.slots.SlotLeaderEngine`):

- ``poa``        — round-robin proof-of-authority (instant finality);
- ``pos``        — stake-weighted leader lottery (instant finality);
- ``pow``        — simulated proof-of-work longest-chain (probabilistic
  finality, real forks and reorgs);
- ``tendermint`` — propose/prevote/precommit BFT with rounds and locking;
- ``mir``        — Mir-style multi-leader rotation (L proposers interleave,
  multiplying block rate).
"""

from repro.consensus.base import (
    ConsensusEngine,
    ConsensusParams,
    Validator,
    ValidatorSet,
    make_engine,
)
from repro.consensus.slots import SlotLeaderEngine
from repro.consensus.poa import RoundRobinEngine
from repro.consensus.pos import ProofOfStakeEngine
from repro.consensus.pow import ProofOfWorkEngine
from repro.consensus.tendermint import TendermintEngine
from repro.consensus.mir import MirEngine

__all__ = [
    "ConsensusEngine",
    "ConsensusParams",
    "Validator",
    "ValidatorSet",
    "make_engine",
    "SlotLeaderEngine",
    "RoundRobinEngine",
    "ProofOfStakeEngine",
    "ProofOfWorkEngine",
    "TendermintEngine",
    "MirEngine",
]
