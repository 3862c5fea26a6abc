"""Client-side atomic execution orchestration (§IV-D, Fig. 5).

:class:`AtomicExecutionClient` drives one party's side of the protocol:

1. *Initialization*: parties agree off-chain on the execution id, inputs
   and executor function; each locks its input assets in its own subnet's
   SCA, and one party opens the execution in the LCA's SCA.
2. *Off-chain execution*: each party fetches the others' locked input
   state (modelled as reading the locked records from the counterpart
   subnet once the locks are on chain) and runs the deterministic executor
   locally.
3. *Commit*: each party submits the output CID (and the output itself) to
   the LCA's SCA; the SCA commits when all submissions match, or aborts on
   an ABORT message or mismatching outputs.
4. *Termination*: the SCA notifies every party subnet through cross-net
   messages; each subnet's SCA applies the output (reassigning locked
   asset owners) or releases the locks unchanged.

The executor is any pure function ``f(inputs: dict) -> dict`` returning
``{"owners": {asset_name: new_owner_addr}}`` — the atomic-swap executor
used by the paper's motivating example is :func:`swap_executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.cid import cid_of
from repro.hierarchy.gateway import SCA_ADDRESS
from repro.hierarchy.subnet_id import SubnetID
from repro.hierarchy.wallet import Wallet


@dataclass
class AtomicParty:
    """One participant: its wallet, home subnet and input assets."""

    wallet: Wallet
    subnet: SubnetID
    assets: tuple  # asset names owned in `subnet`


def swap_executor(inputs: dict) -> dict:
    """The canonical two-party swap: every asset goes to the *other* owner.

    *inputs* maps asset name → {"owner": addr, "subnet": path}.  With
    exactly two distinct owners, each asset's new owner is the counterpart.
    """
    owners = sorted({record["owner"] for record in inputs.values()})
    if len(owners) != 2:
        raise ValueError("swap_executor needs exactly two distinct owners")
    swap = {owners[0]: owners[1], owners[1]: owners[0]}
    return {"owners": {name: swap[record["owner"]] for name, record in inputs.items()}}


class AtomicExecutionClient:
    """Drives an atomic execution among parties through a running system."""

    def __init__(
        self,
        system,
        exec_id: str,
        parties: list,
        executor: Callable[[dict], dict] = swap_executor,
    ) -> None:
        if len(parties) < 2:
            raise ValueError("atomic execution needs at least two parties")
        self.system = system
        self.exec_id = exec_id
        self.parties = list(parties)
        self.executor = executor
        self.lca = self.parties[0].subnet
        for party in self.parties[1:]:
            self.lca = self.lca.common_ancestor(party.subnet)
        self.output: Optional[dict] = None

    # ------------------------------------------------------------------
    # Phase 1: initialization (locks + open at the LCA)
    # ------------------------------------------------------------------
    def initialize(self, timeout: float = 60.0) -> bool:
        """Lock all inputs and open the execution in the LCA's SCA."""
        for party in self.parties:
            party.wallet.send(
                self.system.node(party.subnet),
                SCA_ADDRESS,
                method="lock_atomic",
                params={"exec_id": self.exec_id, "assets": tuple(party.assets)},
            )
        opener = self.parties[0]
        opener.wallet.send(
            self.system.node(self.lca),
            SCA_ADDRESS,
            method="init_atomic",
            params={
                "exec_id": self.exec_id,
                "parties": tuple(
                    (p.subnet.path, p.wallet.address.raw) for p in self.parties
                ),
            },
        )
        return self.system.wait_for(self._all_locked, timeout=timeout)

    def _all_locked(self) -> bool:
        for party in self.parties:
            for asset in party.assets:
                record = self.system.sca_state(party.subnet, f"asset/{asset}")
                if record is None or record["locked_by"] != self.exec_id:
                    return False
        return self.system.sca_state(self.lca, f"atomic/{self.exec_id}") is not None

    # ------------------------------------------------------------------
    # Phase 2: off-chain execution
    # ------------------------------------------------------------------
    def gather_inputs(self) -> dict:
        """Collect every party's locked input state.

        Models the off-chain input exchange: "The CID of the input state is
        shared between the different users … and is leveraged by each user
        to request from the other subnets the locked input states" — here
        each party reads the locked records from the counterpart subnet's
        chain (to which it has light-client access).
        """
        inputs = {}
        for party in self.parties:
            for asset in party.assets:
                record = self.system.sca_state(party.subnet, f"asset/{asset}")
                inputs[asset] = {
                    "owner": record["owner"],
                    "subnet": party.subnet.path,
                }
        return inputs

    def execute_offchain(self) -> dict:
        """Run the executor locally (every party computes the same output)."""
        self.output = self.executor(self.gather_inputs())
        return self.output

    # ------------------------------------------------------------------
    # Phase 3: commit at the LCA
    # ------------------------------------------------------------------
    def submit_outputs(self, dissenting_outputs: Optional[dict] = None) -> None:
        """Each party submits its computed output to the LCA's SCA.

        *dissenting_outputs* (party index → output) lets tests model a
        faulty party submitting a different result.
        """
        if self.output is None:
            self.execute_offchain()
        for index, party in enumerate(self.parties):
            output = (dissenting_outputs or {}).get(index, self.output)
            party.wallet.send(
                self.system.node(self.lca),
                SCA_ADDRESS,
                method="submit_output",
                params={
                    "exec_id": self.exec_id,
                    "output_cid": cid_of(output),
                    "output": output,
                },
            )

    def abort(self, party_index: int = 0) -> None:
        """Send an ABORT from one party (allowed any time before commit)."""
        party = self.parties[party_index]
        party.wallet.send(
            self.system.node(self.lca),
            SCA_ADDRESS,
            method="abort_atomic",
            params={"exec_id": self.exec_id},
        )

    # ------------------------------------------------------------------
    # Phase 4: termination
    # ------------------------------------------------------------------
    def status_at_lca(self) -> Optional[str]:
        record = self.system.sca_state(self.lca, f"atomic/{self.exec_id}")
        return record["status"] if record else None

    def applied_everywhere(self) -> bool:
        """True once every party subnet has applied the result."""
        return all(
            self.system.sca_state(party.subnet, f"atomic_result/{self.exec_id}") is not None
            for party in self.parties
        )

    def wait_terminated(self, timeout: float = 120.0) -> bool:
        return self.system.wait_for(self.applied_everywhere, timeout=timeout)

    # ------------------------------------------------------------------
    # Convenience: the full happy path
    # ------------------------------------------------------------------
    def run_to_completion(self, timeout: float = 180.0) -> str:
        """Initialize → execute → submit → wait; returns the final status."""
        if not self.initialize(timeout=timeout / 3):
            raise TimeoutError("atomic initialization did not complete")
        self.execute_offchain()
        self.submit_outputs()
        if not self.system.wait_for(
            lambda: self.status_at_lca() in ("committed", "aborted"),
            timeout=timeout / 3,
        ):
            raise TimeoutError("atomic execution did not terminate at the LCA")
        if not self.wait_terminated(timeout=timeout / 3):
            raise TimeoutError("atomic result not applied in all subnets")
        return self.status_at_lca()


def asset_owner(system, subnet, asset_name: str) -> Optional[str]:
    """The current owner (address string) of an asset in *subnet*."""
    record = system.sca_state(subnet, f"asset/{asset_name}")
    return record["owner"] if record else None
