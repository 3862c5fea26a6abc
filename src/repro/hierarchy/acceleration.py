"""Accelerated cross-net messages: pending-payment certificates (§IV-A).

"According to the route that messages need to follow through the
hierarchy … the propagation of these transactions may be slow.  To
accelerate the process, each SA in the path can send a direct message to
the destination, certifying that the user is the legitimate owner of the
funds.  This information can be used by the destination subnet (depending
on the finality required …) to indicate a pending payment or even as
tentative information to start operating as if these funds were already
settled."

Implementation: when a cross-msg enters a subnet's outgoing checkpoint
window (visible in the SCA's committed state), the subnet's validators
each publish a signed :class:`PendingCertificate` straight to the
destination subnet's acceleration topic — racing the checkpoint by one or
more windows.  Destination nodes aggregate signers per message and expose
:meth:`AccelerationService.pending_for`: tentative credits backed by at
least ``quorum`` certifying validators.  Tentative entries clear when the
real settlement lands (the cross-msg is applied or the recipient balance
reflects it), or expire after ``TTL`` seconds.

Trust model: exactly the paper's — the destination decides how much
finality it needs.  Certificates prove that *the source subnet's
validators* vouch for the payment; a compromised source can vouch falsely,
which is why this is tentative information and the firewall still guards
actual settlement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cid import CID
from repro.crypto.keys import Address
from repro.crypto.signature import Signature, sign, verify
from repro.hierarchy.crossmsg import ApplyBottomUp, ApplyTopDown, CrossMsg
from repro.hierarchy.gateway import sca_key
from repro.hierarchy.subnet_id import SubnetID
from repro.net.gossip import PubsubEnvelope

#: Simulated seconds a tentative credit outlives its first certificate.
TTL = 120.0


def acceleration_topic(subnet: SubnetID) -> str:
    return f"accel:{subnet.path}"


@dataclass(frozen=True)
class PendingCertificate:
    """One validator's attestation that a cross-msg is in flight."""

    message: CrossMsg
    window: int
    certifier: Address
    signature: Signature

    def payload(self):
        return ("pending-cert", self.message.cid.hex(), self.window)

    def verify(self) -> bool:
        return self.signature.signer == self.certifier and verify(
            self.signature, self.payload()
        )

    @staticmethod
    def create(keypair, message: CrossMsg, window: int) -> "PendingCertificate":
        payload = ("pending-cert", message.cid.hex(), window)
        return PendingCertificate(
            message=message,
            window=window,
            certifier=keypair.address,
            signature=sign(keypair, payload),
        )


class AccelerationService:
    """Issues and consumes pending-payment certificates for one node."""

    def __init__(self, sim, node) -> None:
        self.sim = sim
        self.node = node
        self.quorum = 2  # certifiers a tentative credit needs
        # Issuer side: how far we've scanned each outgoing window.
        self._scanned: dict[int, int] = {}
        # Receiver side: message cid -> {"message", "certifiers", "first_seen"}
        self._pending: dict[CID, dict] = {}
        node.gossip.subscribe(
            f"{node.node_id}/accel",
            acceleration_topic(node.subnet),
            self._on_certificate,
        )
        node.on_commit(self._on_block)

    # ------------------------------------------------------------------
    # Issuer side: certify new outgoing cross-msgs
    # ------------------------------------------------------------------
    def _on_block(self, block) -> None:
        self._certify_new_outgoing()
        self._clear_settled(block)
        self._expire_stale()

    def _certify_new_outgoing(self) -> None:
        state = self.node.vm.state
        period = self.node.checkpoint_period
        window = self.node.head().height // period
        for w in (window - 1, window):
            if w < 0:
                continue
            count = state.get(sca_key(f"out_count/{w}"), 0)
            start = self._scanned.get(w, 0)
            for seq in range(start, count):
                message: CrossMsg = state.get(sca_key(f"out/{w}/{seq}"))
                if message is None:
                    continue
                certificate = PendingCertificate.create(self.node.keypair, message, w)
                self.node.gossip.publish(
                    f"{self.node.node_id}/accel",
                    acceleration_topic(message.to_subnet),
                    certificate,
                )
            self._scanned[w] = max(start, count)

    # ------------------------------------------------------------------
    # Receiver side: aggregate certificates, expose tentative credits
    # ------------------------------------------------------------------
    def _on_certificate(self, envelope: PubsubEnvelope) -> None:
        certificate: PendingCertificate = envelope.data
        if not isinstance(certificate, PendingCertificate):
            return
        if certificate.message.to_subnet != self.node.subnet:
            return
        if not certificate.verify():
            self.sim.metrics.counter("accel.bad_certificates").inc()
            return
        entry = self._pending.setdefault(
            certificate.message.cid,
            {
                "message": certificate.message,
                "certifiers": set(),
                "first_seen": self.sim.now,
            },
        )
        entry["certifiers"].add(certificate.certifier)

    def _clear_settled(self, block) -> None:
        """Drop tentative entries once the real cross-msg applies here."""
        for cross in block.cross_messages:
            if isinstance(cross, ApplyBottomUp):
                for message in cross.messages:
                    if self._pending.pop(message.cid, None) is not None:
                        self.sim.metrics.counter("accel.settled").inc()
            elif isinstance(cross, ApplyTopDown):
                if self._pending.pop(cross.message.cid, None) is not None:
                    self.sim.metrics.counter("accel.settled").inc()

    def _expire_stale(self) -> None:
        horizon = self.sim.now - TTL
        for cid in [c for c, e in self._pending.items() if e["first_seen"] < horizon]:
            del self._pending[cid]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pending_for(self, addr: Address) -> int:
        """Tentative incoming value for *addr*, backed by ≥ quorum signers."""
        total = 0
        for entry in self._pending.values():
            message: CrossMsg = entry["message"]
            if message.to_addr == addr and len(entry["certifiers"]) >= self.quorum:
                total += message.value
        return total

    def pending_details(self, addr: Address) -> list:
        """(message, certifier count) pairs pending for *addr*."""
        return [
            (entry["message"], len(entry["certifiers"]))
            for entry in self._pending.values()
            if entry["message"].to_addr == addr
        ]
