"""MET001 golden fixture: families spelled as the catalog spells them
(must stay silent)."""


class Engine:
    def __init__(self, sim, subnet):
        self.sim = sim
        self.subnet = subnet
        self._sent = sim.metrics.counter("net.sent")  # a full name is its own family

    def _metric(self, family):
        return self.sim.metrics.counter(family, self.subnet)  # forwards a plain name

    def propose(self, level, seconds):
        self._metric("consensus.*.proposed").inc()
        self.sim.metrics.histogram("xnet.hop.topdown.L*", level).observe(seconds)

    def apply(self, ok):
        self.sim.metrics.counter(
            "consensus.*.committed" if ok else "crossmsg.*.bottomup_failed", self.subnet
        ).inc()
