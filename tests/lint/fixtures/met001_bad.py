"""MET001 golden fixture: metric names built at the call site (fires)."""


def count_reorg(sim, subnet):
    sim.metrics.counter(f"chain.{subnet}.reorgs").inc()


def hop(metrics, direction, seconds):
    metrics.histogram("xnet.hop." + direction).observe(seconds)


def vote_power(metrics, subnet, vote_type, held):
    metrics.gauge("consensus.round.{}.{}_power".format(subnet, vote_type)).set(held)


def frontier(tracer, subnet, height):
    gauge = tracer.metrics.gauge
    gauge(f"consensus.round.{subnet}.height").set(height)


def synced(metrics, path, blocks):
    metrics.counter("chain.%s.sync_blocks" % path).inc(blocks)
