"""E11 — Accelerated cross-net messages (§IV-A's direct certification).

"To accelerate the process, each SA in the path can send a direct message
to the destination, certifying that the user is the legitimate owner of
the funds … to indicate a pending payment or even … to start operating as
if these funds were already settled."

We measure, per bottom-up transfer: time until a quorum-backed pending
certificate is visible at the destination vs time until checkpoint-bound
settlement, across checkpoint periods.

Expected shape: certificate latency is a couple of block/gossip rounds and
*independent of the checkpoint period*; settlement latency grows with the
period, so acceleration's advantage widens with slower checkpointing.
"""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.sim.tracing import TraceLog

from common import RUN, run_once, show_table, write_bench_json

BLOCK_TIME = 0.25
PERIODS = (8, 16, 32)
N_TRANSFERS = 5


def _run_period(period: int, seed: int):
    system = HierarchicalSystem(
        seed=seed, root_validators=3, root_block_time=0.5,
        checkpoint_period=period, accelerate_root=True,
        wallet_funds={"payer": 10**9},
    )
    # The bench document's `trace` section: CI holds its digest across
    # hash seeds.
    system.sim.attach(TraceLog(system.sim))
    system.start()
    RUN.capture(system.sim, system)
    subnet = system.spawn_subnet(
        SubnetConfig(name="acc", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=period, accelerate=True)
    )
    payer = system.wallets["payer"]
    system.fund_subnet(payer, subnet, payer.address, 10**8)
    system.wait_for(lambda: system.balance(subnet, payer.address) >= 10**8, timeout=60.0)
    root_node = system.node(ROOTNET)

    certificate_lat, settlement_lat = [], []
    for i in range(N_TRANSFERS):
        sink = system.create_wallet(f"e11-{period}-{i}")
        start = system.sim.now
        system.cross_send(payer, subnet, ROOTNET, sink.address, 1_000)
        ok_cert = system.wait_for(
            lambda: root_node.acceleration.pending_for(sink.address) == 1_000,
            timeout=60.0,
        )
        certificate_lat.append(system.sim.now - start if ok_cert else float("nan"))
        ok_settle = system.wait_for(
            lambda: system.balance(ROOTNET, sink.address) == 1_000, timeout=240.0
        )
        settlement_lat.append(system.sim.now - start if ok_settle else float("nan"))
        system.run_for(period * BLOCK_TIME * 0.3)
    return {
        "period": period,
        "cert_mean": sum(certificate_lat) / len(certificate_lat),
        "settle_mean": sum(settlement_lat) / len(settlement_lat),
    }


@pytest.mark.benchmark(group="e11")
def test_e11_accelerated_crossmsgs(benchmark):
    def experiment():
        return [_run_period(p, 1100 + p) for p in PERIODS]

    rows = run_once(benchmark, experiment)

    show_table(
        "E11 — pending-payment certificate vs checkpoint settlement "
        f"(mean over {N_TRANSFERS} transfers)",
        ["checkpoint period", "window (s)", "certificate visible (s)",
         "settled (s)", "speedup"],
        [
            (row["period"], row["period"] * BLOCK_TIME,
             row["cert_mean"], row["settle_mean"],
             row["settle_mean"] / row["cert_mean"])
            for row in rows
        ],
    )

    write_bench_json("e11_acceleration", rows=rows)
    for row in rows:
        assert row["cert_mean"] == row["cert_mean"], "certificates never arrived"
        assert row["cert_mean"] < row["settle_mean"]
        # Certificates are block/gossip bound, not window bound.
        assert row["cert_mean"] < 8 * BLOCK_TIME
    # The advantage widens with the checkpoint period.
    assert rows[-1]["settle_mean"] / rows[-1]["cert_mean"] > \
        rows[0]["settle_mean"] / rows[0]["cert_mean"] * 0.8
    assert rows[-1]["settle_mean"] > rows[0]["settle_mean"]
