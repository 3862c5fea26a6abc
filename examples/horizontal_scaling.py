#!/usr/bin/env python3
"""Horizontal scaling demo: throughput grows with every spawned subnet.

A compact version of experiment E1: the same per-chain capacity, offered
load beyond one chain's limit, and subnets spawned on demand.  The single
rootnet saturates; each spawned subnet adds its own capacity — the paper's
central claim (§I: blockchains "unable to increase their performance by
adding more participants" become horizontally scalable with subnets).

Run:  python examples/horizontal_scaling.py
"""

from repro import HierarchicalSystem, SubnetConfig
from repro.analysis import Table
from repro.workloads import PaymentWorkload

BLOCK_TIME = 0.5
CAPACITY = 20  # messages per block -> 40 tx/s per chain
LOAD_PER_CHAIN = 60.0  # offered, saturating
MEASURE = 20.0


def measure(n_subnets: int) -> float:
    system = HierarchicalSystem(
        seed=1000 + n_subnets, root_validators=3, root_block_time=BLOCK_TIME,
        checkpoint_period=20,
    ).start()
    # All lanes spawn in one batch: one wait per spawn phase, not per lane.
    lanes = system.spawn_subnets(
        SubnetConfig(name=f"lane{i}", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=20, max_block_messages=CAPACITY)
        for i in range(n_subnets)
    )
    senders = {
        lane: [system.create_wallet(f"lane{i}-user{j}") for j in range(4)]
        for i, lane in enumerate(lanes)
    }
    for lane, wallets in senders.items():
        for wallet in wallets:
            system.fund_subnet(system.treasury, lane, wallet.address, 10**9)
    system.wait_for(
        lambda: all(
            system.balance(lane, w.address) > 0
            for lane, wallets in senders.items() for w in wallets
        )
    )
    workloads = [
        PaymentWorkload(system.sim, system.nodes(lane), senders[lane],
                        rate=LOAD_PER_CHAIN, rng_scope=f"scale{i}").start()
        for i, lane in enumerate(lanes)
    ]
    start = system.sim.now
    system.run_for(MEASURE)
    return sum(w.stats.committed for w in workloads) / (system.sim.now - start)


def main() -> None:
    print("== Horizontal scaling: spawn subnets, gain throughput ==")
    print(f"per-chain capacity: {CAPACITY} msgs / {BLOCK_TIME}s block "
          f"= {CAPACITY / BLOCK_TIME:.0f} tx/s\n")
    table = Table("committed throughput vs subnets", ["subnets", "tx/s", "speedup"])
    baseline = None
    for k in (1, 2, 4):
        throughput = measure(k)
        baseline = baseline or throughput
        table.add_row(k, throughput, throughput / baseline)
    table.show()
    print("\nEach subnet orders only its own transactions — capacity adds up.")


if __name__ == "__main__":
    main()
