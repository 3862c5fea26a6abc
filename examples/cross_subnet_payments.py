#!/usr/bin/env python3
"""Cross-subnet payments across a multi-level hierarchy (§IV-A, Fig. 3).

Builds the topology of Fig. 1 — a rootnet with two branches, one of them
two levels deep — and demonstrates all three cross-net message classes:

- top-down   (root -> /root/apps/games, two hops of SCA routing);
- bottom-up  (/root/apps/games -> root, two checkpoint relays);
- path       (/root/apps/games -> /root/storage, up to the LCA and down).

Then runs a mixed payment workload and prints per-class latency stats.

Run:  python examples/cross_subnet_payments.py
"""

from repro import HierarchicalSystem, ROOTNET, SubnetConfig, audit_system
from repro.analysis import Table


def main() -> None:
    print("== Cross-subnet payments across the hierarchy ==\n")
    system = HierarchicalSystem(
        seed=7,
        root_validators=3,
        root_block_time=0.5,
        checkpoint_period=6,
        wallet_funds={"alice": 5_000_000, "bob": 5_000_000},
    ).start()

    print("building the hierarchy:")
    # One batch builds the whole tree, one level at a time: games waits for
    # its parent apps; apps and storage spawn side by side.
    apps, games, storage = system.spawn_subnets([
        SubnetConfig(name="apps", validators=3, engine="poa",
                     block_time=0.25, checkpoint_period=6),
        SubnetConfig(name="games", parent="/root/apps", validators=3, engine="mir",
                     block_time=0.5, checkpoint_period=6),
        SubnetConfig(name="storage", validators=3, engine="pos",
                     block_time=0.5, checkpoint_period=6),
    ])
    print(f"  spawned {apps}")
    print(f"  spawned {games} (mir multi-leader)")
    print(f"  spawned {storage} (proof-of-stake)")

    alice, bob = system.wallets["alice"], system.wallets["bob"]
    table = Table("cross-net transfer latencies", ["route", "class", "latency (s)"])

    # Top-down, two hops: the rootnet SCA freezes funds and enqueues toward
    # /root/apps; the /root/apps SCA mints-and-forwards toward games.
    start = system.sim.now
    system.cross_send(alice, ROOTNET, games, alice.address, 500_000)
    system.wait_for(lambda: system.balance(games, alice.address) >= 500_000)
    table.add_row("/root -> /root/apps/games", "top-down x2", system.sim.now - start)

    # Bottom-up, two checkpoint relays: burned in games, meta climbs to
    # apps, relayed to root, released there.
    start = system.sim.now
    system.cross_send(alice, games, ROOTNET, bob.address, 40_000)
    root_bob = system.balance(ROOTNET, bob.address)
    system.wait_for(
        lambda: system.balance(ROOTNET, bob.address) >= 5_000_000 + 40_000
    )
    table.add_row("/root/apps/games -> /root", "bottom-up x2", system.sim.now - start)

    # Path message: up to the LCA (root), then down into /root/storage.
    start = system.sim.now
    system.cross_send(alice, games, storage, bob.address, 25_000)
    system.wait_for(lambda: system.balance(storage, bob.address) >= 25_000)
    table.add_row("/root/apps/games -> /root/storage", "path (up x2, down x1)",
                  system.sim.now - start)

    table.show()

    print("\nSCA books along the way:")
    for parent, child in ((ROOTNET, apps), (apps, games), (ROOTNET, storage)):
        record = system.child_record(parent, child)
        print(f"  {child}: injected={record['injected_total']:,} "
              f"released={record['released_total']:,} "
              f"circulating={record['circulating']:,}")

    audit = audit_system(system)
    print(f"\nsupply audit across the whole hierarchy: "
          f"{'OK' if audit.ok else audit.violations}")
    print(f"done at t={system.sim.now:.1f}s "
          f"({system.sim.events_executed:,} events)")


if __name__ == "__main__":
    main()
