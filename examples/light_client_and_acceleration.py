#!/usr/bin/env python3
"""Light clients and accelerated payments (§II, §IV-A).

Two paper features for participants who do *not* run a subnet's consensus:

1. a **checkpoint light client** follows a subnet purely from the signed
   checkpoints committed on the parent chain — verifying the signature
   policy and chain linkage — and can check that a batch of cross-msgs was
   genuinely emitted by the subnet;
2. **pending-payment certificates** let a recipient see an incoming
   cross-net payment within a block time, long before checkpoint-bound
   settlement ("to indicate a pending payment or even as tentative
   information to start operating as if these funds were already settled").

Run:  python examples/light_client_and_acceleration.py
"""

from repro import HierarchicalSystem, ROOTNET, SignaturePolicy, SubnetConfig
from repro.hierarchy.light_client import follow_parent_chain


def main() -> None:
    print("== Light clients & accelerated cross-net payments ==\n")
    system = HierarchicalSystem(
        seed=21, root_validators=3, root_block_time=0.5, checkpoint_period=16,
        accelerate_root=True, wallet_funds={"merchant": 10, "customer": 10**6},
    ).start()
    policy = SignaturePolicy(kind="multisig", threshold=2)
    shop = system.spawn_subnet(
        SubnetConfig(name="shop", validators=3, block_time=0.25,
                     checkpoint_period=16, policy=policy, accelerate=True)
    )
    customer = system.wallets["customer"]
    merchant = system.wallets["merchant"]
    system.fund_subnet(customer, shop, customer.address, 500_000)
    system.wait_for(lambda: system.balance(shop, customer.address) >= 500_000)

    print("-- the merchant (on the rootnet) watches for a payment --")
    root_node = system.node(ROOTNET)
    t0 = system.sim.now
    system.cross_send(customer, shop, ROOTNET, merchant.address, 75_000)
    system.wait_for(
        lambda: root_node.acceleration.pending_for(merchant.address) == 75_000
    )
    print(f"t+{system.sim.now - t0:.2f}s  pending certificate: 75,000 incoming, "
          f"vouched by "
          f"{root_node.acceleration.pending_details(merchant.address)[0][1]} "
          f"subnet validators")
    system.wait_for(lambda: system.balance(ROOTNET, merchant.address) >= 75_000)
    print(f"t+{system.sim.now - t0:.2f}s  settled on the rootnet "
          f"(checkpoint window is {16 * 0.25:.0f}s — the certificate won by "
          f"{(system.sim.now - t0) / 0.3:.0f}x)")

    print("\n-- a light client audits the subnet from the parent chain --")
    system.run_for(10.0)
    client = follow_parent_chain(
        root_node,
        system.sa_address(shop),
        shop,
        policy,
        [w.address for w in system.validator_wallets(shop)],
    )
    print(f"verified checkpoint chain length: {len(client.chain)}")
    print(f"latest proven subnet chain commitment: {client.latest_proof.short()}")
    print(f"trust weight behind the head checkpoint: "
          f"{client.trust_weight} validator signatures (policy needs {policy.quorum})")
    # The light client can certify that the merchant's payment batch was
    # genuinely emitted by the subnet.
    for verified in client.chain:
        for meta in verified.checkpoint.cross_meta:
            batch = system.node(shop).resolution.resolve_local(meta.msgs_cid)
            if batch and any(m.to_addr == merchant.address for m in batch):
                print(f"payment batch {meta.msgs_cid.hex()[:10]}… appears in "
                      f"checkpoint window {verified.checkpoint.window} — "
                      f"inclusion verified: {client.verify_cross_batch(batch)}")
    print(f"\ndone at t={system.sim.now:.1f}s")


if __name__ == "__main__":
    main()
