"""E2 — Checkpoint template population (Fig. 2).

"The checkpoint period in the SA determines the window during which
cross-msgs are accepted in the current checkpoint.  Upon reaching the end
of the period, new cross-msgs begin populating the next checkpoint and a
signature window is opened for the previous one."

We emit one bottom-up cross-msg at a controlled offset within a checkpoint
window and measure (a) the wait until the sealing block closes its window
and (b) the end-to-end time until the value lands on the parent.

Expected shape: the seal wait decreases ~linearly with the arrival offset
(sawtooth over the window); end-to-end latency = seal wait + a roughly
constant signature/commit/application tail.
"""

import pytest

from repro.hierarchy import ROOTNET

from common import (
    build_hierarchy,
    fund_subnet_senders,
    run_once,
    show_table,
    write_bench_json,
)

BLOCK_TIME = 0.25
PERIOD = 16  # blocks per window -> window length 4.0s
WINDOW_SECONDS = BLOCK_TIME * PERIOD
OFFSET_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _measure_offsets():
    system, (subnet,) = build_hierarchy(
        seed=211, n_subnets=1, subnet_block_time=BLOCK_TIME,
        checkpoint_period=PERIOD, root_block_time=0.5,
    )
    (sender,) = fund_subnet_senders(system, [subnet], 1, 10**9, tag="e2")[subnet]
    node = system.node(subnet)
    results = []
    for index, fraction in enumerate(OFFSET_FRACTIONS):
        sink = system.create_wallet(f"e2-sink-{index}")
        # Align to the start of the next full window, then wait the offset.
        height = node.head().height
        next_boundary = ((height // PERIOD) + 1) * PERIOD
        boundary_wait = (next_boundary - height) * BLOCK_TIME
        system.run_for(boundary_wait + fraction * WINDOW_SECONDS)

        submit_time = system.sim.now
        submit_height = node.head().height
        window = submit_height // PERIOD
        system.cross_send(sender, subnet, ROOTNET, sink.address, 100)

        # (a) wait until the window that accepted the msg is sealed.
        system.wait_for(
            lambda: system.sca_state(subnet, f"ckpt/{window}") is not None, timeout=60.0
        )
        seal_wait = system.sim.now - submit_time
        # (b) end-to-end until the value lands on the parent.
        system.wait_for(
            lambda: system.balance(ROOTNET, sink.address) == 100, timeout=120.0
        )
        e2e = system.sim.now - submit_time
        results.append(
            {"offset": fraction, "seal_wait": seal_wait, "e2e": e2e}
        )
    return results


@pytest.mark.benchmark(group="e2")
def test_e2_checkpoint_window_timing(benchmark):
    rows = run_once(benchmark, _measure_offsets)

    show_table(
        f"E2 — cross-msg wait vs arrival offset in a {WINDOW_SECONDS:.1f}s "
        f"checkpoint window (period {PERIOD} blocks x {BLOCK_TIME}s)",
        ["offset (fraction)", "seal wait (s)", "end-to-end to parent (s)"],
        [(row["offset"], row["seal_wait"], row["e2e"]) for row in rows],
    )
    write_bench_json("e2_checkpointing", rows=rows)

    # Sawtooth: later arrivals wait less for the seal.
    seal_waits = [row["seal_wait"] for row in rows]
    assert seal_waits == sorted(seal_waits, reverse=True)
    # The wait is bounded by one window (plus one block of slack).
    assert all(w <= WINDOW_SECONDS + BLOCK_TIME for w in seal_waits)
    # Expected linear relation: seal_wait ≈ (1 - offset) · window.
    for row in rows:
        expected = (1 - row["offset"]) * WINDOW_SECONDS
        assert abs(row["seal_wait"] - expected) <= 2 * BLOCK_TIME + 0.1
    # End-to-end adds a roughly constant tail after the seal.
    tails = [row["e2e"] - row["seal_wait"] for row in rows]
    assert max(tails) - min(tails) <= WINDOW_SECONDS
    assert all(t > 0 for t in tails)
