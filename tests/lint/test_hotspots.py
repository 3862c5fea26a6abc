"""The function-level profile (benchmarks/hotspots.py): its ``profile``
section, its diff, and a committed pair of profiles read back through it."""

import importlib.util
import json
import os
from types import SimpleNamespace

from repro.telemetry.report import main as report_main

_BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
_spec = importlib.util.spec_from_file_location(
    "hotspots", os.path.join(_BENCHMARKS, "hotspots.py"))
hotspots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hotspots)

PROFILES = os.path.join(_BENCHMARKS, "profiles")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _document(functions):
    """A run document whose profile holds *functions*: key -> (calls, own_s)."""
    return {"profile": {
        "total_s": sum(own_s for _calls, own_s in functions.values()),
        "functions": {
            key: {"calls": calls, "own_s": own_s, "cum_s": own_s}
            for key, (calls, own_s) in functions.items()
        },
    }}


def test_rows_that_share_a_key_are_summed_and_builtins_lose_their_address():
    def code(path, qualname):
        return SimpleNamespace(co_filename=os.path.join(hotspots.SRC, path),
                               co_qualname=qualname, co_name=qualname.rsplit(".", 1)[-1])

    def entry(code, calls, own_s, cum_s):
        return SimpleNamespace(code=code, callcount=calls, inlinetime=own_s, totaltime=cum_s)

    stats = [
        entry(code("repro/a.py", "A.f"), 3, 0.25, 1.0),
        entry(code("repro/a.py", "A.f"), 1, 0.25, 0.5),  # same name, another line
        entry(code("repro/a.py", "B.f"), 2, 0.5, 0.5),
        entry("<built-in method __new__ of type object at 0x7f00aa>", 5, 1.0, 1.0),
        entry("<built-in method __new__ of type object at 0x7f00bb>", 1, 0.5, 0.5),
    ]
    section = hotspots.profile_section(SimpleNamespace(getstats=lambda: stats))
    assert section == {"total_s": 2.5, "functions": {
        "<built-in method __new__ of type object>": {"calls": 6, "own_s": 1.5, "cum_s": 1.5},
        "repro/a.py:A.f": {"calls": 4, "own_s": 0.5, "cum_s": 1.5},
        "repro/a.py:B.f": {"calls": 2, "own_s": 0.5, "cum_s": 0.5},
    }}


def test_the_diff_ranks_by_own_time_share_and_reads_an_absent_function_as_zero():
    old = _document({"grew": (10, 1.0), "shrank": (40, 2.0), "gone": (7, 1.0), "same": (1, 0.0)})
    new = _document({"grew": (20, 3.0), "shrank": (10, 1.0), "new": (5, 0.5), "same": (1, 0.0)})
    rows = hotspots.diff(old, new)
    assert [row.function for row in rows] == ["grew", "new", "same", "gone", "shrank"]
    by_name = {row.function: row for row in rows}
    assert (by_name["gone"].calls_old, by_name["gone"].calls_new) == (7, 0)
    assert by_name["gone"].share_new == 0.0 and by_name["gone"].share_old == 0.25
    assert (by_name["new"].calls_old, by_name["new"].share_old) == (0, 0.0)
    assert by_name["grew"].change == 3.0 / 4.5 - 0.25
    text = hotspots.render_diff(old, new)
    regressed, improved = text.split("\nimproved")
    assert "10 -> 20" in regressed and "0 -> 5" in regressed and "same" not in text
    assert improved.index("shrank") < improved.index("gone")


def test_the_block_bookkeeping_change_reproduces_from_two_committed_documents(capsys):
    """``hotspots.py pay-k8 --seconds 4`` (seed 1) on 6f63ead and on 2627c1e,
    where the proposer began keeping the messages root it built, root leaves
    began hashing CID digests and the mempool dropped its CID set: the
    bookkeeping that went, by call counts."""
    paths = [os.path.join(PROFILES, f"pay-k8-{commit}.json") for commit in ("6f63ead", "2627c1e")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = hotspots.diff(old, new)
    calls = {row.function: (row.calls_old, row.calls_new) for row in rows}
    assert calls["repro/vm/message.py:SignedMessage.cid"] == (436_416, 121_043)
    assert calls["repro/chain/block.py:FullBlock.compute_messages_root"] == (3_024, 1_512)
    assert calls["repro/crypto/merkle.py:_leaf_hash"] == (48_518, 0)
    improved = [row.function for row in reversed(rows) if row.change < 0]
    assert "repro/chain/message_pool.py:MessagePool.remove_included" in improved[:10]

    assert hotspots.main(["--diff", *paths]) == 0
    assert "436416 -> 121043" in capsys.readouterr().out
    # Each is a run document like any other.
    assert report_main([paths[1]]) == 0
    assert "run report — sim time" in capsys.readouterr().out


def test_the_size_class_chain_reproduces_from_two_committed_documents():
    """``hotspots.py state-wide --seconds 4`` (seed 1) on 4b98397 and on the
    change after it, where the frozen chain began keeping one layer per size
    class instead of collapsing past 32 layers: as many state reads, each
    probing fewer layers."""
    paths = [os.path.join(PROFILES, f"state-wide-{name}.json") for name in ("4b98397", "sizeclass")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}
    get = rows["repro/storage/statetree.py:StateTree.get"]
    assert (get.calls_old, get.calls_new) == (160_553, 160_553)
    assert get.share_new < get.share_old
    compacted = rows["repro/storage/statetree.py:StateTree._compacted"]
    assert (compacted.calls_old, compacted.calls_new) == (1, 0)


def test_the_counted_network_reproduces_from_two_committed_documents():
    """``hotspots.py fault-heal --seconds 8`` (seed 1) on dc81270 and on the
    change after it, where the transport and the gossip fabric stopped
    observing a latency per modelled copy and per accept: the same copies
    fanned out, far fewer histogram observations, and less own time in
    ``Transport.fanout``."""
    paths = [os.path.join(PROFILES, f"fault-heal-{name}.json") for name in ("dc81270", "counted")]
    assert all(os.path.getsize(path) <= 160 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}
    observe, observe_many = (rows[f"repro/sim/metrics.py:Histogram.{name}"]
                             for name in ("observe", "observe_many"))
    assert (observe.calls_old + observe_many.calls_old, observe.calls_new + observe_many.calls_new) == (
        408_565, 13_070)
    fanout = rows["repro/net/transport.py:Transport.fanout"]
    assert (fanout.calls_old, fanout.calls_new) == (146_279, 146_279)
    assert fanout.share_new < fanout.share_old
    # Only observation went: every copy is counted as before.
    assert old["counters"] == new["counters"]
    assert {"net.latency", "gossip.latency"} <= set(old["histograms"])
    assert not {"net.latency", "gossip.latency"} & set(new["histograms"])


def test_the_one_pass_signing_reproduces_from_two_committed_documents():
    """``hotspots.py xnet-deep --seconds 4`` (seed 1) on 63c01cb and on the
    change after it, where signing a message began encoding it once: the
    digest, the signed message's CID and the params' size for the
    intrinsic charge come from that one encode, string-keyed mappings and
    ``None`` elements take the encoder's fast paths, and an object that
    carries its bytes is joined without a ``canonical_body`` call."""
    paths = [os.path.join(PROFILES, f"xnet-deep-{name}.json") for name in ("63c01cb", "onepass")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}

    def calls(name):
        return rows[name].calls_old, rows[name].calls_new

    assert calls("repro/crypto/encoding.py:canonical_encode") == (25_054, 16_260)
    assert calls("repro/crypto/cid.py:cid_of") == (15_913, 11_511)
    assert calls("repro/crypto/encoding.py:_enc_dict") == (14_131, 5_337)
    assert calls("repro/crypto/encoding.py:_enc_dict.<locals>.<lambda>") == (56_092, 0)
    assert calls("repro/vm/message.py:SignedMessage.to_canonical") == (4_402, 0)
    assert calls("repro/crypto/encoding.py:canonical_body") == (90_993, 28_412)
    assert calls("repro/crypto/signature.py:sign") == (4_389, 4_389)
    # The intrinsic charge is made as often, but reads the size signing
    # measured: nothing below it is called any more.
    assert calls("repro/vm/gas.py:message_intrinsic") == (4_392, 4_392)
    intrinsic = "repro/vm/gas.py:message_intrinsic"
    (before, after) = (doc["profile"]["functions"][intrinsic] for doc in (old, new))
    assert before["cum_s"] > 10 * before["own_s"] and after["cum_s"] == after["own_s"]
    # The same run: every counter equal.
    assert old["counters"] == new["counters"]


def test_the_bytes_cid_reproduces_from_two_committed_documents():
    """``hotspots.py bft-votes --seconds 4`` (seed 1) on d905665 and on the
    change after it, where a CID became its 32 digest bytes (hash and
    equality in C) and a stale commit certificate began to be dropped
    before it is verified: the same run with far fewer interpreted calls."""
    paths = [os.path.join(PROFILES, f"bft-votes-{name}.json") for name in ("d905665", "cidbytes")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}

    def calls(name):
        return rows[name].calls_old, rows[name].calls_new

    assert calls("repro/crypto/cid.py:CID.__hash__") == (220_206, 0)
    assert calls("repro/crypto/cid.py:CID.__eq__") == (100_915, 0)
    assert calls("repro/crypto/cid.py:CID.__init__") == (7_818, 0)
    assert calls("repro/crypto/cid.py:CID.__new__") == (0, 7_818)
    assert calls("repro/consensus/tendermint.py:TendermintEngine._verify_commit_cert") == (6_720, 9)
    total_old, total_new = (sum(row["calls"] for row in doc["profile"]["functions"].values())
                            for doc in (old, new))
    assert total_new < 0.92 * total_old
    # The same run: every counter equal.
    assert old["counters"] == new["counters"]


def test_the_one_pass_copy_loop_reproduces_from_two_committed_documents():
    """``hotspots.py bft-votes --seconds 4`` (seed 1) on 7128332 and on the
    change after it, where a mesh link became a row per neighbour that the
    transport decides each copy over in one pass (settled, rider or
    materialised), and a block began to carry its header's CID and height:
    the same copies fanned out, no settled list built per forward, and no
    call left behind a block's CID."""
    paths = [os.path.join(PROFILES, f"bft-votes-{name}.json") for name in ("7128332", "onepass")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}

    def calls(name):
        return rows[name].calls_old, rows[name].calls_new

    assert calls("repro/net/gossip.py:GossipNetwork._accept.<locals>.<listcomp>") == (65_282, 0)
    assert calls("repro/net/transport.py:Transport.fanout") == (67_786, 67_786)
    assert calls("<method 'random' of '_random.Random' objects>") == (336_353, 336_353)
    assert calls("repro/chain/block.py:FullBlock.cid") == (99_200, 0)
    assert calls("repro/chain/block.py:FullBlock.height") == (117_165, 0)
    # What still reads a header's CID directly is all that calls it.
    assert calls("repro/chain/block.py:BlockHeader.cid") == (99_200, 960)
    assert calls("repro/crypto/cid.py:cached_cid") == (125_084, 26_844)
    total_old, total_new = (sum(row["calls"] for row in doc["profile"]["functions"].values())
                            for doc in (old, new))
    assert total_new < 0.9 * total_old
    # The same run: every counter equal.
    assert old["counters"] == new["counters"]


def test_the_one_format_seal_reproduces_from_two_committed_documents():
    """``hotspots.py pay-k8 --seconds 4`` (seed 1) on 28467f4 and on the
    change after it, where ``seal`` began formatting a message's and its
    signature's tuples itself, calling the encoder for params alone, and
    ``verify`` began reading the signer's address from the key table: the
    same signing and verifying, and no encode, join or address derivation
    left behind them."""
    paths = [os.path.join(PROFILES, f"pay-k8-{name}.json") for name in ("28467f4", "oneformat")]
    assert all(os.path.getsize(path) <= 64 * 1024 for path in paths)
    old, new = (_load(path) for path in paths)
    rows = {row.function: row for row in hotspots.diff(old, new)}

    def calls(name):
        return rows[name].calls_old, rows[name].calls_new

    assert calls("repro/crypto/signature.py:seal") == (24_266, 24_266)
    assert calls("repro/crypto/signature.py:sign") == (24_464, 24_464)
    assert calls("repro/crypto/signature.py:verify") == (24_467, 24_467)
    # Each seal encoded its message once; what still encodes is not a seal
    # (a payment has no params).
    assert calls("repro/crypto/encoding.py:canonical_encode") == (26_252, 1_986)
    assert calls("repro/crypto/cid.py:cid_of") == (1_587, 1_587)
    # verify derived the signer's address per call; the key table holds it.
    assert calls("repro/crypto/keys.py:Address.from_pubkey") == (24_467, 0)
    assert calls("repro/crypto/keys.py:key_for_public") == (0, 24_467)
    for gone in ("repro/crypto/cid.py:join_cid", "repro/vm/message.py:Message.params_size"):
        assert calls(gone) == (24_266, 0)
        assert gone not in new["profile"]["functions"]
    # The per-copy network counts add to their handles directly.
    assert calls("repro/sim/metrics.py:Counter.inc") == (297_463, 27_554)
    # The same run: every counter equal.
    assert old["counters"] == new["counters"]
