"""Unit tests for the RPC channel."""

from repro.net.rpc import RpcChannel
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator


def make_rpc(seed=1, timeout=5.0):
    sim = Simulator(seed=seed)
    transport = Transport(sim, Topology())
    return sim, transport, RpcChannel(sim, transport, timeout=timeout)


def test_call_returns_result():
    sim, _, rpc = make_rpc()
    rpc.expose("server", "add", lambda caller, params: params[0] + params[1])
    results = []
    rpc.call("client", "server", "add", (2, 3), lambda r, e: results.append((r, e)))
    sim.run_until(1.0)
    assert results == [(5, None)]


def test_unknown_method_is_error():
    sim, _, rpc = make_rpc()
    rpc.register_peer("server")
    results = []
    rpc.call("client", "server", "nope", None, lambda r, e: results.append((r, e)))
    sim.run_until(1.0)
    assert results[0][0] is None
    assert "no such method" in results[0][1]


def test_server_exception_becomes_error():
    sim, _, rpc = make_rpc()

    def boom(caller, params):
        raise RuntimeError("kaput")

    rpc.expose("server", "boom", boom)
    results = []
    rpc.call("client", "server", "boom", None, lambda r, e: results.append((r, e)))
    sim.run_until(1.0)
    assert results[0][0] is None
    assert "kaput" in results[0][1]


def test_unreachable_target_errors_immediately():
    sim, _, rpc = make_rpc()
    results = []
    rpc.call("client", "ghost", "m", None, lambda r, e: results.append((r, e)))
    sim.run_until(1.0)
    assert results[0][0] is None
    assert "unreachable" in results[0][1]


def test_timeout_fires_when_partitioned_after_send():
    sim, transport, rpc = make_rpc(timeout=2.0)
    rpc.expose("server", "slow", lambda caller, params: "late")
    # Partition the client *after* the call: the request is already in
    # flight and lands, the response is dropped at send time.
    results = []
    rpc.call("client", "server", "slow", None, lambda r, e: results.append((r, e)))
    transport.partition("client")
    sim.run_until(5.0)
    assert results == [(None, "timeout")]


def test_callback_fires_exactly_once():
    sim, _, rpc = make_rpc(timeout=1.0)
    rpc.expose("server", "echo", lambda caller, params: params)
    results = []
    rpc.call("client", "server", "echo", "x", lambda r, e: results.append((r, e)))
    sim.run_until(10.0)  # long after the timeout would have fired
    assert results == [("x", None)]


def test_caller_identity_passed_to_server():
    sim, _, rpc = make_rpc()
    rpc.expose("server", "who", lambda caller, params: caller)
    results = []
    rpc.call("alice", "server", "who", None, lambda r, e: results.append(r))
    sim.run_until(1.0)
    assert results == ["alice"]


def test_concurrent_calls_are_matched():
    sim, _, rpc = make_rpc()
    rpc.expose("server", "double", lambda caller, params: params * 2)
    results = {}
    for i in range(5):
        rpc.call(
            "client", "server", "double", i,
            lambda r, e, i=i: results.__setitem__(i, r),
        )
    sim.run_until(2.0)
    assert results == {i: i * 2 for i in range(5)}


def test_rpc_respects_partitions():
    """RPC endpoints share their peer's physical link: a partition keyed on
    the bare peer id must block ``rpc:``-namespaced traffic too."""
    sim, transport, rpc = make_rpc()
    rpc.expose("server", "echo", lambda caller, params: params)
    handle = transport.topology.partition_groups((frozenset(("server",)),))
    results = []
    rpc.call("client", "server", "echo", "x", lambda r, e: results.append((r, e)))
    sim.run_until(1.0)
    assert results == [(None, "unreachable: server")]
    transport.topology.heal(handle)
    rpc.call("client", "server", "echo", "y", lambda r, e: results.append((r, e)))
    sim.run_until(2.0)
    assert results[1] == ("y", None)
