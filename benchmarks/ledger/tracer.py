"""The traced pass: timing wrappers around a fixed layer-boundary table.

Layers are the ``src/repro`` packages.  A *boundary* is a public function
or method through which one layer is entered; the table below is the whole
list.  Installing the tracer replaces each boundary with a timing wrapper
(``setattr`` on public classes; public module-level functions are rebound
in every ``repro.*`` namespace that imported them) — nothing inside the
program is edited, so the untraced pass runs the program as shipped.

Each event the simulator dispatches is the *root span* (and the request
identifier) of everything it causes; boundary calls nest under it by call
stack.  A span's *self time* is its duration minus what its child spans
cover; a layer's self time is the sum over its spans.  Aggregates are kept
for every event; raw spans only for one dispatched event in
``SAMPLE_EVERY`` (written out as a Perfetto-loadable trace).

The wrapper's own cost (two clock reads and a few list operations, ~1 us)
lands in the *parent's* self time, so layers that make many short boundary
calls look heavier than they are; ``trace.overhead_ratio`` says by how
much the whole pass was slowed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = (
    "sim", "crypto", "storage", "net", "vm", "chain", "consensus", "runtime",
    "hierarchy", "workloads", "telemetry",
)
#: Time that belongs to no layer of the program under test: the scenario
#: engine's own events.
OTHER = "other"
#: Dispatch-label prefix of the harness's own marker and sampler events.
#: Their time (mostly the calibration unit) is taken out of the traced wall
#: and appears in no row.
HARNESS_LABEL = "ledger:"
OUTSIDE = "(outside dispatch)"
SAMPLE_EVERY = 256

#: (layer, "module[:Class]", attribute).  Order is display order.
BOUNDARIES = (
    ("sim", "repro.sim.events:EventQueue", "push"),
    ("crypto", "repro.crypto.encoding", "canonical_encode"),
    ("crypto", "repro.crypto.cid", "cid_of"),
    ("crypto", "repro.crypto.cid", "cached_cid"),
    ("crypto", "repro.crypto.signature", "sign"),
    ("crypto", "repro.crypto.signature", "verify"),
    ("crypto", "repro.crypto.threshold:ThresholdScheme", "partial_sign"),
    ("crypto", "repro.crypto.threshold:ThresholdScheme", "combine"),
    ("crypto", "repro.crypto.threshold:ThresholdScheme", "verify"),
    ("storage", "repro.storage.statetree:StateTree", "root"),
    ("storage", "repro.storage.statetree:StateTree", "fork"),
    ("net", "repro.net.gossip:GossipNetwork", "publish"),
    ("net", "repro.net.transport:Transport", "send"),
    ("net", "repro.net.rpc:RpcChannel", "call"),
    ("vm", "repro.vm.vm:VM", "apply_message"),
    ("vm", "repro.vm.vm:VM", "apply_implicit"),
    ("chain", "repro.chain.message_pool:MessagePool", "add"),
    ("chain", "repro.chain.message_pool:MessagePool", "select"),
    ("chain", "repro.chain.chainstore:ChainStore", "add_block"),
    ("chain", "repro.chain.block:FullBlock", "compute_messages_root"),
    ("consensus", "repro.consensus.poa:RoundRobinEngine", "handle"),
    ("consensus", "repro.consensus.pos:ProofOfStakeEngine", "handle"),
    ("consensus", "repro.consensus.pow:ProofOfWorkEngine", "handle"),
    ("consensus", "repro.consensus.tendermint:TendermintEngine", "handle"),
    ("consensus", "repro.consensus.mir:MirEngine", "handle"),
    ("runtime", "repro.runtime.node:NodeRuntime", "assemble_block"),
    ("runtime", "repro.runtime.node:NodeRuntime", "receive_block"),
    ("runtime", "repro.runtime.node:NodeRuntime", "submit_message"),
    ("runtime", "repro.runtime.node:NodeRuntime", "request_block_range"),
    ("hierarchy", "repro.hierarchy.checkpointing:CheckpointService", "on_block"),
    ("hierarchy", "repro.hierarchy.checkpointing:CheckpointService", "handle"),
    ("hierarchy", "repro.hierarchy.gateway:SubnetCoordinatorActor", "send_crossmsg"),
    ("hierarchy", "repro.hierarchy.gateway:SubnetCoordinatorActor", "apply_topdown"),
    ("hierarchy", "repro.hierarchy.gateway:SubnetCoordinatorActor", "apply_bottomup"),
    ("hierarchy", "repro.hierarchy.gateway:SubnetCoordinatorActor", "commit_child_checkpoint"),
    ("hierarchy", "repro.hierarchy.crossmsg_pool:CrossMsgPool", "scan_parent"),
    ("hierarchy", "repro.hierarchy.crossmsg_pool:CrossMsgPool", "scan_own"),
    ("hierarchy", "repro.hierarchy.crossmsg_pool:CrossMsgPool", "select"),
    ("hierarchy", "repro.hierarchy.resolution:ResolutionService", "request"),
    ("hierarchy", "repro.hierarchy.resolution:ResolutionService", "push"),
    # The client side of a submission: build, sign, hand to a node.
    ("workloads", "repro.hierarchy.wallet:Wallet", "send"),
    ("telemetry", "repro.telemetry.spans:SpanTracer", "on_block_commit"),
    ("telemetry", "repro.telemetry.monitor:InvariantMonitor", "on_block_commit"),
    ("telemetry", "repro.telemetry.rounds:RoundTracer", "on_round_event"),
    ("telemetry", "repro.telemetry.recorder:FlightRecorder", "note_health"),
    ("telemetry", "repro.telemetry.recorder:FlightRecorder", "dump"),
    ("telemetry", "repro.telemetry.health:HealthProbe", "sample"),
)

#: Counts taken at a boundary as it returns: name -> (boundary, reducer).
#: ``reducer(previous, bound_self_or_None, result)`` -> new value.
OBSERVED = {
    "storage.buckets_rehashed": (
        "StateTree.root", lambda total, tree, _cid: total + tree.last_root_rehashed
    ),
    "storage.layer_depth_max": (
        "StateTree.fork", lambda deepest, tree, _fork: max(deepest, tree.chain_depth)
    ),
    "vm.failed_receipts": (
        "VM.apply_message", lambda total, _vm, receipt: total + (not receipt.ok)
    ),
}

#: First label component -> layer of the dispatched event's own code.
#: Events without a known label fall back to their callback's module.
LABEL_LAYERS = {
    "net": "net", "gossip": "net", "rpc": "net",
    "poa": "consensus", "pos": "consensus", "pow": "consensus",
    "mir": "consensus", "tm": "consensus",
    "workload": "workloads",
    "telemetry": "telemetry",
    "ckpt": "hierarchy",
    "node": "runtime",
}


def label_family(label: str) -> str:
    """A dispatch label with its per-node suffix dropped
    (``poa:/root/s0#1`` -> ``poa``; ``net:gossip:pub`` stays)."""
    parts = []
    for part in label.split(":")[:3]:
        if "/" in part or "#" in part:
            break
        parts.append(part)
    return ":".join(parts) or label


def _layer_of_module(module: str) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def boundary_name(target: str, attr: str) -> str:
    owner = target.split(":")[1] if ":" in target else target.rsplit(".", 1)[1]
    return f"{owner}.{attr}"


class LayerTracer:
    """Aggregating span tracer over the boundary table."""

    def __init__(self) -> None:
        self.kinds = [boundary_name(target, attr) for _, target, attr in BOUNDARIES]
        self.kind_layer = [layer for layer, _, _ in BOUNDARIES]
        self._index = {name: i for i, name in enumerate(self.kinds)}
        n = len(self.kinds)
        self.calls = [0] * n
        self.total = [0.0] * n
        # Self time per label family: family -> [seconds per boundary kind].
        self.family_self: dict = {OUTSIDE: [0.0] * n}
        # Root spans: family -> [events, seconds inclusive, seconds self].
        self.roots: dict = {}
        self.family_layer: dict = {}
        self.observed = {name: 0 for name in OBSERVED}
        self._stack: list = []  # open spans: [seconds covered by children]
        self._current = [self.family_self[OUTSIDE]]  # indirection shared with wrappers
        self._sampling = [False]
        self._label_cache: dict = {}
        self._root_seq = 0
        self.raw: list = []  # (root seq, name, layer, start, seconds, depth)
        self._patched: list = []  # (owner, attr, original raw attribute)
        self._hook_removers: list = []
        self.region_wall_s = 0.0
        self.frozen = None  # snapshot dict once the region ended

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, kind: int, observers: list):
        stack = self._stack
        calls, total = self.calls, self.total
        current, sampling, raw = self._current, self._sampling, self.raw
        name, layer = self.kinds[kind], self.kind_layer[kind]
        observed = self.observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[kind] += 1
                total[kind] += elapsed
                current[0][kind] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if sampling[0]:
                    raw.append((self._root_seq, name, layer, start, elapsed, len(stack)))
            for key, reducer in observers:
                observed[key] = reducer(observed[key], args[0] if args else None, result)
            return result

        return traced

    def install(self) -> "LayerTracer":
        """Replace every boundary with its timing wrapper (idempotent)."""
        if self._patched:
            return self
        for kind, (_layer, target, attr) in enumerate(BOUNDARIES):
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            raw_attr = inspect.getattr_static(owner, attr)
            observers = [
                (key, reducer)
                for key, (boundary, reducer) in OBSERVED.items()
                if boundary == self.kinds[kind]
            ]
            if isinstance(raw_attr, staticmethod):
                wrapper = staticmethod(self._wrap(raw_attr.__func__, kind, observers))
            else:
                wrapper = self._wrap(raw_attr, kind, observers)
            if class_name:
                self._set(owner, attr, raw_attr, wrapper)
                drop_export_cache(owner)
            else:
                # `from m import f` copied the function into other
                # namespaces; rebind every one of them.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is raw_attr:
                            self._set(other, alias, raw_attr, wrapper)
        self._install_hook_wrapping()
        return self

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _install_hook_wrapping(self) -> None:
        """Time hooks the program registers on the dispatch bus.

        ``FlightRecorder`` observes every event through the public
        ``on_post_dispatch`` hook; its cost is per event, outside any root
        span, so it is timed where it is registered.
        """
        from repro.sim.scheduler import DispatchBus

        tracer = self
        original = inspect.getattr_static(DispatchBus, "on_post_dispatch")

        @functools.wraps(original)
        def on_post_dispatch(bus, hook):
            layer = _layer_of_module(getattr(hook, "__module__", ""))
            if layer == OTHER:
                return original(bus, hook)
            owner = getattr(getattr(hook, "__self__", None), "__class__", None)
            name = f"{owner.__name__ if owner else '?'}.<dispatch hook>"
            if name not in tracer._index:
                tracer._add_kind(name, layer)
            return original(bus, tracer._wrap_hook(hook, tracer._index[name]))

        self._set(DispatchBus, "on_post_dispatch", original, on_post_dispatch)

    def _wrap_hook(self, hook, kind: int):
        """Dispatch hooks run after their event's root span has been
        timed, so they are booked outside it rather than nested in it."""
        calls, total = self.calls, self.total
        outside = self.family_self[OUTSIDE]

        @functools.wraps(hook)
        def traced_hook(event, elapsed):
            start = perf_counter()
            try:
                return hook(event, elapsed)
            finally:
                spent = perf_counter() - start
                calls[kind] += 1
                total[kind] += spent
                outside[kind] += spent

        return traced_hook

    def _add_kind(self, name: str, layer: str) -> None:
        self._index[name] = len(self.kinds)
        self.kinds.append(name)
        self.kind_layer.append(layer)
        self.calls.append(0)
        self.total.append(0.0)
        for row in self.family_self.values():
            row.append(0.0)

    def uninstall(self) -> None:
        """Restore every patched attribute to the exact original object."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
            if inspect.isclass(owner):
                drop_export_cache(owner)
        self._patched = []
        self.detach()

    # ------------------------------------------------------------------
    # Root spans (dispatch hooks)
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Make every event *sim* dispatches a root span."""
        self._hook_removers = [
            sim.dispatch.on_pre_dispatch(self._on_pre),
            sim.dispatch.on_post_dispatch(self._on_post),
        ]
        self._label_of = sim.dispatch.label_of

    def detach(self) -> None:
        for remove in self._hook_removers:
            remove()
        self._hook_removers = []

    def _family_of(self, event) -> str:
        label = self._label_of(event)
        family = self._label_cache.get(label)
        if family is None:
            family = self._label_cache[label] = label_family(label)
            if family not in self.roots:
                self.roots[family] = [0, 0.0, 0.0]
                self.family_self[family] = [0.0] * len(self.kinds)
                self.family_layer[family] = LABEL_LAYERS.get(
                    family.split(":")[0]
                ) or _layer_of_module(getattr(event.callback, "__module__", ""))
        return family

    def _on_pre(self, event) -> None:
        family = self._family = self._family_of(event)
        # Roots never nest; a frame left by a suppressed event is dropped.
        del self._stack[:]
        self._stack.append([0.0])
        self._current[0] = self.family_self[family]
        self._root_seq += 1
        if self._root_seq % SAMPLE_EVERY == 0:
            self._sampling[0] = True
            self._root_start = perf_counter()

    def _on_post(self, event, elapsed: float) -> None:
        family = self._family
        covered = self._stack[0][0] if self._stack else 0.0
        del self._stack[:]
        root = self.roots[family]
        root[0] += 1
        root[1] += elapsed
        root[2] += elapsed - covered
        self._current[0] = self.family_self[OUTSIDE]
        if self._sampling[0]:
            self._sampling[0] = False
            self.raw.append(
                (self._root_seq, family, self.family_layer[family],
                 self._root_start, elapsed, 0)
            )

    # ------------------------------------------------------------------
    # Region control
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every aggregate (start of the measured region)."""
        n = len(self.kinds)
        self.calls[:] = [0] * n
        self.total[:] = [0.0] * n
        for row in self.family_self.values():
            row[:] = [0.0] * n
        for root in self.roots.values():
            root[:] = [0, 0.0, 0.0]
        for key in self.observed:
            self.observed[key] = 0
        del self.raw[:]

    def freeze(self, region_span_s: float) -> None:
        """Snapshot the aggregates (end of the measured region, which took
        *region_span_s* of wall, the harness's own events included)."""
        self.detach()
        harness = [family for family in self.roots if family.startswith(HARNESS_LABEL)]
        self.region_wall_s = region_span_s - sum(self.roots[f][1] for f in harness)
        self.frozen = {
            "calls": list(self.calls),
            "total": list(self.total),
            "family_self": {
                f: list(row) for f, row in self.family_self.items() if f not in harness
            },
            "roots": {f: list(root) for f, root in self.roots.items() if f not in harness},
            "observed": dict(self.observed),
        }

    # ------------------------------------------------------------------
    # Aggregates (read after freeze)
    # ------------------------------------------------------------------
    def kind(self, name: str) -> dict:
        """calls / total_s / self_s of one boundary."""
        index = self._index[name]
        frozen = self.frozen
        return {
            "calls": frozen["calls"][index],
            "total_s": frozen["total"][index],
            "self_s": sum(row[index] for row in frozen["family_self"].values()),
        }

    def has_kind(self, name: str) -> bool:
        return name in self._index

    def boundary_rows(self) -> list:
        return [
            {"name": name, "layer": self.kind_layer[i], **self.kind(name)}
            for i, name in enumerate(self.kinds)
        ]

    def dispatch_total_s(self) -> float:
        """Wall seconds inside dispatched events (root spans, inclusive)."""
        return sum(root[1] for root in self.frozen["roots"].values())

    def matrix(self) -> dict:
        """family -> {layer: self seconds}, root self under the family's
        own layer; plus the scheduler's time outside any dispatch."""
        frozen = self.frozen
        table: dict = {}
        for family, row in frozen["family_self"].items():
            cells = table.setdefault(family, {})
            for index, seconds in enumerate(row):
                if seconds:
                    layer = self.kind_layer[index]
                    cells[layer] = cells.get(layer, 0.0) + seconds
        for family, (_events, _total, self_s) in frozen["roots"].items():
            cells = table.setdefault(family, {})
            layer = self.family_layer[family]
            cells[layer] = cells.get(layer, 0.0) + self_s
        # What is left of the region's wall time is the scheduler itself:
        # heap pops, the dispatch bus, the run loop.
        outside = table.setdefault(OUTSIDE, {})
        booked = self.dispatch_total_s() + sum(frozen["family_self"][OUTSIDE])
        outside["sim"] = outside.get("sim", 0.0) + max(0.0, self.region_wall_s - booked)
        return table

    def layer_totals(self) -> dict:
        """layer -> {"self_s", "calls"} over boundaries and root spans."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (OTHER,)}
        for cells in self.matrix().values():
            for layer, seconds in cells.items():
                totals[layer]["self_s"] += seconds
        for index, count in enumerate(self.frozen["calls"]):
            totals[self.kind_layer[index]]["calls"] += count
        for family, (events, _total, _self) in self.frozen["roots"].items():
            totals[self.family_layer[family]]["calls"] += events
        return totals

    # ------------------------------------------------------------------
    # Perfetto export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, workload: str) -> int:
        """Write the sampled raw spans as Chrome-trace JSON (Perfetto
        loads it).  Returns the number of spans written."""
        spans = list(self.raw)
        origin = min((span[3] for span in spans), default=0.0)
        events = [
            {
                "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": f"ledger traced pass: {workload}"},
            }
        ]
        for span_id, (seq, name, layer, start, seconds, depth) in enumerate(spans):
            events.append(
                {
                    "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (start - origin) * 1e6, "dur": seconds * 1e6,
                    "args": {
                        "event": seq, "span": span_id,
                        "parent": _parent_of(spans, span_id),
                        "layer": layer,
                    },
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
            handle.write("\n")
        return len(spans)


def _parent_of(spans: list, index: int):
    """Index of the enclosing span of ``spans[index]`` (None for a root).

    Spans of one dispatched event are appended as they *end*, so the
    parent is the next later span of the same event one level shallower
    (the root, depth 0, is appended last).
    """
    seq, depth = spans[index][0], spans[index][5]
    for later in range(index + 1, len(spans)):
        if spans[later][0] != seq:
            break
        if spans[later][5] == depth - 1:
            return later
    return None


def drop_export_cache(cls) -> None:
    """Actor classes cache their exported-method table on first dispatch;
    drop it so the table is rebuilt over the (un)patched attributes."""
    if "_exported_cache" in vars(cls):
        delattr(cls, "_exported_cache")
