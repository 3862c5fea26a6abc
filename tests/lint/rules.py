"""The determinism rules: six static checks that keep the simulation
byte-reproducible, so that a digest can pin what the paper guarantees.

A per-module rule is a function ``(path, tree) -> [(line, message)]`` over
one module of ``src/repro``, *path* relative to that folder
(``hierarchy/gateway.py``); it scopes itself by the path.  MET001 is one
function over the whole tree.  :func:`findings` runs all six, and
``test_full_tree.py`` holds the tree to no finding outside :data:`ALLOWED`.

What a rule cannot see, the dynamic half of the contract can: CI compares
end-state digests across tie shuffles and ``PYTHONHASHSEED`` values
(DESIGN.md §4.1).
"""

import ast

#: The import-layering contract, lowest layer first.  A module may import
#: only packages of rank <= its own, at module scope or inside a function;
#: equal ranks are one layer (chain and consensus) and may interdepend.
LAYERS = {
    "crypto": 0, "analysis": 0,
    "sim": 1,
    "net": 2, "storage": 2,
    "vm": 3,
    "chain": 4, "consensus": 4,
    "runtime": 5,
    "hierarchy": 6,
    "workloads": 7, "baselines": 7,
    "telemetry": 8,
    "scenario": 9,
}

#: Findings the tree keeps: ``(path, rule, the finding's source line,
#: stripped)`` -> why.  An entry that matches no finding fails.
ALLOWED = {
    ("net/transport.py", "SIM001", "push = self.sim.queue.push"):
        "Transport.fanout's short path onto the heap: EventQueue.push assigns tie and seq "
        "as sim.schedule_at does, and every arrival is >= now by construction",
}


def _package(path: str):
    """The package of a ``src/repro``-relative *path*; None for a top-level module."""
    head, sep, _rest = path.partition("/")
    return head if sep else None


def _bindings(tree: ast.Module) -> dict:
    """Local name -> the dotted names the module's imports bind it to."""
    bound: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [
                (alias.asname, alias.name) if alias.asname else (alias.name.split(".")[0],) * 2
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            pairs = [(alias.asname or alias.name, f"{node.module}.{alias.name}") for alias in node.names]
        else:
            continue
        for local, dotted in pairs:
            bound.setdefault(local, set()).add(dotted)
    return bound


def _dotted(node: ast.AST, bound: dict) -> set:
    """Every dotted name a name or attribute chain can stand for, through *bound*."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, {node.id})
    if isinstance(node, ast.Attribute):
        return {f"{base}.{node.attr}" for base in _dotted(node.value, bound)}
    return set()


_CLOCK = "wall-clock read; use sim.now"
_ENTROPY = "OS entropy; use sim.rng(*scope)"
_WALL_CLOCK_OR_ENTROPY = {
    "time.time": _CLOCK,
    "time.time_ns": _CLOCK,
    "datetime.datetime.now": _CLOCK,
    "datetime.datetime.utcnow": _CLOCK,
    "datetime.datetime.today": _CLOCK,
    "datetime.date.today": _CLOCK,
    "os.urandom": _ENTROPY,
    "uuid.uuid1": "host-dependent id; derive a CID",
    "uuid.uuid4": _ENTROPY,
    "random.SystemRandom": _ENTROPY,
}
#: The draws of ``random``'s process-global, effectively unseeded stream.
_DRAWS = {
    "seed", "random", "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "uniform", "gauss", "normalvariate", "expovariate", "betavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate", "getrandbits",
    "randbytes",
}


def det001(path: str, tree: ast.Module) -> list:
    """DET001: no wall clock or OS entropy outside ``crypto/`` and
    ``sim/rng.py``.  Time is ``sim.now``; randomness is ``sim.rng(*scope)``
    or ``random.Random(seed)``.  A call is resolved through the module's
    imports (``from time import time``, ``import time as clock``), and an
    unseeded ``Random()`` seeds itself from OS entropy.  ``perf_counter``
    passes: wall-time profiling never feeds the trace."""
    if path.startswith(("crypto/", "sim/rng.py")):
        return []
    bound, hits = _bindings(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for name in sorted(_dotted(node.func, bound)):
                module, _, attr = name.rpartition(".")
                if name in _WALL_CLOCK_OR_ENTROPY:
                    reason = _WALL_CLOCK_OR_ENTROPY[name]
                elif module == "random" and attr in _DRAWS:
                    reason = "the process-global stream; use sim.rng(*scope) or random.Random(seed)"
                elif name == "random.Random" and not (node.args or node.keywords):
                    reason = "unseeded, so seeded from OS entropy; pass a seed"
                else:
                    continue
                hits.append((node.lineno, f"{name}(): {reason}"))
                break
        elif (
            isinstance(node, ast.Import) and any(alias.name == "secrets" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "secrets"
        ):
            hits.append((node.lineno, f"import of secrets: {_ENTROPY}"))
    return hits


_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_ORDER_FREE = {"sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset"}


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys" and not node.args and not node.keywords
    )


class _SetOrder(ast.NodeVisitor):
    """DET002 over one scope; a function body is a scope of its own."""

    def __init__(self, hits: list) -> None:
        self.hits = hits
        self.sets: set = set()  # local names bound to a set here
        self.order_free: set = set()  # ids of comprehensions fed to sorted(), sum(), ...

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
            # a.keys() - b.keys() is a set, and so is algebra on one
            return any(_is_keys_call(side) or self.is_set(side) for side in (node.left, node.right))
        return isinstance(node, ast.Name) and node.id in self.sets

    def walk(self, body: list) -> None:
        for child in body:
            self.visit(child)

    def visit_FunctionDef(self, node) -> None:
        _SetOrder(self.hits).walk(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.walk(node.body)

    def _bind(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self.is_set(value):
                self.sets.add(target.id)
            else:
                self.sets.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, node.value)

    def visit_For(self, node: ast.For) -> None:
        self.generic_visit(node)
        if self.is_set(node.iter):
            self.hits.append((node.lineno, "iteration over a set has no deterministic order"))
        elif _is_keys_call(node.iter):
            self.hits.append((node.lineno, "iteration over dict.keys(); make the order explicit"))

    def _comprehension(self, node) -> None:
        self.generic_visit(node)
        if id(node) not in self.order_free and any(self.is_set(gen.iter) for gen in node.generators):
            self.hits.append((node.lineno, "comprehension over a set has no deterministic order"))

    visit_ListComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func.id if isinstance(node.func, ast.Name) else None
        if callee in _ORDER_FREE:
            self.order_free.update(
                id(arg) for arg in node.args if isinstance(arg, (ast.GeneratorExp, ast.SetComp))
            )
        self.generic_visit(node)
        if callee in ("list", "tuple") and len(node.args) == 1 and self.is_set(node.args[0]):
            self.hits.append((node.lineno, f"{callee}(<set>) freezes an arbitrary order"))


def det002(path: str, tree: ast.Module) -> list:
    """DET002: in ``consensus/``, ``chain/``, ``hierarchy/`` and ``storage/``
    (block assembly, validation, cross-net routing, the state root) no loop,
    comprehension, ``list()`` or ``tuple()`` over a set, nor a loop over
    ``d.keys()``: iterate ``sorted(...)``.  ``sorted``, ``sum``, ``len``,
    ``min``, ``max``, ``any``, ``all`` and set algebra are order-free."""
    if _package(path) not in ("consensus", "chain", "hierarchy", "storage"):
        return []
    hits: list = []
    _SetOrder(hits).walk(tree.body)
    return hits


_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float(node.operand)  # -0.5
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def det003(path: str, tree: ast.Module) -> list:
    """DET003: §II's firewall is an exact conservation law, so the value
    accounting files compute in integer token units: no float literal in
    arithmetic, no ``float()``, and ``//`` instead of ``/``."""
    if path not in (
        "hierarchy/atomic.py", "hierarchy/firewall.py", "hierarchy/crossmsg.py",
        "hierarchy/crossmsg_pool.py", "hierarchy/gateway.py",
    ):
        return []
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, _ARITHMETIC):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
            if isinstance(node.op, ast.Div):
                hits.append((node.lineno, "true division yields a float; use //"))
            elif any(_is_float(operand) for operand in operands):
                hits.append((node.lineno, "float literal in value arithmetic"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            hits.append((node.lineno, "float() conversion in value accounting"))
    return hits


def lay001(path: str, tree: ast.Module) -> list:
    """LAY001: every ``repro`` package an import statement names is at the
    importer's rank in :data:`LAYERS` or below.  A lower layer that a
    higher one watches reports on the observation stream
    (``repro.sim.observe``) instead of importing it."""
    here = _package(path)
    if here not in LAYERS:
        return []
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("repro.")]
        elif isinstance(node, ast.ImportFrom) and node.module == "repro":
            packages = [alias.name for alias in node.names]  # from repro import sim, telemetry
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            packages = [node.module.split(".")[1]]
        else:
            continue
        hits += [
            (node.lineno, f"{here} (layer {LAYERS[here]}) imports {package} (layer {LAYERS[package]})")
            for package in packages if LAYERS.get(package, -1) > LAYERS[here]
        ]
    return hits


def _ends_in(node: ast.AST, names) -> bool:
    """Whether *node* is a name or attribute chain whose last part is one of *names*."""
    return isinstance(node, ast.Name) and node.id in names or (
        isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, (ast.Name, ast.Attribute))
    )


_SIMULATOR = ("sim", "simulator", "scheduler")
_INTERNALS = {"_heap", "_seq", "_live", "_events_executed", "_tie_shuffle"}


def sim001(path: str, tree: ast.Module) -> list:
    """SIM001: outside ``sim/``, the clock and the queue change only through
    ``schedule``, ``schedule_at``, ``cancel`` and ``every``: no write to
    ``sim.now`` or ``sim.queue``, no simulator or queue internal, no
    ``queue.push`` or ``queue.pop``, called or hoisted into a local."""
    if _package(path) in (None, "sim"):
        return []
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Attribute) and target.attr in ("now", "queue") and _ends_in(
                    target.value, _SIMULATOR
                ):
                    hits.append((node.lineno, f"assignment to sim.{target.attr}: only the run loop moves it"))
        elif isinstance(node, ast.Attribute):
            if node.attr in _INTERNALS and _ends_in(node.value, _SIMULATOR + ("queue",)):
                hits.append((node.lineno, f"scheduler internal .{node.attr}"))
            elif node.attr in ("push", "pop") and getattr(node.value, "attr", None) == "queue":
                hits.append((node.lineno, f"queue.{node.attr} bypasses the dispatch bus"))
    return hits


#: MET001 reads the first argument of a call to these: the MetricsRegistry
#: accessors, and ``ConsensusEngine._metric``, which forwards its own.
METRIC_CALLS = ("counter", "gauge", "histogram", "_metric")


def _is_catalog(node: ast.AST) -> bool:
    """``METRIC_CATALOG = {...}``, annotated or not."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(node.value, ast.Dict):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(getattr(target, "id", None) == "METRIC_CATALOG" for target in targets)


def _is_computed(node: ast.AST) -> bool:
    """An f-string, a ``+`` or ``%`` expression, or a ``.format()`` call."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Mod))
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) == "format"
    return isinstance(node, ast.JoinedStr)


def met001(modules: dict) -> list:
    """MET001 over the whole tree, ``{path: tree}``: ``(path, line, message)``.

    A metric family is spelled the way ``METRIC_CATALOG`` spells it, so an
    emit site and the catalog agree by string equality.  A computed name
    at a call of :data:`METRIC_CALLS` is a finding; a literal name (either
    arm of a conditional) must be a catalog key; and every key must be
    spelled somewhere outside the catalog, or it is a stale entry.  A plain
    variable as the name passes: that is a forwarding helper's own call."""
    declared, literal, spelled, hits = {}, [], set(), []
    for path, tree in modules.items():
        todo = [tree]
        while todo:
            node = todo.pop()
            if _is_catalog(node):
                declared.update(
                    (key.value, (path, key.lineno)) for key in node.value.keys
                    if isinstance(key, ast.Constant)
                )
                todo.extend(node.value.values)  # a key is a declaration, not a spelling
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                spelled.add(node.value)
            elif isinstance(node, ast.Call) and node.args and (
                getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            ) in METRIC_CALLS:
                first = node.args[0]
                for name in (first.body, first.orelse) if isinstance(first, ast.IfExp) else (first,):
                    if _is_computed(name):
                        hits.append((path, name.lineno, "metric name is computed, not a catalog key"))
                    elif isinstance(name, ast.Constant) and isinstance(name.value, str):
                        literal.append((path, name.lineno, name.value))
            todo.extend(ast.iter_child_nodes(node))
    hits += [
        (path, line, f"'{name}' is not a METRIC_CATALOG key")
        for path, line, name in literal if name not in declared
    ]
    hits += [
        (path, line, f"family '{family}' is declared but spelled nowhere else")
        for family, (path, line) in declared.items() if family not in spelled
    ]
    return hits


PER_MODULE = {"DET001": det001, "DET002": det002, "DET003": det003, "LAY001": lay001, "SIM001": sim001}


def findings(modules: dict) -> list:
    """Every finding of the six rules over *modules*, ``{path: tree}``, as
    sorted ``(path, line, rule, message)``."""
    found = [
        (path, line, rule, message)
        for path, tree in modules.items()
        for rule, check in PER_MODULE.items()
        for line, message in check(path, tree)
    ]
    found += [(path, line, "MET001", message) for path, line, message in met001(modules)]
    return sorted(found)
