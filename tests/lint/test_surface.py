"""Every public name in ``src/repro`` has a caller outside the test suite.

A public module-level function or class, and a public method of a
module-level class, must be referenced somewhere in ``src/`` other than its
own definition and its package's re-exports, or in ``benchmarks/`` or
``examples/`` (a ``tests`` folder there is test suite too).  A reference
is a name, an attribute, an imported name, or a string shaped like an
identifier: actor methods and plane handlers are named by strings.  A class
registered by a decorator (an engine) counts as used.

Names that only tests call are either deleted together with those tests or
listed in :data:`KEPT` with the reason they stay, and a test must call each
of them (:func:`untested`): a name kept for tests that none calls has no
reason left.

The same rule holds for settings: every defaulted parameter (or dataclass
field) of an entry point in :data:`ENTRY_POINTS` is passed, by keyword or by
position, at some call of that name in ``src/``, ``benchmarks/`` or
``examples/``.  A setting that only tests pass is a module constant, or is
listed in :data:`SET_ONLY_BY_TESTS` with the reason a test needs another
value.

And for metrics: every family in ``METRIC_CATALOG`` names the file that
reads it, and that file spells the family (:func:`unread`).  A test may be
the reader only where it is listed in :data:`TEST_READERS`.
"""

import ast
import os
import re
import textwrap

import pytest

from tests.lint.index import parse

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: Public names kept although only tests call them: qualified name -> why.
KEPT = {
    "repro.consensus.tendermint.TendermintEngine.equivocation_evidence":
        "the double votes the vote-level auditor of ROADMAP item 4(a) will read",
    "repro.hierarchy.atomic.AtomicExecutionActor.transfer_asset":
        "the spend a §IV-D lock must refuse; the atomic VM tests check that it does",
    "repro.hierarchy.light_client.CheckpointLightClient.child_checkpoint_cids":
        "§II's children tree as a light client sees it at the top of the hierarchy",
}

#: Where users configure a run: classes (their ``__init__``, or their fields
#: for a dataclass), functions and methods, by qualified name.
ENTRY_POINTS = (
    "repro.hierarchy.network.HierarchicalSystem",
    "repro.hierarchy.network.HierarchicalSystem.wait_for",
    "repro.hierarchy.network.SubnetConfig",
    "repro.scenario.spec.TopologySpec",
    "repro.scenario.spec.Scenario",
    "repro.scenario.runner.ScenarioRunner",
    "repro.scenario.campaign.CampaignRunner",
    "repro.baselines.single_chain.SingleChainBaseline",
    "repro.baselines.sharded.ShardedBaseline",
    "repro.runtime.stack.NetworkStack",
    "repro.telemetry.monitor.InvariantMonitor",
    "repro.telemetry.recorder.FlightRecorder",
    "repro.telemetry.rounds.RoundTracer",
    "repro.telemetry.health.HealthProbe",
    "repro.telemetry.enable_telemetry",
    "repro.sim.scheduler.Simulator.every",
)

#: Settings of an entry point that only tests pass: ``qualified(name)`` -> why.
SET_ONLY_BY_TESTS = {
    "repro.hierarchy.network.HierarchicalSystem(loss_rate)":
        "the fault-injection test runs a whole hierarchy over lossy links",
    "repro.hierarchy.network.HierarchicalSystem(root_engine)":
        "§III-A lets any level pick its engine; the PoW-rootnet test puts PoW at the root",
    "repro.hierarchy.network.SubnetConfig(stake_per_validator)":
        "the stake-weighting and lifecycle tests give validators unequal or partial stake",
    "repro.hierarchy.network.SubnetConfig(activation_collateral)":
        "§III-A's activation threshold; the lifecycle test sets it above one validator's stake",
    "repro.hierarchy.network.SubnetConfig(gas_price)":
        "§II's miner fees; the fee test turns them on and off",
    "repro.runtime.stack.NetworkStack(latency)":
        "the PoW tests raise latency toward the block time to provoke fork races",
    "repro.telemetry.monitor.InvariantMonitor(sim)":
        "the auditor unit tests build a monitor on a bare simulator, with no system",
    "repro.telemetry.monitor.InvariantMonitor(auditors)":
        "the auditor unit tests arm one auditor at a time",
    "repro.telemetry.monitor.InvariantMonitor(check_interval)":
        "the supply sweep tests run the periodic check on every commit",
}

#: Families whose one reader is a test: it checks a protocol property
#: through the family and has no other observable for it.  family -> why.
TEST_READERS = {
    "net.delivered":
        "the gossip conservation law: after a drain, sent = delivered + elided",
    "gossip.duplicates_elided":
        "the gossip conservation law: after a drain, sent = delivered + elided",
    "chain.*.sync_blocks":
        "a validator back from a long outage range-syncs fewer blocks than the prune depth",
    "accel.settled":
        "a tentative credit settles once the real cross-message applies",
    "accel.bad_certificates":
        "a forged acceleration certificate is refused",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _files(index: dict, folder: str) -> dict:
    """The modules of *index* under *folder* that no ``tests`` folder below it holds."""
    return {
        path: module for path, module in index.items()
        if path.startswith(f"{folder}/") and "tests" not in path.split("/")[1:-1]
    }


def _module_name(path: str) -> str:
    """``repro.net.gossip`` for ``src/repro/net/gossip.py``, ``repro.net`` for its ``__init__``."""
    name = path[len("src/"): -len(".py")].replace("/", ".")
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, is_method)`` of every public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            registered = any(
                "dataclass" not in ast.unparse(decorator) for decorator in node.decorator_list
            )
            if not registered:
                yield f"{module}.{node.name}", node.name, False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(
                    item.name
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


class _References(ast.NodeVisitor):
    """Every reference in one module, with the definitions it sits inside.

    ``names`` and ``attributes`` map a referenced identifier to the set of
    enclosing qualified names of each place it occurs.  *reexports* drops
    the imports of a package ``__init__``; ``__all__`` lists never count.
    """

    def __init__(self, module: str, reexports: bool) -> None:
        self.names: dict = {}
        self.attributes: dict = {}
        self._scope = [module]
        self._reexports = reexports

    def _note(self, table: dict, name: str) -> None:
        table.setdefault(name, []).append(frozenset(self._scope[1:]))

    def _define(self, node) -> None:
        self._scope.append(f"{self._scope[-1]}.{node.name}")
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._note(self.names, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._note(self.attributes, node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self._reexports:
            for alias in node.names:
                self._note(self.names, alias.name)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
            self._note(self.names, node.value)
            self._note(self.attributes, node.value)


def _references(tree: ast.Module, module: str, reexports: bool = False) -> _References:
    references = _References(module, reexports)
    references.visit(tree)
    return references


def unreferenced(index: dict) -> list:
    """Qualified names of the public definitions under ``src/repro`` that
    nothing outside the tests refers to."""
    definitions = []  # (qualified, name, is_method)
    scans = []
    for path, source in _files(index, "src/repro").items():
        module = _module_name(path)
        definitions += _definitions(module, source.tree)
        scans.append(_references(source.tree, module, path.endswith("__init__.py")))
    for folder in ("benchmarks", "examples"):
        scans += [_references(source.tree, folder) for source in _files(index, folder).values()]

    def used(qualified: str, name: str, is_method: bool) -> bool:
        # A reference from inside the definition itself does not count.
        for references in scans:
            tables = (references.attributes,) if is_method else (
                references.attributes, references.names,
            )
            for table in tables:
                if any(qualified not in scope for scope in table.get(name, ())):
                    return True
        return False

    return sorted(q for q, name, is_method in definitions if not used(q, name, is_method))


def _resolve(index: dict, qualified: str):
    """The AST node *qualified* names under ``src/``: a module-level
    function or class, or a method of a module-level class."""
    parts = qualified.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        base = "src/" + "/".join(parts[:cut])
        source = index.get(f"{base}.py") or index.get(f"{base}/__init__.py")
        if source is not None:
            node = source.tree
            for name in parts[cut:]:
                node = next(
                    item for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and item.name == name
                )
            return node
    raise LookupError(qualified)


def _parameters(node) -> tuple:
    """``(positional names, defaulted names)`` of a function, a class's
    ``__init__`` (without ``self``) or a dataclass's fields."""
    if isinstance(node, ast.ClassDef):
        if any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
            fields = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            return (
                [field.target.id for field in fields],
                [field.target.id for field in fields if field.value is not None],
            )
        node = next(
            item for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        )
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if positional[:1] == ["self"]:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return positional, defaulted


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passed(index: dict) -> dict:
    """Call name -> every parameter name passed by keyword, and every
    position passed, at calls of that name outside the tests.  Calls of an
    import's ``as`` name count for the name it stands for, and calls of a
    function that hands its ``**`` keywords to another call count for that
    call's name too."""
    calls = []  # (name, call)
    forwards: dict = {}  # function name -> the call names its **keywords reach
    for folder in ("src", "benchmarks", "examples"):
        for tree in (source.tree for source in _files(index, folder).values()):
            aliases = {
                alias.asname: alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.asname
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    calls.append((aliases.get(name, name), node))
                elif isinstance(node, ast.FunctionDef) and node.args.kwarg is not None:
                    forwarded = node.args.kwarg.arg
                    forwards.setdefault(node.name, set()).update(
                        aliases.get(_call_name(call), _call_name(call))
                        for call in ast.walk(node) if isinstance(call, ast.Call)
                        for keyword in call.keywords
                        if keyword.arg is None and any(
                            isinstance(part, ast.Name) and part.id == forwarded
                            for part in ast.walk(keyword.value)
                        )
                    )
    passed: dict = {}
    for name, call in calls:
        reached, pending = set(), [name]
        while pending:
            current = pending.pop()
            if current not in reached:
                reached.add(current)
                pending.extend(forwards.get(current, ()))
        for target in reached:
            keywords, positions = passed.setdefault(target, (set(), set()))
            keywords.update(keyword.arg for keyword in call.keywords if keyword.arg)
            if target == name:
                for position, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positions.add(position)
    return passed


def unset_settings(index: dict, entry_points=ENTRY_POINTS) -> list:
    """``qualified(name)`` of every defaulted setting of *entry_points* that
    no call outside the tests passes."""
    passed = _passed(index)
    unset = []
    for qualified in entry_points:
        positional, defaulted = _parameters(_resolve(index, qualified))
        keywords, positions = passed.get(qualified.rsplit(".", 1)[-1], (set(), set()))
        for name in defaulted:
            position = positional.index(name) if name in positional else None
            if name not in keywords and position not in positions:
                unset.append(f"{qualified}({name})")
    return unset


def test_every_setting_has_a_caller(index):
    missing = [name for name in unset_settings(index) if name not in SET_ONLY_BY_TESTS]
    assert missing == [], (
        "make these module constants, or justify them in SET_ONLY_BY_TESTS:\n"
        + "\n".join(missing)
    )


def test_every_setting_kept_for_tests_is_still_unset_and_says_why(index):
    unset = set(unset_settings(index))
    for name, reason in SET_ONLY_BY_TESTS.items():
        assert name in unset, f"{name} has a caller now (or is gone): drop it from SET_ONLY_BY_TESTS"
        assert reason.strip(), f"{name} is kept without a reason"


def test_a_planted_setting_fails(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            class Engine:
                def __init__(self, seed, rate=1.0, planted=2, *, label=""):
                    self.seed = seed

                def tick(self, every=1.0, planted=0):
                    return every

            @dataclass
            class Spec:
                name: str
                size: int = 3
                planted: int = 4

            def spec(**overrides):
                return Spec(**{"name": "s", **overrides})
            """
        )
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        textwrap.dedent(
            """
            from repro.mod import Engine as Motor, spec

            Motor(1, 2.0, label="x").tick(0.5)
            spec(size=5)
            """
        )
    )
    entry_points = ("repro.mod.Engine", "repro.mod.Engine.tick", "repro.mod.Spec")
    assert unset_settings(parse(tmp_path), entry_points) == [
        "repro.mod.Engine(planted)", "repro.mod.Engine.tick(planted)", "repro.mod.Spec(planted)",
    ]


def test_every_public_name_has_a_caller(index):
    missing = [name for name in unreferenced(index) if name not in KEPT]
    assert missing == [], "delete these, or justify them in KEPT:\n" + "\n".join(missing)


def test_every_kept_name_still_exists_and_says_why(index):
    missing = set(unreferenced(index))
    for name, reason in KEPT.items():
        assert name in missing, f"{name} has a caller now (or is gone): drop it from KEPT"
        assert reason.strip(), f"{name} is kept without a reason"


def untested(index: dict, kept=KEPT) -> list:
    """Qualified names of *kept* whose name no file under ``tests/`` refers
    to, this one aside (it spells every entry)."""
    referenced = set()
    for path, source in _files(index, "tests").items():
        if path != "tests/lint/test_surface.py":
            references = _references(source.tree, "tests")
            referenced.update(references.names, references.attributes)
    return sorted(q for q in kept if q.rsplit(".", 1)[-1] not in referenced)


def test_every_kept_name_is_called_by_a_test(index):
    assert untested(index) == [], "no test calls these: drop them from KEPT and delete them"


def test_a_planted_stale_kept_name_fails(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Actor\n\ndef test_it():\n    Actor().inspect()\n"
    )
    kept = {"repro.mod.Actor.inspect": "read by a test", "repro.mod.Actor.stale": "read by none"}
    assert untested(parse(tmp_path), kept) == ["repro.mod.Actor.stale"]


def test_a_planted_unused_function_fails(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.mod import Actor, planted, used\n")
    (package / "mod.py").write_text(
        textwrap.dedent(
            """
            def used():
                return 1

            def planted():
                return planted()  # calls itself only

            class Actor:
                def exported(self):
                    return used()

                def called(self):
                    return "exported"  # actor methods are named by strings
            """
        )
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from repro import Actor\nActor().called()\n")
    assert unreferenced(parse(tmp_path)) == ["repro.mod.planted"]


def spellings(family: str) -> tuple:
    """What the reader of *family* must spell: the dotted segments before
    the one holding its first ``*`` (the whole name when it has none), and
    the text after its last ``*`` when there is any."""
    if "*" not in family:
        return (family,)
    head = ".".join(family[: family.index("*")].split(".")[:-1])
    tail = family[family.rindex("*") + 1:]
    return (head, tail) if tail else (head,)


@pytest.mark.parametrize("family, spelled", [
    ("net.delivered", ("net.delivered",)),  # no "*": the whole name
    ("chain.*.reorgs", ("chain", ".reorgs")),  # head and tail
    ("consensus.round.*.per_height", ("consensus.round", ".per_height")),
    ("xnet.hop.submit.L*", ("xnet.hop.submit",)),  # the "*" in a segment; no tail
    ("a.*.b.*.c", ("a", ".c")),  # first "*" for the head, last for the tail
    ("*.orphans", ("", ".orphans")),  # no head: unread() refuses it
])
def test_spellings(family, spelled):
    assert spellings(family) == spelled


def unread(repo_root: str, catalog: dict) -> list:
    """One line per family of *catalog* whose reader does not read it: the
    reader is missing, is a test not in :data:`TEST_READERS`, or does not
    spell the family (:func:`spellings`)."""
    problems = []
    for family, (reader, _description) in sorted(catalog.items()):
        path = os.path.join(repo_root, reader)
        if not os.path.isfile(path):
            problems.append(f"{family}: its reader {reader} does not exist")
            continue
        if reader.startswith("tests/") and family not in TEST_READERS:
            problems.append(f"{family}: {reader} is a test, and not in TEST_READERS")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        needed = spellings(family)
        if not needed[0]:
            problems.append(f"{family}: no dotted segment before its first '*'")
            continue
        for spelling in needed:
            if spelling not in text:
                problems.append(f"{family}: {reader} never spells {spelling!r}")
    return problems


def test_every_metric_family_names_a_reader_that_spells_it():
    from repro.telemetry.export import METRIC_CATALOG

    problems = unread(REPO_ROOT, METRIC_CATALOG)
    assert problems == [], (
        "a family nothing reads goes, with its emit site:\n" + "\n".join(problems)
    )


def test_every_test_reader_is_still_one_and_says_why():
    from repro.telemetry.export import METRIC_CATALOG

    for family, reason in TEST_READERS.items():
        assert METRIC_CATALOG[family][0].startswith("tests/"), (
            f"{family} has a reader outside the tests now: drop it from TEST_READERS"
        )
        assert reason.strip(), f"{family} is read by a test without a reason"


def test_a_planted_unread_family_fails(tmp_path):
    (tmp_path / "bench.py").write_text(
        textwrap.dedent(
            """
            sent = counters["app.sent"]
            reorgs = counters[f"chain.{path}.reorgs"]
            lag = histograms.get("app.lag.L1")
            """
        )
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_app.py").write_text('assert counters["app.queued"] == 0\n')
    catalog = {
        "app.sent": ("bench.py", "read"),
        "chain.*.reorgs": ("bench.py", "read: head and tail spelled"),
        "app.lag.L*": ("bench.py", "read: no tail to spell"),
        "chain.*.forks": ("bench.py", "planted: the tail is never spelled"),
        "app.sent_bytes": ("bench.py", "planted: a prefix of it is spelled, not it"),
        "app.queued": ("tests/test_app.py", "planted: a test that is no listed reader"),
        "app.lost": ("gone.py", "planted: the reader does not exist"),
        "*.orphans": ("bench.py", "planted: no segment before the '*'"),
    }
    assert unread(str(tmp_path), catalog) == [
        "*.orphans: no dotted segment before its first '*'",
        "app.lost: its reader gone.py does not exist",
        "app.queued: tests/test_app.py is a test, and not in TEST_READERS",
        "app.sent_bytes: bench.py never spells 'app.sent_bytes'",
        "chain.*.forks: bench.py never spells '.forks'",
    ]
