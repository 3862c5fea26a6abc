"""Every public name in ``src/repro`` has a caller outside the test suite.

A public module-level function or class, and a public method of a
module-level class, must be referenced somewhere in ``src/`` other than its
own definition and its package's re-exports, or in ``benchmarks/`` or
``examples/`` (a ``tests`` folder there is test suite too).  A reference
is a name, an attribute, an imported name, or a string shaped like an
identifier: actor methods and plane handlers are named by strings.  A class
registered by a decorator (an engine) counts as used.

Names that only tests call are either deleted together with those tests or
listed in :data:`KEPT` with the reason they stay.
"""

import ast
import os
import re
import textwrap

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: Public names kept although only tests call them: qualified name -> why.
KEPT = {
    "repro.baselines.sharded.ShardedBaseline.shard_for":
        "the baseline's account-to-shard rule (§I's load-balanced state), pinned by its test",
    "repro.chain.chainstore.ChainStore.canonical_chain":
        "the consensus tests compare whole chains across validators through it",
    "repro.consensus.tendermint.TendermintEngine.equivocation_evidence":
        "the double votes the vote-level auditor of ROADMAP item 3(b) will read",
    "repro.crypto.multisig.aggregate":
        "§III-B's multi-signature as a value; the relabelled-tag forgery test builds one",
    "repro.crypto.multisig.verify_multisig":
        "§III-B's k-of-n rule over a multi-signature; the forgery regression checks it",
    "repro.hierarchy.atomic.AtomicExecutionActor.transfer_asset":
        "the spend a §IV-D lock must refuse; the atomic VM tests check that it does",
    "repro.hierarchy.light_client.CheckpointLightClient.child_checkpoint_cids":
        "§II's children tree as a light client sees it at the top of the hierarchy",
    "repro.lint.engine.LintEngine.check_source":
        "the lint rule tests feed their in-memory fixtures through it",
    "repro.net.gossip.GossipNetwork.remove_peer":
        "the gossip oracle's leave-and-return edge: a returning peer keeps its history",
    "repro.sim.events.EventQueue.iter_pending":
        "the live events of a queue, for inspection; the queue test reads them",
    "repro.sim.events.EventQueue.peek_time":
        "the next live event's time; the gossip shutdown test checks none is left",
    "repro.sim.scheduler.Simulator.halt":
        "part of the dispatch API SIM001 points event code to; the run-loop tests use it",
    "repro.sim.tracing.TraceLog.filter":
        "the one query over the trace ring by kind and subject; tests read records with it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _python_files(root: str):
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d not in ("tests", "__pycache__"))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _module_name(src: str, path: str) -> str:
    relative = os.path.relpath(path, src)[: -len(".py")].replace(os.sep, ".")
    return relative[: -len(".__init__")] if relative.endswith(".__init__") else relative


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


def _scan(path: str, module: str, reexports: bool = False) -> tuple:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    references = _References(module, reexports)
    references.visit(tree)
    return tree, references


def unreferenced(repo_root: str) -> list:
    """Qualified names of the public definitions under ``src/repro`` that
    nothing outside the tests refers to."""
    src = os.path.join(repo_root, "src")
    definitions = []  # (qualified, name, is_method)
    scans = []
    for path in _python_files(os.path.join(src, "repro")):
        module = _module_name(src, path)
        tree, references = _scan(path, module, path.endswith("__init__.py"))
        definitions += _definitions(module, tree)
        scans.append(references)
    for folder in ("benchmarks", "examples"):
        for path in _python_files(os.path.join(repo_root, folder)):
            scans.append(_scan(path, folder)[1])

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


def test_every_public_name_has_a_caller():
    missing = [name for name in unreferenced(REPO_ROOT) if name not in KEPT]
    assert missing == [], "delete these, or justify them in KEPT:\n" + "\n".join(missing)


def test_every_kept_name_still_exists_and_says_why():
    missing = set(unreferenced(REPO_ROOT))
    for name, reason in KEPT.items():
        assert name in missing, f"{name} has a caller now (or is gone): drop it from KEPT"
        assert reason.strip(), f"{name} is kept without a reason"


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
    assert unreferenced(str(tmp_path)) == ["repro.mod.planted"]
