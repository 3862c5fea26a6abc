"""No unused top-level import under src/, tests/ or benchmarks/: the F401
half of ``ruff check``, honouring pyproject.toml's per-file ignores.

A name counts as used when the module reads it anywhere, in a quoted
annotation, or in ``__all__``; ``import x as x`` and ``# noqa`` lines are
explicit re-exports.  Ruff's other selected rules are not checked here."""

import ast
import fnmatch

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

from tests.lint.index import ROOT


def _names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    names |= _names(ast.parse(sub.value, mode="eval"))
                except SyntaxError:  # a Literal["..."] value, not a forward reference
                    pass
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            names |= {element.value for element in node.value.elts}
    return names


def unused_imports(index):
    with open(ROOT / "pyproject.toml", "rb") as handle:
        ignores = tomllib.load(handle)["tool"]["ruff"]["lint"]["per-file-ignores"]
    skip = [pattern for pattern, rules in ignores.items() if "F401" in rules]
    for relative, (text, tree) in index.items():
        if relative.startswith("examples/") or any(fnmatch.fnmatch(relative, p) for p in skip):
            continue
        lines = text.splitlines()
        used = _names(tree)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or "noqa" in lines[stmt.lineno - 1]:
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if getattr(stmt, "module", None) != "__future__" and alias.asname != alias.name and name not in used:
                    yield f"{relative}:{stmt.lineno}: {name}"


def test_no_unused_top_level_import(index):
    assert list(unused_imports(index)) == []
