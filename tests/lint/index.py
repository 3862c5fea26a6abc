"""One parse of the repository's Python for every static check in this folder.

:func:`parse` reads and parses each ``.py`` file under ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` once; the package-scoped ``index``
fixture (``conftest.py``) holds the result while this folder's tests run.
A file that does not parse raises, so every check that reads the index
fails on it.
"""

import ast
import pathlib
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
FOLDERS = ("src", "tests", "benchmarks", "examples")


class Module(NamedTuple):
    text: str
    tree: ast.Module


def parse(root=ROOT) -> dict:
    """Repo-relative path (forward slashes) -> :class:`Module`, in path order."""
    root = pathlib.Path(root)
    modules = {}
    for path in sorted(path for top in FOLDERS for path in (root / top).rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        modules[relative] = Module(text, ast.parse(text, filename=relative))
    return modules


def under(index: dict, prefix: str) -> dict:
    """The modules of *index* whose path starts with *prefix*, keyed by the rest of it."""
    return {
        path[len(prefix):]: module for path, module in index.items() if path.startswith(prefix)
    }
