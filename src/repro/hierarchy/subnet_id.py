"""Subnet identifiers and hierarchy routing.

"Subnets are identified with a unique ID that is inferred deterministically
from the ID of its ancestor and from the ID of the SA that governs its
operation.  This deterministic naming enables the discovery of and
interaction with subnets from any other point in the hierarchy without the
need of a discovery service" (§III-A).

A :class:`SubnetID` is a path like ``/root/a/b``.  Routing a cross-net
message from source to destination decomposes into the *up* leg (source →
least common ancestor, travelled by checkpoints) and the *down* leg (LCA →
destination, travelled by top-down messages) — §IV-A's path messages.
"""

from __future__ import annotations

import re
from typing import Optional

_NAME = "[a-z0-9][a-z0-9_-]*"
_SEGMENT = re.compile(f"^{_NAME}$")
_PATH = re.compile(f"^(?:/{_NAME})+$")


def _check_segment(segment: str) -> None:
    if not _SEGMENT.match(segment):
        raise ValueError(f"invalid subnet path segment {segment!r}")


class SubnetID:
    """An immutable, path-structured subnet identifier."""

    __slots__ = ("segments", "path")

    def __init__(self, path) -> None:
        if isinstance(path, SubnetID):
            segments, path = path.segments, path.path  # validated when it was built
        elif isinstance(path, str):
            if not _PATH.match(path):
                raise ValueError(f"invalid subnet path {path!r} (want '/seg/seg', seg ~ {_NAME})")
            segments = tuple(path[1:].split("/"))
        else:
            segments = tuple(path)
            if not segments:
                raise ValueError("empty subnet path")
            for segment in segments:
                _check_segment(segment)
            path = "/" + "/".join(segments)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "path", path)

    @classmethod
    def _of(cls, segments: tuple) -> "SubnetID":
        """Over segments an existing SubnetID has already validated."""
        new = object.__new__(cls)
        object.__setattr__(new, "segments", segments)
        object.__setattr__(new, "path", "/" + "/".join(segments))
        return new

    def __setattr__(self, name, value):
        raise AttributeError("SubnetID is immutable")

    def __reduce__(self):  # copy/pickle rebuild through __init__, not setattr
        return (SubnetID, (self.path,))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The final segment (the SA-derived name within the parent)."""
        return self.segments[-1]

    @property
    def is_root(self) -> bool:
        return len(self.segments) == 1

    @property
    def depth(self) -> int:
        """Levels below the rootnet (root itself has depth 0)."""
        return len(self.segments) - 1

    def parent(self) -> "SubnetID":
        if self.is_root:
            raise ValueError("the rootnet has no parent")
        return SubnetID._of(self.segments[:-1])

    def child(self, name: str) -> "SubnetID":
        _check_segment(name)
        return SubnetID._of(self.segments + (name,))

    def ancestors(self) -> list:
        """All proper ancestors, nearest first (parent, …, root)."""
        result = []
        current = self
        while not current.is_root:
            current = current.parent()
            result.append(current)
        return result

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def is_ancestor_of(self, other: "SubnetID") -> bool:
        """Proper ancestor check (a subnet is not its own ancestor)."""
        return (
            len(self.segments) < len(other.segments)
            and other.segments[: len(self.segments)] == self.segments
        )

    def is_descendant_of(self, other: "SubnetID") -> bool:
        return other.is_ancestor_of(self)

    def common_ancestor(self, other: "SubnetID") -> "SubnetID":
        """The least common ancestor (may be self/other; root at worst)."""
        common = []
        for mine, theirs in zip(self.segments, other.segments):
            if mine != theirs:
                break
            common.append(mine)
        if not common:
            raise ValueError(
                f"{self} and {other} share no root — different hierarchies"
            )
        return SubnetID._of(tuple(common))

    def down_path(self, descendant: "SubnetID") -> list:
        """Subnets stepping from self toward *descendant*, nearest first.

        ``SubnetID('/root').down_path(SubnetID('/root/a/b'))`` is
        ``[/root/a, /root/a/b]``.
        """
        if not (self == descendant or self.is_ancestor_of(descendant)):
            raise ValueError(f"{descendant} is not under {self}")
        steps = []
        for i in range(len(self.segments) + 1, len(descendant.segments) + 1):
            steps.append(SubnetID._of(descendant.segments[:i]))
        return steps

    def next_hop_down(self, destination: "SubnetID") -> "SubnetID":
        """The direct child of self on the way down to *destination*."""
        steps = self.down_path(destination)
        if not steps:
            raise ValueError(f"{destination} is not below {self}")
        return steps[0]

    def route(self, destination: "SubnetID") -> tuple:
        """``(up, down)`` legs from self to *destination* (§IV-A).

        *up* lists the subnets climbed through (exclusive of self, inclusive
        of the LCA); *down* lists the subnets descended through (exclusive
        of the LCA, inclusive of the destination).  Pure top-down messages
        have an empty up leg; pure bottom-up messages an empty down leg.
        """
        lca = self.common_ancestor(destination)
        up = []
        current = self
        while current != lca:
            current = current.parent()
            up.append(current)
        down = lca.down_path(destination)
        return up, down

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def to_canonical(self):
        return self.path

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubnetID) and other.segments == self.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __lt__(self, other: "SubnetID") -> bool:
        return self.segments < other.segments

    def __repr__(self) -> str:
        return f"SubnetID({self.path})"

    def __str__(self) -> str:
        return self.path


ROOTNET = SubnetID("/root")
