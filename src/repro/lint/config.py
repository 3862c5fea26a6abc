"""Shared configuration for the lint rules: layer map and rule scopes.

Paths are always handled *repro-relative*: ``src/repro/consensus/poa.py``
becomes ``consensus/poa.py``.  Rules scope themselves by these relative
paths, so the CLI works no matter which directory it is invoked from.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: The import-layering contract, lowest layer first.  A module in package P
#: may import — at module scope or inside a function — only packages with
#: rank <= its own; equal ranks are one architectural layer (e.g.
#: chain/consensus) and may interdepend.
LAYERS: dict[str, int] = {
    # pure leaf libraries — no simulation, no protocol state
    "crypto": 0,
    "analysis": 0,
    "lint": 0,
    # the deterministic discrete-event substrate
    "sim": 1,
    # transport over the simulator; content-addressed storage primitives
    "net": 2,
    "storage": 2,
    # execution environment over storage
    "vm": 3,
    # one subnet's chain + consensus engines (one layer, interdependent)
    "chain": 4,
    "consensus": 4,
    # the generic validator node/network stack
    "runtime": 5,
    # hierarchical consensus proper (§II–§IV)
    "hierarchy": 6,
    # workload drivers and comparison baselines over full systems
    "workloads": 7,
    "baselines": 7,
    # observability over everything (digest-neutral by contract)
    "telemetry": 8,
    # adversarial campaigns drive full instrumented systems
    "scenario": 9,
}


def repro_relpath(path: str) -> Optional[str]:
    """Reduce *path* to its ``repro``-package-relative form.

    Returns ``None`` for files outside the ``repro`` package (the rules
    then decide whether they still apply — fixtures declare fake repro
    paths precisely so scoping stays testable).
    """
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rel = "/".join(parts[i + 1:])
            return rel or None
    return None


def package_of(path: str) -> Optional[str]:
    """The top-level repro package a file belongs to (``None`` if unknown)."""
    rel = repro_relpath(path)
    if rel is None:
        return None
    first = rel.split("/", 1)[0]
    if first.endswith(".py"):
        return None  # a top-level module like repro/__init__.py
    return first


def in_packages(path: str, packages: Sequence[str]) -> bool:
    pkg = package_of(path)
    return pkg is not None and pkg in packages


# -- rule scopes -------------------------------------------------------

#: DET001 applies everywhere except the entropy sanctuaries: crypto/ (key
#: material is derived deterministically from labels there anyway, but the
#: package owns what randomness-like derivation exists) and sim/rng.py
#: (the one place seeded generators are minted).
DET001_EXEMPT_PREFIXES = ("crypto/", "sim/rng.py")

#: DET002 watches the packages whose iteration order feeds consensus-
#: critical decisions: block assembly, validation, cross-net routing, and
#: the state-root commitment (the bucketed root in storage/statetree.py
#: must hash bucket contents in a schedule-independent order).
DET002_PACKAGES = ("consensus", "chain", "hierarchy", "storage")

#: DET003 watches the value/supply accounting hot spots (§II firewall).
DET003_FILES = (
    "hierarchy/atomic.py",
    "hierarchy/firewall.py",
    "hierarchy/crossmsg.py",
    "hierarchy/crossmsg_pool.py",
    "hierarchy/gateway.py",
)

#: SIM001 applies everywhere outside the simulator package itself.
SIM001_EXEMPT_PACKAGES = ("sim",)

#: MET001 looks at the first argument of a call to any of these names: the
#: ``MetricsRegistry`` accessors, plus the helpers that forward their own
#: first argument to one (``ConsensusEngine._metric(family)``).
METRIC_CALLS = ("counter", "gauge", "histogram", "_metric")
