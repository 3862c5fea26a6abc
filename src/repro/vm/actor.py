"""Actor base class and registry.

Actors are *stateless dispatchers*: all persistent state goes through the
invocation context into the VM's state tree, scoped under the actor's
address.  That keeps snapshot/revert sound — reverting the tree reverts the
actor completely.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.vm.exitcode import ActorError, ExitCode

_EXPORT_MARK = "_vm_exported"


def export(fn: Callable) -> Callable:
    """Mark an actor method as callable via messages."""
    setattr(fn, _EXPORT_MARK, True)
    return fn


class Actor:
    """Base class for all actors (smart contracts).

    Subclasses export methods with :func:`export`; each exported method
    receives the :class:`~repro.vm.runtime.InvocationContext` as its first
    argument and the message params as keyword arguments.

    ``CODE`` names the actor type in the registry and in traces.
    """

    CODE = "actor"

    @export
    def constructor(self, ctx, **params) -> None:
        """Default constructor: accepts no params, initialises nothing."""
        if params:
            raise ActorError(
                ExitCode.USR_ILLEGAL_ARGUMENT,
                f"{self.CODE} constructor takes no params, got {sorted(params)}",
            )

    @export
    def send(self, ctx, **params) -> None:
        """Bare value transfer — the value was already credited by the VM."""

    @classmethod
    def exported_methods(cls) -> dict:
        """Return {name: function} of all exported methods.

        Computed once per class: actor classes are defined at import time
        and never gain exports afterwards, and this runs on every message
        dispatch.  Cached per concrete class (``vars``, not inherited).
        """
        cached = vars(cls).get("_exported_cache")
        if cached is not None:
            return cached
        methods = {}
        for klass in reversed(cls.__mro__):
            for name, attr in vars(klass).items():
                if callable(attr) and getattr(attr, _EXPORT_MARK, False):
                    methods[name] = attr
        cls._exported_cache = methods
        return methods

    def dispatch(self, ctx, method: str, params: Any) -> Any:
        """Invoke *method* with *params* (a dict or None)."""
        fn = self.exported_methods().get(method)
        if fn is None:
            raise ActorError(
                ExitCode.SYS_INVALID_METHOD, f"{self.CODE} has no method {method!r}"
            )
        kwargs = params if isinstance(params, dict) else {}
        if params is not None and not isinstance(params, dict):
            kwargs = {"params": params}
        return fn(self, ctx, **kwargs)


class ActorRegistry:
    """Maps actor code names to classes, so state can reference code by name."""

    def __init__(self) -> None:
        self._codes: dict[str, type] = {}

    def register(self, actor_class: type) -> type:
        """Register *actor_class* under its ``CODE``; returns the class."""
        if not issubclass(actor_class, Actor):
            raise TypeError(f"{actor_class} is not an Actor subclass")
        code = actor_class.CODE
        existing = self._codes.get(code)
        if existing is not None and existing is not actor_class:
            raise ValueError(f"actor code {code!r} already registered to {existing}")
        self._codes[code] = actor_class
        return actor_class

    def get(self, code: str) -> type:
        actor_class = self._codes.get(code)
        if actor_class is None:
            raise KeyError(f"unknown actor code {code!r}")
        return actor_class

    def has(self, code: str) -> bool:
        return code in self._codes
