"""The discrete-event simulator driving every run in this reproduction."""

from __future__ import annotations

import math
import os
import time as _wallclock
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.observe import Noted
from repro.sim.rng import SeedSequence


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly."""


class DispatchBus:
    """Instrumented event dispatch between the run loop and ``Event.fire()``.

    Every event executed by the :class:`Simulator` flows through this bus,
    which records per-label dispatch counts and cumulative/max wall-clock
    timings (label falls back to the callback's ``__name__``), and exposes
    pre/post-dispatch hooks.  Hooks observe; they cannot stop an event:

    - *pre-dispatch* hooks run just before the event fires;
    - *post-dispatch* hooks run after the event fired (even if the callback
      raised) with the elapsed wall-clock seconds — the profiling point.

    Wall-clock timings are real (host) time, not simulated time: they answer
    "where does this run spend its CPU?".  They are kept off the observation
    stream and out of the metrics, so digests and the run document outside
    its ``dispatch`` section (:meth:`summary`) stay deterministic.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.wall_seconds: dict[str, float] = {}
        self.max_wall_seconds: dict[str, float] = {}
        self._pre_hooks: list[Callable[[Event], None]] = []
        self._post_hooks: list[Callable[[Event, float], None]] = []
        # Tuple snapshots iterated by dispatch(): registration is rare but
        # dispatch runs per event, so snapshotting at mutation time replaces
        # a defensive list copy on every single event.
        self._pre_snapshot: tuple = ()
        self._post_snapshot: tuple = ()

    @staticmethod
    def label_of(event: Event) -> str:
        return event.label or getattr(event.callback, "__name__", "?")

    # -- hooks ----------------------------------------------------------
    def on_pre_dispatch(self, hook: Callable[[Event], None]) -> Callable[[], None]:
        """Register *hook* to run before each event fires; returns a remover."""
        self._pre_hooks.append(hook)
        self._pre_snapshot = tuple(self._pre_hooks)

        def _remove() -> None:
            if hook in self._pre_hooks:
                self._pre_hooks.remove(hook)
                self._pre_snapshot = tuple(self._pre_hooks)

        return _remove

    def on_post_dispatch(
        self, hook: Callable[[Event, float], None]
    ) -> Callable[[], None]:
        """Register *hook* to run after each event fires; returns a remover."""
        self._post_hooks.append(hook)
        self._post_snapshot = tuple(self._post_hooks)

        def _remove() -> None:
            if hook in self._post_hooks:
                self._post_hooks.remove(hook)
                self._post_snapshot = tuple(self._post_hooks)

        return _remove

    # -- dispatch -------------------------------------------------------
    def dispatch(self, event: Event) -> Any:
        """Fire *event* through the hooks, recording counts and timings."""
        label = event.label or getattr(event.callback, "__name__", "?")
        for hook in self._pre_snapshot:
            hook(event)
        start = _wallclock.perf_counter()
        try:
            return event.fire()
        finally:
            elapsed = _wallclock.perf_counter() - start
            self.counts[label] = self.counts.get(label, 0) + 1
            self.wall_seconds[label] = self.wall_seconds.get(label, 0.0) + elapsed
            if elapsed > self.max_wall_seconds.get(label, 0.0):
                self.max_wall_seconds[label] = elapsed
            for hook in self._post_snapshot:
                hook(event, elapsed)

    # -- reporting ------------------------------------------------------
    def summary(self) -> list[dict]:
        """Per-label dispatch statistics, busiest label first."""
        rows = []
        for label in sorted(self.counts, key=lambda k: (-self.counts[k], k)):
            count = self.counts[label]
            wall = self.wall_seconds.get(label, 0.0)
            rows.append(
                {
                    "label": label,
                    "events": count,
                    "wall_s": wall,
                    "mean_s": wall / count if count else 0.0,
                    "max_s": self.max_wall_seconds.get(label, 0.0),
                }
            )
        return rows


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the simulated clock (:attr:`now`, in seconds), the
    event queue, the root :class:`~repro.sim.rng.SeedSequence` from which all
    component RNGs are derived, a :class:`~repro.sim.metrics.MetricsRegistry`,
    a :class:`DispatchBus` through which every executed event flows, and the
    observation stream (:meth:`attach` / :meth:`observe`) through which
    components report what happened to whatever planes are watching — the
    trace log among them (:class:`~repro.sim.tracing.TraceLog`, attached
    like any other plane: a run nobody watches keeps no log).

    Typical use::

        sim = Simulator(seed=42)
        sim.schedule(1.0, do_something)
        sim.run_until(10.0)

    **Tie-order race detection.**  Same-timestamp events fire FIFO by
    default; any permutation of those ties is an equally legal schedule, so
    a protocol outcome that depends on the FIFO accident is a latent race.
    Passing ``tie_shuffle=<int>`` (or setting ``$REPRO_TIE_SHUFFLE``)
    deterministically permutes ties under that seed: running the same
    scenario under several shuffle seeds and comparing end-state digests
    (e.g. ``HierarchicalSystem.end_state_digest()``) detects hidden
    tie-order dependence.  ``tie_shuffle=None`` with the environment
    variable unset is the plain FIFO discipline.
    """

    def __init__(self, seed: int = 0, tie_shuffle: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.seeds = SeedSequence(seed)
        self.queue = EventQueue()
        if tie_shuffle is None:
            env = os.environ.get("REPRO_TIE_SHUFFLE")
            if env:
                tie_shuffle = int(env)
        if tie_shuffle is not None:
            self.queue.set_tie_shuffle(tie_shuffle)
        self.tie_shuffle = tie_shuffle
        self.metrics = MetricsRegistry()
        self.dispatch = DispatchBus()
        # The observation stream (repro.sim.observe): attached planes by
        # section, and derived from them, record type -> handlers in attach
        # order (no entry for a type nobody handles).
        self.planes: dict = {}
        self._handlers: dict = {}
        # Scratch space for cross-component memoization of deterministic
        # computations (e.g. the runtime's shared block-execution cache).
        # Contents must never influence observable simulation behaviour —
        # only avoid recomputing results that are pure functions of it.
        self.memo: dict = {}
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* to run *delay* simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, args, kwargs, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* at an absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now={self.now}")
        return self.queue.push(time, callback, args, kwargs, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Safe on already-fired events (no-op for
        queue accounting: only events still in the queue release a slot)."""
        if not event.cancelled:
            event.cancel()
            if not event.popped:
                self.queue.note_cancel()

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
        label: str = "",
        **kwargs: Any,
    ) -> Callable[[], None]:
        """Run *callback* periodically every *interval* seconds.

        Returns a zero-argument function that stops the recurrence.  The
        first firing happens after *start_after* seconds (default: one full
        interval).

        Tie-breaking: each tick re-schedules the next one from inside its
        own callback, so a tick's queue sequence number — and hence its
        position among same-timestamp events — is assigned at that moment.
        Two recurrences with the same interval fire in the order their
        *previous* ticks ran (FIFO by re-scheduling), which is itself FIFO
        by the order of the original :meth:`every` calls.  As with all
        same-timestamp ties, correct components must not rely on this
        accident; ``tie_shuffle`` exists to flush out code that does.

        An exception raised by *callback* is reported as a ``timer.error``
        :class:`~repro.sim.observe.Noted` record, and the recurrence keeps
        ticking: one bad tick must not silently kill a heartbeat.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        state = {"stopped": False, "event": None}

        def _tick() -> None:
            if state["stopped"]:
                return
            try:
                callback(*args, **kwargs)
            except Exception as err:
                name = label or getattr(callback, "__name__", "?")
                self.observe(Noted, "timer.error", name, (type(err).__name__, err))
            if not state["stopped"]:
                state["event"] = self.schedule(interval, _tick, label=label)

        first = interval if start_after is None else start_after
        state["event"] = self.schedule(first, _tick, label=label)

        def _stop() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                self.cancel(event)

        return _stop

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self, horizon: float, limit: Optional[int]) -> int:
        """The run loop: pop, advance the clock, dispatch — until no event
        is due by *horizon*, or *limit* events ran."""
        pop_due = self.queue.pop_due
        dispatch = self.dispatch.dispatch
        executed = 0
        while executed != limit:
            event = pop_due(horizon)
            if event is None:
                break
            if event.time < self.now:
                raise SimulationError("event queue produced an event in the past")
            self.now = event.time
            self._events_executed += 1
            executed += 1
            dispatch(event)
        return executed

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events until simulated *time* (inclusive of events at *time*).

        Returns the number of events executed.  The clock is advanced to
        *time* even if the queue drains earlier, so subsequent scheduling is
        relative to the requested horizon.
        """
        executed = self._drain(time, max_events)
        if executed == max_events:
            raise SimulationError(
                f"exceeded max_events={max_events} before reaching t={time}"
            )
        if self.now < time:
            self.now = time
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue is exhausted.  Returns events executed."""
        executed = self._drain(math.inf, max_events)
        if executed == max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
        return executed

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Observation (record types and the plane contract: repro.sim.observe)
    # ------------------------------------------------------------------
    def attach(self, plane):
        """Register *plane* on :attr:`planes` under ``plane.section`` and
        subscribe its handlers, after those already attached."""
        if plane.section in self.planes:
            raise SimulationError(f"a {plane.section!r} plane is already attached")
        self.planes[plane.section] = plane
        self._subscribe()
        return plane

    def detach(self, plane) -> None:
        """Undo :meth:`attach`; a plane that is not attached is left alone."""
        if self.planes.get(plane.section) is plane:
            del self.planes[plane.section]
            self._subscribe()

    def _subscribe(self) -> None:
        handlers: dict = {}
        for plane in self.planes.values():
            for kind, name in plane.observes.items():
                handlers.setdefault(kind, []).append(getattr(plane, name))
        self._handlers = handlers

    def observed(self, kind) -> bool:
        """Whether any attached plane handles *kind* records."""
        return kind in self._handlers

    def observe(self, kind, *fields) -> None:
        """Say that something happened: one *kind* record built from
        *fields* for every subscribed handler — or, with none, nothing."""
        handlers = self._handlers.get(kind)
        if handlers is not None:
            record = kind(*fields)
            for handler in handlers:
                handler(record)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, *scope: Any):
        """Return a deterministic ``random.Random`` for a named component.

        The same ``(seed, *scope)`` always yields an identically-seeded
        generator, so components do not perturb each other's random streams.
        """
        return self.seeds.rng(*scope)
