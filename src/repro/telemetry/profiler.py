"""Continuous profiling & resource attribution (`repro.telemetry.profiler`).

The ledger's ``--compare`` can say *that* a run got slower; this module
says *why*.  Three pillars, all observers of the simulation:

- **Sampling CPU profiler** — a daemon thread samples the sim thread's
  Python stack (``sys._current_frames()``) at a configurable wall-clock
  interval and attributes every sample to the DispatchBus label currently
  executing, read through
  :func:`repro.sim.scheduler.current_dispatch_label`.  Output: per-label
  CPU shares (they sum to 1.0 by construction) and collapsed stacks in
  flamegraph format.
- **Allocation / memory accountant** — with ``memory=True``, tracemalloc
  traced-byte deltas are bucketed per dispatch label through the bus's
  pre/post-dispatch hooks, and a whole-run top-allocation-site table is
  captured at stop.  Independently of tracemalloc, the sampler records a
  periodic whole-process RSS series and O(1) allocated-block counts.
- **Exporters** — :meth:`SamplingProfiler.snapshot` is the
  ``repro.profile/v1`` document embedded as the ``profile`` section of
  every ``BENCH_<name>.json``; :meth:`publish` exports ``mem.*`` and
  ``profile.*`` gauges into the run's MetricsRegistry;
  :meth:`collapsed_stacks` feeds flamegraph tooling and the Perfetto
  exporter grows a profiler track.  ``python -m repro.telemetry.profdiff``
  diffs two snapshots.

**Determinism contract** (DESIGN.md § Observability): the profiler writes
only to its own structures and — on explicit :meth:`publish` — to
``sim.metrics``.  It never touches the trace log, the event queue, or any
RNG, and the label slot it reads is maintained unconditionally by the
DispatchBus, so enabling profiling cannot change ``end_state_digest`` or
tie-shuffle invariance.  Overhead budget: sampling at the default 5 ms
interval must stay under 5% wall-clock on E1 k=8 (asserted by
``benchmarks/bench_e10_overhead.py``); tracemalloc accounting is costlier
and therefore a separate opt-in.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from typing import Optional

from repro.sim.observe import Plane
from repro.sim.scheduler import current_dispatch_label

PROFILE_SCHEMA = "repro.profile/v1"

#: Label for samples taken while the sim thread is outside any dispatch
#: (queue machinery, test/bench driver code, idle waits).
OUTSIDE_DISPATCH = "<outside-dispatch>"

_UNKNOWN_FRAME = "<unknown>"


def read_rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` where unreadable.

    Reads ``/proc/self/statm`` (Linux); falls back to ``ru_maxrss`` (a
    peak, not current, but monotone and better than nothing) elsewhere.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak_kb) * 1024
    except (ImportError, ValueError, OSError):
        return None


class SamplingProfiler(Plane):
    """Low-overhead CPU sampler + memory accountant for one simulator.

    Construct on the thread that drives the simulation (that thread is the
    sampling target), then :meth:`start`/:meth:`stop` around the measured
    region — or let ``repro.telemetry.enable_telemetry(system, profile=True)``
    and ``benchmarks/common.py`` do the wiring.  Both are idempotent, and
    a stopped profiler can be restarted (statistics accumulate).
    """

    section = "profile"

    def __init__(
        self,
        sim,
        # 10ms default: on a single-core host every wakeup preempts the
        # sim thread (context switch + cache refill), and 100Hz keeps the
        # measured worst-case tax inside the <5% budget e10 asserts while
        # still collecting hundreds of samples per benchmark run.
        interval: float = 0.01,
        memory: bool = False,
        max_stack_depth: int = 64,
        rss_every: int = 32,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive (got {interval})")
        self.sim = sim
        self.interval = float(interval)
        self.memory = bool(memory)
        self.max_stack_depth = max_stack_depth
        self.rss_every = max(1, rss_every)

        # CPU samples, written only by the sampler thread.
        self._samples: dict = {}  # (label, stack tuple) -> count
        self._label_samples: dict = {}  # label -> count
        self._total_samples = 0
        self._sampler_seconds = 0.0  # the sampler thread's own work
        self._code_names: dict = {}  # code object -> "pkg/file.py:func"

        # Memory accounting.
        self._alloc_bytes: dict = {}  # label -> net traced bytes allocated
        self._alloc_events: dict = {}  # label -> dispatches accounted
        self._mem_stack: list = []  # (event, traced bytes before) frames
        self._rss_points: list = []  # (wall seconds since start, rss bytes)
        self._traced: Optional[tuple] = None  # (current, peak) at stop
        self._alloc_top: list = []  # [(site, bytes)] at stop, memory mode
        self._owns_tracemalloc = False
        self._remove_hooks: list = []

        # Lifecycle.
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._target_ident: Optional[int] = None
        self._started_wall: Optional[float] = None
        self._active_seconds = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread.  Idempotent."""
        if self._thread is not None:
            return self
        self._target_ident = threading.get_ident()
        self._stop_event.clear()
        if self.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True
            self._install_memory_hooks()
        self._started_wall = time.perf_counter()
        rss = read_rss_bytes()
        if rss is not None:
            self._rss_points.append((0.0, rss))
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and finalize memory accounting.  Idempotent."""
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        self._active_seconds += time.perf_counter() - self._started_wall
        rss = read_rss_bytes()
        if rss is not None:
            self._rss_points.append((self._active_seconds, rss))
        for remove in self._remove_hooks:
            remove()
        self._remove_hooks.clear()
        self._mem_stack.clear()
        if self.memory and tracemalloc.is_tracing():
            self._traced = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
            self._alloc_top = [
                (f"{stat.traceback[0].filename}:{stat.traceback[0].lineno}", stat.size)
                for stat in snapshot.statistics("lineno")[:16]
            ]
            if self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False
        return self

    # ------------------------------------------------------------------
    # The sampler thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        frames_of = sys._current_frames
        target = self._target_ident
        ticks = 0
        while not self._stop_event.wait(self.interval):
            t0 = time.perf_counter()
            frame = frames_of().get(target)
            label = current_dispatch_label(target) or OUTSIDE_DISPATCH
            stack = self._collapse(frame)
            key = (label, stack)
            self._samples[key] = self._samples.get(key, 0) + 1
            self._label_samples[label] = self._label_samples.get(label, 0) + 1
            self._total_samples += 1
            ticks += 1
            if ticks % self.rss_every == 0:
                rss = read_rss_bytes()
                if rss is not None:
                    self._rss_points.append(
                        (time.perf_counter() - self._started_wall, rss)
                    )
            self._sampler_seconds += time.perf_counter() - t0

    def _collapse(self, frame) -> tuple:
        """Root-first tuple of ``pkg/file.py:func`` frames for *frame*."""
        if frame is None:
            return (_UNKNOWN_FRAME,)
        names = self._code_names
        stack = []
        depth = 0
        while frame is not None and depth < self.max_stack_depth:
            code = frame.f_code
            name = names.get(code)
            if name is None:
                filename = code.co_filename.replace("\\", "/")
                cut = filename.rfind("/repro/")
                if cut >= 0:
                    filename = filename[cut + 1:]
                else:
                    filename = filename.rsplit("/", 1)[-1]
                name = f"{filename}:{code.co_name}"
                names[code] = name
            stack.append(name)
            frame = frame.f_back
            depth += 1
        stack.reverse()
        return tuple(stack)

    # ------------------------------------------------------------------
    # Memory accounting (dispatch-label buckets via the bus hooks)
    # ------------------------------------------------------------------
    def _install_memory_hooks(self) -> None:
        bus = self.sim.dispatch

        def pre(event) -> None:
            self._mem_stack.append((event, tracemalloc.get_traced_memory()[0]))

        def post(event, _elapsed) -> None:
            stack = self._mem_stack
            # Suppressed events run pre- but never post-dispatch; their
            # stale frames sit above this event's and are discarded here
            # (stack discipline guarantees ours is underneath).
            while stack and stack[-1][0] is not event:
                stack.pop()
            if not stack:
                return
            _, before = stack.pop()
            delta = tracemalloc.get_traced_memory()[0] - before
            label = bus.label_of(event)
            if delta > 0:
                self._alloc_bytes[label] = self._alloc_bytes.get(label, 0) + delta
            self._alloc_events[label] = self._alloc_events.get(label, 0) + 1

        self._remove_hooks.append(bus.on_pre_dispatch(pre))
        self._remove_hooks.append(bus.on_post_dispatch(post))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def label_shares(self) -> dict:
        """``label -> fraction of CPU samples``; fractions sum to 1.0."""
        total = self._total_samples
        if not total:
            return {}
        return {
            label: count / total
            for label, count in sorted(
                self._label_samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        }

    def _top_frames(self, wanted_label: str, top: int) -> list:
        """Hottest *leaf* frames (self time) of one label's samples."""
        leafs: dict = {}
        for (label, stack), count in self._samples.items():
            if label == wanted_label and stack:
                leaf = stack[-1]
                leafs[leaf] = leafs.get(leaf, 0) + count
        ranked = sorted(leafs.items(), key=lambda kv: (-kv[1], kv[0]))
        return [[frame, count] for frame, count in ranked[:top]]

    def summary(self) -> dict:
        return self.snapshot()

    def snapshot(self, top_frames: int = 8) -> dict:
        """The ``repro.profile/v1`` document (JSON-safe plain data)."""
        total = self._total_samples
        active = self._active_seconds
        if self._thread is not None and self._started_wall is not None:
            active += time.perf_counter() - self._started_wall
        labels = {}
        for label, count in sorted(
            self._label_samples.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            labels[label] = {
                "samples": count,
                "cpu_share": count / total if total else 0.0,
                "alloc_bytes": self._alloc_bytes.get(label, 0),
                "alloc_events": self._alloc_events.get(label, 0),
                "top_frames": self._top_frames(label, top_frames),
            }
        # Labels that allocated but were never caught on-CPU by a sample.
        for label in sorted(self._alloc_bytes):
            if label not in labels:
                labels[label] = {
                    "samples": 0,
                    "cpu_share": 0.0,
                    "alloc_bytes": self._alloc_bytes[label],
                    "alloc_events": self._alloc_events.get(label, 0),
                    "top_frames": [],
                }
        mem = {
            "rss_bytes": self._rss_points[-1][1] if self._rss_points else None,
            "rss_peak_bytes": (
                max(rss for _, rss in self._rss_points) if self._rss_points else None
            ),
            "rss_points": len(self._rss_points),
            "allocated_blocks": sys.getallocatedblocks(),
        }
        if self._traced is not None:
            mem["traced_bytes"], mem["traced_peak_bytes"] = self._traced
        document = {
            "schema": PROFILE_SCHEMA,
            "interval_s": self.interval,
            "memory": self.memory,
            "samples": total,
            "active_s": active,
            "sampler_s": self._sampler_seconds,
            "labels": labels,
            "mem": mem,
        }
        if self._alloc_top:
            document["alloc_top"] = [[site, size] for site, size in self._alloc_top]
        return document

    def rss_series(self) -> list:
        """``(wall seconds since start, rss bytes)`` points, oldest first."""
        return list(self._rss_points)

    def collapsed_stacks(self) -> list:
        """Collapsed-stack lines (``label;frame;frame count``), hottest first.

        The dispatch label is the synthetic root frame, so a flamegraph
        renders one tower per label.  Feed to speedscope, inferno or
        flamegraph.pl.
        """
        ranked = sorted(
            self._samples.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        return [
            ";".join((label,) + stack) + f" {count}"
            for (label, stack), count in ranked
        ]

    def write_collapsed(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.collapsed_stacks():
                handle.write(line + "\n")
        return path

    def publish(self, metrics=None):
        """Export ``profile.*`` and ``mem.*`` gauges onto the registry.

        Call from the sim thread (normally after :meth:`stop`), so metric
        writes never race the run.
        """
        registry = metrics if metrics is not None else self.sim.metrics
        registry.gauge("profile.samples").set(self._total_samples)
        registry.gauge("profile.interval_s").set(self.interval)
        registry.gauge("profile.sampler_s").set(self._sampler_seconds)
        for label, share in self.label_shares().items():
            registry.gauge("profile.cpu_share.*", label).set(share)
        for label, size in sorted(self._alloc_bytes.items()):
            registry.gauge("profile.alloc_bytes.*", label).set(size)
        mem = self.snapshot()["mem"]
        for key in ("rss_bytes", "rss_peak_bytes", "traced_bytes",
                    "traced_peak_bytes"):
            if mem.get(key) is not None:
                registry.gauge("mem.*", key).set(mem[key])
        registry.gauge("mem.allocated_blocks").set(mem["allocated_blocks"])
        return registry
