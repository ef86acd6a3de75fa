"""Span recording around the simulator's layer entry points.

Everything here wraps the program from outside: it replaces class and
module attributes of the ``repro`` package with timing wrappers, and
:meth:`Recorder.uninstall` puts the originals back.  Nothing under
``src/`` knows it is being measured.

Two levels of instrumentation share one :class:`Recorder`:

* **light** (every run): ``run_simulation``, ``build_system``,
  ``Workload.build_trace`` and ``Watchdog.final_check``.  A handful of
  calls per simulation, so it costs nothing measurable; it yields the
  set-up time, per-simulation start/end stamps and the proof that the
  watchdog's final conservation check ran.
* **traced** (``--trace 1``): additionally every public layer entry
  point in :data:`ENTRY_POINTS`, every handler registered through
  ``Simulator.register`` / ``register_batch``, every monitor added
  through ``Simulator.add_monitor`` and the tracer's record methods.

A span's *self time* is its duration minus the spans nested inside it.
Each span belongs to one layer; a layer's self time is the sum over its
spans.  The root span (``run_simulation``) has no layer: its self time
is the time no layer span covers, reported as ``trace.residual_share``.

Handlers are charged to the layer that *owns* them: the module of the
bound method's ``__self__`` (``iommu.xlate`` is registered by the GPU,
so it is GPU work even though its kind starts with ``iommu``).
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Imported after ``run.import_program`` has put the checkout's program
# first on the path.
from repro.memory.dram import _VECTOR_MIN_BATCH

#: Module prefix -> layer, most specific prefix first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.memory.controller", "memory.controller"),
    ("repro.memory.dram", "memory.dram"),
    ("repro.mmu.iommu", "mmu.iommu"),
    ("repro.mmu.walker", "mmu.walker"),
    ("repro.mmu.pwc", "mmu.pwc"),
    ("repro.mmu.tlb", "mmu.tlb"),
    ("repro.experiments", "experiments"),
    ("repro.resilience", "resilience"),
    ("repro.workloads", "workloads"),
    ("repro.engine", "engine"),
    ("repro.memory", "memory"),
    ("repro.core", "core"),
    ("repro.gpu", "gpu"),
    ("repro.obs", "obs"),
    ("repro.mmu", "mmu.iommu"),
)

#: Wrapped entry points: (module, class, method, span name, layer, hook).
#: ``hook`` names a :class:`Recorder` method that updates counters from
#: the call's arguments and return value (outermost call only).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str, Optional[str]], ...] = (
    ("repro.engine.simulator", "Simulator", "run", "engine.run", "engine", None),
    ("repro.engine.event_queue", "EventQueue", "pop_bucket", "engine.pop_bucket",
     "engine", "_count_bucket"),
    ("repro.gpu.gpu", "GPU", "dispatch", "gpu.dispatch", "gpu", None),
    ("repro.mmu.iommu", "IOMMU", "translate", "iommu.translate", "mmu.iommu", None),
    ("repro.core.buffer", "PendingWalkBuffer", "add", "buffer.add", "core", None),
    ("repro.core.buffer", "PendingWalkBuffer", "remove", "buffer.remove", "core", None),
    ("repro.mmu.walker", "PageTableWalker", "start", "walker.start", "mmu.walker", None),
    ("repro.mmu.pwc", "PageWalkCache", "walk_lookup", "pwc.probe", "mmu.pwc",
     "_count_pwc_walk"),
    ("repro.mmu.pwc", "PageWalkCache", "score", "pwc.probe", "mmu.pwc",
     "_count_pwc_score"),
    ("repro.mmu.pwc", "PageWalkCache", "fill", "pwc.fill", "mmu.pwc", None),
    ("repro.mmu.tlb", "TLB", "lookup", "tlb.lookup", "mmu.tlb", "_count_tlb"),
    ("repro.mmu.tlb", "TLB", "insert", "tlb.insert", "mmu.tlb", None),
    # ``MemorySubsystem`` rebinds ``data_access`` / ``page_table_read`` to
    # the private implementations on each instance when no profiler is
    # attached, so the implementations are wrapped under the same span.
    ("repro.memory.subsystem", "MemorySubsystem", "data_access", "mem.data",
     "memory", None),
    ("repro.memory.subsystem", "MemorySubsystem", "_data_access", "mem.data",
     "memory", None),
    ("repro.memory.subsystem", "MemorySubsystem", "data_access_batch", "mem.data",
     "memory", None),
    ("repro.memory.subsystem", "MemorySubsystem", "page_table_read", "mem.pt_read",
     "memory", None),
    ("repro.memory.subsystem", "MemorySubsystem", "_page_table_read", "mem.pt_read",
     "memory", None),
    ("repro.memory.cache", "SetAssociativeCache", "access", "cache.access",
     "memory", "_count_cache"),
    ("repro.memory.cache", "SetAssociativeCache", "fill", "cache.fill", "memory", None),
    ("repro.memory.dram", "DRAM", "access", "dram.read", "memory.dram",
     "_count_dram"),
    ("repro.memory.dram", "DRAM", "access_batch", "dram.read", "memory.dram",
     "_count_dram_batch"),
    ("repro.memory.controller", "QueuedMemoryController", "read",
     "controller.read", "memory.controller", "_count_dram"),
    ("repro.experiments.runner", None, "collect_result", "collect_result",
     "experiments", None),
)

#: Tracer methods that are not record calls on the simulation hot path.
_TRACER_NON_RECORD = frozenset({
    "snapshot", "restore", "events", "tail", "summary", "to_chrome",
    "write_chrome", "to_jsonl", "write_jsonl",
})


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return module


def owner_layer(fn: Callable[..., Any]) -> str:
    """Layer of a handler or monitor: its bound ``__self__``'s module, or
    the function's own module for plain functions and closures."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else getattr(
        fn, "__module__", ""
    )
    return layer_of_module(module or "")


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class Recorder:
    """Per-span call counts and inclusive/self seconds, plus counters.

    ``cells[name] = [calls, inclusive_s, self_s]``; ``layer_of[name]``
    is the span's layer (None for the root).  ``counts`` holds the
    boundary counters (TLB hits, DRAM reads, bucket sizes, ...).
    """

    def __init__(self) -> None:
        self.cells: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, Optional[str]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _cell(self, name: str, layer: Optional[str]) -> List[float]:
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = [0, 0.0, 0.0]
            self.layer_of[name] = layer
        return cell

    def span(
        self,
        name: str,
        layer: Optional[str],
        fn: Callable[..., Any],
        hook: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a span.  A call nested directly inside a span
        of the same name (a public method delegating to its private
        implementation) adds time but is not counted as a second call."""
        cell = self._cell(name, layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            nested = bool(stack) and stack[-1][0] == name
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if not nested:
                cell[0] += 1
                if hook is not None:
                    hook(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, layer: Optional[str],
              hook: Optional[Callable] = None) -> None:
        self._patch(owner, attr, self.span(name, layer, owner.__dict__[attr], hook))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, traced: bool = False) -> "Recorder":
        """Wrap the entry points; call before any system is built."""
        # Import every module that defines a scheduler or workload so
        # their subclasses exist before the wrapping walk.
        import repro.core.reference  # noqa: F401
        import repro.core.zoo  # noqa: F401
        from repro.core.schedulers import WalkScheduler
        from repro.experiments import runner
        from repro.resilience.watchdog import Watchdog
        from repro.workloads import registry  # noqa: F401
        from repro.workloads.base import Workload

        self._wrap_root(runner)
        self._wrap(runner, "build_system", "build_system", "experiments")
        for cls in _subclasses(Workload):
            if "build_trace" in cls.__dict__:
                self._wrap(cls, "build_trace", "build_trace", "workloads")
        self._wrap(Watchdog, "final_check", "watchdog.final_check", "resilience")
        if not traced:
            return self

        for module, cls_name, attr, name, layer, hook in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._wrap(owner, attr, name, layer,
                       getattr(self, hook) if hook else None)
        for cls in [WalkScheduler] + _subclasses(WalkScheduler):
            if "select" in cls.__dict__:
                self._wrap(cls, "select", "sched.select", "core")

        from repro.engine.simulator import Simulator
        from repro.obs.trace import Tracer

        for attr, value in list(Tracer.__dict__.items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and attr not in _TRACER_NON_RECORD):
                self._wrap(Tracer, attr, "tracer.record", "obs")

        recorder = self
        register = Simulator.__dict__["register"]
        register_batch = Simulator.__dict__["register_batch"]
        add_monitor = Simulator.__dict__["add_monitor"]

        def traced_register(sim, kind, handler):
            layer = owner_layer(handler)
            register(sim, kind, recorder.span(
                f"handler:{kind}", layer, handler, recorder._event_counter(layer)))

        def traced_register_batch(sim, kind, handler):
            layer = owner_layer(handler)
            register_batch(sim, kind, recorder.span(
                f"handler:{kind}", layer, handler,
                recorder._batch_counter(layer)))

        def traced_add_monitor(sim, callback, interval_events=10_000):
            layer = owner_layer(callback)
            add_monitor(sim, recorder.span(
                f"monitor:{layer}", layer, callback), interval_events)

        self._patch(Simulator, "register", traced_register)
        self._patch(Simulator, "register_batch", traced_register_batch)
        self._patch(Simulator, "add_monitor", traced_add_monitor)
        return self

    def _wrap_root(self, runner: Any) -> None:
        """Make ``run_simulation`` the root span and stamp each result
        with its start/end times and everything recorded during it, in
        ``result.detail["perfbench"]``.  The stamp travels back with the
        result from a ``run_many`` worker process."""
        recorder = self
        root = self.span("run", None, runner.__dict__["run_simulation"])

        def run_simulation(*args, **kwargs):
            before = recorder.snapshot()
            start = perf_counter()
            result = root(*args, **kwargs)
            result.detail["perfbench"] = dict(
                recorder.delta(before), start=start, end=perf_counter()
            )
            return result

        self._patch(runner, "run_simulation", run_simulation)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Boundary counters (called after the outermost call returns)
    # ------------------------------------------------------------------

    def _event_counter(self, layer: str) -> Callable[[tuple, Any], None]:
        counts = self.counts
        key = f"events:{layer}"

        def hook(args, result):
            counts[key] += 1
        return hook

    def _batch_counter(self, layer: str) -> Callable[[tuple, Any], None]:
        counts = self.counts
        key = f"events:{layer}"

        def hook(args, result):
            size = len(args[0])
            counts[key] += size
            counts["engine.batch_calls"] += 1
            counts["engine.batch_events"] += size
        return hook

    def _count_bucket(self, args, result) -> None:
        self.counts["engine.bucket_events"] += len(result[1])

    def _count_tlb(self, args, result) -> None:
        if result is not None:
            self.counts["tlb.hits"] += 1

    def _count_pwc_walk(self, args, result) -> None:
        if result < args[0].geometry.walk_levels:
            self.counts["pwc.hits"] += 1

    def _count_pwc_score(self, args, result) -> None:
        self._count_pwc_walk(args, result[0])

    def _count_cache(self, args, result) -> None:
        if result:
            self.counts["cache.hits"] += 1

    def _count_dram(self, args, result) -> None:
        self.counts["dram.reads"] += 1

    def _count_dram_batch(self, args, result) -> None:
        # ``access_batch`` takes its numpy path only at or above the
        # program's threshold; reads arriving in such batches bound how
        # often that path can run.
        size = len(args[1])
        self.counts["dram.reads"] += size
        if size >= _VECTOR_MIN_BATCH:
            self.counts["dram.vector_batch_reads"] += size

    # ------------------------------------------------------------------
    # Per-simulation deltas
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "cells": {name: list(cell) for name, cell in self.cells.items()},
            "counts": dict(self.counts),
        }

    def delta(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What was recorded since ``before`` (a :meth:`snapshot`):
        ``cells[name] = [calls, inclusive_s, self_s, layer]``."""
        old_cells = before["cells"]
        old_counts = before["counts"]
        cells = {}
        for name, cell in self.cells.items():
            old = old_cells.get(name, (0, 0.0, 0.0))
            diff = [cell[i] - old[i] for i in range(3)]
            if any(diff):
                cells[name] = diff + [self.layer_of[name]]
        counts = {
            key: value - old_counts.get(key, 0)
            for key, value in self.counts.items()
            if value != old_counts.get(key, 0)
        }
        return {"cells": cells, "counts": counts}
