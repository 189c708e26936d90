"""Host-time spans around the calls into each layer of ``repro``.

The tracer lives entirely in the benchmark: it never edits ``src/``.
:meth:`Tracer.install` replaces every binding of a layer's public entry
point — the defining module's attribute *and* every ``from x import f``
copy another ``repro`` (or ``perfbench``) module holds — with a wrapper
that records one span per call, and :meth:`Tracer.uninstall` puts the
originals back. Class methods (``Comm.Isend``, ``ResultCache.get``,
``Engine.run``...) are wrapped on the class.

A span is ``(id, layer, name, start, end, cpu, parent, request, tid)``.
Spans opened on the main thread are timed with ``perf_counter``; spans
opened on any other thread — the engine's rank threads — are timed with
``thread_time``, because the engine runs one rank at a time and a
blocking call's wall time would include every other rank's turn. A
rank thread's outermost span takes the enclosing ``Engine.run`` span as
its parent. Spans stay in memory until :meth:`Tracer.chrome` renders
them once, at the end, in the trace-event format
:mod:`repro.profiling.chrome` emits.

Calls made in a pool worker (a forked copy of the traced process) pass
straight through: their spans could never be collected, so pool work is
accounted from ``LintServiceStats.unit_walls`` instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Span", "Tracer", "layer_entries"]


@dataclass(frozen=True)
class Span:
    """One closed span. ``cpu`` marks thread-CPU-clock timing."""

    id: int
    layer: str
    name: str
    start: float
    end: float
    cpu: bool
    parent: int | None
    request: int | None
    tid: int
    wall_start: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_entries() -> list[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    ``owner`` is a module (a function binding) or a class (a method).
    Imported lazily: the list names the program's public surface.
    """
    def mod(name: str) -> Any:
        # import_module, not ``import a.b as m``: ``repro.faults``
        # exports a function named like its ``fuzz`` submodule.
        return importlib.import_module(f"repro.{name}")

    lint = mod("core.analysis.lint")
    verify = mod("core.analysis.verify")
    directives = mod("core.directives")
    scheduler = mod("lintserve.scheduler")
    result_cache = mod("lintserve.cache").ResultCache
    entries: list[tuple[str, Any, str]] = [
        ("core.pragma", mod("core.pragma.parser"), "parse_program"),
        ("core.exprs", mod("core.exprs"), "evaluate"),
        ("core.analysis.lint.structure", lint, "structure_report"),
        ("core.analysis.lint.verify", lint, "verify_target_diagnostics"),
        ("core.analysis.lint.advise", lint, "advise_diagnostics"),
        ("core.analysis.verify", verify, "verify_program"),
        ("core.analysis.verify", verify, "verify_all_targets"),
        ("core.analysis.verify", verify, "undefined_payload_buffers"),
        ("core.analysis.races", mod("core.analysis.races"),
         "race_diagnostics"),
        ("core.analysis.advisor", mod("core.analysis.advisor"),
         "advise_program"),
        ("core.analysis.progsim", mod("core.analysis.progsim"),
         "simulate_program"),
        ("sim.engine", mod("sim.engine").Engine, "run"),
        ("core.directives", directives, "comm_p2p"),
        ("core.directives", directives, "comm_parameters"),
        ("core.directives", directives, "comm_flush"),
        ("faults.fuzz", mod("faults.fuzz"), "fuzz_program"),
        ("gen.oracle", mod("gen.oracle"), "check_program"),
        ("gen.generator", mod("gen.generator"), "generate_many"),
        ("lintserve.scheduler", scheduler, "lint_sources"),
        ("lintserve.scheduler", scheduler, "pool_map"),
        ("lintserve.cache", result_cache, "key"),
        ("lintserve.cache", result_cache, "get"),
        ("lintserve.cache", result_cache, "put"),
        ("lintserve.merge", mod("lintserve.merge"), "assemble_file_report"),
        ("render", mod("core.pragma.__main__"), "render_reports"),
    ]
    # The directive protocol runs in the context-manager methods of the
    # objects comm_p2p/comm_parameters return.
    for cls in (directives.CommP2P, directives.CommParameters):
        entries += [("core.directives", cls, "__enter__"),
                    ("core.directives", cls, "__exit__")]
    # Every public library call a rank body can make.
    for layer, cls in (("mpi", mod("mpi.comm").Comm),
                       ("mpi", mod("mpi.rma").Win),
                       ("shmem", mod("shmem.api").Shmem)):
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and callable(value) \
                    and not isinstance(value, (classmethod, staticmethod)):
                entries.append((layer, cls, attr))
    return entries


class Tracer:
    """Records spans between :meth:`install` and :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._pid = os.getpid()
        self._main = threading.main_thread()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._engine_span: int | None = None
        self._tids: dict[int, int] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        #: Per Engine.run: (nprocs, switches delta, handoffs delta).
        self.engine_runs: list[tuple[int, int, int]] = []

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and every binding of it."""
        for layer, owner, attr in layer_entries():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                wrapper = self._wrap(layer, f"{owner.__name__}.{attr}",
                                     original,
                                     engine=owner.__name__ == "Engine")
                self._set(owner, attr, wrapper)
                continue
            wrapper = self._wrap(layer, attr, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (name.startswith(("repro", "perfbench"))
                        and getattr(module, attr, None) is original):
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        if ident not in self._tids:
            self._tids[ident] = len(self._tids)
        return self._tids[ident]

    def _wrap(self, layer: str, name: str, fn: Callable,
              engine: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            on_main = threading.current_thread() is tracer._main
            clock = time.perf_counter if on_main else time.thread_time
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                None if on_main else tracer._engine_span)
            span_id = next(tracer._ids)
            stack.append(span_id)
            if engine:
                outer_engine = tracer._engine_span
                tracer._engine_span = span_id
                before = (args[0].stats.switches,
                          args[0].stats.direct_handoffs)
            wall_start = time.perf_counter()
            start = clock() if not on_main else wall_start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if engine:
                    tracer._engine_span = outer_engine
                    stats = args[0].stats
                    tracer.engine_runs.append(
                        (len(args[0].procs),
                         stats.switches - before[0],
                         stats.direct_handoffs - before[1]))
                tracer.spans.append(Span(
                    span_id, layer, name, start, end, not on_main, parent,
                    tracer.request, tracer._tid(), wall_start))

        return traced

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: summed span time minus time in child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.duration - child_time[span.id]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Per layer: summed time of its outermost spans."""
        layer_of = {span.id: span.layer for span in self.spans}
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if layer_of.get(span.parent) != span.layer:
                out[span.layer] += span.duration
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Per layer: calls entering it from outside the layer."""
        layer_of = {span.id: span.layer for span in self.spans}
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if layer_of.get(span.parent) != span.layer:
                out[span.layer] += 1
        return dict(out)

    def name_calls(self, name: str) -> int:
        """Exact number of spans recorded for one wrapped name."""
        return sum(1 for span in self.spans if span.name == name)

    def name_time(self, name: str) -> float:
        """Summed duration of the spans of one wrapped name."""
        return sum(span.duration for span in self.spans
                   if span.name == name)

    def chrome(self) -> dict[str, Any]:
        """The spans as a Chrome trace-event JSON object.

        Host time in microseconds, one lane per thread; a thread-CPU
        span is placed at its wall start with its CPU duration.
        """
        t0 = min((s.wall_start for s in self.spans), default=0.0)
        meta = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                 "args": {"name": "host"}}]
        meta += [{"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                  "args": {"name": "main" if tid == 0 else f"thread {tid}"}}
                 for tid in sorted(set(self._tids.values()))]
        events = [{
            "ph": "X", "name": s.name, "cat": s.layer, "pid": 0,
            "tid": s.tid, "ts": round((s.wall_start - t0) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "args": {"id": s.id, "parent": s.parent,
                     "request": s.request,
                     "clock": "thread_cpu" if s.cpu else "wall"},
        } for s in self.spans]
        events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
        return {"traceEvents": meta + events, "displayTimeUnit": "ns"}
