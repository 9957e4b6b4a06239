"""In-memory span tracing around the package's public entry points.

A :class:`Tracer` records one span per call — ``(id, name, start, end,
parent)`` — for every function it wraps. Wrapping happens from the
benchmark's own files: :meth:`Tracer.install` swaps module attributes
and class attributes for timing wrappers and :meth:`Tracer.uninstall`
puts the originals back, so the package itself carries no tracing code.
The benchmark also opens spans of its own (:meth:`Tracer.span`) around
its phases, which become the parents of the wrapped calls.

A layer's **self time** is its spans' total duration minus the part of
it covered by child spans. The tracing **overhead** is estimated as the
measured cost of one wrapped call times the number of spans recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: (span name, module path, attribute path) of every traced entry point.
#: An attribute path with a dot names a method on a class.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # calibrate
    ("cells.characterize", "repro.core.flow", "DelayCalibrationFlow.characterize"),
    ("core.fit_models", "repro.core.flow", "DelayCalibrationFlow.fit_models"),
    ("spice.simulate", "repro.spice.montecarlo", "MonteCarloEngine.simulate"),
    ("core.nsigma_fit", "repro.core.nsigma_cell", "NSigmaCellModel.fit"),
    ("core.calibration_fit", "repro.core.calibration", "CalibratedCellLibrary.fit"),
    ("core.wire_fit", "repro.core.flow", "fit_wire_model"),
    ("core.correlation", "repro.core.correlation", "estimate_stage_correlation"),
    ("lint.library", "repro.lint", "lint_characterization"),
    ("lint.library", "repro.lint", "lint_nsigma_model"),
    # sta
    ("netlist.build", "repro.netlist.benchmarks", "build_iscas85_like"),
    ("netlist.build", "repro.netlist.benchmarks", "attach_parasitics"),
    ("sta_compiled.design_key", "repro.core.sta_compiled", "design_cache_key"),
    ("sta_compiled.compile", "repro.core.sta_compiled", "compile_design"),
    ("lint.circuit", "repro.lint", "lint_circuit"),
    ("cache.get", "repro.cache", "JsonCache.get"),
    ("cache.put", "repro.cache", "JsonCache.put"),
    ("sta.analyze", "repro.core.sta", "StatisticalSTA.analyze"),
    ("sta_compiled.query", "repro.core.sta_compiled", "CompiledSTA.analyze_batch"),
)


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    width: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; thread-safe, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, width: int = 0) -> Iterator[None]:
        """Record the enclosed block as a span named ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, width))

    def wrap(self, name: str, fn):
        """A wrapper recording each call of ``fn`` as a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            width = 0
            if name == "sta_compiled.query" and len(args) > 1:
                width = len(args[1])
            with tracer.span(name, width):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap every entry point of :data:`ENTRY_POINTS` for its traced wrapper."""
        for name, module_name, attr in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, leaf = attr.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._patched.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        """Restore the original entry points (reverse order)."""
        while self._patched:
            owner, leaf, raw = self._patched.pop()
            setattr(owner, leaf, raw)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = self._child_time()
        out: Dict[str, float] = {}
        for s in self.spans:
            own = max(0.0, s.duration - child_time.get(s.id, 0.0))
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def _child_time(self) -> Dict[int, float]:
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return child_time

    def _under(self, span: Span, phase: str, by_id: Dict[int, Span]) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != phase:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return parent is not None

    def self_time_under(self, name: str, phase: str) -> float:
        """Self time of ``name`` spans that run inside a ``phase`` span."""
        by_id = {s.id: s for s in self.spans}
        child_time = self._child_time()
        return sum(
            max(0.0, s.duration - child_time.get(s.id, 0.0))
            for s in self.spans
            if s.name == name and self._under(s, phase, by_id)
        )

    def total(self, name: str) -> float:
        """Summed duration (children included) of ``name`` spans."""
        return sum(s.duration for s in self.spans if s.name == name)

    def median_ms(self, name: str, width: int, phase: str) -> float:
        """Median duration (ms) of ``name`` spans of one batch width in ``phase``."""
        by_id = {s.id: s for s in self.spans}
        durations = [s.duration for s in self.spans
                     if s.name == name and s.width == width
                     and self._under(s, phase, by_id)]
        return statistics.median(durations) * 1e3 if durations else 0.0

    def write(self, path: Path) -> None:
        """Dump every span as JSON (written once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans]
        ))


SPAN_COST_REPEATS = 20000


def span_cost_s() -> float:
    """Measured extra cost of one traced call over a plain call."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_REPEATS):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_REPEATS):
            traced()
        costs.append((time.perf_counter() - t0 - plain) / SPAN_COST_REPEATS)
    return max(0.0, statistics.median(costs))
