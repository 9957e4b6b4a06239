"""Lightweight performance counters for the simulation stack.

A single :class:`PerfCounters` instance is threaded through the solver,
the Monte-Carlo engine and the flow driver. Counter mutation goes
through :meth:`PerfCounters.incr` (and friends), which batch several
counters under one short lock acquisition — at most one per Newton
iteration, so the overhead is negligible next to one batched linear
solve while keeping concurrent updates (shared-memory publication and
result draining run off the main loop) lossless.

The counters are also the one emission path of the run record:
:meth:`PerfCounters.event` bumps the counters of one happening and, when
a :class:`~repro.journal.RunJournal` is attached (``perf.journal``),
appends its journal line. The journal, the counters and the server's
``/stats`` (which reads :meth:`PerfCounters.to_dict`) therefore cannot
drift apart. The journal never travels with the counters: pickling,
:meth:`~PerfCounters.to_dict`, :meth:`~PerfCounters.merge`, ``==`` and
``repr`` all leave it out, so worker round-trips stay plain data.

What is counted and why it matters:

* ``newton_iterations`` / ``linear_solves`` — the raw work of the
  implicit integrator. With per-sample convergence masking the two
  diverge from the naive ``iterations × batch`` cost.
* ``sample_solves`` vs ``full_sample_solves`` — actual vs unmasked
  sample·solve count; their ratio is the *active-sample fraction*, the
  direct measure of how much the masked kernel saves.
* ``fast_solves`` — steps served by the shared-factorization fast path
  (linear circuits, sample-independent Jacobian).
* ``dc_steps`` / ``dc_early_exits`` — pseudo-transient DC settle cost
  and how often it converges before its step budget.
* ``sta_compiles`` / ``sta_scenarios`` / ``sta_levels`` /
  ``sta_arc_evals`` — work of the compiled STA engine
  (:mod:`repro.core.sta_compiled`): design compiles performed, query
  scenarios served, levelized propagation sweeps, and (scenario × gate
  × pin) timing-arc evaluations. ``sta_arc_evals / wall_s['sta_query']``
  is the engine's headline throughput.
* ``sta_serve_requests`` / ``sta_serve_scenarios`` /
  ``sta_serve_rejects`` / ``sta_serve_deadline_misses`` /
  ``sta_serve_evictions`` / ``sta_serve_design_loads`` — the resident
  STA service (:mod:`repro.serve`): query requests admitted and the
  scenarios they carried, requests refused at admission (full queue or
  invalid input), requests that blew their deadline, tensor banks
  evicted from the registry LRU, and designs (re)compiled or reloaded
  into residency. Exposed live on the server's ``/stats`` endpoint.
* ``cache_hits`` / ``cache_misses`` / ``cache_corrupt`` — artifact-cache
  traffic (:class:`repro.cache.JsonCache`); ``cache_corrupt`` counts
  truncated/unparseable artifacts that were demoted to misses and
  unlinked instead of crashing the run, each one a ``cache_corrupt``
  event that names the file in the journal.
* ``pack_writes`` / ``pack_loads`` / ``pack_verifies`` — packed binary
  artifacts (:mod:`repro.pack`): ``.rpk`` files written, opened by
  ``mmap`` (the zero-copy cold-start path of the design registry and
  the compile cache of :func:`repro.core.sta_compiled.compile_design`),
  and full per-segment sha256
  verification passes.
* ``task_retries`` / ``task_quarantines`` / ``pool_crashes`` — the
  fault-tolerance layer (:mod:`repro.parallel`): attempts re-executed
  after a retryable failure, tasks given up on after exhausting their
  budget, and worker-pool deaths recovered by isolated re-execution.
* ``kernel_ops`` — per-backend primitive invocation counts from
  :mod:`repro.kernels`, keyed ``"<backend>.<primitive>"`` (e.g.
  ``"cnative.solve_stack"``) and counting *sample-primitive* events, so
  backend A/B runs can be compared work-for-work.
* ``points_simulated`` / ``points_predicted`` — characterization grid
  points that ran a real Monte-Carlo simulation vs points filled in by
  the active-learning surrogate (:mod:`repro.surrogate`); their ratio
  is the headline sim-count reduction of surrogate mode.
* ``wall_s`` — wall-clock seconds per named stage (``simulate``,
  ``characterize``, ``fit_models``, ``sta_compile``, ``sta_query``,
  ...), accumulated with :meth:`PerfCounters.timer`.
* ``arc_wall_s`` / ``arc_samples`` — per-arc characterization wall time
  and Monte-Carlo sample counts (:meth:`PerfCounters.add_arc`), so
  benchmarks can attribute speedups to fewer simulations rather than
  kernel variance.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple


#: Every integer counter, in ``to_dict`` order. ``merge``, ``to_dict``
#: and ``from_dict`` loop over this tuple; the module docstring says
#: what each counter means.
COUNTERS: Tuple[str, ...] = (
    "newton_iterations", "linear_solves", "sample_solves",
    "full_sample_solves", "fast_solves", "steps", "dc_steps",
    "dc_early_exits", "simulations",
    "sta_compiles", "sta_scenarios", "sta_levels", "sta_arc_evals",
    "sta_serve_requests", "sta_serve_scenarios", "sta_serve_rejects",
    "sta_serve_deadline_misses", "sta_serve_evictions",
    "sta_serve_design_loads",
    "cache_hits", "cache_misses", "cache_corrupt",
    "pack_writes", "pack_loads", "pack_verifies",
    "task_retries", "task_quarantines", "pool_crashes",
    "points_simulated", "points_predicted",
)
_COUNTER_SET = frozenset(COUNTERS)


@dataclass
class PerfCounters:
    """Accumulating performance counters (cheap to update, mergeable).

    The integer counters of :data:`COUNTERS` live in one dict. They
    read as attributes (``perf.sta_levels``) but have no setter:
    :meth:`incr` and :meth:`event` are the only ways to write one.
    ``journal`` is the optional :class:`~repro.journal.RunJournal`
    that :meth:`event` appends to.
    """

    wall_s: Dict[str, float] = field(default_factory=dict)
    kernel_ops: Dict[str, int] = field(default_factory=dict)
    arc_wall_s: Dict[str, float] = field(default_factory=dict)
    arc_samples: Dict[str, int] = field(default_factory=dict)
    _counts: Dict[str, int] = field(
        init=False, repr=False, default_factory=lambda: dict.fromkeys(COUNTERS, 0)
    )
    journal: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getattr__(self, name: str) -> int:
        # Only reached when normal lookup fails, i.e. for counter names.
        try:
            return self.__dict__["_counts"][name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def __setattr__(self, name: str, value) -> None:
        if name in _COUNTER_SET:
            raise AttributeError(
                f"counter {name!r} has no setter; use PerfCounters.incr"
            )
        super().__setattr__(name, value)

    # Locks don't pickle; recreate one on the receiving side (worker
    # round-trips serialize counters between processes). The journal
    # (an open file) stays with the process that attached it.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("journal", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self.journal = None

    # ------------------------------------------------------------------
    def incr(self, **counts: int) -> None:
        """Atomically add to several integer counters at once.

        ``perf.incr(newton_iterations=1, sample_solves=n)`` is the
        only mutation path for the counters of :data:`COUNTERS`: one
        lock acquisition per call, so concurrent accumulation (e.g.
        the shared-memory publisher thread next to the solver loop)
        never loses updates the way a read-modify-write outside the
        lock could. An unknown name raises ``AttributeError``.
        """
        with self._lock:
            c = self._counts
            try:
                for name, n in counts.items():
                    c[name] += n
            except KeyError as exc:
                raise AttributeError(
                    f"unknown perf counter {exc.args[0]!r}"
                ) from None

    def event(
        self, name: str, counts: Optional[Mapping[str, int]] = None, /,
        **fields: Any,
    ) -> None:
        """Record one happening: bump ``counts``, then journal ``name``.

        ``counts`` are added under the lock exactly as :meth:`incr`
        adds them (no lock is taken when there are none); the journal
        line ``name`` with ``fields`` is appended afterwards, outside
        the lock, when a journal is attached.
        """
        if counts:
            self.incr(**counts)
        journal = self.journal
        if journal is not None:
            journal.event(name, **fields)

    def add_kernel_op(self, backend: str, primitive: str, n: int = 1) -> None:
        """Count ``n`` sample-primitive events for ``backend.primitive``."""
        key = f"{backend}.{primitive}"
        with self._lock:
            self.kernel_ops[key] = self.kernel_ops.get(key, 0) + n

    def add_arc(self, arc: str, wall_s: float = 0.0, samples: int = 0) -> None:
        """Attribute characterization wall time and MC samples to one arc.

        ``arc`` is the ``cell/pin/edge`` label; benchmarks use the
        per-arc attribution to separate genuine sim-count reductions
        (fewer grid points simulated) from kernel-speed variance.
        """
        with self._lock:
            self.arc_wall_s[arc] = self.arc_wall_s.get(arc, 0.0) + wall_s
            self.arc_samples[arc] = self.arc_samples.get(arc, 0) + samples

    # ------------------------------------------------------------------
    @property
    def active_sample_fraction(self) -> float:
        """Fraction of sample·solves actually performed vs the unmasked cost.

        1.0 means no masking benefit; 0.4 means 60 % of the per-sample
        Newton work was skipped because those samples had converged.
        """
        if self.full_sample_solves == 0:
            return 1.0
        return self.sample_solves / self.full_sample_solves

    def add_wall(self, stage: str, seconds: float) -> None:
        """Accumulate wall time under a stage label."""
        with self._lock:
            self.wall_s[stage] = self.wall_s.get(stage, 0.0) + seconds

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Context manager accumulating the enclosed wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_wall(stage, time.perf_counter() - t0)

    # ------------------------------------------------------------------
    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold another counter set (e.g. from a worker process) into this one."""
        self.incr(**other._counts)
        for stage, seconds in other.wall_s.items():
            self.add_wall(stage, seconds)
        for arc, seconds in other.arc_wall_s.items():
            self.add_arc(arc, wall_s=seconds)
        for arc, samples in other.arc_samples.items():
            self.add_arc(arc, samples=samples)
        with self._lock:
            for key, n in other.kernel_ops.items():
                self.kernel_ops[key] = self.kernel_ops.get(key, 0) + n
        return self

    def to_dict(self) -> dict:
        """JSON-ready dump (counters + derived active-sample fraction)."""
        out: dict = {}
        for name in COUNTERS:
            out[name] = self._counts[name]
            if name == "full_sample_solves":
                out["active_sample_fraction"] = round(self.active_sample_fraction, 4)
        out.update({
            "wall_s": {k: round(v, 4) for k, v in self.wall_s.items()},
            "kernel_ops": dict(sorted(self.kernel_ops.items())),
            "arc_wall_s": {
                k: round(v, 4) for k, v in sorted(self.arc_wall_s.items())
            },
            "arc_samples": dict(sorted(self.arc_samples.items())),
        })
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PerfCounters":
        """Rebuild counters from :meth:`to_dict` output (worker round-trip)."""
        out = cls()
        out.incr(**{name: int(data.get(name, 0)) for name in COUNTERS})
        out.wall_s = {k: float(v) for k, v in data.get("wall_s", {}).items()}
        out.kernel_ops = {k: int(v) for k, v in data.get("kernel_ops", {}).items()}
        out.arc_wall_s = {k: float(v) for k, v in data.get("arc_wall_s", {}).items()}
        out.arc_samples = {k: int(v) for k, v in data.get("arc_samples", {}).items()}
        return out

    def summary(self) -> str:
        """Human-readable one-paragraph summary for CLI output."""
        lines = [
            f"simulations: {self.simulations}  transient steps: {self.steps}  "
            f"dc steps: {self.dc_steps} ({self.dc_early_exits} early exits)",
            f"newton iterations: {self.newton_iterations}  "
            f"linear solves: {self.linear_solves} "
            f"({self.fast_solves} fast-path)  "
            f"active-sample fraction: {self.active_sample_fraction:.2f}",
        ]
        if self.cache_hits or self.cache_misses or self.cache_corrupt:
            lines.append(
                f"cache: {self.cache_hits} hits  {self.cache_misses} misses  "
                f"{self.cache_corrupt} corrupt"
            )
        if self.pack_writes or self.pack_loads or self.pack_verifies:
            lines.append(
                f"packs: {self.pack_writes} written  "
                f"{self.pack_loads} mmap-loaded  "
                f"{self.pack_verifies} digest-verified"
            )
        if self.task_retries or self.task_quarantines or self.pool_crashes:
            lines.append(
                f"fault tolerance: {self.task_retries} retries  "
                f"{self.task_quarantines} quarantined  "
                f"{self.pool_crashes} pool crashes recovered"
            )
        if self.sta_scenarios or self.sta_compiles:
            lines.append(
                f"sta: {self.sta_compiles} compiles  "
                f"{self.sta_scenarios} scenarios  "
                f"{self.sta_levels} level sweeps  "
                f"{self.sta_arc_evals} arc evals"
            )
        if self.sta_serve_requests or self.sta_serve_rejects:
            lines.append(
                f"serve: {self.sta_serve_requests} requests  "
                f"{self.sta_serve_scenarios} scenarios  "
                f"{self.sta_serve_rejects} rejected  "
                f"{self.sta_serve_deadline_misses} deadline misses  "
                f"{self.sta_serve_design_loads} design loads  "
                f"{self.sta_serve_evictions} evictions"
            )
        if self.points_simulated or self.points_predicted:
            total = self.points_simulated + self.points_predicted
            lines.append(
                f"surrogate: {self.points_simulated} grid points simulated  "
                f"{self.points_predicted} predicted "
                f"({total} total)"
            )
        if self.arc_wall_s:
            lines.append(
                f"arcs characterized: {len(self.arc_wall_s)}  "
                f"slowest: "
                + "  ".join(
                    f"{arc}={seconds:.2f}s"
                    for arc, seconds in sorted(
                        self.arc_wall_s.items(), key=lambda kv: -kv[1]
                    )[:3]
                )
            )
        if self.kernel_ops:
            ops = "  ".join(
                f"{k}={v}" for k, v in sorted(self.kernel_ops.items())
            )
            lines.append(f"kernel ops: {ops}")
        if self.wall_s:
            stages = "  ".join(f"{k}={v:.2f}s" for k, v in sorted(self.wall_s.items()))
            lines.append(f"wall time: {stages}")
        return "\n".join(lines)
