"""Structured JSONL run journal for long batch jobs.

Characterization runs are hours of independent Monte-Carlo tasks; when
one is interrupted, resumed, or partially degraded, the operator needs
a faithful record of *what actually happened*: which tasks ran, which
were retried and why, which were quarantined, what was restored from a
checkpoint, and how the perf counters evolved. :class:`RunJournal`
appends one JSON object per line to a journal file as events occur, so
a killed process leaves a readable prefix rather than a corrupt blob.

Code does not write to a journal directly. A journal is attached to the
run's :class:`~repro.perf.PerfCounters` (``perf.journal``), and every
happening goes through one call, :meth:`PerfCounters.event
<repro.perf.PerfCounters.event>`, which bumps the happening's counters
and appends its line here. The journal, the counters and the server's
``/stats`` are three views of the same calls.

Event vocabulary (the ``event`` field):

``run_start`` / ``run_finish``
    Run bracket. ``run_start`` records the configuration (seed, worker
    count, retry policy); ``run_finish`` records the outcome status
    (``ok`` / ``error``) and totals. A journal with a ``run_start``
    and no matching ``run_finish`` is an interrupted run — a resume
    candidate (lint rule RUN003).
``task_start`` / ``task_finish`` / ``task_retry`` / ``task_quarantine``
    Per-task lifecycle from :func:`repro.parallel.parallel_map`.
    Retries carry the attempt number and the error; quarantines carry
    the full structured diagnostic (lint rule RUN001 surfaces them).
``pool_crash``
    A worker process died (OOM kill, ``os._exit``); the named tasks
    were re-executed in isolation instead of aborting the run.
``timeout_unsupported``
    A ``task_timeout`` was requested but cannot be enforced on this
    platform (no ``SIGALRM``); attempts ran unbounded.
``checkpoint`` / ``checkpoint_restore``
    An arc table was persisted to / restored from the artifact cache.
``cache_corrupt``
    A cached artifact (:class:`repro.cache.JsonCache`: an arc
    checkpoint, the flow's characterization or model bundle, a compile
    pack) failed to parse or validate and was unlinked (demoted to a
    miss); carries the ``path`` and the ``error``.
``pack_write`` / ``pack_load`` / ``pack_verify``
    Packed binary artifacts (:mod:`repro.pack`): an ``.rpk`` written
    (path, kind, size, segment count), one opened by ``mmap`` (with its
    content identity), and a full per-segment sha256 verification pass
    with its outcome — ``pack_verify`` with ``ok: false`` is the audit
    trace of a corrupt or stale pack being refused.
``perf_snapshot``
    A :class:`~repro.perf.PerfCounters` dump at a flow stage boundary
    (includes per-arc wall time / sample attribution when available).
``surrogate_fit`` / ``acquisition`` / ``surrogate_fallback``
    Active-learning surrogate characterization
    (:mod:`repro.surrogate`): one ``surrogate_fit`` per GP refit round
    with the per-statistic predicted standard errors, one
    ``acquisition`` per batch of chosen grid points, and a
    ``surrogate_fallback`` when an arc reverts to dense simulation
    (cross-validation breach or a grid too small to save anything).
``serve_listen`` / ``serve_shutdown``
    Resident STA service bracket (:mod:`repro.serve`): endpoints the
    server bound at startup, and the totals at shutdown.
``serve_design_load`` / ``serve_evict``
    Design-registry lifecycle: a design compiled (or reloaded from the
    compile cache) into residency with its content key and tensor-bank
    byte size, and a resident design dropped by the bytes-budgeted LRU.
``serve_admit`` / ``serve_start`` / ``serve_finish`` / ``serve_reject``
    Per-request audit trail: admission into the bounded queue, query
    execution start, completion (with status ``ok`` / ``deadline`` /
    ``error`` and wall time), and refusal at the door (full queue,
    lint-rejected input, unknown design) with the reject reason.

Timestamps are **monotonic offsets** from journal creation (``t_s``),
not wall-clock datetimes: the journal must never leak irreproducible
state into artifacts, and offsets are what post-mortems actually use.

Every record carries a monotonically increasing ``seq`` so truncation
and interleaving are detectable (lint rule RUN002).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

#: Run-bracket events; each carries the journal's ``run_id``.
RUN_BRACKET = frozenset({"run_start", "run_finish"})

#: Known event names (lint flags anything else as RUN002).
KNOWN_EVENTS = frozenset({
    "run_start",
    "run_finish",
    "task_start",
    "task_finish",
    "task_retry",
    "task_quarantine",
    "arc_quarantine",
    "pool_crash",
    "timeout_unsupported",
    "checkpoint",
    "checkpoint_restore",
    "cache_corrupt",
    "pack_write",
    "pack_load",
    "pack_verify",
    "perf_snapshot",
    "surrogate_fit",
    "acquisition",
    "surrogate_fallback",
    "serve_listen",
    "serve_shutdown",
    "serve_design_load",
    "serve_evict",
    "serve_admit",
    "serve_start",
    "serve_finish",
    "serve_reject",
    "note",
})


class RunJournal:
    """Append-only JSONL event log of one (or several stacked) runs.

    Parameters
    ----------
    path:
        Journal file; created (with parents) on first use and opened in
        append mode, so an interrupted run's journal survives and the
        resume run's events stack after it.
    run_id:
        Free-form identifier written into every ``run_start`` and
        ``run_finish`` event (e.g. the flow cache key); purely
        informational.
    """

    def __init__(self, path: Union[str, Path], run_id: str = ""):
        self.path = Path(path)
        self.run_id = run_id
        self.seq = 0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[TextIO] = self.path.open("a")

    # ------------------------------------------------------------------
    def event(self, name: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record (flushed immediately) and return it.

        Thread-safe: ``seq`` assignment and the write+flush happen under
        one lock, so concurrent writers (the serving event loop and its
        worker threads) can never interleave lines or duplicate sequence
        numbers — lint rule RUN002 depends on both.
        """
        with self._lock:
            record: Dict[str, Any] = {
                "seq": self.seq,
                "t_s": round(time.perf_counter() - self._t0, 6),
                "event": name,
            }
            if name in RUN_BRACKET:
                record["run_id"] = self.run_id
            record.update(fields)
            if self._fh is None:
                raise ValueError(f"journal {self.path} is closed")
            self._fh.write(
                json.dumps(record, sort_keys=False, default=repr) + "\n"
            )
            self._fh.flush()
            self.seq += 1
            return record

    def run_start(self, **config: Any) -> Dict[str, Any]:
        """Emit the run bracket opener with the run configuration."""
        return self.event("run_start", **config)

    def run_finish(self, status: str = "ok", **totals: Any) -> Dict[str, Any]:
        """Emit the run bracket closer (``status``: ``ok`` / ``error``)."""
        return self.event("run_finish", status=status, **totals)

    def perf_snapshot(self, counters, stage: str = "") -> Dict[str, Any]:
        """Emit a :class:`~repro.perf.PerfCounters` snapshot."""
        return self.event("perf_snapshot", stage=stage, counters=counters.to_dict())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying file (further events raise)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunJournal({str(self.path)!r}, seq={self.seq})"


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a journal file into a list of event dicts.

    Raises ``ValueError`` naming the offending line on corrupt input;
    use :func:`repro.lint.lint_journal` for a diagnosing, non-raising
    validation pass.
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: corrupt journal line: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: journal record is not an object")
            events.append(record)
    return events
