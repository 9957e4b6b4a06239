"""Fault-tolerant work-queue executor for independent simulation tasks.

Every expensive loop in the reproduction — the slew×load
characterization grid, golden path Monte-Carlo over many paths, wire
sweeps — is a map over *independent* tasks. :func:`parallel_map` fans
such maps out over a process pool while keeping four guarantees:

* **serial fallback** — ``workers=1`` (the default) runs a plain loop
  in-process: no pool is spawned, no pickling happens, and the code
  path is byte-for-byte the sequential one;
* **determinism** — results are returned in task order regardless of
  completion order, and callers derive per-task RNG seeds with
  :func:`task_seed`, so a parallel run is bit-identical to a serial
  run of the same task list. Retries re-run the *same* task with the
  *same* seed, so a retried result is bit-identical to a first-attempt
  result;
* **fault tolerance** — a :class:`RetryPolicy` gives each task a
  bounded retry budget with backoff and an optional per-attempt
  timeout; a worker process that dies (OOM kill, ``os._exit``) breaks
  only its own chunk, which is re-executed — escalating to an isolated
  single-worker pool — instead of raising ``BrokenProcessPool`` away
  the entire run. Results completed before the crash are kept, not
  recomputed;
* **no oversubscription** — the pool size is capped by the task count.

Tasks that still fail after retries either propagate their original
exception (default) or, when the caller passes a ``quarantine`` sink,
are recorded as :class:`QuarantinedTask` diagnostics with ``None`` in
their result slot so the rest of the run survives.

The worker count comes from the ``REPRO_WORKERS`` environment variable
when not given explicitly (``0`` or ``auto`` → one worker per CPU).

Large read-only payloads shared by many tasks (technology, variation
model, cell templates) can be published once per fan-out through a
:class:`SharedPayloadBank`; tasks then carry a ~100-byte
:class:`SharedPayloadHandle` instead of a multi-kilobyte pickle each.
The parent owns every bank and unlinks it when the map finishes — on
success, quarantine and pool-crash paths alike.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import signal
import threading
import time
import traceback as traceback_mod
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ExecutionError, TaskTimeoutError
from repro.perf import PerfCounters

#: Environment variable consulted when ``workers`` is not passed explicitly.
WORKERS_ENV = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Priority: explicit argument, then ``REPRO_WORKERS``, then 1 (serial).
    ``0``, negative values and the string ``"auto"`` mean "one worker per
    available CPU".
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return 1
        if raw == "auto":
            workers = 0
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer or 'auto', got {raw!r}"
                ) from None
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def task_seed(*parts) -> int:
    """Derive a stable 63-bit seed from a master seed plus task identity.

    Uses SHA-256 over the ``repr`` of the parts, so the value is
    reproducible across processes and Python invocations (unlike
    ``hash()``, which is salted). Tasks seeded this way are independent
    of execution order — the cornerstone of parallel/serial bit-equality
    *and* of retry/resume bit-equality: a retried or resumed task
    derives the exact same seed as its first attempt.
    """
    payload = repr(tuple(parts)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ----------------------------------------------------------------------
# Shared-memory payload publication
# ----------------------------------------------------------------------
#: Prefix of every shared-memory segment this module creates; the
#: failure-injection leak checks scan ``/dev/shm`` for it.
SHM_PREFIX = "repro_"

_bank_counter = itertools.count()

#: Worker-local cache of deserialized payloads, keyed by segment name.
#: Sharing the deserialized object across tasks of one worker matches
#: serial semantics, where every task dict references the same objects.
_attached_payloads: Dict[str, Any] = {}
_ATTACH_CACHE_MAX = 8


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker tracking.

    Only the *creating* process may own a segment's tracker
    registration: before 3.13, plain attachment registers it again, and
    an attach-side registration lets any worker's cleanup (or an
    explicit unregister) strip the parent's entry — spamming tracker
    ``KeyError`` noise or unlinking memory still in use. Python 3.13+
    has ``track=False`` for exactly this; earlier versions need the
    registration suppressed around the constructor call.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


@dataclass(frozen=True)
class SharedPayloadHandle:
    """Picklable pointer to a payload published in shared memory.

    ``load()`` attaches to the segment, deserializes the payload (cached
    per worker process, so a worker running many tasks of one arc
    unpickles once) and detaches immediately — workers never hold the
    segment open between tasks, so a worker killed mid-run cannot pin
    the memory.

    A *pack-backed* handle (``pack_path`` set) carries no segment at
    all: the payload already lives in a mmap-able ``.rpk``
    (:mod:`repro.pack`), so workers attach by mapping the file — the
    kernel shares one page-cache copy across every process — after
    checking the pack's content identity against ``pack_identity``.
    """

    name: str
    size: int
    pack_path: Optional[str] = None
    pack_identity: str = ""

    def __getstate__(self):
        # Handles ride inside every task pickle; drop default-valued
        # pack fields so segment-backed handles stay pointer-sized.
        state = {"name": self.name, "size": self.size}
        if self.pack_path is not None:
            state["pack_path"] = self.pack_path
            state["pack_identity"] = self.pack_identity
        return state

    def __setstate__(self, state):
        for field_name in ("name", "size", "pack_path", "pack_identity"):
            default = None if field_name == "pack_path" else ""
            object.__setattr__(
                self, field_name,
                state.get(field_name, 0 if field_name == "size" else default))

    def load(self) -> Any:
        cache_key = self.name if self.pack_path is None else f"pack:{self.pack_path}"
        if cache_key in _attached_payloads:
            return _attached_payloads[cache_key]
        if self.pack_path is not None:
            from repro.pack import PackError, PackFile, load_pack_payload

            try:
                pack = PackFile.open(self.pack_path, verify=False)
                identity = pack.identity()
                pack.close()
                if self.pack_identity and identity != self.pack_identity:
                    raise PackError(
                        f"{self.pack_path}: pack identity {identity} does "
                        f"not match the published {self.pack_identity} "
                        f"(file replaced since publication)",
                        code="stale",
                    )
                payload = load_pack_payload(self.pack_path, verify=True)
            except PackError as exc:
                raise ExecutionError(
                    f"shared pack payload unusable: {exc}"
                ) from exc
        else:
            shm = _attach_untracked(self.name)
            try:
                payload = pickle.loads(bytes(shm.buf[: self.size]))
            finally:
                shm.close()
        while len(_attached_payloads) >= _ATTACH_CACHE_MAX:
            _attached_payloads.pop(next(iter(_attached_payloads)))
        _attached_payloads[cache_key] = payload
        return payload


class SharedPayloadBank:
    """One read-only pickled payload published in POSIX shared memory.

    Without sharing, a pooled fan-out pickles the identical multi-
    kilobyte payload (technology, variation model, cell template) into
    every task message. A bank publishes it once; tasks carry only the
    :class:`SharedPayloadHandle`.

    Lifecycle contract: the *creating* process owns the segment and must
    call :meth:`close` (idempotent) when the fan-out finishes —
    completion, quarantine and pool-crash paths alike; callers wrap the
    map in ``try/finally``. Unlinking while workers are still attached
    is safe: POSIX removes the name immediately and frees the memory on
    the last detach.

    **Pack short-circuit**: a payload whose ``pack`` attribute holds an
    open :class:`repro.pack.PackFile` (e.g. a library characterization
    loaded from ``.rpk``) is *not* copied into shared memory at all —
    the handle points workers at the pack file itself, pinned by its
    content identity, and :meth:`close` has nothing to unlink. The
    mmap'd pages are already the shared, zero-copy representation.
    """

    def __init__(self, payload: Any):
        from multiprocessing import shared_memory

        pack = getattr(payload, "pack", None)
        pack_path = getattr(pack, "path", None)
        if pack_path is not None and Path(pack_path).exists():
            self._shm = None
            self._closed = False
            self.handle = SharedPayloadHandle(
                name="",
                size=0,
                pack_path=str(pack_path),
                pack_identity=pack.identity(),
            )
            return
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        shm = None
        for _ in range(8):
            name = f"{SHM_PREFIX}{os.getpid()}_{next(_bank_counter)}_{os.urandom(3).hex()}"
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, len(data)), name=name
                )
                break
            except FileExistsError:  # pragma: no cover - astronomically rare
                continue
        if shm is None:  # pragma: no cover
            raise ExecutionError("could not allocate a unique shared-memory name")
        shm.buf[: len(data)] = data
        self._shm = shm
        self._closed = False
        self.handle = SharedPayloadHandle(name=name, size=len(data))

    @classmethod
    def publish(cls, payload: Any) -> Optional["SharedPayloadBank"]:
        """Create a bank, or ``None`` when shared memory is unusable.

        Callers fall back to inlining the payload into each task — the
        fan-out still works, it just pickles more.
        """
        try:
            return cls(payload)
        except ExecutionError:  # pragma: no cover
            raise
        except Exception:
            return None

    def close(self) -> None:
        """Release and unlink the segment (idempotent; no-op for packs)."""
        if self._closed:
            return
        self._closed = True
        if self._shm is None:
            return
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - buffer already released
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced with tracker
            pass

    def __enter__(self) -> "SharedPayloadBank":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Retry policy and failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-task retry budget with backoff and optional timeout.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first failure (0 = fail immediately).
    backoff_s / backoff_factor / backoff_max_s:
        Sleep before retry ``k`` (1-based) is
        ``min(backoff_s * backoff_factor**(k-1), backoff_max_s)`` —
        bounded exponential. Backoff only delays; it never changes
        results (retries reuse the task's own seed).
    task_timeout:
        Optional per-*attempt* wall-clock budget in seconds, enforced
        with ``SIGALRM`` in the executing process (worker processes run
        tasks on their main thread, so this works identically in pooled
        and serial mode). A timed-out attempt raises
        :class:`~repro.errors.TaskTimeoutError` and is retried like any
        other failure. Unenforceable off the main thread (then attempts
        simply run to completion).
    """

    max_retries: int = 0
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    task_timeout: Optional[float] = None

    def backoff(self, retry: int) -> float:
        """Sleep duration before the ``retry``-th re-attempt (1-based)."""
        return min(self.backoff_s * self.backoff_factor ** (retry - 1), self.backoff_max_s)


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt of one task (structured, JSON-ready)."""

    attempt: int
    error_type: str
    message: str
    traceback: str = ""

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class QuarantinedTask:
    """A task given up on after exhausting its retry budget.

    Carries everything an operator needs to reproduce the failure:
    the task index and label, how many attempts were made, the failure
    history, and the worker-death count.
    """

    index: int
    label: str
    attempts: int
    failures: List[TaskFailure] = field(default_factory=list)
    pool_crashes: int = 0

    @property
    def error_type(self) -> str:
        return self.failures[-1].error_type if self.failures else "WorkerDeath"

    @property
    def message(self) -> str:
        if self.failures:
            return self.failures[-1].message
        return "worker process died while executing the task"

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "pool_crashes": self.pool_crashes,
            "failures": [f.as_dict() for f in self.failures],
        }


@dataclass
class _Outcome:
    """Internal per-task completion record (envelope decoded in parent)."""

    index: int
    ok: bool
    result: Any = None
    attempts: int = 1
    failures: List[TaskFailure] = field(default_factory=list)
    error: Optional[BaseException] = None
    wall_s: float = 0.0
    pool_crashes: int = 0


# ----------------------------------------------------------------------
# Worker-side attempt loop (module-level so it pickles)
# ----------------------------------------------------------------------
def _alarm_handler(signum, frame):  # pragma: no cover - fires only on timeout
    raise TaskTimeoutError("task attempt exceeded its time budget")


_timeout_unsupported_warned = False
_timeout_warn_lock = threading.Lock()


def _warn_timeout_unbounded() -> None:
    """One ``RuntimeWarning`` per process: attempts run unbounded."""
    global _timeout_unsupported_warned
    with _timeout_warn_lock:
        if _timeout_unsupported_warned:
            return
        _timeout_unsupported_warned = True
    warnings.warn(
        "task_timeout requested but cannot be enforced here "
        "(SIGALRM unavailable or attempt off the main thread); "
        "attempts run unbounded",
        RuntimeWarning,
        stacklevel=3,
    )


def _call_with_timeout(fn: Callable[[T], R], task: T, timeout: Optional[float]) -> R:
    """Run one attempt, bounded by ``timeout`` seconds when enforceable.

    When a timeout was requested but cannot be enforced — no ``SIGALRM``
    on this platform, or the attempt runs off the main thread (server
    worker threads dispatching queries, thread-pooled design loads) —
    the attempt degrades to running unbounded, with a one-time
    ``RuntimeWarning`` per process so the degradation is visible instead
    of silent. The thread check is a fast path, not the authority:
    ``signal.signal`` itself refuses with ``ValueError`` outside the
    main thread of the main interpreter (embedded interpreters and
    forked servers can disagree with ``threading.main_thread()``), and
    that refusal takes the same loud degradation path instead of
    crashing the attempt.
    """
    if not timeout:
        return fn(task)
    if threading.current_thread() is not threading.main_thread() \
            or not hasattr(signal, "SIGALRM"):
        _warn_timeout_unbounded()
        return fn(task)
    try:
        old = signal.signal(signal.SIGALRM, _alarm_handler)
    except ValueError:
        _warn_timeout_unbounded()
        return fn(task)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(task)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


class _AttemptLoop:
    """Picklable wrapper running ``fn`` with the retry policy.

    Returns an *envelope* dict instead of raising, so one misbehaving
    task can never poison the pool result channel; the parent decodes
    envelopes into outcomes. ``KeyboardInterrupt`` and ``SystemExit``
    are never swallowed.
    """

    def __init__(self, fn: Callable[[T], R], policy: RetryPolicy):
        self.fn = fn
        self.policy = policy

    def __call__(self, task: T) -> dict:
        t0 = time.perf_counter()
        failures: List[dict] = []
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.policy.max_retries + 2):
            try:
                result = _call_with_timeout(self.fn, task, self.policy.task_timeout)
                return {
                    "ok": True,
                    "result": result,
                    "attempts": attempt,
                    "failures": failures,
                    "wall_s": time.perf_counter() - t0,
                }
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                last_exc = exc
                failures.append(
                    {
                        "attempt": attempt,
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback_mod.format_exc(),
                    }
                )
                if attempt <= self.policy.max_retries:
                    time.sleep(self.policy.backoff(attempt))
        # Ship the exception object when it pickles (so the parent can
        # re-raise the genuine type); fall back to the text record.
        try:
            pickle.dumps(last_exc)
        except Exception:
            last_exc = None
        return {
            "ok": False,
            "error": last_exc,
            "attempts": self.policy.max_retries + 1,
            "failures": failures,
            "wall_s": time.perf_counter() - t0,
        }


def _run_chunk(loop: _AttemptLoop, chunk: List[T]) -> List[dict]:
    """Execute one pickled work unit: a list of tasks through the loop."""
    return [loop(task) for task in chunk]


def _decode(index: int, env: dict) -> _Outcome:
    """Envelope → outcome (parent side)."""
    return _Outcome(
        index=index,
        ok=env["ok"],
        result=env.get("result"),
        attempts=env["attempts"],
        failures=[TaskFailure(**f) for f in env["failures"]],
        error=env.get("error"),
        wall_s=env["wall_s"],
    )


# ----------------------------------------------------------------------
# Execution strategies
# ----------------------------------------------------------------------
def _run_serial(
    loop: _AttemptLoop,
    tasks: Sequence[T],
    indices: Sequence[int],
    emit: Callable[[_Outcome], None],
    on_start: Callable[[List[int]], None],
) -> None:
    for index, task in zip(indices, tasks):
        on_start([index])
        emit(_decode(index, loop(task)))


def _run_pooled(
    loop: _AttemptLoop,
    tasks: Sequence[T],
    workers: int,
    chunksize: int,
    emit: Callable[[_Outcome], None],
    on_pool_crash: Callable[[List[int], int], None],
    on_start: Callable[[List[int]], None],
) -> None:
    """Fan chunks out over a pool, recovering from dead workers.

    A ``BrokenProcessPool`` kills every in-flight and pending future of
    that pool, but *completed* futures keep their results — those are
    never recomputed. Lost chunks escalate: a first loss resubmits to a
    fresh full-width pool split into single-task chunks (only the
    poison task pays the isolation cost, innocents that merely shared
    the dead pool stay parallel); a second loss re-runs alone in a
    one-worker pool; a task whose chunk was lost three times is
    reported as failed with :class:`~repro.errors.ExecutionError`
    rather than crashing the run. Batches are homogeneous in crash
    level, so recovery rounds never throttle healthy work.
    """
    n = len(tasks)
    pending: List[Tuple[List[int], int]] = [
        (list(range(i, min(i + chunksize, n))), 0) for i in range(0, n, chunksize)
    ]
    while pending:
        level = min(crashes for _, crashes in pending)
        batch = [item for item in pending if item[1] == level]
        pending = [item for item in pending if item[1] != level]
        lost: List[Tuple[List[int], int]] = []
        if level >= 2:
            # Full isolation: one fresh single-worker pool per chunk, so
            # a poison task can no longer take queued innocents with it.
            for idxs, crashes in batch:
                on_start(idxs)
                try:
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        envelopes = pool.submit(
                            _run_chunk, loop, [tasks[i] for i in idxs]
                        ).result()
                    for i, env in zip(idxs, envelopes):
                        emit(_decode(i, env))
                except BrokenProcessPool:
                    lost.append((idxs, crashes + 1))
        else:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(batch))
                ) as pool:
                    futures = {}
                    try:
                        for idxs, crashes in batch:
                            on_start(idxs)
                            fut = pool.submit(
                                _run_chunk, loop, [tasks[i] for i in idxs]
                            )
                            futures[fut] = (idxs, crashes)
                    except BrokenProcessPool:
                        # Pool died while submitting: everything not yet
                        # submitted is simply still pending at its level.
                        submitted = {id(v) for v in futures.values()}
                        pending.extend(
                            item for item in batch if id(item) not in submitted
                        )
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                        for fut in done:
                            idxs, crashes = futures[fut]
                            try:
                                envelopes = fut.result()
                            except BrokenProcessPool:
                                lost.append((idxs, crashes + 1))
                                continue
                            for i, env in zip(idxs, envelopes):
                                emit(_decode(i, env))
            except BrokenProcessPool:  # pragma: no cover - raised at pool exit
                pass
        if lost:
            # One observability event per pool death, not per lost chunk.
            on_pool_crash(
                sorted(i for idxs, _ in lost for i in idxs),
                max(crashes for _, crashes in lost),
            )
        for idxs, crashes in lost:
            if crashes >= 3:
                # Lost to dead workers three times: give up on the task.
                for i in idxs:
                    emit(_Outcome(index=i, ok=False, pool_crashes=crashes))
            elif len(idxs) > 1:
                # Isolate the poison task: split into single-task chunks.
                pending.extend(([i], crashes) for i in idxs)
            else:
                pending.append((idxs, crashes))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: Optional[int] = None,
    chunksize: int = 1,
    policy: Optional[RetryPolicy] = None,
    quarantine: Optional[List[QuarantinedTask]] = None,
    labels: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
    perf=None,
) -> List[R]:
    """Map ``fn`` over ``tasks``, optionally across a process pool.

    Parameters
    ----------
    fn:
        A module-level (picklable) function of one task.
    tasks:
        The task list; results come back in the same order.
    workers:
        Worker count (see :func:`resolve_workers`). With one worker —
        the default — the map runs serially in-process and no pool is
        created.
    chunksize:
        Tasks per pickled work unit; raise above 1 only for very many
        very cheap tasks.
    policy:
        :class:`RetryPolicy` for per-task retries/timeout (default: no
        retries, no timeout). Retries reuse the task unchanged —
        including any embedded :func:`task_seed` — so results stay
        bit-identical whether or not a retry happened.
    quarantine:
        When given, a task that fails after all retries is appended to
        this list as a :class:`QuarantinedTask` and its result slot is
        ``None``, instead of raising. When ``None`` (the default) the
        first failed task's exception propagates (in task order), with
        :class:`~repro.errors.ExecutionError` standing in for worker
        deaths and unpicklable exceptions.
    labels:
        Optional per-task labels used in journal events and
        quarantine records (default: the task index).
    on_result:
        Optional callback ``(index, result)`` invoked in the parent as
        each task *succeeds* — in completion order, which is arbitrary
        under a pool. Checkpointing hooks (e.g. persisting a finished
        arc) live here.
    perf:
        Optional :class:`~repro.perf.PerfCounters` receiving the
        ``task_start`` / ``task_finish`` / ``task_retry`` /
        ``task_quarantine`` / ``pool_crash`` events as tasks are
        dispatched and complete (a task re-dispatched after a worker
        death gets a second ``task_start``): they count
        ``task_retries`` / ``task_quarantines`` / ``pool_crashes`` and
        are journaled when a journal is attached.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers)
    policy = policy or RetryPolicy()
    perf = perf if perf is not None else PerfCounters()
    if (
        policy.task_timeout
        and not hasattr(signal, "SIGALRM")
    ):  # pragma: no cover - exercised via monkeypatched signal module
        perf.event(
            "timeout_unsupported",
            detail="SIGALRM unavailable; task_timeout attempts run unbounded",
        )
    loop = _AttemptLoop(fn, policy)
    outcomes: List[Optional[_Outcome]] = [None] * len(tasks)

    def label_of(i: int) -> str:
        return labels[i] if labels is not None else str(i)

    def emit(outcome: _Outcome) -> None:
        outcomes[outcome.index] = outcome
        i = outcome.index
        # Every failed attempt but a quarantined task's last was retried.
        for f in outcome.failures:
            if f.attempt <= policy.max_retries:
                perf.event(
                    "task_retry", {"task_retries": 1}, task=i,
                    label=label_of(i), attempt=f.attempt,
                    error_type=f.error_type, message=f.message,
                )
        if outcome.ok:
            perf.event(
                "task_finish", task=i, label=label_of(i),
                attempts=outcome.attempts, wall_s=round(outcome.wall_s, 6),
            )
        if outcome.ok and on_result is not None:
            on_result(i, outcome.result)

    def on_pool_crash(idxs: List[int], crashes: int) -> None:
        perf.event(
            "pool_crash", {"pool_crashes": 1}, tasks=idxs,
            labels=[label_of(i) for i in idxs], crash_count=crashes,
        )

    def on_start(idxs: List[int]) -> None:
        for i in idxs:
            perf.event("task_start", task=i, label=label_of(i))

    if workers <= 1 or len(tasks) <= 1:
        _run_serial(loop, tasks, range(len(tasks)), emit, on_start)
    else:
        _run_pooled(loop, tasks, workers, chunksize, emit, on_pool_crash, on_start)

    results: List[R] = [None] * len(tasks)  # type: ignore[list-item]
    for outcome in outcomes:
        assert outcome is not None, "executor lost a task outcome"
        if outcome.ok:
            results[outcome.index] = outcome.result
            continue
        record = QuarantinedTask(
            index=outcome.index,
            label=label_of(outcome.index),
            attempts=outcome.attempts,
            failures=outcome.failures,
            pool_crashes=outcome.pool_crashes,
        )
        if quarantine is None:
            if outcome.error is not None:
                raise outcome.error
            raise ExecutionError(
                f"task {record.label} failed after {record.attempts} attempt(s) "
                f"({record.pool_crashes} worker death(s)): "
                f"{record.error_type}: {record.message}"
            )
        quarantine.append(record)
        perf.event("task_quarantine", {"task_quarantines": 1}, **record.as_dict())
    return results


@dataclass
class ExecutorStats:
    """Bookkeeping of one :func:`parallel_map` dispatch."""

    tasks: int = 0
    workers: int = 1
    wall_s: float = 0.0
    pooled: bool = False


@dataclass
class ParallelExecutor:
    """Reusable work-queue front end with dispatch statistics.

    Thin stateful wrapper over :func:`parallel_map`; the flow driver and
    benchmarks use it to report how work was fanned out.
    """

    workers: Optional[int] = None
    policy: Optional[RetryPolicy] = None
    history: List[ExecutorStats] = field(default_factory=list)

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        chunksize: int = 1,
        **kwargs,
    ) -> List[R]:
        """Run ``fn`` over ``tasks``, recording dispatch statistics."""
        tasks = list(tasks)
        workers = resolve_workers(self.workers)
        t0 = time.perf_counter()
        out = parallel_map(
            fn, tasks, workers=workers, chunksize=chunksize,
            policy=self.policy, **kwargs,
        )
        self.history.append(
            ExecutorStats(
                tasks=len(tasks),
                workers=min(workers, max(1, len(tasks))),
                wall_s=time.perf_counter() - t0,
                pooled=workers > 1 and len(tasks) > 1,
            )
        )
        return out
