"""PerfCounters: thread-safety, kernel-op attribution, round-trips,
the named-counter map, locked counter writes by its callers, and the
one event call that feeds the counters and the run journal."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.cache import JsonCache
from repro.journal import RunJournal, read_journal
from repro.parallel import RetryPolicy, parallel_map
from repro.perf import COUNTERS, PerfCounters


class TestThreadSafety:
    def test_concurrent_incr_is_lossless(self):
        perf = PerfCounters()
        n_threads, n_iter = 8, 2000

        def hammer():
            for _ in range(n_iter):
                perf.incr(newton_iterations=1, sample_solves=3)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert perf.newton_iterations == n_threads * n_iter
        assert perf.sample_solves == 3 * n_threads * n_iter

    def test_concurrent_kernel_ops_are_lossless(self):
        perf = PerfCounters()
        n_threads, n_iter = 8, 2000

        def hammer(tid):
            for _ in range(n_iter):
                perf.add_kernel_op("numpy", "solve_stack", 2)
                perf.add_kernel_op("numpy", f"thread_{tid}")

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert perf.kernel_ops["numpy.solve_stack"] == 2 * n_threads * n_iter
        for tid in range(n_threads):
            assert perf.kernel_ops[f"numpy.thread_{tid}"] == n_iter

    def test_concurrent_wall_accumulation(self):
        perf = PerfCounters()

        def hammer():
            for _ in range(1000):
                perf.add_wall("stage", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert abs(perf.wall_s["stage"] - 4.0) < 1e-6


class TestRoundTrips:
    def test_pickle_recreates_lock(self):
        perf = PerfCounters()
        perf.incr(linear_solves=5)
        perf.add_kernel_op("cnative", "device_eval", 7)
        clone = pickle.loads(pickle.dumps(perf))
        assert clone.linear_solves == 5
        assert clone.kernel_ops == {"cnative.device_eval": 7}
        clone.incr(linear_solves=1)  # the recreated lock must work
        assert clone.linear_solves == 6

    def test_merge_folds_kernel_ops(self):
        a, b = PerfCounters(), PerfCounters()
        a.add_kernel_op("numpy", "solve_stack", 10)
        b.add_kernel_op("numpy", "solve_stack", 5)
        b.add_kernel_op("fused", "device_eval", 3)
        a.merge(b)
        assert a.kernel_ops == {
            "numpy.solve_stack": 15,
            "fused.device_eval": 3,
        }

    def test_to_from_dict_keeps_kernel_ops(self):
        perf = PerfCounters()
        perf.add_kernel_op("numpy", "device_eval", 4)
        doc = perf.to_dict()
        assert doc["kernel_ops"] == {"numpy.device_eval": 4}
        back = PerfCounters.from_dict(doc)
        assert back.kernel_ops == {"numpy.device_eval": 4}


#: ``to_dict`` keys, in the order ``/stats``, the journal's
#: ``perf_snapshot`` and perfbench have always read them.
TO_DICT_KEYS = [
    "newton_iterations", "linear_solves", "sample_solves",
    "full_sample_solves", "active_sample_fraction", "fast_solves", "steps",
    "dc_steps", "dc_early_exits", "simulations", "sta_compiles",
    "sta_scenarios", "sta_levels", "sta_arc_evals", "sta_serve_requests",
    "sta_serve_scenarios", "sta_serve_rejects", "sta_serve_deadline_misses",
    "sta_serve_evictions", "sta_serve_design_loads", "cache_hits",
    "cache_misses", "cache_corrupt", "pack_writes", "pack_loads",
    "pack_verifies", "task_retries", "task_quarantines", "pool_crashes",
    "points_simulated", "points_predicted", "wall_s", "kernel_ops",
    "arc_wall_s", "arc_samples",
]


class TestCounterMap:
    def test_to_dict_keys_keep_their_order(self):
        assert list(PerfCounters().to_dict()) == TO_DICT_KEYS

    def test_every_counter_round_trips(self):
        want = {name: 7 * i + 3 for i, name in enumerate(COUNTERS)}
        perf = PerfCounters()
        perf.incr(**want)
        perf.add_wall("simulate", 1.5)
        perf.add_kernel_op("numpy", "solve_stack", 9)
        perf.add_arc("INVx1/A/rise", 0.25, 40)
        clones = {
            "from_dict": PerfCounters.from_dict(perf.to_dict()),
            "pickle": pickle.loads(pickle.dumps(perf)),
            "merge": PerfCounters().merge(perf),
        }
        for how, clone in clones.items():
            assert {n: getattr(clone, n) for n in COUNTERS} == want, how
            assert clone.to_dict() == perf.to_dict(), how
        doubled = PerfCounters.from_dict(perf.to_dict()).merge(perf)
        assert {n: getattr(doubled, n) for n in COUNTERS} == {
            n: 2 * v for n, v in want.items()
        }

    def test_incr_rejects_unknown_name(self):
        perf = PerfCounters()
        with pytest.raises(AttributeError, match="typo"):
            perf.incr(typo=1)
        with pytest.raises(AttributeError):
            perf.typo

    def test_counters_have_no_setter(self):
        perf = PerfCounters()
        with pytest.raises(AttributeError, match="incr"):
            perf.cache_hits = 5
        assert perf.cache_hits == 0


#: Counters the artifact cache and the fault-tolerant executor write.
GUARDED = ("cache_hits", "cache_misses", "cache_corrupt",
           "task_retries", "task_quarantines", "pool_crashes")


class _CountingLock:
    """A ``threading.Lock`` stand-in that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


class _AuditedCounts(dict):
    """The counter map, logging every write made while ``lock`` is free."""

    def __init__(self, counts, lock, log) -> None:
        super().__init__(counts)
        self.lock, self.log = lock, log

    def __setitem__(self, name, value) -> None:
        if not self.lock.locked():
            self.log.append(name)
        super().__setitem__(name, value)


class LockAuditingCounters(PerfCounters):
    """Records every counter write made without the lock.

    A bare ``perf.counter += n`` calls ``__setattr__`` while ``_lock``
    is free, which a concurrent writer could interleave with (the
    server's registry compiles through a ``JsonCache`` from executor
    threads); so would a write into the counter map outside the lock.
    The lock also counts its acquisitions.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.unlocked_writes = []
        self._lock = _CountingLock()
        self._counts = _AuditedCounts(
            self._counts, self._lock, self.unlocked_writes
        )

    def __setattr__(self, name, value):
        lock = getattr(self, "_lock", None)
        if name in GUARDED and lock is not None and not lock.locked():
            self.unlocked_writes.append(name)
        super().__setattr__(name, value)


class TestCacheAndExecutorCountUnderTheLock:
    def test_json_cache_miss_hit_and_corrupt(self, tmp_path):
        perf = LockAuditingCounters()
        cache = JsonCache(tmp_path, perf=perf)
        assert cache.get("arc", "k") is None  # miss
        cache.put("arc", "k", {"x": 1})
        assert cache.get("arc", "k") == {"x": 1}  # hit
        cache.path("arc", "k").write_text('{"x": ')
        assert cache.get("arc", "k") is None  # corrupt, then a miss
        assert perf.unlocked_writes == []
        assert (perf.cache_hits, perf.cache_misses, perf.cache_corrupt) == (1, 2, 1)

    def test_parallel_retry_and_quarantine(self):
        perf = LockAuditingCounters()
        attempts = {}

        def flaky(task):
            attempts[task] = attempts.get(task, 0) + 1
            if task == "bad" or attempts[task] == 1:
                raise RuntimeError(f"{task} attempt {attempts[task]}")
            return task

        quarantine = []
        results = parallel_map(
            flaky, ["ok", "bad"], workers=1,
            policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            quarantine=quarantine, perf=perf,
        )
        assert results == ["ok", None]
        assert [q.label for q in quarantine] == ["1"]
        assert perf.unlocked_writes == []
        assert (perf.task_retries, perf.task_quarantines) == (2, 1)


class TestEvent:
    def test_counts_are_written_under_the_lock(self):
        perf = LockAuditingCounters()
        perf.event(
            "cache_corrupt", {"cache_corrupt": 1, "cache_misses": 1},
            path="arc_k.json",
        )
        assert perf.unlocked_writes == []
        assert (perf.cache_corrupt, perf.cache_misses) == (1, 1)

    def test_without_a_journal_it_only_counts(self):
        perf = LockAuditingCounters()
        perf.event("task_start", task=0, label="0")
        assert perf._lock.acquisitions == 0  # nothing to count
        perf.event("pool_crash", {"pool_crashes": 1}, tasks=[0])
        assert perf._lock.acquisitions == 1  # what incr takes
        perf.incr(pool_crashes=1)
        assert perf._lock.acquisitions == 2
        assert perf.pool_crashes == 2
        assert perf.unlocked_writes == []

    def test_journal_line_is_appended_outside_the_lock(self):
        perf = LockAuditingCounters()
        lines = []

        class Recorder:
            def event(self, name, **fields):
                lines.append((name, fields, perf._lock.locked()))

        perf.journal = Recorder()
        perf.event("pack_load", {"pack_loads": 1}, path="d.rpk", kind="x")
        # ``counts`` is positional-only: as a keyword it is a field.
        perf.event("note", counts=3)
        assert lines == [
            ("pack_load", {"path": "d.rpk", "kind": "x"}, False),
            ("note", {"counts": 3}, False),
        ]
        assert perf.pack_loads == 1

    def test_event_reaches_the_attached_journal(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            perf = PerfCounters(journal=journal)
            perf.event("pack_verify", {"pack_verifies": 1}, ok=True)
        (line,) = read_journal(tmp_path / "run.jsonl")
        assert (line["event"], line["ok"]) == ("pack_verify", True)
        assert perf.pack_verifies == 1

    def test_the_journal_is_not_part_of_the_counters(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            perf = PerfCounters(journal=journal)
            perf.incr(cache_hits=2)
            perf.add_wall("simulate", 0.5)
            plain = PerfCounters.from_dict(perf.to_dict())
            assert plain.journal is None
            assert perf == plain
            assert repr(perf) == repr(plain)
            assert perf.to_dict() == plain.to_dict()
            clone = pickle.loads(pickle.dumps(perf))
            assert clone.journal is None and clone == perf
            merged = PerfCounters().merge(perf)
            assert merged.journal is None and merged == perf
            assert perf.merge(plain).journal is journal
