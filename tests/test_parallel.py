"""Work-queue executor: worker resolution, seeding, and serial fallback."""

from __future__ import annotations

import glob
import json
import os
import pickle
import warnings

import numpy as np
import pytest

import repro.parallel as parallel
from repro.journal import RunJournal
from repro.parallel import (
    SHM_PREFIX,
    RetryPolicy,
    SharedPayloadBank,
    WORKERS_ENV,
    ParallelExecutor,
    parallel_map,
    resolve_workers,
    task_seed,
)
from repro.perf import PerfCounters


def _square(x):
    return x * x


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_env_var_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_auto_and_zero_mean_all_cores(self, monkeypatch):
        import os

        cores = os.cpu_count() or 1
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == cores
        assert resolve_workers(-1) == cores
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve_workers() == cores

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()


class TestTaskSeed:
    def test_stable_across_calls(self):
        assert task_seed(7, "INVx1", "A", "fall", 0, 0) == task_seed(
            7, "INVx1", "A", "fall", 0, 0
        )

    def test_distinct_for_distinct_parts(self):
        seeds = {
            task_seed(7, "INVx1", "A", "fall", i, j)
            for i in range(5)
            for j in range(5)
        }
        assert len(seeds) == 25

    def test_fits_in_numpy_seed_range(self):
        s = task_seed("anything", 123)
        np.random.default_rng(s)  # must not raise
        assert 0 <= s < 2**63


class TestParallelMap:
    def test_serial_matches_pool(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        tasks = list(range(20))
        assert parallel_map(_square, tasks, workers=1) == parallel_map(
            _square, tasks, workers=2
        )

    def test_preserves_task_order(self):
        tasks = list(range(50))
        assert parallel_map(_square, tasks, workers=2) == [t * t for t in tasks]

    def test_workers_one_never_spawns_pool(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor spawned for workers=1")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_single_task_stays_serial(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("pool spawned for a single task")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        assert parallel_map(_square, [5], workers=8) == [25]

    def test_empty_tasks(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], workers=2)


def _reciprocal(x):
    return 1 / x


class TestParallelExecutor:
    def test_records_dispatch_stats(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        ex = ParallelExecutor(workers=1)
        out = ex.map(_square, [1, 2, 3])
        assert out == [1, 4, 9]
        assert len(ex.history) == 1
        stats = ex.history[0]
        assert stats.tasks == 3
        assert stats.workers == 1
        assert not stats.pooled

    def test_pooled_dispatch_flagged(self):
        ex = ParallelExecutor(workers=2)
        assert ex.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert ex.history[-1].pooled


# ----------------------------------------------------------------------
# Shared-memory payload banks
# ----------------------------------------------------------------------
def _load_bank_payload(task):
    payload = task["bank"].load()
    return payload["base"] + task["i"]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm here")
class TestSharedPayloadBank:
    @pytest.fixture(autouse=True)
    def no_shm_leaks(self):
        """Every test in this class must leave /dev/shm exactly as found."""
        before = set(glob.glob("/dev/shm/repro_*"))
        yield
        after = set(glob.glob("/dev/shm/repro_*"))
        assert after - before == set(), f"leaked shared memory: {after - before}"

    def test_roundtrip_and_handle_is_small(self):
        payload = {"arr": np.arange(4096, dtype=float), "label": "arc"}
        with SharedPayloadBank(payload) as bank:
            assert bank.handle.name.startswith(SHM_PREFIX)
            # the whole point: tasks ship a tiny pointer, not the payload
            assert len(pickle.dumps(bank.handle)) < 200
            parallel._attached_payloads.clear()
            loaded = bank.handle.load()
            np.testing.assert_array_equal(loaded["arr"], payload["arr"])
            assert loaded["label"] == "arc"

    def test_close_is_idempotent_and_unlinks(self):
        bank = SharedPayloadBank({"x": 1})
        seg = f"/dev/shm/{bank.handle.name}"
        assert os.path.exists(seg)
        bank.close()
        assert not os.path.exists(seg)
        bank.close()  # second close must be a no-op, not an error

    def test_load_caches_per_process(self):
        with SharedPayloadBank({"x": [1, 2, 3]}) as bank:
            parallel._attached_payloads.clear()
            first = bank.handle.load()
            assert bank.handle.load() is first  # cache hit, no re-attach

    def test_load_cache_is_bounded(self):
        parallel._attached_payloads.clear()
        banks = [SharedPayloadBank({"i": i}) for i in range(parallel._ATTACH_CACHE_MAX + 3)]
        try:
            for bank in banks:
                bank.handle.load()
            assert len(parallel._attached_payloads) <= parallel._ATTACH_CACHE_MAX
        finally:
            for bank in banks:
                bank.close()

    def test_pooled_workers_read_bank(self):
        with SharedPayloadBank({"base": 100}) as bank:
            tasks = [{"bank": bank.handle, "i": i} for i in range(8)]
            out = parallel_map(_load_bank_payload, tasks, workers=2)
        assert out == [100 + i for i in range(8)]

    def test_publish_returns_none_on_failure(self, monkeypatch):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        assert SharedPayloadBank.publish(Unpicklable()) is None


class TestSharedPayloadBankPackShortCircuit:
    """A ``.rpk``-backed payload ships as a file pointer, not a segment."""

    @pytest.fixture(autouse=True)
    def no_shm_leaks(self):
        before = set(glob.glob("/dev/shm/repro_*"))
        yield
        after = set(glob.glob("/dev/shm/repro_*"))
        assert after - before == set(), f"leaked shared memory: {after - before}"

    @pytest.fixture()
    def library_pack(self, mini_charac, tmp_path):
        from repro.pack import pack_library_characterization

        return pack_library_characterization(
            mini_charac, tmp_path / "library.rpk"
        )

    def test_pack_payload_publishes_no_shared_memory(
        self, mini_charac, library_pack
    ):
        from repro.pack import load_library_characterization_pack

        payload = load_library_characterization_pack(library_pack)
        with SharedPayloadBank(payload) as bank:
            assert bank.handle.pack_path == str(library_pack)
            assert bank.handle.pack_identity
            assert bank.handle.size == 0
            assert len(pickle.dumps(bank.handle)) < 300
            parallel._attached_payloads.clear()
            loaded = bank.handle.load()
            assert set(loaded.tables) == set(mini_charac.tables)
            assert bank.handle.load() is loaded  # worker-local cache
        # close() had nothing to unlink; the pack file itself survives.
        assert library_pack.exists()

    def test_replaced_pack_is_refused_by_identity(self, library_pack):
        import numpy as np

        from repro.errors import ExecutionError
        from repro.pack import load_library_characterization_pack, write_pack

        payload = load_library_characterization_pack(library_pack)
        with SharedPayloadBank(payload) as bank:
            write_pack(library_pack, "unit", {"swapped": np.ones(4)})
            parallel._attached_payloads.clear()
            with pytest.raises(ExecutionError, match="identity"):
                bank.handle.load()

    def test_plain_payload_still_uses_shared_memory(self, mini_charac):
        # A payload without a pack (freshly characterized) must keep the
        # segment path: the short-circuit is strictly opt-in via .pack.
        assert mini_charac.pack is None
        with SharedPayloadBank(mini_charac) as bank:
            assert bank.handle.pack_path is None
            assert bank.handle.name.startswith(SHM_PREFIX)


# ----------------------------------------------------------------------
# Timeout degradation without SIGALRM
# ----------------------------------------------------------------------
class TestTimeoutDegrade:
    @pytest.fixture(autouse=True)
    def reset_warn_latch(self, monkeypatch):
        monkeypatch.setattr(parallel, "_timeout_unsupported_warned", False)
        yield

    def test_runs_unbounded_with_single_warning(self, monkeypatch):
        monkeypatch.delattr(parallel.signal, "SIGALRM")
        policy = RetryPolicy(task_timeout=0.001)
        with pytest.warns(RuntimeWarning, match="cannot be enforced"):
            out = parallel_map(_square, [3], workers=1, policy=policy)
        assert out == [9]
        # the warning is a one-time latch, not per-task spam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_square, [4], workers=1, policy=policy) == [16]

    def test_journal_records_degradation(self, monkeypatch, tmp_path):
        monkeypatch.delattr(parallel.signal, "SIGALRM")
        journal = RunJournal(tmp_path / "run.jsonl")
        with pytest.warns(RuntimeWarning):
            parallel_map(
                _square, [1, 2], workers=1,
                policy=RetryPolicy(task_timeout=0.5),
                perf=PerfCounters(journal=journal),
            )
        journal.close()
        events = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert any(e["event"] == "timeout_unsupported" for e in events)

    def test_timeout_still_enforced_with_sigalrm(self):
        if not hasattr(parallel.signal, "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        policy = RetryPolicy(task_timeout=5.0)
        # sanity: the enforced path still returns results normally
        assert parallel_map(_square, [6], workers=1, policy=policy) == [36]

    def test_signal_install_refusal_degrades_instead_of_crashing(
        self, monkeypatch
    ):
        # signal.signal can refuse with ValueError even when the thread
        # check passed (embedded interpreters, forked servers). The old
        # code let that ValueError escape and fail the attempt.
        def refuse(*_args):
            raise ValueError("signal only works in main thread")

        monkeypatch.setattr(parallel.signal, "signal", refuse)
        policy = RetryPolicy(task_timeout=0.5)
        with pytest.warns(RuntimeWarning, match="cannot be enforced"):
            assert parallel_map(_square, [5], workers=1, policy=policy) == [25]

    def test_off_main_thread_degrades_loudly(self):
        # Server worker threads dispatch queries through parallel_map
        # helpers; SIGALRM cannot arm there.
        policy = RetryPolicy(task_timeout=0.5)
        out: list = []
        captured: list = []

        def body():
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                out.extend(parallel_map(_square, [7], workers=1, policy=policy))
            captured.extend(records)

        import threading

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert out == [49]
        assert any(
            issubclass(r.category, RuntimeWarning)
            and "cannot be enforced" in str(r.message)
            for r in captured
        )
