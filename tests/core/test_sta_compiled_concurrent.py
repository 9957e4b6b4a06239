"""Thread-safety of shared ``CompiledSTA`` instances.

Two guarantees the resident server depends on:

* perf-counter updates from ``analyze_batch`` go through
  ``PerfCounters.incr`` under the counters' lock — the lock-audit test
  fails against the old bare ``+=`` read-modify-writes;
* concurrent batches on one shared engine are bit-identical to serial
  evaluation and lose no counter updates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.sta_compiled import CompiledSTA, Scenario
from repro.perf import PerfCounters
from repro.units import PS

#: Counters analyze_batch must only touch under the lock.
GUARDED = ("sta_scenarios", "sta_levels", "sta_arc_evals", "sta_compiles")


class LockAuditingCounters(PerfCounters):
    """Records every write to a guarded counter made without the lock.

    Deterministic stand-in for a thread race: a bare ``counter += n``
    on the shared instance calls ``__setattr__`` while ``_lock`` is
    free, which a real concurrent writer could interleave with.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.unlocked_writes = []

    def __setattr__(self, name, value):
        # During dataclass __init__ the lock does not exist yet.
        lock = getattr(self, "_lock", None)
        if name in GUARDED and lock is not None and not lock.locked():
            self.unlocked_writes.append(name)
        super().__setattr__(name, value)


SCENARIOS = [
    Scenario(input_slew=slew * PS, launch_rising=rising)
    for slew in (10.0, 50.0)
    for rising in (True, False)
]


@pytest.fixture(scope="module")
def shared_engine(adder_circuit, mini_models):
    return CompiledSTA(adder_circuit, mini_models)


class TestLockedCounterUpdates:
    def test_analyze_batch_never_writes_counters_unlocked(
        self, adder_circuit, mini_models
    ):
        perf = LockAuditingCounters()
        engine = CompiledSTA(adder_circuit, mini_models, perf=perf)
        engine.analyze_batch(SCENARIOS)
        assert perf.unlocked_writes == []

    def test_incr_is_the_locked_path(self):
        perf = LockAuditingCounters()
        perf.incr(sta_scenarios=3, sta_levels=2)
        assert perf.unlocked_writes == []
        assert perf.sta_scenarios == 3
        # ... and the raced pattern no longer exists: a counter has no
        # setter, so a bare read-modify-write raises.
        with pytest.raises(AttributeError):
            perf.sta_scenarios += 1
        assert perf.sta_scenarios == 3


class TestConcurrentAnalyzeBatch:
    N_THREADS = 8
    BATCHES_PER_THREAD = 4

    def test_concurrent_batches_bit_identical_and_counters_exact(
        self, shared_engine
    ):
        serial = shared_engine.analyze_batch(SCENARIOS)
        before = shared_engine.perf.sta_scenarios
        barrier = threading.Barrier(self.N_THREADS)

        def worker(_):
            barrier.wait()
            out = []
            for _ in range(self.BATCHES_PER_THREAD):
                out.append(shared_engine.analyze_batch(SCENARIOS))
            return out

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            per_thread = list(pool.map(worker, range(self.N_THREADS)))

        for batches in per_thread:
            for results in batches:
                for got, want in zip(results, serial):
                    assert got.critical_delay == want.critical_delay
                    for n in got.scenario.levels:
                        assert got.critical_path.total(n) == \
                            want.critical_path.total(n)

        n_batches = self.N_THREADS * self.BATCHES_PER_THREAD
        assert shared_engine.perf.sta_scenarios - before == \
            n_batches * len(SCENARIOS)

    def test_per_result_runtime_is_positive_per_call(self, shared_engine):
        results = shared_engine.analyze_batch(SCENARIOS)
        assert all(r.runtime_s > 0 for r in results)
        # amortized per scenario: all results of one batch share it
        assert len({r.runtime_s for r in results}) == 1
