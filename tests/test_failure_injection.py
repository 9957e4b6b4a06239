"""Failure-injection tests: the stack must fail loudly — or degrade gracefully.

Two families live here. The first constructs pathological-but-plausible
*inputs* (a non-switching bench, absurd process parameters, corrupt
model inputs) and asserts the library reports them as the documented
error or NaN rather than producing a quietly wrong number. The second
injects *infrastructure* faults — killed worker processes, interrupted
characterization runs, concurrent cache writers, corrupt cache files,
hung tasks — and asserts the fault-tolerance layer recovers with
bit-identical results instead of aborting or silently dropping data.
"""

import glob
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.cells.characterize as _chz
from repro.cache import JsonCache
from repro.cells.characterize import ArcCharacterizer, characterize_library
from repro.errors import (
    CalibrationError,
    CharacterizationError,
    ExecutionError,
    SimulationError,
)
from repro.parallel import QuarantinedTask, RetryPolicy, parallel_map
from repro.perf import PerfCounters
from repro.spice.montecarlo import SimulationSetup
from repro.spice.netlist import PiecewiseLinearSource, TransistorNetlist
from repro.spice.measure import ramp_time_for_slew
from repro.units import FF, PS


class TestNonSwitchingBenches:
    def test_blocked_gate_yields_nan_not_garbage(self, engine, tech):
        # NAND2 with the side input LOW: the output never falls.
        net = TransistorNetlist()
        net.fix("vdd", tech.vdd)
        net.fix("in", PiecewiseLinearSource.ramp(
            0, tech.vdd, 5 * PS, ramp_time_for_slew(20 * PS)))
        net.fix("blocked", 0.0)  # non-sensitizing value
        from repro.cells.templates import CELL_TYPES
        CELL_TYPES["NAND2"].build(
            net, "u", {"A": "in", "B": "blocked", "Y": "out"}, 1.0, tech)
        net.add_capacitor("cl", "out", 1 * FF)
        setup = SimulationSetup(
            netlist=net, input_node="in", output_node="out",
            input_rising=True, output_rising=False,
            initial_voltages={"out": tech.vdd})
        res = engine.simulate(setup, 30)
        assert res.yield_fraction == 0.0
        assert np.all(np.isnan(res.delay))

    def test_characterize_rejects_low_yield(self, engine, library, tech):
        # Force the non-switching situation through a characterizer whose
        # arc spec we corrupt.
        import dataclasses
        from repro.cells.templates import ArcSpec
        characterizer = ArcCharacterizer(engine)
        cell = library.get("NAND2x1")
        bad_arc = ArcSpec(static={"B": 0}, inverting=True)  # blocks the arc
        bad_type = dataclasses.replace(
            cell.cell_type, arcs={"A": bad_arc, "B": cell.cell_type.arcs["B"]})
        bad_cell = dataclasses.replace(cell, cell_type=bad_type)
        with pytest.raises(CharacterizationError, match="measurable"):
            characterizer.characterize(
                bad_cell, "A", slews=[10 * PS, 50 * PS, 200 * PS],
                loads=[0.2 * FF, 1 * FF, 3 * FF], n_samples=20)


class TestAbsurdProcess:
    def test_extreme_variation_still_finite_or_nan(self, tech, variation):
        from repro.spice.montecarlo import MonteCarloEngine
        wild = variation.scaled(10.0)  # 10x every sigma
        engine = MonteCarloEngine(tech, wild, seed=4, max_windows=3)
        net = TransistorNetlist()
        net.fix("vdd", tech.vdd)
        net.fix("in", PiecewiseLinearSource.ramp(
            0, tech.vdd, 5 * PS, ramp_time_for_slew(20 * PS)))
        net.add_mosfet("mp", "p", "out", "in", "vdd", tech.unit_pmos_width)
        net.add_mosfet("mn", "n", "out", "in", "gnd", tech.unit_nmos_width)
        net.add_capacitor("cl", "out", 1 * FF)
        setup = SimulationSetup(
            netlist=net, input_node="in", output_node="out",
            input_rising=True, output_rising=False,
            initial_voltages={"out": tech.vdd})
        res = engine.simulate(setup, 50)
        # Finite measurements or NaN, never inf / unbounded garbage.
        # (Mildly negative delays are physical at 10x sigma: a -300 mV
        # threshold sample flips before the input reaches 50%.)
        d = res.delay[np.isfinite(res.delay)]
        assert np.all(d > -1e-9)
        assert np.all(d < 1e-6)


class TestCorruptModelInputs:
    def test_nsigma_rejects_nan_moments(self, mini_models):
        from repro.moments.stats import Moments
        bad = Moments(mu=float("nan"), sigma=1e-12, skew=0.5, kurt=4.0)
        # NaN propagates visibly rather than silently becoming a number.
        out = mini_models.nsigma.quantile(bad, 3)
        assert np.isnan(out)

    def test_calibration_monotone_after_clamp_abuse(self, mini_models):
        arc = mini_models.calibrated.get("INVx1", "A", False)
        # Absurd operating points clamp; results must stay physical.
        for slew, load in ((1e-3, 1e-9), (-1.0, -1.0), (0.0, 1e3)):
            m = arc.moments_at(slew, load)
            assert m.sigma > 0
            assert m.mu > 0
            assert np.isfinite(m.kurt)

    def test_wire_model_rejects_insane_correlation(self, adder_circuit,
                                                   mini_models):
        from repro.core.sta import StatisticalSTA
        from repro.errors import TimingError
        path = StatisticalSTA(adder_circuit, mini_models).analyze().critical_path
        with pytest.raises(TimingError):
            path.total_correlated(3, -0.1)
        with pytest.raises(TimingError):
            path.total_correlated(3, 2.0)

    def test_burr_moment_match_on_impossible_target(self):
        # Negative skew target is outside Burr XII's (loc=0) reach for
        # small CV; fit must still return finite parameters.
        from repro.moments.distributions import BurrXII
        burr = BurrXII.from_moments(1e-11, 1e-12, -1.5)
        assert np.isfinite(burr.quantile(0.5))


# ======================================================================
# Infrastructure faults: dead workers, interrupts, concurrent writers.
# ======================================================================
# Task functions live at module level so they pickle into pool workers.

def _fail_until_sentinel(task):
    """Raise on the first attempt, succeed once the sentinel file exists."""
    x, sentinel = task
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempted")
        raise RuntimeError(f"injected first-attempt failure for task {x}")
    return x * x


def _die_once(task):
    """Kill the worker outright on task 0 (every time if sentinel is '')."""
    x, sentinel = task
    if x == 0 and not (sentinel and os.path.exists(sentinel)):
        if sentinel:
            with open(sentinel, "w") as fh:
                fh.write("dying")
        os._exit(13)  # simulates an OOM kill: no exception, no cleanup
    return x + 100


def _always_fail(task):
    raise ValueError(f"task {task} is unfixable")


def _sleep_task(seconds):
    time.sleep(seconds)
    return seconds


# The pre-patch characterization point function, captured so injected
# replacements (which must be module-level to pickle into workers) can
# delegate to the real physics.
_real_characterize_point = _chz._characterize_point


def _die_point_once(task):
    """Hard-kill the worker on the first grid point, once (satellite c)."""
    sentinel = os.environ.get("REPRO_TEST_DIE_SENTINEL", "")
    if sentinel and task["i"] == 0 and task["j"] == 0 \
            and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("dying")
        os._exit(13)
    return _real_characterize_point(task)


def _poison_invx2_point(task):
    """Fail every INVx2 point — forcing the arc-quarantine path while
    exercising the shared-memory payload load in pooled workers."""
    bank = task.get("bank")
    shared = bank.load() if bank is not None else task
    if shared["cell"].name == "INVx2":
        raise CharacterizationError("injected pooled arc failure")
    return _real_characterize_point(task)


def _hammer_put(directory, tag, n_iter):
    """Repeatedly store the same cache key (run in a separate process)."""
    cache = JsonCache(directory)
    doc = {"tag": tag, "payload": list(range(500))}
    for _ in range(n_iter):
        cache.put("arc", "contested", doc)


class TestExecutorRetry:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_transient_failure_retried_to_success(self, tmp_path, workers):
        tasks = [(x, str(tmp_path / f"sentinel_{x}")) for x in range(6)]
        perf = PerfCounters()
        out = parallel_map(
            _fail_until_sentinel, tasks, workers=workers,
            policy=RetryPolicy(max_retries=2, backoff_s=0.01), perf=perf)
        assert out == [x * x for x in range(6)]
        assert perf.task_retries == 6  # one retry per task
        assert perf.task_quarantines == 0

    def test_exhausted_retries_raise_original_exception(self):
        with pytest.raises(ValueError, match="unfixable"):
            parallel_map(_always_fail, [1, 2], workers=1,
                         policy=RetryPolicy(max_retries=1, backoff_s=0.01))

    def test_exhausted_retries_quarantine_when_sunk(self):
        sink = []
        perf = PerfCounters()
        out = parallel_map(
            _always_fail, [1, 2], workers=1,
            policy=RetryPolicy(max_retries=1, backoff_s=0.01),
            quarantine=sink, labels=["a", "b"], perf=perf)
        assert out == [None, None]
        assert [q.label for q in sink] == ["a", "b"]
        assert all(q.attempts == 2 for q in sink)
        assert all(q.error_type == "ValueError" for q in sink)
        assert perf.task_quarantines == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_timeout_quarantines_hung_task(self, workers):
        sink = []
        t0 = time.perf_counter()
        out = parallel_map(
            _sleep_task, [0.01, 30.0], workers=workers,
            policy=RetryPolicy(max_retries=0, task_timeout=0.25),
            quarantine=sink)
        assert time.perf_counter() - t0 < 10.0  # never waited out the sleep
        assert out == [0.01, None]
        assert [q.index for q in sink] == [1]
        assert sink[0].error_type == "TaskTimeoutError"


class TestWorkerDeath:
    def test_killed_worker_does_not_abort_the_run(self, tmp_path):
        """A worker hard-killed mid-task must not raise BrokenProcessPool.

        Satellite (c): completed results are kept, the lost chunk is
        re-executed, and the run finishes with correct results.
        """
        sentinel = str(tmp_path / "died_once")
        tasks = [(x, sentinel) for x in range(8)]
        perf = PerfCounters()
        out = parallel_map(_die_once, tasks, workers=4, perf=perf)
        assert out == [x + 100 for x in range(8)]
        assert perf.pool_crashes >= 1
        assert perf.task_quarantines == 0

    def test_permanently_dying_task_is_quarantined_alone(self, tmp_path):
        """A task that kills its worker on every attempt is given up on
        after three pool crashes — and takes no innocent tasks with it."""
        tasks = [(x, "") for x in range(4)]  # only x == 0 dies, always
        sink = []
        out = parallel_map(_die_once, tasks, workers=2, quarantine=sink)
        assert out == [None, 101, 102, 103]
        assert [q.index for q in sink] == [0]
        assert sink[0].error_type == "WorkerDeath"
        assert sink[0].pool_crashes == 3


class TestCacheCrashSafety:
    def test_concurrent_same_key_put_never_tears(self, tmp_path):
        """Satellite (a): two processes hammering one key must leave a
        complete, parseable artifact and no stray temp files."""
        procs = [
            multiprocessing.Process(
                target=_hammer_put, args=(str(tmp_path), tag, 50))
            for tag in ("writer_a", "writer_b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        doc = json.load((tmp_path / "arc_contested.json").open())
        assert doc["tag"] in ("writer_a", "writer_b")
        assert doc["payload"] == list(range(500))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_artifact_is_a_miss_and_unlinked(self, tmp_path):
        """Satellite (b): a truncated artifact is recomputed, not crashed on."""
        perf = PerfCounters()
        cache = JsonCache(tmp_path, perf=perf)
        path = cache.put("arc", "k1", {"good": 1})
        path.write_text('{"good": 1')  # truncated by a crashed writer
        assert cache.get("arc", "k1") is None
        assert not path.exists()
        assert perf.cache_corrupt == 1 and perf.cache_misses == 1
        assert perf.cache_hits == 0
        # The key is reusable immediately.
        cache.put("arc", "k1", {"good": 2})
        assert cache.get("arc", "k1") == {"good": 2}
        assert perf.cache_hits == 1

    def test_orphaned_tmp_files_swept_on_init(self, tmp_path):
        (tmp_path / "arc_dead.12345.abc.tmp").write_text('{"partial"')
        cache = JsonCache(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get("arc", "dead") is None


class TestInterruptAndResume:
    GRID = dict(slews=(10 * PS, 50 * PS), loads=(0.5 * FF, 2.0 * FF),
                n_samples=40)

    def _characterize(self, library, tech, variation, cache, **kw):
        from repro.spice.montecarlo import MonteCarloEngine
        engine = MonteCarloEngine(tech, variation, seed=11)
        return characterize_library(
            ArcCharacterizer(engine), library, cells=["INVx1", "INVx2"],
            workers=1, cache=cache, **self.GRID, **kw)

    def test_interrupted_run_resumes_bit_identically(
            self, tmp_path, library, tech, variation, monkeypatch):
        """The acceptance test: interrupt after the first arc, resume,
        and compare every table bit-for-bit against an uninterrupted run."""
        import repro.cells.characterize as chz
        cache_dir = tmp_path / "ckpt"
        real_map = chz.parallel_map
        points = self.GRID["slews"].__len__() * self.GRID["loads"].__len__()

        def interrupted_map(fn, tasks, **kw):
            real_map(fn, list(tasks)[:points], **kw)  # first arc only
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(chz, "parallel_map", interrupted_map)
            with pytest.raises(KeyboardInterrupt):
                self._characterize(library, tech, variation,
                                   JsonCache(cache_dir))
        # Exactly the finished arc was checkpointed before the interrupt.
        assert len(list(cache_dir.glob("arc_*.json"))) == 1

        resume_cache = JsonCache(cache_dir)
        resumed = self._characterize(library, tech, variation, resume_cache)
        assert resume_cache.perf.cache_hits == 1  # INVx1 restored, not recomputed
        golden = self._characterize(library, tech, variation, cache=None)

        assert sorted(resumed.tables) == sorted(golden.tables)
        for key, want in golden.tables.items():
            got = resumed.tables[key]
            for attr in ("slews", "loads", "moments", "quantiles", "out_slew"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), \
                    f"{key}.{attr} differs between resumed and golden run"

    def test_resume_false_ignores_checkpoints(
            self, tmp_path, library, tech, variation):
        cache = JsonCache(tmp_path)
        self._characterize(library, tech, variation, cache)
        assert cache.perf.cache_hits == 0
        self._characterize(library, tech, variation, cache, resume=False)
        assert cache.perf.cache_hits == 0  # checkpoints present but not consulted


class TestArcQuarantine:
    GRID = TestInterruptAndResume.GRID

    def _characterize(self, library, tech, variation, **kw):
        from repro.spice.montecarlo import MonteCarloEngine
        engine = MonteCarloEngine(tech, variation, seed=11)
        return characterize_library(
            ArcCharacterizer(engine), library, cells=["INVx1", "INVx2"],
            workers=1, **self.GRID, **kw)

    def test_failing_arc_quarantined_within_budget(
            self, library, tech, variation, monkeypatch):
        import repro.cells.characterize as chz
        real_point = chz._characterize_point

        def poisoned_point(task):
            if task["cell"].name == "INVx2":
                raise CharacterizationError("injected arc failure")
            return real_point(task)

        monkeypatch.setattr(chz, "_characterize_point", poisoned_point)
        out = self._characterize(library, tech, variation,
                                 quarantine_budget=None)
        assert out.has("INVx1", "A", False)
        assert not out.has("INVx2", "A", False)
        assert len(out.quarantined) == 1
        q = out.quarantined[0]
        assert q.arc_key == ("INVx2", "A", "fall")
        assert q.error_type == "CharacterizationError"
        points = len(self.GRID["slews"]) * len(self.GRID["loads"])
        assert q.failed_points == points

        # Lint surfaces the quarantine as RUN001 (warning, not error).
        from repro.lint import lint_characterization
        report = lint_characterization(out)
        assert report.ok
        assert any(d.rule_id == "RUN001" for d in report.diagnostics)

    def test_quarantine_over_budget_fails_the_run(
            self, library, tech, variation, monkeypatch):
        import repro.cells.characterize as chz
        monkeypatch.setattr(chz, "_characterize_point", _always_fail)
        with pytest.raises(CharacterizationError, match="quarantined"):
            self._characterize(library, tech, variation, quarantine_budget=0)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm here")
class TestSharedMemoryLifecycle:
    """Satellite (3): shm payload banks must never leak /dev/shm segments
    — not on success, not when a worker is hard-killed, not when an arc
    is quarantined."""

    GRID = dict(slews=(10 * PS, 50 * PS), loads=(0.5 * FF, 2.0 * FF),
                n_samples=40)

    @pytest.fixture(autouse=True)
    def no_shm_leaks(self):
        before = set(glob.glob("/dev/shm/repro_*"))
        yield
        after = set(glob.glob("/dev/shm/repro_*"))
        assert after - before == set(), f"leaked shared memory: {after - before}"

    def _characterize(self, library, tech, variation, cells, **kw):
        from repro.spice.montecarlo import MonteCarloEngine
        engine = MonteCarloEngine(tech, variation, seed=11)
        return characterize_library(
            ArcCharacterizer(engine), library, cells=cells,
            **self.GRID, **kw)

    def test_pooled_run_publishes_banks_and_cleans_up(
            self, library, tech, variation):
        pooled = self._characterize(library, tech, variation,
                                    ["INVx1"], workers=2)
        serial = self._characterize(library, tech, variation,
                                    ["INVx1"], workers=1)
        # same physics through the shared-memory payload path
        assert sorted(pooled.tables) == sorted(serial.tables)
        for key, want in serial.tables.items():
            got = pooled.tables[key]
            for attr in ("slews", "loads", "moments", "quantiles", "out_slew"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), \
                    f"{key}.{attr} differs between pooled and serial run"

    def test_tasks_carry_handles_not_payloads(
            self, characterizer, library):
        import pickle
        from repro.parallel import SharedPayloadBank, SharedPayloadHandle
        cell = library.get("INVx1")
        payload = characterizer.arc_payload(cell, "A")
        with SharedPayloadBank(payload) as bank:
            tasks = characterizer.point_tasks(
                cell, "A", self.GRID["slews"], self.GRID["loads"],
                self.GRID["n_samples"], False, payload=bank.handle)
            inline = characterizer.point_tasks(
                cell, "A", self.GRID["slews"], self.GRID["loads"],
                self.GRID["n_samples"], False)
            for task in tasks:
                assert isinstance(task["bank"], SharedPayloadHandle)
            # the payload (tech + variation + cell) dominates task size;
            # banked tasks must be dramatically smaller than inline ones
            assert len(pickle.dumps(tasks[0])) < len(pickle.dumps(inline[0])) / 5

    def test_killed_worker_leaves_no_segments(
            self, tmp_path, library, tech, variation, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIE_SENTINEL", str(tmp_path / "died"))
        monkeypatch.setattr(_chz, "_characterize_point", _die_point_once)
        out = self._characterize(library, tech, variation,
                                 ["INVx1"], workers=2)
        assert out.has("INVx1", "A", False)
        assert os.path.exists(tmp_path / "died")  # the kill really happened

    def test_quarantined_arc_leaves_no_segments(
            self, library, tech, variation, monkeypatch):
        monkeypatch.setattr(_chz, "_characterize_point", _poison_invx2_point)
        out = self._characterize(library, tech, variation,
                                 ["INVx1", "INVx2"], workers=2,
                                 quarantine_budget=None)
        assert out.has("INVx1", "A", False)
        assert not out.has("INVx2", "A", False)
        assert len(out.quarantined) == 1
