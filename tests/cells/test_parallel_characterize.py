"""Parallel characterization: worker-count invariance and arc caching."""

import numpy as np
import pytest

from repro.cache import JsonCache
from repro.cells.characterize import (
    ArcCharacterizer,
    arc_cache_payload,
    characterize_library,
)
from repro.cache import content_key
from repro.spice.montecarlo import MonteCarloEngine
from repro.units import FF, PS

TINY_SLEWS = (20 * PS, 120 * PS)
TINY_LOADS = (0.3 * FF, 2.0 * FF)
N_TINY = 40


def _fresh_engine(tech, variation, **kw):
    return MonteCarloEngine(tech, variation, seed=7, steps_per_window=120, **kw)


def _tables_equal(a, b):
    return (
        np.array_equal(a.moments, b.moments)
        and np.array_equal(a.quantiles, b.quantiles)
        and np.array_equal(a.out_slew, b.out_slew)
    )


class TestWorkerInvariance:
    def test_parallel_bit_identical_to_serial(self, tech, variation, library):
        tables = {}
        for workers in (1, 2):
            engine = _fresh_engine(tech, variation)
            charac = characterize_library(
                ArcCharacterizer(engine), library, cells=["INVx1"],
                slews=TINY_SLEWS, loads=TINY_LOADS, n_samples=N_TINY,
                workers=workers,
            )
            tables[workers] = charac.get("INVx1", "A", False)
        assert _tables_equal(tables[1], tables[2])

    def test_single_arc_characterize_deterministic(self, tech, variation, library):
        cell = library.get("INVx1")
        runs = []
        for workers in (1, 2):
            engine = _fresh_engine(tech, variation)
            runs.append(
                ArcCharacterizer(engine).characterize(
                    cell, "A", TINY_SLEWS, TINY_LOADS, N_TINY, workers=workers
                )
            )
        assert _tables_equal(runs[0], runs[1])

    def test_worker_perf_merged_into_engine(self, tech, variation, library):
        engine = _fresh_engine(tech, variation)
        ArcCharacterizer(engine).characterize(
            library.get("INVx1"), "A", TINY_SLEWS, TINY_LOADS, N_TINY, workers=2
        )
        # 4 grid points simulated in workers, merged back into the parent.
        assert engine.perf.simulations == 4
        assert engine.perf.newton_iterations > 0
        assert engine.perf.wall_s.get("simulate", 0.0) > 0.0


class TestArcCache:
    def _run(self, tech, variation, library, cache, n_samples=N_TINY):
        engine = _fresh_engine(tech, variation)
        charac = characterize_library(
            ArcCharacterizer(engine), library, cells=["INVx1"],
            slews=TINY_SLEWS, loads=TINY_LOADS, n_samples=n_samples,
            workers=1, cache=cache,
        )
        return charac.get("INVx1", "A", False), engine

    def test_second_run_hits_and_skips_simulation(
        self, tech, variation, library, tmp_path
    ):
        cache = JsonCache(tmp_path)
        first, engine1 = self._run(tech, variation, library, cache)
        assert engine1.perf.simulations == 4
        assert (cache.perf.cache_hits, cache.perf.cache_misses) == (0, 1)
        second, engine2 = self._run(tech, variation, library, cache)
        assert engine2.perf.simulations == 0  # served from cache
        assert cache.perf.cache_hits == 1
        assert _tables_equal(first, second)

    def test_sample_count_change_misses(self, tech, variation, library, tmp_path):
        cache = JsonCache(tmp_path)
        self._run(tech, variation, library, cache)
        _, engine = self._run(
            tech, variation, library, cache, n_samples=N_TINY + 1
        )
        assert engine.perf.simulations == 4  # re-simulated, no stale hit

    def test_payload_covers_engine_fidelity(self, tech, variation, library):
        cell = library.get("INVx1")
        slews = np.asarray(TINY_SLEWS)
        loads = np.asarray(TINY_LOADS)
        base = _fresh_engine(tech, variation)
        other = _fresh_engine(tech, variation, masked=False)
        k_base = content_key(
            arc_cache_payload(base, cell, "A", False, slews, loads, N_TINY)
        )
        k_other = content_key(
            arc_cache_payload(other, cell, "A", False, slews, loads, N_TINY)
        )
        assert k_base != k_other
