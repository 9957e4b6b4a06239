"""Tests for the active-learning loop against synthetic surfaces."""

import numpy as np
import pytest

from repro.errors import CharacterizationError
from repro.moments.stats import SIGMA_LEVELS
from repro.surrogate import (
    DEFAULT_BUDGETS,
    STATISTIC_NAMES,
    SURROGATE_ENV,
    SurrogateConfig,
    budget_family,
    estimator_noise_var,
    normalize_grid,
    resolve_surrogate,
    run_active_learning,
    seed_indices,
    validate_provenance,
)
from repro.units import FF, PS

SLEWS = np.linspace(10 * PS, 100 * PS, 6)
LOADS = np.linspace(1 * FF, 8 * FF, 6)


def synthetic_runner(slews=SLEWS, loads=LOADS, calls=None):
    """Smooth, physical moment surfaces over the grid (no noise)."""

    def record(i, j):
        s = (slews[i] - slews[0]) / (slews[-1] - slews[0])
        c = (loads[j] - loads[0]) / (loads[-1] - loads[0])
        mu = (20.0 + 60.0 * c + 15.0 * s + 10.0 * s * c) * PS
        sigma = (2.0 + 1.5 * c + 0.5 * s) * PS
        skew = 0.3 + 0.1 * s
        kurt = 3.2 + 0.05 * c
        quantiles = np.array([mu + lvl * sigma for lvl in SIGMA_LEVELS])
        return {
            "moments": np.array([mu, sigma, skew, kurt]),
            "quantiles": quantiles,
            "out_slew": (30.0 + 20.0 * c) * PS,
        }

    def runner(points):
        if calls is not None:
            calls.append(list(points))
        return {ij: record(*ij) for ij in points}

    return runner


class TestRunActiveLearning:
    def test_converges_and_saves_points(self):
        res = run_active_learning(
            SLEWS, LOADS, synthetic_runner(), seed=42,
            config=SurrogateConfig(), reference=(0, 1), n_samples=2000,
        )
        assert res.fallback is None
        assert res.moments is not None
        assert len(res.simulated) < SLEWS.size * LOADS.size
        assert validate_provenance(res.provenance) == []

    def test_simulated_entries_exact(self):
        runner = synthetic_runner()
        res = run_active_learning(
            SLEWS, LOADS, runner, seed=42,
            config=SurrogateConfig(), reference=(0, 1), n_samples=2000,
        )
        truth = runner(res.simulated)
        for (i, j) in res.simulated:
            assert np.array_equal(res.moments[i, j], truth[(i, j)]["moments"])
            assert np.array_equal(res.quantiles[i, j], truth[(i, j)]["quantiles"])
            assert res.out_slew[i, j] == truth[(i, j)]["out_slew"]

    def test_predictions_accurate_on_smooth_surface(self):
        runner = synthetic_runner()
        res = run_active_learning(
            SLEWS, LOADS, runner, seed=42,
            config=SurrogateConfig(), reference=(0, 1), n_samples=2000,
        )
        truth = runner([(i, j) for i in range(6) for j in range(6)])
        mu_true = np.array([[truth[(i, j)]["moments"][0] for j in range(6)]
                            for i in range(6)])
        err = np.abs(res.moments[..., 0] - mu_true) / np.ptp(mu_true)
        assert err.max() < 0.05

    def test_deterministic(self):
        kwargs = dict(seed=7, config=SurrogateConfig(), reference=(2, 3),
                      n_samples=500)
        a = run_active_learning(SLEWS, LOADS, synthetic_runner(), **kwargs)
        b = run_active_learning(SLEWS, LOADS, synthetic_runner(), **kwargs)
        assert a.simulated == b.simulated
        assert np.array_equal(a.moments, b.moments)
        assert np.array_equal(a.quantiles, b.quantiles)
        assert a.provenance == b.provenance

    def test_cv_breach_falls_back(self):
        res = run_active_learning(
            SLEWS, LOADS, synthetic_runner(), seed=42,
            config=SurrogateConfig(cv_budget=1e-12), reference=(0, 1),
            n_samples=2000,
        )
        assert res.fallback == "cv_residual"
        assert res.moments is None
        assert res.provenance["fallback"] == "cv_residual"
        # Already-simulated records are handed back for reuse.
        assert set(res.point_records) == set(res.simulated)

    def test_small_grid_falls_back(self):
        slews = np.linspace(10 * PS, 50 * PS, 2)
        loads = np.linspace(1 * FF, 4 * FF, 3)
        res = run_active_learning(
            slews, loads, synthetic_runner(slews, loads), seed=1,
            config=SurrogateConfig(), n_samples=100,
        )
        assert res.fallback == "grid_too_small"
        assert res.simulated == []

    def test_cap_respected(self):
        calls = []
        res = run_active_learning(
            SLEWS, LOADS, synthetic_runner(calls=calls), seed=9,
            config=SurrogateConfig(max_points=10, budgets={"mu": 1e-9}),
            n_samples=2000,
        )
        if res.fallback is None:
            assert len(res.simulated) <= 10
            assert res.converged is False  # unattainable budget, SUR002 path
            assert res.provenance["converged"] is False

    def test_journal_events(self, tmp_path):
        from repro.journal import RunJournal, read_journal
        from repro.perf import PerfCounters

        with RunJournal(tmp_path / "j.jsonl") as journal:
            run_active_learning(
                SLEWS, LOADS, synthetic_runner(), seed=42,
                config=SurrogateConfig(), reference=(0, 1), n_samples=2000,
                perf=PerfCounters(journal=journal), arc=["INVx1", "A", "fall"],
            )
        events = [e["event"] for e in read_journal(tmp_path / "j.jsonl")]
        assert "surrogate_fit" in events


class TestSeedDesign:
    def test_anchors_always_present(self):
        rng = np.random.default_rng(0)
        idx = seed_indices(5, 6, 3, rng, reference=(2, 3))
        for corner in ((0, 0), (0, 5), (4, 0), (4, 5)):
            assert corner in idx
        assert (2, 3) in idx

    def test_dedup(self):
        rng = np.random.default_rng(0)
        idx = seed_indices(5, 6, 50, rng)
        assert len(idx) == len(set(idx))
        assert len(idx) <= 30

    def test_normalize_grid_unit_square(self):
        coords = normalize_grid(SLEWS, LOADS)
        assert coords.shape == (36, 2)
        assert coords.min() == 0.0
        assert coords.max() == 1.0


class TestEstimatorNoise:
    def test_mu_noise_is_standard_error(self):
        assert estimator_noise_var("mu", 2.0, 3.0, 100) == pytest.approx(
            2.0**2 / 100
        )

    def test_tail_quantiles_noisier_than_median(self):
        v0 = estimator_noise_var("q+0", 2.0, 3.0, 100)
        v3 = estimator_noise_var("q+3", 2.0, 3.0, 100)
        assert v3 > 10 * v0

    def test_symmetric_in_level_sign(self):
        assert estimator_noise_var("q-2", 2.0, 3.0, 100) == pytest.approx(
            estimator_noise_var("q+2", 2.0, 3.0, 100)
        )

    def test_zero_without_samples(self):
        assert estimator_noise_var("mu", 2.0, 3.0, 0) == 0.0
        assert estimator_noise_var("mu", 0.0, 3.0, 100) == 0.0

    def test_dimensionless_moments(self):
        assert estimator_noise_var("skew", 2.0, 3.0, 96) == pytest.approx(6 / 96)
        assert estimator_noise_var("kurt", 2.0, 3.0, 96) == pytest.approx(24 / 96)


class TestConfig:
    def test_parse_gp(self):
        cfg = SurrogateConfig.parse("gp")
        assert cfg is not None and cfg.enabled

    @pytest.mark.parametrize("token", ["", "off", "none", "0", "false", None])
    def test_parse_disabled(self, token):
        assert SurrogateConfig.parse(token) is None

    def test_parse_unknown_raises(self):
        with pytest.raises(CharacterizationError):
            SurrogateConfig.parse("kriging")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(SURROGATE_ENV, "gp")
        assert SurrogateConfig.from_env() is not None
        monkeypatch.setenv(SURROGATE_ENV, "off")
        assert SurrogateConfig.from_env() is None

    def test_resolve_passthrough_and_errors(self):
        cfg = SurrogateConfig()
        assert resolve_surrogate(cfg) is cfg
        assert resolve_surrogate(SurrogateConfig(mode="off")) is None
        assert resolve_surrogate("gp") == SurrogateConfig()
        with pytest.raises(CharacterizationError):
            resolve_surrogate(123)

    def test_identity_covers_all_knobs(self):
        ident = SurrogateConfig().identity()
        assert set(ident) == {
            "mode", "n_seed", "max_points", "batch", "budgets",
            "cv_budget", "breakpoint_tol", "n_restarts",
        }

    def test_budget_family(self):
        assert budget_family("q+3") == "quantile"
        assert budget_family("q-1") == "quantile"
        assert budget_family("mu") == "mu"
        assert budget_family("out_slew") == "out_slew"

    def test_statistic_names_cover_table(self):
        assert STATISTIC_NAMES[:4] == ("mu", "sigma", "skew", "kurt")
        assert STATISTIC_NAMES[-1] == "out_slew"
        assert len(STATISTIC_NAMES) == 4 + len(SIGMA_LEVELS) + 1
        for fam in DEFAULT_BUDGETS:
            assert fam in {"mu", "sigma", "quantile", "out_slew"}


class TestValidateProvenance:
    def _valid(self):
        res = run_active_learning(
            SLEWS, LOADS, synthetic_runner(), seed=42,
            config=SurrogateConfig(), reference=(0, 1), n_samples=2000,
        )
        return dict(res.provenance)

    def test_valid_record_passes(self):
        assert validate_provenance(self._valid()) == []

    def test_missing_key(self):
        prov = self._valid()
        del prov["cv"]
        assert any("cv" in p for p in validate_provenance(prov))

    def test_count_mismatch(self):
        prov = self._valid()
        prov["n_simulated"] = prov["n_simulated"] + 1
        assert validate_provenance(prov) != []

    def test_unknown_method(self):
        prov = self._valid()
        prov["method"] = "spline"
        assert any("method" in p for p in validate_provenance(prov))

    def test_missing_mu_statistics(self):
        prov = self._valid()
        prov["statistics"] = {}
        assert any("mu" in p for p in validate_provenance(prov))
