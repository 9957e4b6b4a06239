"""Tests for the end-to-end flow and its caching."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.flow import DelayCalibrationFlow
from repro.journal import RunJournal, read_journal
from repro.lint import lint_journal
from repro.units import FF, PS


class TestCaching:
    def test_cache_files_created(self, mini_flow, mini_models):
        cache = Path(mini_flow.cache_dir)
        assert any(p.name.startswith("charac_") for p in cache.iterdir())
        assert any(p.name.startswith("models_") for p in cache.iterdir())

    def test_cache_reload_matches(self, mini_flow, mini_models):
        clone = DelayCalibrationFlow(
            seed=mini_flow.seed,
            cache_dir=str(mini_flow.cache_dir),
            n_samples=mini_flow.n_samples,
            slews=mini_flow.slews,
            loads=mini_flow.loads,
            wire_fit_samples=mini_flow.wire_fit_samples,
            wire_fit_trees=mini_flow.wire_fit_trees,
            cell_names=mini_flow.cell_names,
        )
        models = clone.fit_models()
        assert models.wire.weight_fi == pytest.approx(mini_models.wire.weight_fi)
        assert models.nsigma.coefficients.keys() == mini_models.nsigma.coefficients.keys()

    def test_cache_key_sensitive_to_params(self, mini_flow):
        other = DelayCalibrationFlow(
            seed=mini_flow.seed + 1, cache_dir=str(mini_flow.cache_dir),
            cell_names=mini_flow.cell_names)
        assert mini_flow._cache_key() != other._cache_key()

    def test_no_cache_dir_ok(self):
        flow = DelayCalibrationFlow(cache_dir=None)
        assert flow.cache is None


def _tiny_flow(cache_dir, **kw) -> DelayCalibrationFlow:
    """One INVx1 arc on a 2x2 grid: characterizes in about a second."""
    return DelayCalibrationFlow(
        seed=3, cache_dir=str(cache_dir), n_samples=40,
        slews=(10 * PS, 50 * PS), loads=(0.5 * FF, 2.0 * FF),
        cell_names=["INVx1"], both_edges=False, **kw,
    )


class TestTruncatedArtifacts:
    """A flow artifact cut short by a crash is recomputed, not fatal."""

    def test_truncated_charac_bundle_is_recomputed(self, tmp_path):
        first = _tiny_flow(tmp_path).characterize()
        (bundle,) = tmp_path.glob("charac_*.json")
        bundle.write_text(bundle.read_text()[:50])

        flow = _tiny_flow(tmp_path)
        charac = flow.characterize()
        assert flow.perf.cache_corrupt == 1
        assert flow.perf.simulations == 0  # arcs restored from checkpoints
        assert sorted(charac.tables) == sorted(first.tables)
        for key, want in first.tables.items():
            assert np.array_equal(charac.tables[key].moments, want.moments)
        assert json.loads(bundle.read_text())["tables"]  # rewritten whole

    def test_corrupt_checkpoint_is_a_journaled_cache_corrupt(self, tmp_path):
        _tiny_flow(tmp_path).characterize()
        (checkpoint,) = tmp_path.glob("arc_*.json")
        checkpoint.write_text(checkpoint.read_text()[:50])
        for bundle in tmp_path.glob("charac_*.json"):
            bundle.unlink()

        with RunJournal(tmp_path / "run.jsonl") as journal:
            flow = _tiny_flow(tmp_path, journal=journal)
            flow.characterize()
        corrupt = [
            e for e in read_journal(journal.path)
            if e["event"] == "cache_corrupt"
        ]
        assert [e["path"] for e in corrupt] == [str(checkpoint)]
        assert flow.perf.cache_corrupt == 1
        assert json.loads(checkpoint.read_text())  # re-simulated and stored
        assert lint_journal(journal.path).ok

    def test_truncated_models_bundle_is_refit(
        self, tmp_path, mini_flow, mini_models, monkeypatch
    ):
        import repro.core.correlation as correlation
        from repro.core.sta_compiled import COMPILE_CACHE_KIND

        cache_dir = tmp_path / "cache"
        shutil.copytree(
            mini_flow.cache_dir, cache_dir,
            ignore=shutil.ignore_patterns(f"{COMPILE_CACHE_KIND}_*"),
        )
        for bundle in cache_dir.glob("models_*.json"):
            bundle.write_text(bundle.read_text()[:50])

        # The wire and stage-correlation fits are slow Monte-Carlo runs;
        # stand-ins return the session's values and count the refits.
        refits = []

        def fit_wire(self, calibrated):
            refits.append("wire")
            return mini_models.wire

        def stage_correlation(*args, **kwargs):
            refits.append("correlation")
            return mini_models.stage_correlation

        monkeypatch.setattr(DelayCalibrationFlow, "_fit_wire", fit_wire)
        monkeypatch.setattr(
            correlation, "estimate_stage_correlation", stage_correlation
        )
        clone = DelayCalibrationFlow(
            seed=mini_flow.seed,
            cache_dir=str(cache_dir),
            n_samples=mini_flow.n_samples,
            slews=mini_flow.slews,
            loads=mini_flow.loads,
            wire_fit_samples=mini_flow.wire_fit_samples,
            wire_fit_trees=mini_flow.wire_fit_trees,
            cell_names=mini_flow.cell_names,
        )
        models = clone.fit_models()
        assert sorted(refits) == ["correlation", "wire"]
        assert clone.perf.cache_corrupt == 1
        assert models.nsigma.to_dict() == mini_models.nsigma.to_dict()
        # The refit bundle was rewritten whole.
        rewritten = [
            json.loads(b.read_text())
            for b in cache_dir.glob("models_*.json")
            if len(b.read_text()) > 50
        ]
        assert [d["stage_correlation"] for d in rewritten] == [
            mini_models.stage_correlation
        ]


class TestModels:
    def test_models_complete(self, mini_models):
        assert mini_models.nsigma.coefficients
        assert mini_models.wire.fo4_ratio > 0
        assert len(mini_models.calibrated.arcs) > 0

    def test_analyze_runs(self, mini_flow, adder_circuit):
        res = mini_flow.analyze(adder_circuit)
        assert res.critical_delay > 0

    def test_wire_model_r_squared_reported(self, mini_models):
        # The Eq. (7) regression must explain a meaningful share of the
        # wire variability across the driver/load sweep.
        assert mini_models.wire.r_squared > 0.3


@pytest.mark.slow
class TestDeepNSigmaFit:
    def test_deep_fit_produces_model(self, mini_flow):
        from repro.core.flow import DelayCalibrationFlow

        flow = DelayCalibrationFlow(
            seed=mini_flow.seed,
            cache_dir=str(mini_flow.cache_dir),
            n_samples=mini_flow.n_samples,
            slews=mini_flow.slews,
            loads=mini_flow.loads,
            wire_fit_samples=mini_flow.wire_fit_samples,
            wire_fit_trees=mini_flow.wire_fit_trees,
            cell_names=["INVx1", "INVx2", "INVx4", "INVx8"],
            nsigma_fit_samples=800,
        )
        models = flow.fit_models()
        from repro.moments.stats import SIGMA_LEVELS
        assert set(models.nsigma.coefficients) == set(SIGMA_LEVELS)

    def test_deep_fit_has_distinct_cache(self, mini_flow):
        from repro.core.flow import DelayCalibrationFlow

        base = DelayCalibrationFlow(seed=1, cache_dir="/tmp/x")
        deep = DelayCalibrationFlow(seed=1, cache_dir="/tmp/x",
                                    nsigma_fit_samples=5000)
        assert base._cache_key("models") != deep._cache_key("models")
        # Characterization cache is shared (same data).
        assert base._cache_key("charac") == deep._cache_key("charac")
