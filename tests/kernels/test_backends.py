"""Kernel backend registry, selection, and golden-equivalence tests.

The numpy backend is the golden reference; ``cnative``, when it
probes available on this machine, must satisfy the KRN001 equivalence
envelope (primitives within 1e-12 normalized, conductances within
1e-9, end-to-end delays within 1e-12 s) and be selectable through the
``REPRO_KERNEL`` environment variable and the ``kernel=`` engine knob.
Selection tests that need ``cnative`` available (or unavailable) on
every host use a registry stand-in, so they run without a C compiler.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels
from repro.cache import version_salt
from repro.cells.characterize import ArcCharacterizer
from repro.kernels import (
    KERNEL_ENV,
    available_backends,
    backend_identity,
    default_backend,
    select_backend,
)
from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.lint import lint_kernel_equivalence
from repro.spice.montecarlo import MonteCarloEngine
from repro.units import FF, PS


def _available_names():
    return [b["name"] for b in available_backends() if b["available"] == "yes"]


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    """Isolate each test from the ambient backend choice and the
    warn-once latch (so fallback warnings are observable per-test)."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setattr(kernels, "_warned", set())
    yield


def _stand_in_cnative(monkeypatch, available: bool) -> None:
    """Register a numpy-math stand-in under the name ``cnative``."""

    class StandIn(NumpyBackend):
        name = "cnative"
        version = "stand-in"

        @classmethod
        def probe(cls):
            return (True, "stand-in") if available else (False, "no C compiler")

    monkeypatch.setattr(
        kernels, "_registry", lambda: {"cnative": StandIn, "numpy": NumpyBackend}
    )
    monkeypatch.setattr(kernels, "_instances", {})


class TestSelection:
    def test_default_is_numpy(self):
        assert select_backend().name == "numpy"
        assert default_backend().name == "numpy"

    def test_env_var_honored(self, monkeypatch):
        _stand_in_cnative(monkeypatch, available=True)
        monkeypatch.setenv(KERNEL_ENV, "cnative")
        assert select_backend().name == "cnative"
        assert backend_identity().startswith("cnative-")

    def test_explicit_name_beats_env(self, monkeypatch):
        _stand_in_cnative(monkeypatch, available=True)
        monkeypatch.setenv(KERNEL_ENV, "cnative")
        assert select_backend("numpy").name == "numpy"

    def test_only_numpy_and_cnative_are_registered(self):
        assert sorted(kernels._registry()) == ["cnative", "numpy"]

    @pytest.mark.parametrize("retired", ["fused", "numba", "auto"])
    def test_retired_names_warn_and_fall_back(self, retired):
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            assert select_backend(retired).name == "numpy"
        with pytest.raises(ValueError, match="unknown kernel backend"):
            select_backend(retired, fallback=False)

    def test_unknown_name_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            backend = select_backend("hal9000")
        assert backend.name == "numpy"

    def test_unknown_name_warns_once_per_process(self):
        with pytest.warns(RuntimeWarning):
            select_backend("hal9000")
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            assert select_backend("hal9000").name == "numpy"

    def test_strict_mode_raises_on_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            select_backend("hal9000", fallback=False)

    def test_strict_mode_raises_on_unavailable(self, monkeypatch):
        _stand_in_cnative(monkeypatch, available=False)
        with pytest.raises(ValueError, match="unavailable: no C compiler"):
            select_backend("cnative", fallback=False)

    def test_unavailable_cnative_falls_back_to_numpy(self, monkeypatch):
        _stand_in_cnative(monkeypatch, available=False)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            backend = select_backend("cnative")
        assert backend.name == "numpy"

    def test_available_backends_shape(self):
        rows = available_backends()
        assert [r["name"] for r in rows] == ["cnative", "numpy"]
        for row in rows:
            assert row["available"] in ("yes", "no")
            assert row["detail"]
        # numpy is the terminal fallback and must always be available
        assert rows[-1] == {
            "name": "numpy",
            "available": "yes",
            "detail": rows[-1]["detail"],
        }

    def test_identity_strings_are_distinct(self):
        ids = {name: select_backend(name).identity() for name in _available_names()}
        assert len(set(ids.values())) == len(ids)
        for name, ident in ids.items():
            assert ident.startswith(f"{name}-")


class TestCacheSalt:
    def test_version_salt_names_backend(self):
        salt = version_salt()
        assert salt["kernel"] == backend_identity()

    def test_salt_tracks_kernel_env(self, monkeypatch):
        _stand_in_cnative(monkeypatch, available=True)
        base = version_salt()["kernel"]
        monkeypatch.setenv(KERNEL_ENV, "cnative")
        assert version_salt()["kernel"] != base
        assert version_salt()["kernel"].startswith("cnative-")


class _BrokenBackend(NumpyBackend):
    """A backend violating equivalence on purpose (KRN001 must fire)."""

    name = "broken"
    version = "0"

    def ekv_eval(self, vg, vd, vs, params):
        ids, gg, gd, gs = super().ekv_eval(vg, vd, vs, params)
        return ids * (1.0 + 1e-6), gg, gd, gs


class TestEquivalenceLint:
    @pytest.mark.parametrize("name", _available_names())
    def test_backend_passes_krn001(self, name):
        report = lint_kernel_equivalence(name, n=256)
        assert not report.errors, [d.message for d in report.errors]

    def test_krn001_fires_on_divergent_backend(self):
        report = lint_kernel_equivalence(_BrokenBackend(), n=256)
        assert report.errors
        assert all(d.rule_id == "KRN001" for d in report.errors)
        assert any("ekv_eval" in d.message for d in report.errors)


class TestPrimitives:
    """Direct primitive-level checks shared by every available backend."""

    @pytest.mark.parametrize("name", _available_names())
    def test_solve_stack_matches_dense_solve(self, name):
        backend = select_backend(name, fallback=False)
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            jac = rng.normal(size=(64, n, n))
            jac[:, np.arange(n), np.arange(n)] += 4.0
            resid = rng.normal(size=(64, n))
            delta = backend.solve_stack(jac.copy(), resid.copy())
            want = np.linalg.solve(jac, -resid[..., None])[..., 0]
            np.testing.assert_allclose(delta, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", _available_names())
    def test_solve_stack_raises_on_singular(self, name):
        backend = select_backend(name, fallback=False)
        jac = np.zeros((4, 2, 2))
        resid = np.ones((4, 2))
        with pytest.raises(np.linalg.LinAlgError):
            backend.solve_stack(jac, resid)

    @pytest.mark.parametrize("name", _available_names())
    def test_apply_update_convergence_bookkeeping(self, name):
        backend = select_backend(name, fallback=False)
        golden = NumpyBackend()
        rng = np.random.default_rng(11)
        v1 = rng.normal(size=(32, 3))
        v2 = v1.copy()
        delta = rng.normal(size=(32, 3)) * 0.05
        rows1, fin1 = backend.apply_update(v1, None, delta.copy(), 0.3, 1e-2)
        rows2, fin2 = golden.apply_update(v2, None, delta.copy(), 0.3, 1e-2)
        assert fin1 == fin2
        np.testing.assert_array_equal(v1, v2)
        if rows2 is None:
            assert rows1 is None
        else:
            np.testing.assert_array_equal(rows1, rows2)

    @pytest.mark.parametrize("name", _available_names())
    def test_ekv_eval_stacked_matches_rows(self, name):
        # The solver's (devices, samples) call must give, row for row,
        # exactly what one call per device gives.
        from repro.spice.mosfet import MosfetParams

        backend = select_backend(name, fallback=False)
        rng = np.random.default_rng(17)
        shape = (3, 200)
        params = MosfetParams(
            vt=0.35 + 0.02 * rng.normal(size=shape),
            ispec=np.full(shape, 2e-6) * (1.0 + 0.1 * rng.normal(size=shape)),
            n_slope=1.3, phi_t=0.0258, dibl=0.08, lam=0.1,
        )
        vg, vd, vs = (0.6 * rng.random(shape) for _ in range(3))
        stacked = backend.ekv_eval(vg, vd, vs, params)
        for j in range(shape[0]):
            row = MosfetParams(
                vt=params.vt[j].copy(), ispec=params.ispec[j].copy(),
                n_slope=1.3, phi_t=0.0258, dibl=0.08, lam=0.1,
            )
            want = backend.ekv_eval(vg[j].copy(), vd[j].copy(), vs[j].copy(), row)
            for got, w in zip(stacked, want):
                assert got.shape == shape
                np.testing.assert_array_equal(got[j], w)

    @pytest.mark.parametrize("name", _available_names())
    @pytest.mark.parametrize("shape", [(200,), (3, 200)])
    def test_ekv_eval_broadcasts_length_one_axes(self, name, shape):
        # A length-1 axis broadcasts like numpy does: the result equals
        # the call on explicitly repeated input.
        from repro.spice.mosfet import MosfetParams

        backend = select_backend(name, fallback=False)
        rng = np.random.default_rng(23)
        one = (1,) * len(shape)
        vt = 0.35 + 0.02 * rng.normal(size=one)
        vg, vd, vs = (0.6 * rng.random(shape) for _ in range(3))
        common = dict(n_slope=1.3, phi_t=0.0258, dibl=0.08, lam=0.1)
        got = backend.ekv_eval(
            vg, vd, vs, MosfetParams(vt=vt, ispec=np.full(shape, 2e-6), **common)
        )
        want = backend.ekv_eval(
            vg, vd, vs,
            MosfetParams(
                vt=np.broadcast_to(vt, shape).copy(),
                ispec=np.full(shape, 2e-6),
                **common,
            ),
        )
        for g, w in zip(got, want):
            assert g.shape == shape
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("name", _available_names())
    def test_apply_update_flags_nonfinite(self, name):
        backend = select_backend(name, fallback=False)
        v = np.zeros((4, 2))
        delta = np.zeros((4, 2))
        delta[1, 0] = np.nan
        _, finite = backend.apply_update(v, None, delta, 0.3, 1e-2)
        assert finite is False


def _simulate_delay(library, tech, variation, kernel, n_samples=64):
    engine = MonteCarloEngine(tech, variation, seed=7, kernel=kernel)
    chz = ArcCharacterizer(engine)
    samples = chz.simulate_arc(
        library.get("NAND2x1"), "A", input_slew=40 * PS, load=2 * FF,
        n_samples=n_samples,
    )
    return samples, engine.perf


class TestEndToEndEquivalence:
    """Accelerated backends must reproduce golden delays to 1e-12 s."""

    @pytest.mark.parametrize(
        "name", [n for n in _available_names() if n != "numpy"]
    )
    def test_delays_match_golden_envelope(self, library, tech, variation, name):
        golden, _ = _simulate_delay(library, tech, variation, "numpy")
        got, perf = _simulate_delay(library, tech, variation, name)
        assert np.max(np.abs(got.delay - golden.delay)) <= 1e-12
        assert np.max(np.abs(got.output_slew - golden.output_slew)) <= 1e-12
        # the run must be attributed to the backend it claims
        assert any(k.startswith(f"{name}.") for k in perf.kernel_ops)

    def test_kernel_ops_counters_populate(self, library, tech, variation):
        _, perf = _simulate_delay(library, tech, variation, "numpy", n_samples=16)
        assert perf.kernel_ops.get("numpy.solve_stack", 0) > 0
        assert perf.kernel_ops.get("numpy.device_eval", 0) > 0
