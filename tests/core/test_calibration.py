"""Tests for the Eq. (2)/(3) operating-condition moment calibration."""

import numpy as np
import pytest

from repro.cells.characterize import REFERENCE_LOAD, REFERENCE_SLEW
from repro.core.calibration import (
    ArcCalibration,
    ArcTensorBank,
    CalibratedCellLibrary,
    fit_arc_calibration,
)
from repro.errors import CalibrationError
from repro.moments.stats import Moments
from repro.units import FF, PS


@pytest.fixture(scope="module")
def inv_cal(mini_charac):
    return fit_arc_calibration(mini_charac.get("INVx1", "A", False))


class TestFit:
    def test_reference_point_recovered(self, inv_cal, mini_charac):
        table = mini_charac.get("INVx1", "A", False)
        ref = table.moments_at(REFERENCE_SLEW, REFERENCE_LOAD)
        m = inv_cal.moments_at(REFERENCE_SLEW, REFERENCE_LOAD)
        assert m.mu == pytest.approx(ref.mu, rel=0.02)
        assert m.sigma == pytest.approx(ref.sigma, rel=0.05)

    def test_grid_points_reproduced(self, inv_cal, mini_charac):
        # The bilinear Eq. (2) cannot be exact over a wide grid; check
        # the aggregate residual rather than every corner.
        table = mini_charac.get("INVx1", "A", False)
        errors = []
        for i, s in enumerate(table.slews):
            for j, c in enumerate(table.loads):
                m = inv_cal.moments_at(s, c)
                truth = table.moments[i, j, 0]
                errors.append(abs(m.mu - truth) / truth)
        assert np.mean(errors) < 0.10
        assert max(errors) < 0.30

    def test_mu_increases_with_load(self, inv_cal):
        lo = inv_cal.moments_at(20 * PS, 0.2 * FF).mu
        hi = inv_cal.moments_at(20 * PS, 3 * FF).mu
        assert hi > lo

    def test_mu_increases_with_slew(self, inv_cal):
        lo = inv_cal.moments_at(10 * PS, 1 * FF).mu
        hi = inv_cal.moments_at(200 * PS, 1 * FF).mu
        assert hi > lo

    def test_sigma_floor(self, inv_cal):
        # Even at extreme clamped corners, sigma stays positive.
        m = inv_cal.moments_at(0.0, 0.0)
        assert m.sigma > 0

    def test_kurtosis_pearson_bound(self, inv_cal):
        for s in (5 * PS, 50 * PS, 400 * PS):
            for c in (0.05 * FF, 2 * FF, 20 * FF):
                m = inv_cal.moments_at(s, c)
                assert m.kurt >= 1.0 + m.skew**2

    def test_out_slew_positive_and_monotone_in_load(self, inv_cal):
        lo = inv_cal.out_slew_at(20 * PS, 0.2 * FF)
        hi = inv_cal.out_slew_at(20 * PS, 3 * FF)
        assert 0 < lo < hi

    def test_clamps_beyond_grid(self, inv_cal):
        inside = inv_cal.moments_at(inv_cal.s_range[1], 1 * FF)
        outside = inv_cal.moments_at(10 * inv_cal.s_range[1], 1 * FF)
        assert outside.mu == pytest.approx(inside.mu)

    def test_grid_too_small_rejected(self, mini_charac):
        table = mini_charac.get("INVx1", "A", False)
        import dataclasses
        small = dataclasses.replace(
            table,
            slews=table.slews[:2],
            loads=table.loads[:2],
            moments=table.moments[:2, :2],
            quantiles=table.quantiles[:2, :2],
            out_slew=table.out_slew[:2, :2],
        )
        with pytest.raises(CalibrationError):
            fit_arc_calibration(small)


class TestLibraryContainer:
    def test_fit_covers_all_arcs(self, mini_charac):
        cal = CalibratedCellLibrary.fit(mini_charac)
        assert len(cal.arcs) == len(mini_charac)

    def test_get_exact(self, mini_models):
        arc = mini_models.calibrated.get("INVx1", "A", False)
        assert arc.cell_name == "INVx1"
        assert not arc.output_rising

    def test_get_falls_back_to_pin_a(self, mini_models):
        # NAND2x1 pin B was not characterized; falls back to pin A.
        arc = mini_models.calibrated.get("NAND2x1", "B", False)
        assert arc.pin == "A"

    def test_get_unknown_cell(self, mini_models):
        with pytest.raises(KeyError):
            mini_models.calibrated.get("XORx1", "A", False)

    def test_serialization_round_trip(self, mini_models):
        cal = mini_models.calibrated
        back = CalibratedCellLibrary.from_dict(cal.to_dict())
        arc_a = cal.get("INVx2", "A", False)
        arc_b = back.get("INVx2", "A", False)
        m_a = arc_a.moments_at(30 * PS, 1 * FF)
        m_b = arc_b.moments_at(30 * PS, 1 * FF)
        assert m_a.mu == pytest.approx(m_b.mu)
        assert m_a.kurt == pytest.approx(m_b.kurt)
        assert arc_b.s_range == arc_a.s_range


def guarded_arc() -> ArcCalibration:
    """A synthetic arc whose sigma and kurtosis fall through their guards.

    sigma shrinks by 6 ps per 100 ps of extra input slew, so it drops
    below the 1e-3 floor well inside the range; kurtosis falls by 2 per
    100 ps, under the Pearson bound ``1 + skew**2``.
    """
    return ArcCalibration(
        cell_name="SYN",
        pin="A",
        output_rising=False,
        s_ref=10 * PS,
        c_ref=0.4 * FF,
        ref=Moments(mu=21.3 * PS, sigma=2.7 * PS, skew=0.41, kurt=3.3, n=500),
        mu_coef=np.array([7.1e-12, 3.3e-12, 0.37e-12]),
        sigma_coef=np.array([-6.0e-12, 0.21e-12, 0.013e-12]),
        skew_coef=np.array([0.31, -0.17, 0.093, 0.051, -0.023, 0.011, 0.071]),
        kurt_coef=np.array([-2.0, 0.13, 0.07, -0.03, 0.011, 0.004, -0.05]),
        slew_ref=14.2 * PS,
        slew_coef=np.array([3.7e-11, 9.1e-12, -1.3e-12, 2.2e-13, 1.7e-13, -3.1e-14, 4.3e-13]),
        s_range=(5 * PS, 310 * PS),
        c_range=(0.1 * FF, 9.7 * FF),
    )


class TestScalarMatchesTensorBank:
    """Scalar Eq. (2)/(3) and the packed tensors are one formula, bit for bit."""

    #: Covers both clamp edges of every arc: below the minimum, inside,
    #: and past the maximum characterized slew and load.
    SLEWS = np.concatenate([[0.0, 1 * PS], np.linspace(3.3, 330.7, 23) * PS, [1000 * PS]])
    LOADS = np.concatenate([[0.0], np.linspace(0.07, 11.3, 17) * FF, [50 * FF]])

    @pytest.fixture(scope="class")
    def arcs(self, mini_charac):
        arcs = {("SYN", "A", "fall"): guarded_arc()}
        for cell in ("INVx1", "INVx4"):
            arcs[(cell, "A", "fall")] = fit_arc_calibration(mini_charac.get(cell, "A", False))
        return arcs

    def evaluate(self, arcs):
        cal = CalibratedCellLibrary(arcs=arcs)
        keys = [(cell, pin, False) for cell, pin, _ in arcs]
        bank = ArcTensorBank.pack(cal, keys)
        ss, cc = np.meshgrid(self.SLEWS, self.LOADS, indexing="ij")
        for key in keys:
            arc = cal.get(*key)
            rows = np.full(ss.shape, bank.index[key])
            yield arc, ss, cc, bank.moments_at(rows, ss, cc), bank.out_slew_at(
                rows, ss, cc
            ), bank.mu_at(rows, ss, cc)

    def test_bit_identical(self, arcs):
        for arc, ss, cc, (mu, sigma, skew, kurt), out_slew, mu_only in self.evaluate(arcs):
            for idx in np.ndindex(ss.shape):
                s, c = float(ss[idx]), float(cc[idx])
                m = arc.moments_at(s, c)
                assert (m.mu, m.sigma, m.skew, m.kurt) == (
                    mu[idx], sigma[idx], skew[idx], kurt[idx]
                ), (arc.cell_name, s, c)
                assert arc.mu_at(s, c) == mu_only[idx] == m.mu
                assert arc.out_slew_at(s, c) == out_slew[idx]
                assert type(arc.out_slew_at(s, c)) is float

    def test_grid_hits_clamps_and_guards(self, arcs):
        arc = arcs[("SYN", "A", "fall")]
        s_lo, s_hi = arc.s_range
        c_lo, c_hi = arc.c_range
        assert self.SLEWS.min() < s_lo and self.SLEWS.max() > s_hi
        assert self.LOADS.min() < c_lo and self.LOADS.max() > c_hi
        moments = [arc.moments_at(s, c) for s in self.SLEWS for c in self.LOADS]
        floored = [m for m in moments if m.sigma == 1e-3 * arc.ref.sigma]
        pearson = [m for m in moments if m.kurt == 1.0 + m.skew * m.skew + 1e-6]
        assert floored and len(floored) < len(moments)
        assert pearson and len(pearson) < len(moments)
        # Clamped queries price exactly like the range edge.
        assert arc.moments_at(0.0, 0.0) == arc.moments_at(s_lo, c_lo)
        assert arc.out_slew_at(1.0, 1.0) == arc.out_slew_at(s_hi, c_hi)
