"""Operating-condition calibration of cell moments (Eqs. 1–3).

A cell's delay moments are characterized once at the reference condition
``(S_ref = 10 ps, C_ref = 0.4 fF)``; this module fits the parametric
correction that moves them to any (input slew ``S``, output load ``C``):

* Eq. (2) — ``mu`` and ``sigma`` are *bilinear* in ``(ΔS, ΔC)`` with the
  ``ΔS·ΔC`` cross term (Fig. 4 shows them near-linear in both knobs);
* Eq. (3) — ``skew`` and ``kurt`` need the *cubic* form
  ``P·[ΔS,ΔC] + Q·[ΔS²,ΔC²] + R·[ΔS³,ΔC³] + K·ΔSΔC``.

Deviations are normalized by fixed scales (100 ps, 1 fF) before fitting
so the cubic design matrix stays well conditioned.

As an extension over the paper (which never spells out slew
propagation), the same cubic form is fitted to the arc's mean *output
slew*, giving the STA engine a parametric slew model consistent with
the delay calibration.

For the compiled STA engine (:mod:`repro.core.sta_compiled`),
:class:`ArcTensorBank` packs the fitted coefficients of many arcs into
dense tensors so :meth:`ArcCalibration.moments_at` /
:meth:`ArcCalibration.out_slew_at` can be evaluated for thousands of
(arc, slew, load) queries in a handful of numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.cells.characterize import (
    REFERENCE_LOAD,
    REFERENCE_SLEW,
    CharacterizationTable,
    LibraryCharacterization,
)
from repro.moments.regression import fit_linear, polynomial_features
from repro.moments.stats import Moments
from repro.units import FF, PS

#: Normalization scales for the interpolation features.
SLEW_SCALE = 100 * PS
LOAD_SCALE = 1 * FF


def _eq2(coef, ds, dc):
    """Eq. (2) deviation term over ``[ΔS, ΔC, ΔS·ΔC]``.

    The one Eq. (2)/(3) formula both STA engines evaluate: plain floats
    for a scalar query (``coef`` a list), arrays for
    :class:`ArcTensorBank` (``coef`` unpacks into one array per
    coefficient). It is a fixed left-to-right sum of separately rounded
    products, so the two agree bit for bit — a BLAS dot product may fuse
    multiply-adds and round differently.
    """
    c_s, c_c, c_sc = coef
    return ds * c_s + dc * c_c + ds * dc * c_sc


def _eq3(coef, ds, dc):
    """Eq. (3) deviation term over ``[ΔS, ΔC, ΔS², ΔC², ΔS³, ΔC³, ΔS·ΔC]``.

    Powers are repeated products: ``x**3`` rounds differently in numpy
    and in Python floats, ``x * x * x`` rounds the same in both.
    """
    c_s, c_c, c_s2, c_c2, c_s3, c_c3, c_sc = coef
    ds2 = ds * ds
    dc2 = dc * dc
    return (
        ds * c_s
        + dc * c_c
        + ds2 * c_s2
        + dc2 * c_c2
        + ds2 * ds * c_s3
        + dc2 * dc * c_c3
        + ds * dc * c_sc
    )


@dataclass
class ArcCalibration:
    """Fitted Eq. (2)/(3) coefficients of one timing arc.

    Attributes
    ----------
    cell_name / pin / output_rising:
        Arc identity.
    s_ref / c_ref:
        Reference operating condition (seconds, farads).
    ref:
        Reference moments ``M_ref = [mu0, sigma0, gamma0, kappa0]``.
    mu_coef / sigma_coef:
        Eq. (2) coefficient vectors over ``[ΔS, ΔC, ΔS·ΔC]``
        (normalized deviations).
    skew_coef / kurt_coef:
        Eq. (3) coefficient vectors over
        ``[ΔS, ΔC, ΔS², ΔC², ΔS³, ΔC³, ΔS·ΔC]``.
    slew_ref / slew_coef:
        Output-slew model (same cubic form; reproduction extension).
    s_range / c_range:
        Characterized (min, max) of slew and load. Queries outside are
        clamped — cubic polynomials extrapolate explosively, and real
        timers clamp their LUT indices the same way.
    """

    cell_name: str
    pin: str
    output_rising: bool
    s_ref: float
    c_ref: float
    ref: Moments
    mu_coef: np.ndarray
    sigma_coef: np.ndarray
    skew_coef: np.ndarray
    kurt_coef: np.ndarray
    slew_ref: float
    slew_coef: np.ndarray
    s_range: Tuple[float, float] = (0.0, float("inf"))
    c_range: Tuple[float, float] = (0.0, float("inf"))

    def _deviations(self, slew: float, load: float) -> Tuple[float, float]:
        s_lo, s_hi = self.s_range
        c_lo, c_hi = self.c_range
        slew = min(max(float(slew), s_lo), s_hi)
        load = min(max(float(load), c_lo), c_hi)
        return (slew - self.s_ref) / SLEW_SCALE, (load - self.c_ref) / LOAD_SCALE

    def mu_at(self, slew: float, load: float) -> float:
        """Calibrated mean delay ``mu'`` alone (Eq. 2)."""
        ds, dc = self._deviations(slew, load)
        return self.ref.mu + _eq2(self.mu_coef.tolist(), ds, dc)

    def moments_at(self, slew: float, load: float) -> Moments:
        """Calibrated moments ``[mu', sigma', gamma', kappa']`` (Eqs. 2–3)."""
        ds, dc = self._deviations(slew, load)
        ref = self.ref
        mu = ref.mu + _eq2(self.mu_coef.tolist(), ds, dc)
        sigma = ref.sigma + _eq2(self.sigma_coef.tolist(), ds, dc)
        skew = ref.skew + _eq3(self.skew_coef.tolist(), ds, dc)
        kurt = ref.kurt + _eq3(self.kurt_coef.tolist(), ds, dc)
        # Physicality guards: sigma must stay positive and kurtosis
        # above the Pearson bound kurt >= 1 + skew^2.
        sigma = max(sigma, 1e-3 * ref.sigma)
        kurt = max(kurt, 1.0 + skew * skew + 1e-6)  # repro-lint: disable=UNIT001 (moment slack, unitless)
        return Moments(mu=mu, sigma=sigma, skew=skew, kurt=kurt, n=ref.n)

    def out_slew_at(self, slew: float, load: float) -> float:
        """Calibrated mean output slew (for slew propagation)."""
        ds, dc = self._deviations(slew, load)
        raw = self.slew_ref + _eq3(self.slew_coef.tolist(), ds, dc)
        return max(float(raw), 0.1 * PS)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "cell": self.cell_name,
            "pin": self.pin,
            "edge": "rise" if self.output_rising else "fall",
            "s_ref": self.s_ref,
            "c_ref": self.c_ref,
            "ref": [self.ref.mu, self.ref.sigma, self.ref.skew, self.ref.kurt],
            "ref_n": self.ref.n,
            "mu_coef": self.mu_coef.tolist(),
            "sigma_coef": self.sigma_coef.tolist(),
            "skew_coef": self.skew_coef.tolist(),
            "kurt_coef": self.kurt_coef.tolist(),
            "slew_ref": self.slew_ref,
            "slew_coef": self.slew_coef.tolist(),
            "s_range": list(self.s_range),
            "c_range": list(self.c_range),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArcCalibration":
        """Inverse of :meth:`to_dict`."""
        mu, sigma, skew, kurt = data["ref"]
        return cls(
            cell_name=data["cell"],
            pin=data["pin"],
            output_rising=data["edge"] == "rise",
            s_ref=data["s_ref"],
            c_ref=data["c_ref"],
            ref=Moments(mu, sigma, skew, kurt, n=data.get("ref_n", 0)),
            mu_coef=np.asarray(data["mu_coef"]),
            sigma_coef=np.asarray(data["sigma_coef"]),
            skew_coef=np.asarray(data["skew_coef"]),
            kurt_coef=np.asarray(data["kurt_coef"]),
            slew_ref=data["slew_ref"],
            slew_coef=np.asarray(data["slew_coef"]),
            s_range=tuple(data.get("s_range", (0.0, float("inf")))),
            c_range=tuple(data.get("c_range", (0.0, float("inf")))),
        )


def fit_arc_calibration(
    table: CharacterizationTable,
    s_ref: float = REFERENCE_SLEW,
    c_ref: float = REFERENCE_LOAD,
) -> ArcCalibration:
    """Fit Eq. (2)/(3) coefficients from a characterization grid.

    The reference moments are the table's (bilinear) values at the
    reference condition; every grid point contributes one observation
    of the deviation regression.
    """
    ref = table.moments_at(s_ref, c_ref)
    slew_ref = table.out_slew_at(s_ref, c_ref)

    ss, cc = np.meshgrid(table.slews, table.loads, indexing="ij")
    ds = ((ss - s_ref) / SLEW_SCALE).ravel()
    dc = ((cc - c_ref) / LOAD_SCALE).ravel()
    lin = polynomial_features(ds, dc, degree=1)
    cub = polynomial_features(ds, dc, degree=3)
    if lin.shape[0] < cub.shape[1]:
        raise CalibrationError(
            f"characterization grid of {lin.shape[0]} points is too small for "
            f"the cubic Eq. (3) fit ({cub.shape[1]} coefficients)"
        )

    def fit(features: np.ndarray, grid: np.ndarray, reference: float) -> np.ndarray:
        return fit_linear(features, grid.ravel() - reference, ridge=1e-8).coef

    return ArcCalibration(
        cell_name=table.cell_name,
        pin=table.pin,
        output_rising=table.output_rising,
        s_ref=s_ref,
        c_ref=c_ref,
        ref=ref,
        mu_coef=fit(lin, table.moments[..., 0], ref.mu),
        sigma_coef=fit(lin, table.moments[..., 1], ref.sigma),
        skew_coef=fit(cub, table.moments[..., 2], ref.skew),
        kurt_coef=fit(cub, table.moments[..., 3], ref.kurt),
        slew_ref=slew_ref,
        slew_coef=fit(cub, table.out_slew, slew_ref),
        s_range=(float(table.slews[0]), float(table.slews[-1])),
        c_range=(float(table.loads[0]), float(table.loads[-1])),
    )


@dataclass
class CalibratedCellLibrary:
    """All fitted arc calibrations of a library, keyed like the tables."""

    arcs: Dict[Tuple[str, str, str], ArcCalibration] = field(default_factory=dict)

    @classmethod
    def fit(
        cls,
        charac: LibraryCharacterization,
        s_ref: float = REFERENCE_SLEW,
        c_ref: float = REFERENCE_LOAD,
    ) -> "CalibratedCellLibrary":
        """Fit every characterized arc."""
        out = cls()
        for key, table in charac.tables.items():
            out.arcs[key] = fit_arc_calibration(table, s_ref, c_ref)
        return out

    def get(self, cell_name: str, pin: str, output_rising: bool) -> ArcCalibration:
        """Fetch one arc's calibration.

        Falls back to pin ``A`` of the same cell when the requested pin
        was not characterized (the default library characterization
        covers the representative first pin).
        """
        edge = "rise" if output_rising else "fall"
        key = (cell_name, pin, edge)
        if key in self.arcs:
            return self.arcs[key]
        fallback = (cell_name, "A", edge)
        if fallback in self.arcs:
            return self.arcs[fallback]
        # Last resort: the other edge of pin A (library characterized
        # falling arcs only by default).
        for other_edge in ("fall", "rise"):
            alt = (cell_name, "A", other_edge)
            if alt in self.arcs:
                return self.arcs[alt]
        raise KeyError(
            f"no calibration for {cell_name}/{pin}/{edge}; "
            f"cells present: {sorted({k[0] for k in self.arcs})}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {"arcs": [arc.to_dict() for arc in self.arcs.values()]}

    @classmethod
    def from_dict(cls, data: dict) -> "CalibratedCellLibrary":
        """Inverse of :meth:`to_dict`."""
        out = cls()
        for record in data["arcs"]:
            arc = ArcCalibration.from_dict(record)
            edge = "rise" if arc.output_rising else "fall"
            out.arcs[(arc.cell_name, arc.pin, edge)] = arc
        return out

    def content_digest(self) -> str:
        """Stable hash of every fitted coefficient (cache/drift detection).

        Two libraries with identical digests produce bit-identical
        calibrated moments for every query; the compiled STA engine keys
        its cached arc tensors on this so a re-fitted calibration can
        never be served from a stale compile artifact.
        """
        from repro.cache import content_key

        return content_key(self.to_dict(), length=32)


@dataclass
class ArcTensorBank:
    """Eq. (2)/(3) coefficients of many arcs packed into dense tensors.

    Row ``r`` of every tensor holds one distinct :class:`ArcCalibration`;
    ``index`` maps each requested ``(cell, pin, output_rising)`` arc to
    its row (several keys may share a row through the calibration
    store's pin/edge fallback). The vectorized evaluators accept a
    ``rows`` integer array of any shape plus broadcastable slew/load
    arrays, and apply exactly the scalar :meth:`ArcCalibration`
    arithmetic — clamp to the characterized range, normalize the
    deviations, linear/cubic polynomial contraction, physicality guards
    — as one fused sweep over all queries.

    Attributes
    ----------
    index:
        ``(cell, pin, output_rising)`` → tensor row.
    ref:
        ``(A, 4)`` reference moments ``[mu, sigma, skew, kurt]``.
    mu_coef / sigma_coef:
        ``(A, 3)`` Eq. (2) coefficients over ``[ΔS, ΔC, ΔS·ΔC]``.
    skew_coef / kurt_coef / slew_coef:
        ``(A, 7)`` Eq. (3) coefficients over
        ``[ΔS, ΔC, ΔS², ΔC², ΔS³, ΔC³, ΔS·ΔC]``.
    slew_ref:
        ``(A,)`` reference output slews.
    s_ref / c_ref / s_lo / s_hi / c_lo / c_hi:
        ``(A,)`` reference conditions and clamp ranges.
    """

    index: Dict[Tuple[str, str, bool], int]
    ref: np.ndarray
    mu_coef: np.ndarray
    sigma_coef: np.ndarray
    skew_coef: np.ndarray
    kurt_coef: np.ndarray
    slew_ref: np.ndarray
    slew_coef: np.ndarray
    s_ref: np.ndarray
    c_ref: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    @property
    def n_arcs(self) -> int:
        """Number of distinct packed arcs (tensor rows)."""
        return int(self.ref.shape[0])

    @classmethod
    def pack(
        cls,
        calibrated: CalibratedCellLibrary,
        keys: Iterable[Tuple[str, str, bool]],
    ) -> "ArcTensorBank":
        """Pack the arcs resolved for ``keys`` (deduplicated by identity).

        ``keys`` are resolved through :meth:`CalibratedCellLibrary.get`,
        so the bank reproduces the same pin-``A``/other-edge fallbacks
        the scalar engine applies.
        """
        index: Dict[Tuple[str, str, bool], int] = {}
        rows: Dict[int, int] = {}
        arcs: List[ArcCalibration] = []
        for key in keys:
            if key in index:
                continue
            arc = calibrated.get(*key)
            row = rows.get(id(arc))
            if row is None:
                row = len(arcs)
                rows[id(arc)] = row
                arcs.append(arc)
            index[key] = row
        if not arcs:
            raise CalibrationError("cannot pack an empty arc tensor bank")
        return cls(
            index=index,
            ref=np.array([[a.ref.mu, a.ref.sigma, a.ref.skew, a.ref.kurt] for a in arcs]),
            mu_coef=np.array([a.mu_coef for a in arcs]),
            sigma_coef=np.array([a.sigma_coef for a in arcs]),
            skew_coef=np.array([a.skew_coef for a in arcs]),
            kurt_coef=np.array([a.kurt_coef for a in arcs]),
            slew_ref=np.array([a.slew_ref for a in arcs]),
            slew_coef=np.array([a.slew_coef for a in arcs]),
            s_ref=np.array([a.s_ref for a in arcs]),
            c_ref=np.array([a.c_ref for a in arcs]),
            s_lo=np.array([a.s_range[0] for a in arcs]),
            s_hi=np.array([a.s_range[1] for a in arcs]),
            c_lo=np.array([a.c_range[0] for a in arcs]),
            c_hi=np.array([a.c_range[1] for a in arcs]),
        )

    # -- vectorized evaluation -----------------------------------------
    @staticmethod
    def _columns(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``(K, *rows.shape)``: one gathered array per coefficient."""
        return table.T[:, rows]

    def _deviations(
        self, rows: np.ndarray, slew: np.ndarray, load: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        s = np.clip(slew, self.s_lo[rows], self.s_hi[rows])
        c = np.clip(load, self.c_lo[rows], self.c_hi[rows])
        return (s - self.s_ref[rows]) / SLEW_SCALE, (c - self.c_ref[rows]) / LOAD_SCALE

    def mu_at(self, rows: np.ndarray, slew: np.ndarray, load: np.ndarray) -> np.ndarray:
        """Calibrated mean delays for all (arc row, slew, load) queries."""
        ds, dc = self._deviations(rows, slew, load)
        return self.ref[rows, 0] + _eq2(self._columns(self.mu_coef, rows), ds, dc)

    def moments_at(
        self, rows: np.ndarray, slew: np.ndarray, load: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Calibrated ``(mu, sigma, skew, kurt)`` arrays (Eqs. 2–3).

        Applies the scalar evaluator's physicality guards element-wise:
        sigma floored at ``1e-3 * sigma_ref`` and kurtosis at the
        Pearson bound ``1 + skew**2``.
        """
        ds, dc = self._deviations(rows, slew, load)
        mu = self.ref[rows, 0] + _eq2(self._columns(self.mu_coef, rows), ds, dc)
        sigma = self.ref[rows, 1] + _eq2(self._columns(self.sigma_coef, rows), ds, dc)
        skew = self.ref[rows, 2] + _eq3(self._columns(self.skew_coef, rows), ds, dc)
        kurt = self.ref[rows, 3] + _eq3(self._columns(self.kurt_coef, rows), ds, dc)
        sigma = np.maximum(sigma, 1e-3 * self.ref[rows, 1])
        kurt = np.maximum(kurt, 1.0 + skew * skew + 1e-6)  # repro-lint: disable=UNIT001 (moment slack, unitless)
        return mu, sigma, skew, kurt

    def out_slew_at(
        self, rows: np.ndarray, slew: np.ndarray, load: np.ndarray
    ) -> np.ndarray:
        """Calibrated mean output slews (floored at 0.1 ps, as the scalar)."""
        ds, dc = self._deviations(rows, slew, load)
        raw = self.slew_ref[rows] + _eq3(self._columns(self.slew_coef, rows), ds, dc)
        return np.maximum(raw, 0.1 * PS)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serializable form with ndarray leaves (a pack document part)."""
        return {
            "index": [
                [cell, pin, bool(rising), row]
                for (cell, pin, rising), row in sorted(self.index.items())
            ],
            "ref": self.ref,
            "mu_coef": self.mu_coef,
            "sigma_coef": self.sigma_coef,
            "skew_coef": self.skew_coef,
            "kurt_coef": self.kurt_coef,
            "slew_ref": self.slew_ref,
            "slew_coef": self.slew_coef,
            "s_ref": self.s_ref,
            "c_ref": self.c_ref,
            "s_lo": self.s_lo,
            "s_hi": self.s_hi,
            "c_lo": self.c_lo,
            "c_hi": self.c_hi,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArcTensorBank":
        """Inverse of :meth:`to_dict` (floats round-trip exactly via JSON)."""
        return cls(
            index={
                (cell, pin, bool(rising)): int(row)
                for cell, pin, rising, row in data["index"]
            },
            ref=np.asarray(data["ref"]),
            mu_coef=np.asarray(data["mu_coef"]),
            sigma_coef=np.asarray(data["sigma_coef"]),
            skew_coef=np.asarray(data["skew_coef"]),
            kurt_coef=np.asarray(data["kurt_coef"]),
            slew_ref=np.asarray(data["slew_ref"]),
            slew_coef=np.asarray(data["slew_coef"]),
            s_ref=np.asarray(data["s_ref"]),
            c_ref=np.asarray(data["c_ref"]),
            s_lo=np.asarray(data["s_lo"]),
            s_hi=np.asarray(data["s_hi"]),
            c_lo=np.asarray(data["c_lo"]),
            c_hi=np.asarray(data["c_hi"]),
        )
