"""The N-sigma cell delay model (Table I of the paper).

Each sigma-level quantile of the (non-Gaussian) cell delay distribution
is expressed as the Gaussian term ``mu + n*sigma`` plus a small number
of moment-interaction corrections:

=============  ======================================================
sigma level    correction features
=============  ======================================================
``-3sigma``    ``B30*sigma*kurt + B31*skew*kurt``
``-2sigma``    ``B20*sigma*skew + B21*sigma*kurt + B22*skew*kurt``
``-1sigma``    ``B10*sigma*skew + B11*skew*kurt``
``0sigma``     ``A00*sigma*skew + A01*skew*kurt``
``+1sigma``    ``A10*sigma*skew + A11*skew*kurt``
``+2sigma``    ``A20*sigma*skew + A21*sigma*kurt + A22*skew*kurt``
``+3sigma``    ``A30*sigma*kurt + A31*skew*kurt``
=============  ======================================================

Skewness mostly displaces the inner quantiles (hence the ``σγ`` terms
between −2σ and +2σ), kurtosis the tails (hence ``σκ`` at ±2σ/±3σ), and
the ``γκ`` cross term appears everywhere — exactly the Table I layout.

One subtlety the paper glosses over: the ``γκ`` product is
dimensionless, so a correction *in seconds* needs a time scale. We use
``sigma * skew * kurt`` for that column (the natural scale-carrying
choice); with the paper's per-library regression both concretizations
fit equally well, and ours keeps the model scale-invariant (tested in
``tests/core/test_nsigma_cell.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.moments.regression import fit_linear
from repro.moments.stats import SIGMA_LEVELS, Moments

#: Feature names per sigma level, mirroring Table I. ``sg`` = sigma*skew,
#: ``sk`` = sigma*kurt_excess, ``gk`` = sigma*skew*kurt_excess.
QUANTILE_FEATURES: Dict[int, Tuple[str, ...]] = {
    -3: ("sk", "gk"),
    -2: ("sg", "sk", "gk"),
    -1: ("sg", "gk"),
    0: ("sg", "gk"),
    1: ("sg", "gk"),
    2: ("sg", "sk", "gk"),
    3: ("sk", "gk"),
}


def _features(sigma, skew, kurt):
    """The Table I feature products, on floats or on arrays alike.

    Excess kurtosis, so that a perfect Gaussian produces zero correction
    (Table I must reduce to ``mu + n*sigma`` for skew=0, kurt=3).
    """
    ke = kurt - 3.0
    return {
        "sg": sigma * skew,
        "sk": sigma * ke,
        "gk": sigma * skew * ke,
    }


def _table1(coef, level, mu, sigma, skew, kurt):
    """One Table I row: ``mu + n*sigma`` plus the fitted corrections.

    The one formula every quantile query evaluates: plain floats for a
    single :class:`Moments` (``coef`` a list), arrays for a sweep over
    path stages. The correction is a fixed left-to-right sum of
    separately rounded products, so both agree bit for bit — a BLAS dot
    product may fuse multiply-adds and round differently.
    """
    feats = _features(sigma, skew, kurt)
    correction = 0.0
    for c, name in zip(coef, QUANTILE_FEATURES[level]):
        correction = correction + c * feats[name]
    return mu + level * sigma + correction


@dataclass
class NSigmaCellModel:
    """Fitted Table I coefficients mapping moments to sigma-level quantiles.

    Attributes
    ----------
    coefficients:
        Sigma level → coefficient vector (aligned with
        :data:`QUANTILE_FEATURES` of that level).
    fit_rms:
        Sigma level → training RMS residual in seconds (diagnostics).
    """

    coefficients: Dict[int, np.ndarray] = field(default_factory=dict)
    fit_rms: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def fit(
        cls,
        moments: Sequence[Moments],
        quantiles: Sequence[Mapping[int, float]],
        ridge: float = 1e-9,  # repro-lint: disable=UNIT001 (damping, unitless)
    ) -> "NSigmaCellModel":
        """Fit the coefficients by linear regression (the paper's MATLAB step).

        Parameters
        ----------
        moments:
            One :class:`~repro.moments.stats.Moments` per observation —
            typically every (cell, pin, slew, load) grid point of a
            library characterization.
        quantiles:
            Matching empirical sigma-level quantiles (from Monte-Carlo),
            each a mapping ``level -> seconds``.
        ridge:
            Damping for nearly collinear feature columns.
        """
        if len(moments) != len(quantiles):
            raise CalibrationError(
                f"{len(moments)} moment sets vs {len(quantiles)} quantile sets"
            )
        if len(moments) < 8:
            raise CalibrationError("need at least 8 observations to fit Table I")
        model = cls()
        feats = [_features(m.sigma, m.skew, m.kurt) for m in moments]
        for level in SIGMA_LEVELS:
            names = QUANTILE_FEATURES[level]
            x = np.array([[f[n] for n in names] for f in feats])
            y = np.array(
                [q[level] - (m.mu + level * m.sigma) for m, q in zip(moments, quantiles)]
            )
            fit = fit_linear(x, y, ridge=ridge)
            model.coefficients[level] = fit.coef
            model.fit_rms[level] = fit.residual_rms
        return model

    def _coef(self, level: int) -> np.ndarray:
        if level not in self.coefficients:
            raise CalibrationError(
                f"no coefficients for sigma level {level}; fitted: "
                f"{sorted(self.coefficients)}"
            )
        return self.coefficients[level]

    def quantile(self, m: Moments, level: int) -> float:
        """Predict the sigma-level quantile for the given moments (Table I row)."""
        coef = self._coef(level).tolist()
        return float(_table1(coef, level, m.mu, m.sigma, m.skew, m.kurt))

    def quantiles(self, m: Moments, levels: Iterable[int] = SIGMA_LEVELS) -> Dict[int, float]:
        """All requested sigma-level quantiles at once."""
        return {n: self.quantile(m, n) for n in levels}

    def quantile_array(
        self,
        mu: np.ndarray,
        sigma: np.ndarray,
        skew: np.ndarray,
        kurt: np.ndarray,
        level: int,
    ) -> np.ndarray:
        """Vectorized Table I row over arrays of moments.

        Element ``i`` equals ``quantile(Moments(mu[i], sigma[i], skew[i],
        kurt[i]), level)`` bit for bit: both evaluate :func:`_table1`.
        The STA engine uses this to price all path stages in one sweep.
        """
        return _table1(self._coef(level), level, mu, sigma, skew, kurt)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "coefficients": {str(k): v.tolist() for k, v in self.coefficients.items()},
            "fit_rms": {str(k): v for k, v in self.fit_rms.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NSigmaCellModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            coefficients={int(k): np.asarray(v) for k, v in data["coefficients"].items()},
            fit_rms={int(k): float(v) for k, v in data.get("fit_rms", {}).items()},
        )
