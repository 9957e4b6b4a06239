"""Active-learning surrogate characterization of one timing arc.

Instead of simulating every point of the requested (slew x load) grid,
the loop here picks a small subset of *real* Monte-Carlo evaluations and
lets Gaussian processes (:mod:`repro.surrogate.gp`) predict the rest:

1. **Seed design** — a Latin hypercube over the unit square
   (:func:`repro.variation.lhs.latin_hypercube_unit`), snapped to grid
   points, plus the mandatory anchors: the four grid corners and the
   point nearest the paper's reference condition (the Eq. 2/3
   calibration is anchored there, so it must be real data).
2. **Break-point guard** — after the first fit, the mu surface is
   compared against the best bilinear model (the functional form of the
   Eq. 2 calibration). Grid points whose bilinear residual exceeds
   ``breakpoint_tol`` of the surface range mark where the
   linear/bilinear validity domain ends (Agarwal-style break-point
   analysis); they are forced into the simulated set rather than
   trusted to the surrogate.
3. **Acquisition** — one GP per statistic (mu, sigma, skew, kurt, each
   sigma-level quantile, mean output slew); the next point is the grid
   candidate with the worst budget-normalized posterior standard
   deviation across the gated statistics (max posterior variance,
   deterministic index tie-break).
4. **Stopping** — when every gated statistic's predicted standard error
   over the *whole* requested grid falls under its relative budget, or
   the point cap is hit (SUR002 warning).
5. **Cross-validation gate** — analytic leave-one-out residuals of the
   mu surface; a breach of ``cv_budget`` (SUR001) aborts the surrogate
   and the caller falls back to the dense grid for that arc.

Every candidate is a point of the *requested dense grid*, so a
simulated point reuses the exact per-point seed of the dense path
(:func:`repro.parallel.task_seed` over the same ``(arc, i, j)``
identity) and carries bit-identical Monte-Carlo values. The emitted
table therefore has the same shape and layout as a dense run; only the
non-simulated entries are GP posterior means.

This module is simulation-agnostic: the caller supplies a ``runner``
that maps grid indices to per-point characterization records, which
keeps the loop unit-testable against synthetic surfaces and free of
circular imports with :mod:`repro.cells.characterize`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.moments.stats import SIGMA_LEVELS
from repro.perf import PerfCounters
from repro.surrogate.gp import GaussianProcess
from repro.units import PS
from repro.variation.lhs import latin_hypercube_unit

#: Environment variable selecting the surrogate mode (``off`` / ``gp``).
SURROGATE_ENV = "REPRO_SURROGATE"

#: Provenance keys every surrogate table must carry (SUR003).
PROVENANCE_REQUIRED_KEYS = (
    "method",
    "n_grid",
    "n_simulated",
    "n_predicted",
    "simulated",
    "statistics",
    "cv",
    "converged",
    "fallback",
)

#: Statistic names in table order: four moments, the sigma-level
#: quantiles, and the mean output slew.
STATISTIC_NAMES: Tuple[str, ...] = (
    "mu",
    "sigma",
    "skew",
    "kurt",
    *(f"q{level:+d}" for level in SIGMA_LEVELS),
    "out_slew",
)

#: Default relative predicted-standard-error budgets per statistic
#: family (fraction of the observed surface range). ``skew``/``kurt``
#: are predicted but not gating by default: their Monte-Carlo estimator
#: noise at characterization sample counts swamps surface structure, and
#: the cubic Eq. (3) fit smooths over the grid anyway. The values are
#: calibrated so a smooth arc converges around ``n_grid / 5`` simulated
#: points (measured: max true mu error ~4% of range at 5.8x reduction
#: on an 8x8 grid); remember the dense table itself carries Monte-Carlo
#: estimator noise of the same order at characterization sample counts.
DEFAULT_BUDGETS: Mapping[str, float] = {
    "mu": 0.04,
    "sigma": 0.08,
    "quantile": 0.08,
    "out_slew": 0.08,
}


def budget_family(statistic: str) -> str:
    """Map a statistic name onto its budget family."""
    return "quantile" if statistic.startswith("q") else statistic


def estimator_noise_var(
    name: str, mean_sigma: float, mean_kurt: float, n_samples: int
) -> float:
    """Analytic Monte-Carlo estimator variance of one statistic.

    The characterization points are themselves noisy estimates from
    ``n_samples`` Monte-Carlo draws; their standard errors are known in
    closed form (normal-theory asymptotics), so the GP nugget can be
    floored at real estimator noise instead of letting the marginal
    likelihood claim near-interpolation certainty from a handful of
    points. Returned in squared original units (seconds^2 for delays
    and slews, dimensionless for skew/kurtosis).
    """
    if n_samples <= 1 or mean_sigma <= 0.0:
        return 0.0
    n = float(n_samples)
    if name == "mu":
        return mean_sigma**2 / n
    if name == "sigma":
        # Var of the sample standard deviation (delta method).
        return mean_sigma**2 * max(mean_kurt - 1.0, 0.5) / (4.0 * n)
    if name == "skew":
        return 6.0 / n
    if name == "kurt":
        return 24.0 / n
    if name.startswith("q"):
        # Asymptotic quantile-estimator variance p(1-p) / (n phi(z)^2)
        # scaled by sigma^2, for the sigma-level z of this quantile.
        z = float(name[1:])
        phi = float(np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))
        p = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
        return mean_sigma**2 * p * (1.0 - p) / (n * phi * phi)
    if name == "out_slew":
        # Mean output slew over the sample set; its spread is of the
        # same order as the delay spread, which serves as the proxy.
        return mean_sigma**2 / n
    return 0.0


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of the active-learning surrogate (content-hashable).

    Attributes
    ----------
    mode:
        ``"gp"`` (the only surrogate) or ``"off"``.
    n_seed:
        Latin-hypercube seed points on top of the mandatory anchors
        (0 = auto: ``max(3, round(0.06 * n_grid))``; a lean seed design
        leaves more of the point budget to acquisition, which measures
        better than blind LHS coverage at equal cost).
    max_points:
        Hard cap on simulated points per arc (0 = auto:
        ``max(anchors + n_seed + 2, ceil(n_grid / 4))``). Hitting the
        cap before the budgets converge is a SUR002 warning, never an
        error — the table is still emitted with honest provenance.
    batch:
        Acquisition points simulated per round (rounds fan out over the
        worker pool; larger batches trade acquisition optimality for
        parallelism).
    budgets:
        Relative predicted-SE budget per statistic family
        (``mu`` / ``sigma`` / ``skew`` / ``kurt`` / ``quantile`` /
        ``out_slew``); families absent from the mapping do not gate.
    cv_budget:
        SUR001 gate: maximum leave-one-out mu residual as a fraction of
        the observed mu range before the arc falls back to dense.
    breakpoint_tol:
        Bilinear-residual fraction of the mu range beyond which a grid
        point is considered outside the Eq. (2) linear/bilinear validity
        domain and is force-simulated.
    n_restarts:
        Random hyperparameter restarts per GP fit (seeded, see
        :meth:`repro.surrogate.gp.GaussianProcess.fit`).
    """

    mode: str = "gp"
    n_seed: int = 0
    max_points: int = 0
    batch: int = 2
    budgets: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BUDGETS)
    )
    cv_budget: float = 0.08
    breakpoint_tol: float = 0.05
    n_restarts: int = 4

    @property
    def enabled(self) -> bool:
        return self.mode == "gp"

    def identity(self) -> dict:
        """Content-key payload: every knob that changes the output."""
        return {
            "mode": self.mode,
            "n_seed": self.n_seed,
            "max_points": self.max_points,
            "batch": self.batch,
            "budgets": {k: float(v) for k, v in sorted(self.budgets.items())},
            "cv_budget": self.cv_budget,
            "breakpoint_tol": self.breakpoint_tol,
            "n_restarts": self.n_restarts,
        }

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["SurrogateConfig"]:
        """Build a config from a CLI/env token (``off``/empty -> None)."""
        if spec is None:
            return None
        token = spec.strip().lower()
        if token in ("", "off", "none", "0", "false"):
            return None
        if token == "gp":
            return cls()
        raise CharacterizationError(
            f"unknown surrogate mode {spec!r} (expected 'gp' or 'off')"
        )

    @classmethod
    def from_env(cls) -> Optional["SurrogateConfig"]:
        """Read :data:`SURROGATE_ENV` (unset/off -> None)."""
        return cls.parse(os.environ.get(SURROGATE_ENV, ""))


def resolve_surrogate(
    surrogate: "Optional[SurrogateConfig | str]",
) -> Optional[SurrogateConfig]:
    """Normalize a constructor argument: config, mode string, or None (env)."""
    if isinstance(surrogate, SurrogateConfig):
        return surrogate if surrogate.enabled else None
    if isinstance(surrogate, str):
        return SurrogateConfig.parse(surrogate)
    if surrogate is None:
        return SurrogateConfig.from_env()
    raise CharacterizationError(
        f"surrogate must be a SurrogateConfig, mode string or None, "
        f"got {type(surrogate).__name__}"
    )


# ----------------------------------------------------------------------
# Grid geometry
# ----------------------------------------------------------------------
def normalize_grid(slews: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Unit-square coordinates of every grid point, shape ``(n_grid, 2)``.

    Axes are normalized by their physical span (not index rank), so the
    GP lengthscales describe real slew/load distances.
    """
    slews = np.asarray(slews, dtype=float)
    loads = np.asarray(loads, dtype=float)
    s_span = slews[-1] - slews[0] if slews.size > 1 else 1.0
    c_span = loads[-1] - loads[0] if loads.size > 1 else 1.0
    u = (slews - slews[0]) / (s_span if s_span > 0 else 1.0)
    v = (loads - loads[0]) / (c_span if c_span > 0 else 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()])


def seed_indices(
    n_slews: int,
    n_loads: int,
    n_seed: int,
    rng: np.random.Generator,
    reference: Optional[Tuple[int, int]] = None,
) -> List[Tuple[int, int]]:
    """Mandatory anchors + LHS seed points, as sorted (i, j) grid indices.

    Anchors are the four grid corners (the bilinear calibration's
    support) and, when given, the reference-condition point. The Latin
    hypercube fills the interior; duplicate snaps collapse.
    """
    chosen: "dict[Tuple[int, int], None]" = {}
    for i in (0, n_slews - 1):
        for j in (0, n_loads - 1):
            chosen[(i, j)] = None
    if reference is not None:
        chosen[(int(reference[0]), int(reference[1]))] = None
    if n_seed > 0:
        unit = latin_hypercube_unit(n_seed, 2, rng)
        for u, v in unit:
            i = int(round(u * (n_slews - 1)))
            j = int(round(v * (n_loads - 1)))
            chosen[(i, j)] = None
    return sorted(chosen)


def bilinear_residual_field(
    coords: np.ndarray, train_idx: np.ndarray, mu_grid: np.ndarray
) -> np.ndarray:
    """Residual of the best bilinear model over the full grid.

    Fits ``mu ~ 1 + u + v + u*v`` (the functional form of the Eq. 2
    calibration) to the GP mu surface at the *simulated* points and
    evaluates the absolute residual everywhere — large residuals mark
    the end of the linear/bilinear validity domain (the Agarwal-style
    break-point region), where the surrogate must not replace real
    sampling.
    """
    feats = np.column_stack([
        np.ones(coords.shape[0]),
        coords[:, 0],
        coords[:, 1],
        coords[:, 0] * coords[:, 1],
    ])
    coef, *_ = np.linalg.lstsq(feats[train_idx], mu_grid[train_idx], rcond=None)
    return np.abs(mu_grid - feats @ coef)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
@dataclass
class SurrogateArcResult:
    """Outcome of one arc's active-learning characterization.

    ``moments`` / ``quantiles`` / ``out_slew`` have the exact dense-grid
    layout; entries at ``simulated`` indices are bit-identical
    Monte-Carlo values, the rest are GP posterior means. ``fallback``
    is a reason string when the surrogate refused (SUR001 breach or a
    grid too small to save anything) — the caller must then simulate
    the remaining points densely. ``point_records`` maps (i, j) to the
    raw per-point records already simulated, so a fallback reuses them
    instead of re-simulating.
    """

    moments: Optional[np.ndarray]
    quantiles: Optional[np.ndarray]
    out_slew: Optional[np.ndarray]
    simulated: List[Tuple[int, int]]
    provenance: dict
    converged: bool
    fallback: Optional[str]
    point_records: Dict[Tuple[int, int], dict]


def _collect(
    records: Mapping[Tuple[int, int], dict], order: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Stack per-point records into a ``(n_points, n_statistics)`` matrix."""
    rows = []
    for ij in order:
        rec = records[ij]
        rows.append([*rec["moments"], *rec["quantiles"], rec["out_slew"]])
    return np.asarray(rows, dtype=float)


def run_active_learning(
    slews: np.ndarray,
    loads: np.ndarray,
    runner: Callable[[Sequence[Tuple[int, int]]], Dict[Tuple[int, int], dict]],
    seed: int,
    config: SurrogateConfig,
    reference: Optional[Tuple[int, int]] = None,
    n_samples: int = 0,
    perf: Optional[PerfCounters] = None,
    arc: Optional[Sequence[str]] = None,
) -> SurrogateArcResult:
    """Run the acquisition loop for one arc over the requested grid.

    Parameters
    ----------
    slews / loads:
        The dense grid the downstream consumers expect (validated,
        strictly ascending).
    runner:
        Maps a list of (i, j) grid indices to their per-point
        characterization records (``moments`` / ``quantiles`` /
        ``out_slew`` keys, as produced by
        :func:`repro.cells.characterize._characterize_point`). The
        runner owns parallelism, retries and perf accounting.
    seed:
        Content-hash-derived seed for the LHS design and GP restarts
        (``task_seed(engine seed, "surrogate", arc identity)``).
    reference:
        Grid index of the reference condition to force into the seed
        design, if the reference lies on the grid.
    n_samples:
        Monte-Carlo draws behind each simulated point; used to floor the
        GP nugget at the analytic estimator noise
        (:func:`estimator_noise_var`). 0 disables the floor.
    perf / arc:
        Optional :class:`~repro.perf.PerfCounters` receiving the
        ``surrogate_fit`` / ``acquisition`` / ``surrogate_fallback``
        events (journaled when a journal is attached to it), plus the
        arc identity they carry.
    """
    slews = np.asarray(slews, dtype=float)
    loads = np.asarray(loads, dtype=float)
    n_s, n_c = slews.size, loads.size
    n_grid = n_s * n_c
    arc_label = list(arc) if arc is not None else []
    perf = perf if perf is not None else PerfCounters()

    def fallback(reason: str, records: Dict[Tuple[int, int], dict],
                 provenance: Optional[dict] = None) -> SurrogateArcResult:
        perf.event("surrogate_fallback", arc=arc_label, reason=reason,
                   n_simulated=len(records))
        return SurrogateArcResult(
            moments=None, quantiles=None, out_slew=None,
            simulated=sorted(records), provenance=provenance or {},
            converged=False, fallback=reason, point_records=records,
        )

    rng = np.random.default_rng(seed)
    n_seed = config.n_seed if config.n_seed > 0 else max(3, round(0.06 * n_grid))
    seeds = seed_indices(n_s, n_c, n_seed, rng, reference=reference)
    cap = (
        config.max_points
        if config.max_points > 0
        else max(len(seeds) + 2, int(np.ceil(n_grid / 4)))
    )
    cap = min(cap, n_grid)
    if n_grid < 9 or cap >= n_grid or len(seeds) >= cap:
        # Nothing to save: the mandatory anchors already exhaust the
        # budget. Simulate nothing here; the caller runs the dense grid.
        return fallback("grid_too_small", {})

    coords = normalize_grid(slews, loads)
    all_ij = [(i, j) for i in range(n_s) for j in range(n_c)]
    ij_to_flat = {ij: k for k, ij in enumerate(all_ij)}

    records: Dict[Tuple[int, int], dict] = dict(runner(seeds))
    seed_set = sorted(records)
    breakpoint_points: List[Tuple[int, int]] = []
    budgets = {
        name: config.budgets.get(budget_family(name))
        for name in STATISTIC_NAMES
    }

    def fit_round() -> Tuple[Dict[str, GaussianProcess], np.ndarray, List[Tuple[int, int]]]:
        order = sorted(records)
        train = _collect(records, order)
        x = coords[[ij_to_flat[ij] for ij in order]]
        mean_sigma = float(np.mean(train[:, 1]))
        mean_kurt = float(np.mean(train[:, 3]))
        gps = {
            name: GaussianProcess.fit(
                x, train[:, k], seed=seed + 1 + k,
                n_restarts=config.n_restarts,
                noise_var=estimator_noise_var(
                    name, mean_sigma, mean_kurt, n_samples
                ),
            )
            for k, name in enumerate(STATISTIC_NAMES)
        }
        return gps, x, order

    converged = False
    rel_se: Dict[str, float] = {}
    gps: Dict[str, GaussianProcess] = {}
    rounds = 0
    while True:
        gps, _x, order = fit_round()
        rounds += 1

        if rounds == 1 and config.breakpoint_tol > 0:
            # Break-point guard: force-simulate the region where the
            # bilinear (Eq. 2) form stops describing the mu surface.
            mu_mean, _ = gps["mu"].predict(coords)
            mu_span = float(mu_mean.max() - mu_mean.min())
            if mu_span > 0:
                train_idx = np.asarray([ij_to_flat[ij] for ij in order])
                resid = bilinear_residual_field(coords, train_idx, mu_mean)
                hot = [
                    all_ij[k]
                    for k in np.argsort(-resid)
                    if resid[k] > config.breakpoint_tol * mu_span
                    and all_ij[k] not in records
                ]
                room = max(cap - len(records) - 1, 0)
                breakpoint_points = sorted(hot[:room])
                if breakpoint_points:
                    records.update(runner(breakpoint_points))
                    gps, _x, order = fit_round()

        # Predicted relative standard error over the full grid, per
        # gated statistic (scale = observed surface range).
        pending = [ij for ij in all_ij if ij not in records]
        pending_x = coords[[ij_to_flat[ij] for ij in pending]]
        scores = np.zeros(len(pending))
        rel_se = {}
        for name in STATISTIC_NAMES:
            budget = budgets[name]
            gp = gps[name]
            span = float(np.ptp(gp.y))
            if span <= 0.0:
                rel_se[name] = 0.0
                continue
            _, var = gp.predict(pending_x)
            sd_rel = np.sqrt(var) / span
            rel_se[name] = float(sd_rel.max()) if sd_rel.size else 0.0
            if budget is not None and budget > 0:
                scores = np.maximum(scores, sd_rel / budget)
        perf.event(
            "surrogate_fit", arc=arc_label, round=rounds,
            n_simulated=len(records),
            rel_se={k: round(v, 6) for k, v in rel_se.items()},
        )
        gated = [
            name for name in STATISTIC_NAMES
            if budgets[name] is not None and budgets[name] > 0
        ]
        if not pending or all(rel_se[name] <= budgets[name] for name in gated):
            converged = True
            break
        if len(records) >= cap:
            break

        # Acquisition: worst budget-normalized posterior sd first;
        # deterministic (i, j) tie-break via stable argsort.
        room = min(config.batch, cap - len(records), len(pending))
        ranked = np.argsort(-scores, kind="stable")[:room]
        batch = sorted(pending[k] for k in ranked)
        perf.event("acquisition", arc=arc_label, round=rounds,
                   points=[list(ij) for ij in batch])
        records.update(runner(batch))

    # ------------------------------------------------------------------
    # Cross-validation gate (SUR001): leave-one-out residuals of mu.
    # The gate covers *interior* training points only: removing a grid
    # corner (or the reference anchor) turns its LOO prediction into an
    # extrapolation the emitted table never performs — anchors are
    # always simulated, so their entries are exact Monte-Carlo data and
    # their LOO residuals measure a deployment that does not exist.
    order = sorted(records)
    anchors = {(i, j) for i in (0, n_s - 1) for j in (0, n_c - 1)}
    if reference is not None:
        anchors.add((int(reference[0]), int(reference[1])))
    mu_values = _collect(records, order)[:, 0]
    mu_span = float(np.ptp(mu_values))
    loo = np.abs(gps["mu"].loo_residuals())
    interior = np.asarray([ij not in anchors for ij in order], dtype=bool)
    cv_max = float(loo[interior].max()) if interior.any() else 0.0
    cv_max_all = float(loo.max()) if loo.size else 0.0
    cv_rel = cv_max / mu_span if mu_span > 0 else 0.0
    cv = {
        "statistic": "mu",
        "max_abs_residual_s": cv_max,
        "max_abs_residual_anchors_s": cv_max_all,
        "n_interior": int(interior.sum()),
        "scale_s": mu_span,
        "rel": cv_rel,
        "budget": config.cv_budget,
    }
    provenance = {
        "method": "gp",
        "version": 1,
        "n_grid": n_grid,
        "n_simulated": len(records),
        "n_predicted": n_grid - len(records),
        "simulated": [list(ij) for ij in order],
        "seed_points": [list(ij) for ij in seed_set],
        "breakpoint_points": [list(ij) for ij in breakpoint_points],
        "rounds": rounds,
        "statistics": {
            name: {**gps[name].hyper.as_dict(),
                   "rel_se": round(rel_se.get(name, 0.0), 6)}
            for name in STATISTIC_NAMES
        },
        "cv": cv,
        "converged": converged,
        "fallback": None,
        "config": config.identity(),
    }
    if cv_rel > config.cv_budget:
        provenance["fallback"] = "cv_residual"
        return fallback("cv_residual", records, provenance)

    # ------------------------------------------------------------------
    # Evaluate the surrogate on the dense grid; simulated entries carry
    # their exact Monte-Carlo values.
    predictions = {
        name: gps[name].predict(coords)[0].reshape(n_s, n_c)
        for name in STATISTIC_NAMES
    }
    moments = np.stack(
        [predictions[n] for n in ("mu", "sigma", "skew", "kurt")], axis=-1
    )
    quantiles = np.stack(
        [predictions[f"q{level:+d}"] for level in SIGMA_LEVELS], axis=-1
    )
    out_slew = predictions["out_slew"]

    # Physicality guards on *predicted* entries (mirrors the calibrated
    # evaluators): non-negative sigma, Pearson-valid kurtosis,
    # non-decreasing quantiles across sigma levels, positive out-slew,
    # and mu no lower than the geometric -input_slew floor.
    sim_rows = _collect(records, order)
    sigma_floor = 1e-3 * float(np.min(sim_rows[:, 1]))
    moments[..., 1] = np.maximum(moments[..., 1], max(sigma_floor, 0.0))
    moments[..., 3] = np.maximum(
        moments[..., 3], 1.0 + moments[..., 2] ** 2 + 1e-6  # repro-lint: disable=UNIT001 (moment slack, unitless)
    )
    moments[..., 0] = np.maximum(moments[..., 0], -0.999 * slews[:, None])
    quantiles = np.maximum.accumulate(quantiles, axis=-1)
    out_slew = np.maximum(out_slew, 0.1 * PS)

    for ij in order:
        i, j = ij
        rec = records[ij]
        moments[i, j] = rec["moments"]
        quantiles[i, j] = rec["quantiles"]
        out_slew[i, j] = rec["out_slew"]

    return SurrogateArcResult(
        moments=moments, quantiles=quantiles, out_slew=out_slew,
        simulated=order, provenance=provenance, converged=converged,
        fallback=None, point_records=records,
    )


def validate_provenance(provenance: Mapping[str, object]) -> List[str]:
    """Structural problems of a surrogate provenance record (SUR003).

    Returns human-readable problem strings; empty means valid.
    """
    problems: List[str] = []
    for key in PROVENANCE_REQUIRED_KEYS:
        if key not in provenance:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if provenance["method"] != "gp":
        problems.append(f"unknown method {provenance['method']!r}")
    try:
        n_sim = int(provenance["n_simulated"])  # type: ignore[arg-type]
        n_pred = int(provenance["n_predicted"])  # type: ignore[arg-type]
        n_grid = int(provenance["n_grid"])  # type: ignore[arg-type]
        if n_sim + n_pred != n_grid:
            problems.append(
                f"n_simulated ({n_sim}) + n_predicted ({n_pred}) "
                f"!= n_grid ({n_grid})"
            )
        if n_sim != len(provenance["simulated"]):  # type: ignore[arg-type]
            problems.append(
                f"n_simulated ({n_sim}) does not match the simulated "
                f"point list ({len(provenance['simulated'])})"  # type: ignore[arg-type]
            )
    except (TypeError, ValueError):
        problems.append("point counts are not integers")
    cv = provenance.get("cv")
    if not isinstance(cv, Mapping) or "rel" not in cv or "budget" not in cv:
        problems.append("cv record lacks rel/budget")
    stats = provenance.get("statistics")
    if not isinstance(stats, Mapping) or "mu" not in stats:
        problems.append("statistics record lacks the mu surface")
    return problems
