"""End-to-end delay-calibration flow (the paper's Fig. 5 pipeline).

:class:`DelayCalibrationFlow` wires the whole stack together:

1. **Characterize** the cell library with Monte-Carlo (moments +
   empirical quantiles per arc over the slew×load grid);
2. **Fit** the models: per-arc Eq. (2)/(3) moment calibrations, the
   Table I N-sigma quantile regression (library-wide), and the Eq. (7)
   wire variability weights from wire Monte-Carlo sweeps;
3. **Analyze** circuits with the statistical STA (Eq. 10).

Characterization is by far the expensive step, so the flow caches its
artifacts as JSON in ``cache_dir`` (a :class:`~repro.cache.JsonCache`:
atomic writes, and a corrupt file is recomputed), keyed by a hash of
every knob that affects the data (technology, variation, seeds, grids,
sample counts).
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import JsonCache, content_key
from repro.cells.characterize import (
    DEFAULT_LOADS,
    DEFAULT_SLEWS,
    ArcCharacterizer,
    LibraryCharacterization,
    characterize_library,
)
from repro.perf import PerfCounters
from repro.cells.library import CellLibrary, build_default_library
from repro.cells.liberty import (
    characterization_from_dict,
    characterization_to_dict,
)
from repro.core.calibration import CalibratedCellLibrary
from repro.core.nsigma_cell import NSigmaCellModel
from repro.core.nsigma_wire import WireVariabilityModel, fit_wire_model
from repro.core.sta import STAResult, StatisticalSTA, TimingModels
from repro.interconnect.generate import NetGenerator
from repro.moments.stats import SIGMA_LEVELS, Moments
from repro.netlist.circuit import Circuit
from repro.units import PS, UM
from repro.variation.parameters import Technology, VariationModel

#: Default driver/load sweep used for wire-model fitting (FO1–FO8).
DEFAULT_WIRE_CELLS = ("INVx1", "INVx2", "INVx4", "INVx8")


class DelayCalibrationFlow:
    """Characterize → calibrate → analyze, with on-disk caching.

    Parameters
    ----------
    tech / variation:
        Process description (defaults: the synthetic 28 nm-class setup).
    seed:
        Master seed; characterization, wire fitting and parasitic
        generation derive their seeds from it.
    cache_dir:
        Directory for characterization/model JSON caches (None disables
        caching).
    n_samples:
        Monte-Carlo samples per characterization point.
    slews / loads:
        Characterization grid.
    wire_fit_samples / wire_fit_trees:
        Fidelity of the Eq. (7) wire-weight calibration.
    nsigma_fit_samples:
        When larger than ``n_samples``, the Table I regression is
        trained on a dedicated high-sample dataset (a few operating
        conditions per cell simulated at this count) instead of the
        full characterization grid. The ±3σ regression targets are
        extreme order statistics whose noise scales badly with low
        sample counts; a small deep dataset beats a large shallow one
        for this fit.
    cell_names:
        Library subset to characterize (None = full library; the
        default covers every type at pin A, falling arc).
    workers:
        Process-pool width for the characterization fan-out (None reads
        the ``REPRO_WORKERS`` env var; 1 = serial, no pool). Results are
        bit-identical for any value.
    max_retries / task_timeout:
        Fault-tolerance knobs of the characterization fan-out: extra
        attempts per grid point and an optional per-attempt wall-clock
        budget in seconds (see :class:`repro.parallel.RetryPolicy`).
        Retries reuse each point's derived seed, so results stay
        bit-identical whether or not a retry happened.
    quarantine_budget:
        How many quarantined arcs a characterization run tolerates
        before failing (0 = fail on any, ``None`` = never fail on
        quarantine alone). Quarantined arcs are always surfaced in the
        run report and journal via lint rule RUN001.
    resume:
        Consult per-arc checkpoints in ``cache_dir`` (default). With
        ``False`` every arc is recomputed; checkpoints are still
        rewritten as arcs finish.
    journal:
        Optional run journal: a :class:`repro.journal.RunJournal`, or a
        path to create one at. It is attached to :attr:`perf`, so it
        receives every event the flow's work emits there: run, task,
        checkpoint, cache and quarantine events and perf snapshots
        (JSONL; lint with ``repro lint``).
    kernel:
        Numeric kernel backend for the transient solver (``"numpy"`` or
        ``"cnative"``; see :func:`repro.kernels.select_backend`).
        ``None`` reads the ``REPRO_KERNEL`` env var, defaulting to the
        golden ``numpy`` reference. The choice travels to worker
        processes and is part of every cache key.
    surrogate:
        Active-learning surrogate characterization
        (:mod:`repro.surrogate`): a
        :class:`~repro.surrogate.SurrogateConfig`, a mode string
        (``"gp"`` / ``"off"``), or ``None`` to read the
        ``REPRO_SURROGATE`` env var (unset = dense, the default). When
        enabled, its configuration is salted into every cache key; when
        off, keys are bit-identical to pre-surrogate releases.

    Attributes
    ----------
    perf:
        The flow's one :class:`~repro.perf.PerfCounters` (its engine's):
        solver work, per-stage wall times (``characterize`` /
        ``fit_models`` / ``analyze``), cache and task counters, and the
        journal (``perf.journal``) when one is given.
    cache:
        The :class:`~repro.cache.JsonCache` over ``cache_dir`` (``None``
        without one) holding arc checkpoints and the
        ``charac_<key>.json`` / ``models_<key>.json`` bundles.
    """

    def __init__(
        self,
        tech: Optional[Technology] = None,
        variation: Optional[VariationModel] = None,
        seed: int = 0,
        cache_dir: Optional[str] = None,
        n_samples: int = 2000,
        slews: Sequence[float] = DEFAULT_SLEWS,
        loads: Sequence[float] = DEFAULT_LOADS,
        wire_fit_samples: int = 600,
        wire_fit_trees: int = 2,
        cell_names: Optional[Sequence[str]] = None,
        both_edges: bool = True,
        nsigma_fit_samples: int = 0,
        workers: Optional[int] = None,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        quarantine_budget: Optional[int] = 0,
        resume: bool = True,
        journal=None,
        kernel: Optional[str] = None,
        surrogate=None,
    ):
        from repro.journal import RunJournal
        from repro.spice.montecarlo import MonteCarloEngine
        from repro.surrogate import resolve_surrogate

        self.tech = tech or Technology()
        self.variation = variation or VariationModel()
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.n_samples = n_samples
        self.slews = tuple(slews)
        self.loads = tuple(loads)
        self.wire_fit_samples = wire_fit_samples
        self.wire_fit_trees = wire_fit_trees
        self.library = build_default_library(self.tech)
        self.cell_names = list(cell_names) if cell_names else self.library.names
        self.both_edges = both_edges
        self.nsigma_fit_samples = nsigma_fit_samples
        self.workers = workers
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.quarantine_budget = quarantine_budget
        self.resume = resume
        self.kernel = kernel
        self.surrogate = resolve_surrogate(surrogate)
        self.engine = MonteCarloEngine(
            self.tech, self.variation, seed=self.seed, kernel=self.kernel
        )
        self.perf = self.engine.perf
        if isinstance(journal, (str, os.PathLike)):
            journal = RunJournal(journal)
        self.perf.journal = journal
        self.cache = (
            JsonCache(self.cache_dir, perf=self.perf)
            if self.cache_dir is not None else None
        )

        self._charac: Optional[LibraryCharacterization] = None
        self._models: Optional[TimingModels] = None

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------
    def _cache_key(self, kind: str = "charac") -> str:
        """Content key of the flow's ``charac`` or ``models`` bundle."""
        from repro import __version__
        from repro.kernels import backend_identity

        doc = {
            "repro_version": __version__,
            "kernel": backend_identity(self.kernel),
            "variation_model": type(self.variation).__qualname__,
            "tech": asdict(self.tech),
            "variation": asdict(self.variation),
            "seed": self.seed,
            "n_samples": self.n_samples,
            "slews": self.slews,
            "loads": self.loads,
            "cells": self.cell_names,
            "both_edges": self.both_edges,
            "wire_fit": [self.wire_fit_samples, self.wire_fit_trees],
        }
        # Salted in only when enabled: dense-mode keys must stay
        # bit-identical to pre-surrogate releases.
        if self.surrogate is not None:
            doc["surrogate"] = self.surrogate.identity()
        # version_salt() reads the environment's kernel, not this flow's,
        # so backend_identity(self.kernel) stays in the payload.
        key = content_key(doc)
        # The Table I fit reads nsigma_fit_samples; the tables do not.
        if kind == "models" and self.nsigma_fit_samples:
            key = f"{key}_n{self.nsigma_fit_samples}"
        return key

    # ------------------------------------------------------------------
    def perf_report(self) -> PerfCounters:
        """A snapshot of the flow's counters: stage wall times + solver work."""
        return PerfCounters().merge(self.perf)

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def characterize(self) -> LibraryCharacterization:
        """Run (or load cached) library characterization.

        Fault-tolerant: per-arc checkpoints land in ``cache_dir`` as
        arcs finish, so an interrupted run resumed with the same knobs
        is bit-identical to an uninterrupted one; arcs that fail after
        ``max_retries`` are quarantined (journal + RUN001 lint) and the
        run fails only when ``quarantine_budget`` is exceeded.
        """
        from repro.errors import CharacterizationError
        from repro.lint import lint_characterization

        if self._charac is not None:
            return self._charac
        key = self._cache_key()
        if self.cache is not None and self.resume:
            doc = self.cache.get("charac", key)
            if doc is not None:
                self._charac = characterization_from_dict(
                    doc, source=str(self.cache.path("charac", key))
                )
                # Tables read from disk are linted here; fresh ones were
                # linted by characterize_library.
                lint_characterization(self._charac).raise_if_errors(
                    CharacterizationError, context="library characterization"
                )
                return self._charac
        characterizer = ArcCharacterizer(self.engine)
        self.perf.event(
            "run_start",
            command="characterize", key=key,
            seed=self.seed, n_samples=self.n_samples,
            cells=list(self.cell_names), workers=self.workers,
            max_retries=self.max_retries, task_timeout=self.task_timeout,
            quarantine_budget=self.quarantine_budget, resume=self.resume,
            surrogate=(
                self.surrogate.identity()
                if self.surrogate is not None else None
            ),
        )
        try:
            with self.perf.timer("characterize"):
                self._charac = characterize_library(
                    characterizer,
                    self.library,
                    cells=self.cell_names,
                    slews=self.slews,
                    loads=self.loads,
                    n_samples=self.n_samples,
                    both_edges=self.both_edges,
                    workers=self.workers,
                    cache=self.cache,
                    resume=self.resume,
                    max_retries=self.max_retries,
                    task_timeout=self.task_timeout,
                    quarantine_budget=self.quarantine_budget,
                    surrogate=self.surrogate,
                )
        except BaseException as exc:
            self.perf.event(
                "run_finish", status="error", error_type=type(exc).__name__,
                message=str(exc),
            )
            raise
        if self.cache is not None:
            self.cache.put("charac", key, characterization_to_dict(self._charac))
        self.perf.event(
            "perf_snapshot", stage="characterize",
            counters=self.perf.to_dict(),
        )
        self.perf.event(
            "run_finish", status="ok", arcs=len(self._charac),
            quarantined=len(self._charac.quarantined),
        )
        return self._charac

    def fit_models(self) -> TimingModels:
        """Fit all models (cached as one JSON bundle)."""
        if self._models is not None:
            return self._models
        charac = self.characterize()
        with self.perf.timer("fit_models"):
            calibrated = CalibratedCellLibrary.fit(charac)

            key = self._cache_key("models")
            doc = self.cache.get("models", key) if self.cache is not None else None
            if doc is not None:
                nsigma = NSigmaCellModel.from_dict(doc["nsigma"])
                wire = WireVariabilityModel.from_dict(doc["wire"])
                stage_rho = float(doc.get("stage_correlation", 1.0))
            else:
                from repro.core.correlation import estimate_stage_correlation

                nsigma = self._fit_nsigma(charac)
                wire = self._fit_wire(calibrated)
                stage_rho = estimate_stage_correlation(
                    self.engine, self.library,
                    n_samples=max(600, self.n_samples))
                if self.cache is not None:
                    self.cache.put("models", key, {
                        "nsigma": nsigma.to_dict(),
                        "wire": wire.to_dict(),
                        "stage_correlation": stage_rho,
                    })
        from repro.errors import CalibrationError
        from repro.lint import lint_nsigma_model

        lint_nsigma_model(nsigma).raise_if_errors(
            CalibrationError, context="fitted N-sigma model"
        )
        self._models = TimingModels(
            tech=self.tech,
            library=self.library,
            calibrated=calibrated,
            nsigma=nsigma,
            wire=wire,
            stage_correlation=stage_rho,
        )
        return self._models

    def _fit_nsigma(self, charac: LibraryCharacterization) -> NSigmaCellModel:
        if self.nsigma_fit_samples > self.n_samples:
            return self._fit_nsigma_deep()
        moments: List[Moments] = []
        quantiles: List[Dict[int, float]] = []
        for table in charac.tables.values():
            n_s, n_c, _ = table.moments.shape
            for i in range(n_s):
                for j in range(n_c):
                    mu, sigma, skew, kurt = table.moments[i, j]
                    moments.append(
                        Moments(mu, sigma, skew, kurt, n=table.n_samples)
                    )
                    quantiles.append(
                        {
                            lvl: float(table.quantiles[i, j, k])
                            for k, lvl in enumerate(SIGMA_LEVELS)
                        }
                    )
        return NSigmaCellModel.fit(moments, quantiles)

    def _fit_nsigma_deep(self) -> NSigmaCellModel:
        """Train Table I on a few deep Monte-Carlo populations per cell.

        The ±3σ regression targets are the 0.135 %/99.865 % order
        statistics: at the (broad, shallow) characterization-grid sample
        count they are noise-dominated, so a dedicated dataset — three
        operating conditions per cell at ``nsigma_fit_samples`` — gives
        the fit cleaner targets at modest extra cost.
        """
        from repro.cells.characterize import (
            REFERENCE_LOAD,
            REFERENCE_SLEW,
            ArcCharacterizer,
            fanout_load,
        )
        from repro.moments.stats import empirical_sigma_quantiles

        characterizer = ArcCharacterizer(self.engine)
        moments: List[Moments] = []
        quantiles: List[Dict[int, float]] = []
        mid_slew = self.slews[len(self.slews) // 2]
        mid_load = self.loads[len(self.loads) // 2]
        for name in self.cell_names:
            cell = self.library.get(name)
            conditions = [
                (REFERENCE_SLEW, REFERENCE_LOAD),
                (mid_slew, mid_load),
                (20 * PS, fanout_load(cell, self.tech)),
            ]
            for edge in ((False, True) if self.both_edges else (False,)):
                for slew, load in conditions:
                    res = characterizer.simulate_arc(
                        cell, "A", slew, load, self.nsigma_fit_samples,
                        output_rising=edge)
                    d = res.delay[res.valid]
                    moments.append(Moments.from_samples(d))
                    quantiles.append(empirical_sigma_quantiles(d))
        return NSigmaCellModel.fit(moments, quantiles)

    def _fit_wire(self, calibrated: CalibratedCellLibrary) -> WireVariabilityModel:
        gen = NetGenerator(self.tech, seed=self.seed + 101)
        trees = [
            gen.random_net(mean_length=50 * UM, max_branches=1)
            for _ in range(self.wire_fit_trees)
        ]
        model, _ = fit_wire_model(
            self.engine,
            self.library,
            calibrated,
            trees,
            driver_names=DEFAULT_WIRE_CELLS,
            load_names=DEFAULT_WIRE_CELLS,
            n_samples=self.wire_fit_samples,
        )
        return model

    # ------------------------------------------------------------------
    def analyze(
        self,
        circuit: Circuit,
        input_slew: float = 20 * PS,
        levels: Iterable[int] = SIGMA_LEVELS,
    ) -> STAResult:
        """Run the statistical STA on a parasitic-annotated circuit."""
        models = self.fit_models()
        with self.perf.timer("analyze"):
            sta = StatisticalSTA(circuit, models, input_slew=input_slew)
            return sta.analyze(levels)
