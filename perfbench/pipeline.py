"""Shared steps of the workloads and the fixture script.

Everything here goes through the package's public API: the calibration
flow, the Liberty-like bundle loaders, the model ``from_dict`` loaders
and the lint entry points. ``ROOT`` is the checkout the benchmark runs
in; the package is imported from ``ROOT/src``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import recipe

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR / "fixtures"
SRC = ROOT / "src"


def import_package() -> None:
    """Put ``ROOT/src`` on the import path; fail loudly without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: package sources not found under {SRC} "
            "(run from the root of a repository checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def calibrate_flow(
    cache_dir: Path,
    cells: Sequence[str] = recipe.CALIBRATE_CELLS,
    both_edges: bool = True,
    wire_samples: int = recipe.CALIBRATE_WIRE_SAMPLES,
):
    """The ``calibrate`` workload's flow over a cold ``cache_dir``.

    The defaults are the recipe; ``selfcheck.py`` shrinks the edges and
    the wire fit (the characterization grid and seeds stay the same, so
    its tables still match the committed reference).
    """
    from repro.core.flow import DelayCalibrationFlow
    from repro.units import FF, PS

    return DelayCalibrationFlow(
        seed=recipe.MC_SEED,
        cache_dir=str(cache_dir),
        n_samples=recipe.CALIBRATE_SAMPLES,
        slews=tuple(s * PS for s in recipe.CALIBRATE_SLEWS_PS),
        loads=tuple(c * FF for c in recipe.CALIBRATE_LOADS_FF),
        wire_fit_samples=wire_samples,
        wire_fit_trees=recipe.CALIBRATE_WIRE_TREES,
        cell_names=list(cells),
        both_edges=both_edges,
        workers=1,
    )


def library_flow(cache_dir: Path):
    """The flow that produced the committed 16-cell library fixture."""
    from repro.core.flow import DelayCalibrationFlow
    from repro.units import FF, PS

    return DelayCalibrationFlow(
        seed=recipe.MC_SEED,
        cache_dir=str(cache_dir),
        n_samples=recipe.LIBRARY_SAMPLES,
        slews=tuple(s * PS for s in recipe.LIBRARY_SLEWS_PS),
        loads=tuple(c * FF for c in recipe.LIBRARY_LOADS_FF),
        wire_fit_samples=recipe.LIBRARY_WIRE_SAMPLES,
        wire_fit_trees=recipe.LIBRARY_WIRE_TREES,
        cell_names=list(recipe.LIBRARY_CELLS),
        both_edges=True,
        nsigma_fit_samples=recipe.LIBRARY_NSIGMA_SAMPLES,
        workers=1,
    )


def models_document(models) -> dict:
    """The fitted-model bundle in the flow's on-disk layout."""
    return {
        "nsigma": models.nsigma.to_dict(),
        "wire": models.wire.to_dict(),
        "stage_correlation": models.stage_correlation,
    }


def lint_fixture_files() -> None:
    """Every committed fixture bundle must lint clean."""
    from repro.lint import lint_artifact

    for name in (recipe.LIBRARY_FILE, recipe.MODELS_FILE,
                 recipe.CALIBRATE_REFERENCE_FILE):
        report = lint_artifact(FIXTURES / name)
        if report.errors:
            raise RuntimeError(
                f"fixture {name} does not lint clean:\n{report.format_text()}"
            )


def load_library_models():
    """Fitted ``TimingModels`` of the 16-cell fixture, via public loaders."""
    from repro.cells.liberty import load_library_characterization
    from repro.cells.library import build_default_library
    from repro.core.calibration import CalibratedCellLibrary
    from repro.core.nsigma_cell import NSigmaCellModel
    from repro.core.nsigma_wire import WireVariabilityModel
    from repro.core.sta import TimingModels
    from repro.errors import CalibrationError, CharacterizationError
    from repro.lint import lint_characterization, lint_nsigma_model
    from repro.variation.parameters import Technology

    charac = load_library_characterization(FIXTURES / recipe.LIBRARY_FILE)
    lint_characterization(charac).raise_if_errors(
        CharacterizationError, context="library fixture"
    )
    doc = json.loads((FIXTURES / recipe.MODELS_FILE).read_text())
    nsigma = NSigmaCellModel.from_dict(doc["nsigma"])
    lint_nsigma_model(nsigma).raise_if_errors(
        CalibrationError, context="fixture N-sigma model"
    )
    tech = Technology()
    return TimingModels(
        tech=tech,
        library=build_default_library(tech),
        calibrated=CalibratedCellLibrary.fit(charac),
        nsigma=nsigma,
        wire=WireVariabilityModel.from_dict(doc["wire"]),
        stage_correlation=float(doc["stage_correlation"]),
    )


def build_circuit(name: str, tech):
    """Parasitic-annotated ISCAS85-like circuit over the fixture's cell types."""
    from repro.netlist.benchmarks import attach_parasitics, build_iscas85_like

    circuit = build_iscas85_like(name, type_names=recipe.TYPE_NAMES)
    attach_parasitics(circuit, tech, seed=recipe.PARASITIC_SEED)
    return circuit


def golden_points() -> List[dict]:
    """The committed golden Monte-Carlo quantiles."""
    return json.loads((FIXTURES / recipe.GOLDEN_FILE).read_text())["points"]


def nsigma_error_pct(models, points: Iterable[dict]) -> float:
    """Worst ±3σ error (%) of ``models`` against golden MC quantiles."""
    from repro.units import FF, PS

    worst = 0.0
    for p in points:
        arc = models.calibrated.get(p["cell"], "A", p["rising"])
        moments = arc.moments_at(p["slew_ps"] * PS, p["load_ff"] * FF)
        for level, truth in p["quantiles_s"].items():
            est = models.nsigma.quantile(moments, int(level))
            worst = max(worst, abs(est - truth) / truth * 100.0)
    return worst


def tables_max_rel_diff(got, reference, subset: bool = False) -> float:
    """Largest relative difference between two characterizations' tables.

    Returns ``inf`` when ``got`` does not hold the same arcs as
    ``reference`` (with ``subset``: when it holds an arc the reference
    lacks, or none at all).
    """
    import numpy as np

    if subset:
        if not got.tables or not set(got.tables) <= set(reference.tables):
            return float("inf")
    elif set(got.tables) != set(reference.tables):
        return float("inf")
    worst = 0.0
    for key, table in got.tables.items():
        ref = reference.tables[key]
        for field in ("moments", "quantiles", "out_slew"):
            a = np.asarray(getattr(table, field), dtype=float)
            b = np.asarray(getattr(ref, field), dtype=float)
            if a.shape != b.shape:
                return float("inf")
            scale = np.maximum(np.abs(a), np.abs(b))
            diff = np.abs(a - b)
            rel = np.divide(diff, scale, out=np.zeros_like(diff),
                            where=scale > 0)
            worst = max(worst, float(np.max(rel)))
    return worst


def sigma_quantiles(delays) -> Dict[str, float]:
    """Empirical ±3σ quantiles keyed by level (JSON-ready)."""
    from repro.moments.stats import empirical_sigma_quantiles

    return {str(k): float(v) for k, v in
            empirical_sigma_quantiles(delays, (-3, 3)).items()}
