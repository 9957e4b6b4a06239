"""Regenerate the benchmark's committed fixtures (a few minutes of MC).

Run from the repository root::

    python3 perfbench/fixtures/make_fixtures.py

It writes, next to this script:

* ``library16_charac.json`` / ``library16_models.json`` — the 16-cell
  (INV/NAND2/NOR2/AOI21 × x1–x8) characterization and fitted models the
  ``sta`` and ``serve`` workloads load instead of running Monte-Carlo;
* ``golden_mc.json`` — out-of-sample ±3σ delay quantiles at held-out,
  off-grid operating points, the truth behind ``nsigma_err_pct``;
* ``calibrate_reference_charac.json`` — the tables the ``calibrate``
  workload must reproduce (within 1e-9 relative) on every run;
* ``MANIFEST.json`` — the recipe (seeds, grids, sample counts, all from
  ``perfbench/recipe.py``), the code identity and each file's sha256.

Every bundle is then re-read through the public loaders and linted.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pipeline  # noqa: E402
import recipe  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    pipeline.import_package()
    from repro import __version__
    from repro.cells.characterize import ArcCharacterizer
    from repro.cells.liberty import save_library_characterization
    from repro.kernels import backend_identity
    from repro.spice.montecarlo import MonteCarloEngine
    from repro.units import FF, PS

    out = pipeline.FIXTURES
    work = pipeline.ROOT / ".perfbench_work" / "fixtures"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("16-cell library: characterize + fit ...", flush=True)
        flow = pipeline.library_flow(work / "library")
        save_library_characterization(
            flow.characterize(), out / recipe.LIBRARY_FILE
        )
        (out / recipe.MODELS_FILE).write_text(
            json.dumps(pipeline.models_document(flow.fit_models()))
        )

        print("calibrate workload reference ...", flush=True)
        cal = pipeline.calibrate_flow(work / "calibrate")
        save_library_characterization(
            cal.characterize(), out / recipe.CALIBRATE_REFERENCE_FILE
        )

        print("golden Monte-Carlo ...", flush=True)
        characterizer = ArcCharacterizer(
            MonteCarloEngine(flow.tech, flow.variation, seed=recipe.GOLDEN_SEED)
        )
        points = []
        for cell, rising, slew_ps, load_ff in recipe.GOLDEN_POINTS:
            res = characterizer.simulate_arc(
                flow.library.get(cell), "A", slew_ps * PS, load_ff * FF,
                recipe.GOLDEN_SAMPLES, output_rising=rising,
            )
            points.append({
                "cell": cell, "rising": rising,
                "slew_ps": slew_ps, "load_ff": load_ff,
                "n_valid": int(res.valid.sum()),
                "quantiles_s": pipeline.sigma_quantiles(res.delay[res.valid]),
            })
        (out / recipe.GOLDEN_FILE).write_text(
            json.dumps({"seed": recipe.GOLDEN_SEED,
                        "samples": recipe.GOLDEN_SAMPLES,
                        "points": points}, indent=1)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pipeline.lint_fixture_files()
    models = pipeline.load_library_models()
    err = pipeline.nsigma_error_pct(models, pipeline.golden_points())
    files = (recipe.LIBRARY_FILE, recipe.MODELS_FILE, recipe.GOLDEN_FILE,
             recipe.CALIBRATE_REFERENCE_FILE)
    manifest = {
        "repro_version": __version__,
        "kernel": backend_identity(),
        "recipe": {k: v for k, v in vars(recipe).items()
                   if k.isupper() and not k.endswith("_FILE")},
        "library_nsigma_err_pct": err,
        "sha256": {name: _sha256(out / name) for name in files},
    }
    (out / recipe.MANIFEST_FILE).write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"fixtures written; 16-cell models nsigma_err_pct = {err:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
