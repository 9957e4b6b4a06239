"""Fixed knobs of the benchmark: workload sizes and the fixture recipe.

Both ``run.py`` and ``fixtures/make_fixtures.py`` read these constants,
so the committed fixtures and the workloads that check against them can
never disagree about a seed, grid or sample count.
"""

from __future__ import annotations

#: Master seed of every Monte-Carlo run the fixtures and the
#: ``calibrate`` workload make. The workload seed (``--seed``) never
#: reaches the simulator: it only orders inputs, so outputs stay
#: comparable with the committed references.
MC_SEED = 2023

# ----------------------------------------------------------------------
# calibrate workload: cold cache -> characterize -> fit_models
# ----------------------------------------------------------------------
CALIBRATE_CELLS = (
    "INVx1", "INVx2", "INVx4", "INVx8", "NAND2x1", "NOR2x1", "AOI21x1",
)
CALIBRATE_SLEWS_PS = (10.0, 60.0, 250.0)
CALIBRATE_LOADS_FF = (0.1, 1.5, 9.0)
CALIBRATE_SAMPLES = 400
CALIBRATE_WIRE_SAMPLES = 100
CALIBRATE_WIRE_TREES = 1

# ----------------------------------------------------------------------
# 16-cell library fixture used by the sta and serve workloads
# ----------------------------------------------------------------------
TYPE_NAMES = ("INV", "NAND2", "NOR2", "AOI21")
LIBRARY_CELLS = tuple(f"{t}x{s}" for t in TYPE_NAMES for s in (1, 2, 4, 8))
LIBRARY_SLEWS_PS = (10.0, 60.0, 150.0, 300.0)
LIBRARY_LOADS_FF = (0.1, 0.4, 1.5, 4.0, 9.0, 20.0)
LIBRARY_SAMPLES = 400
LIBRARY_NSIGMA_SAMPLES = 4000
LIBRARY_WIRE_SAMPLES = 300
LIBRARY_WIRE_TREES = 1

#: Parasitic seed of every benchmark circuit.
PARASITIC_SEED = 7

# ----------------------------------------------------------------------
# Golden Monte-Carlo behind nsigma_err_pct: held-out, off-grid points
# (none of these slews/loads is on either characterization grid). The
# points keep the ±3σ delays well above zero, where a relative error
# means something.
# ----------------------------------------------------------------------
GOLDEN_SEED = 777
GOLDEN_SAMPLES = 20000
#: (cell, output rising, input slew ps, load fF)
GOLDEN_POINTS = (
    ("NAND2x1", False, 35.0, 3.0),
    ("NOR2x1", True, 35.0, 3.0),
    ("INVx2", False, 35.0, 3.0),
    ("AOI21x1", True, 35.0, 3.0),
    ("INVx8", True, 20.0, 12.0),
)

# ----------------------------------------------------------------------
# Fixture file names (inside fixtures/)
# ----------------------------------------------------------------------
LIBRARY_FILE = "library16_charac.json"
MODELS_FILE = "library16_models.json"
GOLDEN_FILE = "golden_mc.json"
CALIBRATE_REFERENCE_FILE = "calibrate_reference_charac.json"
MANIFEST_FILE = "MANIFEST.json"
