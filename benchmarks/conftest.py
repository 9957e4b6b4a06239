"""Shared fixtures for the paper-reproduction benchmarks.

Fidelity is controlled by environment variables so the same harness
serves quick shape checks and paper-fidelity runs:

================  =======  =====================================
variable          default  meaning
================  =======  =====================================
REPRO_BENCH_SAMPLES  1200  MC samples per characterization point
REPRO_BENCH_MC       3000  MC samples for golden references
REPRO_BENCH_PATH_MC   400  MC samples for golden *path* references
REPRO_WORKERS           1  characterization worker processes
================  =======  =====================================

Characterization and fitted models are cached under
``benchmarks/.bench_cache`` (delete to force re-characterization);
the flow additionally keeps per-arc content-hashed tables there via
:class:`repro.cache.JsonCache` (``arc_*.json`` — changing any knob
that affects the physics changes the hash, so stale reuse is
impossible). Each benchmark writes its reproduced table/figure data
as JSON into ``benchmarks/results/`` — the source for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.core.flow import DelayCalibrationFlow
from repro.spice.montecarlo import MonteCarloEngine
from repro.units import FF, PS

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / ".bench_cache"
RESULTS_DIR = BENCH_DIR / "results"

#: Monte-Carlo fidelity knobs.
N_CHARAC = int(os.environ.get("REPRO_BENCH_SAMPLES", "1200"))
N_MC = int(os.environ.get("REPRO_BENCH_MC", "3000"))
N_PATH_MC = int(os.environ.get("REPRO_BENCH_PATH_MC", "400"))

#: Cells the benchmark flow characterizes: Table II's NOR2/NAND2/AOI2
#: families plus the INV strengths (FO4 baseline, wire sweeps, Fig. 2/4).
BENCH_CELLS = [
    f"{t}x{s}"
    for t in ("INV", "NAND2", "NOR2", "AOI21")
    for s in (1, 2, 4, 8)
]

BENCH_SLEWS = tuple(s * PS for s in (10, 60, 150, 300))
#: Up to 20 fF: the FO4 load of the x8 cells reaches ~18 fF.
BENCH_LOADS = tuple(c * FF for c in (0.1, 0.4, 1.5, 4.0, 9.0, 20.0))


def pytest_configure(config):
    """Show the captured table/figure prints of passing benchmarks.

    The reproduction tables are printed inside the tests; without this,
    a plain ``pytest benchmarks/ --benchmark-only`` would swallow them.
    """
    if "P" not in (config.option.reportchars or ""):
        config.option.reportchars = (config.option.reportchars or "") + "P"


@pytest.fixture(scope="session")
def flow() -> DelayCalibrationFlow:
    """The benchmark calibration flow (cached on disk)."""
    return DelayCalibrationFlow(
        seed=2023,
        cache_dir=str(CACHE_DIR),
        n_samples=N_CHARAC,
        slews=BENCH_SLEWS,
        loads=BENCH_LOADS,
        wire_fit_samples=max(400, N_CHARAC // 3),
        wire_fit_trees=2,
        cell_names=BENCH_CELLS,
        nsigma_fit_samples=max(6000, 4 * N_CHARAC),
    )


@pytest.fixture(scope="session")
def models(flow):
    """Fitted models of the benchmark flow."""
    return flow.fit_models()


@pytest.fixture(scope="session")
def golden_engine(flow) -> MonteCarloEngine:
    """Out-of-sample Monte-Carlo engine for golden references."""
    return MonteCarloEngine(flow.tech, flow.variation, seed=777)


def host_info() -> dict:
    """The host a result was measured on.

    CPU count, the kernel backend the environment resolves to, numpy and
    Python versions and the git commit (``unknown`` outside a checkout;
    ``git_dirty`` flags uncommitted changes), so a 1-core result is
    never read as a scaling claim and every number names its code.
    """
    from repro.kernels import backend_identity

    def git(*args: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=BENCH_DIR, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""

    sha = git("rev-parse", "HEAD")
    return {
        "cpu_count": os.cpu_count(),
        "kernel": backend_identity(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "git_dirty": bool(sha) and bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def record_result(name: str, payload: dict) -> None:
    """Persist a benchmark's reproduced table/figure as JSON.

    The file gets a reserved ``_host`` key (:func:`host_info`) next to
    the payload's own keys, which are written unchanged.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    doc = {**payload, "_host": host_info()}
    with (RESULTS_DIR / f"{name}.json").open("w") as fh:
        json.dump(doc, fh, indent=2)


@pytest.fixture()
def record():
    """Fixture alias for :func:`record_result`."""
    return record_result
