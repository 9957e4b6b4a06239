"""Compiled STA scaling across circuits and scenario counts.

Operational benchmark (not a paper table) of the STA engine
(:mod:`repro.core.sta_compiled`) against the scalar oracle of
``tests/core/sta_oracle.py`` — a dict-based walker that prices one
scenario per full pass, gate by gate:

* **equivalence** — on every benchmarked circuit the engine must
  reproduce the oracle's arrivals, critical path and quantiles exactly
  (asserted, not just recorded);
* **scenario scaling** — batch query cost vs scenario count (1/4/16/64)
  against per-scenario oracle runs, including the compile-time
  amortization curve (total compiled cost / scenario count);
* **speedup floor** — on the largest circuit, a >= 16-scenario batch
  must beat the scalar oracle by >= 5x *including* the one-off compile.

Every timed quantity (the cold compile, the oracle's scenario run and
each batch width) gets one untimed warm-up call and then the best of
``REPEATS`` timed calls, so the ratio follows the code rather than a
host's fast or slow mode; perf counters therefore cover all calls.

Oracle runs are measured up to ``REPRO_BENCH_STA_SCALAR_CAP`` scenarios
(default 16) and linearly extrapolated beyond it — the oracle is
embarrassingly per-scenario, so extrapolation is fair, and every
extrapolated entry is flagged in the JSON. Circuits are overridable via
``REPRO_BENCH_STA_CIRCUITS`` (comma-separated ISCAS85 profile names).

Results land in ``benchmarks/results/BENCH_sta_scaling.json``.
"""

import os
import platform
import time

import numpy as np

from conftest import N_CHARAC, record_result
from repro.core.sta_compiled import CompiledSTA, Scenario
from repro.moments.stats import SIGMA_LEVELS
from repro.netlist.benchmarks import attach_parasitics, build_iscas85_like
from repro.perf import PerfCounters
from repro.units import PS
from tests.core.sta_oracle import oracle_analyze

#: Circuits to sweep (ascending size); override for quick CI smoke runs.
CIRCUITS = [
    c.strip()
    for c in os.environ.get("REPRO_BENCH_STA_CIRCUITS", "c432,c1908,c3540").split(",")
    if c.strip()
]

#: Batch widths of the scenario sweep.
SCENARIO_COUNTS = (1, 4, 16, 64)

#: Oracle runs are measured up to this many scenarios, then extrapolated.
SCALAR_CAP = int(os.environ.get("REPRO_BENCH_STA_SCALAR_CAP", "16"))

#: Cell mix restricted to the benchmark flow's characterized families.
TYPE_NAMES = ("INV", "NAND2", "NOR2", "AOI21")

RESULT_NAME = "BENCH_sta_scaling"

#: Timed calls per quantity, after one untimed warm-up; the best counts.
REPEATS = 3


def best_of(fn):
    """Warm up ``fn`` once, then return its last result and the best
    wall time of :data:`REPEATS` timed calls."""
    result = fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def make_scenarios(n: int):
    """A deterministic spread of (slew, edge) operating points."""
    slews = (10.0, 25.0, 60.0, 110.0, 180.0, 250.0)
    return [
        Scenario(input_slew=slews[k % len(slews)] * PS, launch_rising=k % 2 == 0)
        for k in range(n)
    ]


def build_circuit(name, tech):
    circuit = build_iscas85_like(name, type_names=TYPE_NAMES)
    attach_parasitics(circuit, tech, seed=7)
    return circuit


def sweep_circuit(circuit, models) -> dict:
    """Oracle-vs-compiled sweep of one circuit; returns the JSON row."""
    engine, compile_s = best_of(
        lambda: CompiledSTA(circuit, models, perf=PerfCounters())
    )

    # Equivalence gate: the engine must reproduce the oracle exactly.
    probe = make_scenarios(1)[0]
    scalar_ref = oracle_analyze(
        circuit, models, input_slew=probe.input_slew,
        launch_rising=probe.launch_rising,
    )
    compiled_ref = engine.analyze_batch([probe])[0]
    max_dev = max(
        abs(scalar_ref.critical_path.total(n) - compiled_ref.critical_path.total(n))
        for n in SIGMA_LEVELS
    )
    arrival_dev = max(
        abs(scalar_ref.arrival[net] - compiled_ref.arrival[net])
        for net in scalar_ref.arrival
    )
    assert compiled_ref.arrival == scalar_ref.arrival, f"{circuit.name}: arrivals"
    assert (
        compiled_ref.critical_path.stages == scalar_ref.critical_path.stages
    ), f"{circuit.name}: critical path stages differ"
    assert max_dev == 0.0, f"{circuit.name}: quantile deviation {max_dev:.3e} s"

    # Oracle cost per scenario (measured on a capped scenario count).
    n_scalar = min(max(SCENARIO_COUNTS), SCALAR_CAP)
    scenarios = make_scenarios(n_scalar)

    def run_oracle():
        for scenario in scenarios:
            oracle_analyze(
                circuit, models, input_slew=scenario.input_slew,
                launch_rising=scenario.launch_rising,
            )

    _, scalar_wall = best_of(run_oracle)
    scalar_per_scenario = scalar_wall / n_scalar

    row = {
        "n_cells": circuit.n_cells,
        "n_nets": circuit.n_nets,
        "n_levels": engine.design.n_levels,
        "n_arcs": engine.design.n_arcs,
        "packed_arc_rows": engine.design.arcs.n_arcs,
        "max_quantile_deviation_s": max_dev,
        "max_arrival_deviation_s": arrival_dev,
        "timing": f"one warm-up, then best of {REPEATS}",
        "compile_s": round(compile_s, 4),
        "scalar_measured_scenarios": n_scalar,
        "scalar_per_scenario_s": round(scalar_per_scenario, 4),
        "batches": {},
    }
    for n in SCENARIO_COUNTS:
        batch = make_scenarios(n)
        results, query_s = best_of(lambda: engine.analyze_batch(batch))
        assert len(results) == n
        scalar_s = scalar_per_scenario * n
        total_s = compile_s + query_s
        row["batches"][str(n)] = {
            "query_s": round(query_s, 4),
            # Amortization curve: one-off compile spread over the batch.
            "amortized_per_scenario_s": round(total_s / n, 4),
            "scalar_s": round(scalar_s, 4),
            "scalar_extrapolated": n > n_scalar,
            "speedup_query_only": round(scalar_s / query_s, 2),
            "speedup_incl_compile": round(scalar_s / total_s, 2),
        }
    row["perf"] = engine.perf.to_dict()
    return row


class TestStaScaling:
    def test_scaling_and_speedup(self, models, benchmark):
        tech = models.tech
        out = {
            "scalar_baseline": "tests/core/sta_oracle.py oracle_analyze",
            "characterization_samples": N_CHARAC,
            "host": {
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "scenario_counts": list(SCENARIO_COUNTS),
            "scalar_cap": SCALAR_CAP,
            "sigma_levels": list(SIGMA_LEVELS),
            "circuits": {},
        }
        for name in CIRCUITS:
            circuit = build_circuit(name, tech)
            row = sweep_circuit(circuit, models)
            out["circuits"][name] = row
            print(f"\n{name} ({row['n_cells']} cells, {row['n_levels']} levels): "
                  f"compile {row['compile_s']:.3f}s, oracle "
                  f"{row['scalar_per_scenario_s']:.3f}s/scenario")
            for n, batch in row["batches"].items():
                flag = " (scalar extrapolated)" if batch["scalar_extrapolated"] else ""
                print(f"  batch {n:>3}: query {batch['query_s']:.4f}s  "
                      f"amortized {batch['amortized_per_scenario_s']:.4f}s/scn  "
                      f"speedup x{batch['speedup_incl_compile']:.1f} incl compile, "
                      f"x{batch['speedup_query_only']:.1f} query-only{flag}")

        # Acceptance floor: >= 5x over the oracle for >= 16-scenario batches
        # on the largest benchmarked circuit, compile time included.
        largest = max(out["circuits"], key=lambda c: out["circuits"][c]["n_cells"])
        for n in SCENARIO_COUNTS:
            if n >= 16:
                batch = out["circuits"][largest]["batches"][str(n)]
                assert batch["speedup_incl_compile"] >= 5.0, (
                    f"{largest} batch {n}: only "
                    f"{batch['speedup_incl_compile']}x over the scalar oracle"
                )
        out["largest_circuit"] = largest

        table = benchmark(lambda: out)
        record_result(RESULT_NAME, table)
