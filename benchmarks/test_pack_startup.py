"""Cold-start cost: mmap'd ``.rpk`` pack vs JSON parse + tensor rebuild.

Operational benchmark of the packed design database (:mod:`repro.pack`):

* **cold reload** — on the benchmark circuit (default ``c3540``), a
  digest-verified ``mmap`` load of the compiled design must beat
  reading the same design from the portable JSON that ``repro unpack``
  emits (``json.load`` + ``from_dict`` tensor rebuild) by
  ``REPRO_BENCH_PACK_MIN_SPEEDUP`` (default 5x, asserted);
* **zero-copy** — the loaded tensors must be read-only views into the
  mapping, not private heap copies (asserted);
* **burst identity** — a 48-query concurrent burst against the
  mmap-backed engine must be bit-identical to the freshly compiled
  design (asserted).

The circuit is overridable via ``REPRO_BENCH_PACK_CIRCUIT`` and the
reload repetition count via ``REPRO_BENCH_PACK_REPEATS``; results land
in ``benchmarks/results/BENCH_pack_startup.json``.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import CACHE_DIR, record_result
from repro.core.sta_compiled import (
    CompiledDesign,
    CompiledSTA,
    Scenario,
    compile_design,
    design_cache_key,
)
from repro.moments.stats import SIGMA_LEVELS
from repro.netlist.benchmarks import attach_parasitics, build_iscas85_like
from repro.pack import delist_document, load_compiled_design, pack_compiled_design
from repro.units import PS

CIRCUIT = os.environ.get("REPRO_BENCH_PACK_CIRCUIT", "c3540")
REPEATS = int(os.environ.get("REPRO_BENCH_PACK_REPEATS", "5"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PACK_MIN_SPEEDUP", "5"))

#: Cell mix restricted to the benchmark flow's characterized families.
TYPE_NAMES = ("INV", "NAND2", "NOR2", "AOI21")

BURST_QUERIES = 48
BURST_THREADS = 8

RESULT_NAME = "BENCH_pack_startup"


def make_scenarios(n: int):
    """A deterministic spread of (slew, edge) operating points."""
    slews = (10.0, 25.0, 60.0, 110.0, 180.0, 250.0)
    return [
        Scenario(input_slew=slews[k % len(slews)] * PS, launch_rising=k % 2 == 0)
        for k in range(n)
    ]


def best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``repeats`` runs (cold-start, so min is fair)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestPackStartup:
    def test_mmap_reload_beats_json_rebuild(self, models, benchmark):
        circuit = build_iscas85_like(CIRCUIT, type_names=TYPE_NAMES)
        attach_parasitics(circuit, tech=models.tech, seed=7)
        key = design_cache_key(circuit, models)

        t0 = time.perf_counter()
        design = compile_design(circuit, models)
        compile_s = time.perf_counter() - t0

        # Stage both cold-start representations of the same artifact:
        # the pack, and the portable JSON `repro unpack` emits for it.
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        rpk = CACHE_DIR / f"{CIRCUIT}.rpk"
        pack_compiled_design(design, rpk, design_key=key)
        portable = CACHE_DIR / f"{CIRCUIT}.json"
        portable.write_text(json.dumps(delist_document(design.to_dict())))

        def json_reload() -> CompiledDesign:
            with portable.open() as fh:
                return CompiledDesign.from_dict(json.load(fh))

        def pack_reload() -> CompiledDesign:
            return load_compiled_design(rpk, verify=True, expected_key=key)

        json_s = best_of(REPEATS, json_reload)
        pack_s = best_of(REPEATS, pack_reload)
        speedup = json_s / pack_s

        # Zero-copy check: tensors are read-only views into the mapping.
        mapped = pack_reload()
        assert mapped.pack is not None
        for arr in (mapped.arcs.mu_coef, mapped.net_load, mapped.levels[0].elm_in):
            assert arr.flags.owndata is False
            assert arr.flags.writeable is False

        # 48-query concurrent burst: bit-identical to the fresh compile.
        scenarios = make_scenarios(BURST_QUERIES)
        fresh_engine = CompiledSTA(circuit, models, design=design)
        mapped_engine = CompiledSTA(circuit, models, design=mapped)
        expected = fresh_engine.analyze_batch(scenarios)
        with ThreadPoolExecutor(max_workers=BURST_THREADS) as pool:
            got = list(
                pool.map(lambda s: mapped_engine.analyze_batch([s])[0], scenarios)
            )
        burst_identical = all(
            a.critical_delay == b.critical_delay
            and all(
                a.critical_path.total(n) == b.critical_path.total(n)
                for n in SIGMA_LEVELS
            )
            for a, b in zip(expected, got)
        )
        assert burst_identical

        print(
            f"\n{CIRCUIT}: compile {compile_s:.3f}s, JSON reload "
            f"{json_s * 1e3:.1f}ms, pack mmap reload {pack_s * 1e3:.1f}ms "
            f"-> x{speedup:.1f} ({rpk.stat().st_size} pack bytes)"
        )
        out = {
            "circuit": CIRCUIT,
            "n_cells": circuit.n_cells,
            "n_levels": design.n_levels,
            "packed_arc_rows": design.arcs.n_arcs,
            "repeats": REPEATS,
            "compile_s": round(compile_s, 4),
            "json_reload_s": round(json_s, 5),
            "pack_reload_s": round(pack_s, 5),
            "speedup": round(speedup, 2),
            "min_speedup_gate": MIN_SPEEDUP,
            "pack_bytes": rpk.stat().st_size,
            "json_bytes": portable.stat().st_size,
            "zero_copy_verified": True,
            "burst_queries": BURST_QUERIES,
            "burst_threads": BURST_THREADS,
            "burst_bit_identical": burst_identical,
        }

        assert speedup >= MIN_SPEEDUP, (
            f"{CIRCUIT}: pack reload only x{speedup:.1f} over the JSON "
            f"path (gate: x{MIN_SPEEDUP})"
        )

        table = benchmark(lambda: out)
        record_result(RESULT_NAME, table)
