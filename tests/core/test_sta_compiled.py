"""The STA engine against an exact scalar oracle.

:class:`~repro.core.sta_compiled.CompiledSTA` is the package's one
propagation engine; :class:`~repro.core.sta.StatisticalSTA` is its
one-scenario entry point. ``sta_oracle.py`` re-derives every result
with a dict-based scalar walker, and these tests require equality —
arrivals, the critical path, every stage's slew, load, moments and
quantiles, and the Eq. 10 totals — on the deterministic adder fixture
(with and without parasitics), on random ISCAS85-like circuits
(example-based and hypothesis-driven) and across the compile cache
round trip. The compile cache stores each design as one ``.rpk`` pack;
its hit, corruption and staleness paths are tested here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import JsonCache
from repro.pack import (
    PackFile,
    delist_document,
    load_compiled_design,
    pack_compiled_design,
)
from repro.perf import PerfCounters
from repro.core.sta import StatisticalSTA
from repro.core.sta_compiled import (
    COMPILE_CACHE_KIND,
    BatchSTAResult,
    CompiledDesign,
    CompiledSTA,
    Scenario,
    compile_design,
    design_cache_key,
)
from repro.errors import TimingError
from repro.lint import lint_compiled_design
from repro.moments.stats import SIGMA_LEVELS
from repro.netlist.benchmarks import BenchmarkProfile, attach_parasitics, build_iscas85_like
from repro.netlist.circuit import Circuit
from repro.netlist.generators import build_adder
from repro.units import PS
from tests.core.sta_oracle import oracle_analyze


def build_mini_circuit(seed: int, n_cells: int = 40, depth: int = 6, tech=None) -> Circuit:
    """A small random circuit covered by the mini-flow calibration.

    Only INV types: the generator randomizes strengths x1–x8 and the
    mini flow characterizes every INV strength but only x1 of the
    stacked cells.
    """
    profile = BenchmarkProfile(
        name=f"mini{seed}", n_cells=n_cells, n_nets=n_cells + 8,
        n_outputs=4, depth=depth, seed=seed,
    )
    circuit = build_iscas85_like(profile.name, profile, type_names=("INV",))
    if tech is not None:
        attach_parasitics(circuit, tech, seed=seed + 1)
    return circuit


def assert_equivalent(expected, result):
    """``result`` equals the oracle's ``expected``, float for float."""
    assert result.arrival == expected.arrival

    ep, rp = expected.critical_path, result.critical_path
    assert rp.levels == ep.levels
    assert [(s.gate, s.input_pin, s.net, s.sink) for s in rp.stages] == [
        (s.gate, s.input_pin, s.net, s.sink) for s in ep.stages
    ]
    for r_stage, e_stage in zip(rp.stages, ep.stages):
        assert r_stage == e_stage
    for n in ep.levels:
        assert rp.total(n) == ep.total(n)


def design_arrays(design):
    """Every tensor of a compiled design, by a stable name."""
    arrays = {
        "input_nets": design.input_nets,
        "net_load": design.net_load,
        "end_elmore": design.end_elmore,
    }
    for i, level in enumerate(design.levels):
        for name in (
            "out_net", "load", "valid", "src_net", "elm_in",
            "inverting", "arc_rise", "arc_fall",
        ):
            arrays[f"levels.{i}.{name}"] = getattr(level, name)
    for name in (
        "ref", "mu_coef", "sigma_coef", "skew_coef", "kurt_coef", "slew_ref",
        "slew_coef", "s_ref", "c_ref", "s_lo", "s_hi", "c_lo", "c_hi",
    ):
        arrays[f"arcs.{name}"] = getattr(design.arcs, name)
    return arrays


def assert_same_design(expected, got):
    """``got`` equals ``expected`` array for array, entry for entry."""
    assert got.circuit_name == expected.circuit_name
    assert got.net_names == expected.net_names
    assert [lv.gate_names for lv in got.levels] == [
        lv.gate_names for lv in expected.levels
    ]
    want, have = design_arrays(expected), design_arrays(got)
    assert list(have) == list(want)
    for name, array in want.items():
        assert have[name].dtype == array.dtype, name
        assert np.array_equal(have[name], array), name
    assert got.arcs.index == expected.arcs.index
    assert got.sink_elmore == expected.sink_elmore
    assert got.sink_xw == expected.sink_xw
    assert got.calibration_digest == expected.calibration_digest


@pytest.fixture(scope="module")
def compiled_adder(adder_circuit, mini_models):
    return CompiledSTA(adder_circuit, mini_models)


class TestGoldenEquivalence:
    def test_adder_default_scenario(self, adder_circuit, mini_models, compiled_adder):
        expected = oracle_analyze(adder_circuit, mini_models)
        assert_equivalent(expected, compiled_adder.analyze())

    def test_adder_scenario_grid(self, adder_circuit, mini_models, compiled_adder):
        scenarios = [
            Scenario(input_slew=s * PS, launch_rising=r)
            for s in (10.0, 20.0, 75.0, 240.0)
            for r in (True, False)
        ]
        results = compiled_adder.analyze_batch(scenarios)
        assert len(results) == len(scenarios)
        for scenario, result in zip(scenarios, results):
            expected = oracle_analyze(
                adder_circuit, mini_models,
                input_slew=scenario.input_slew,
                launch_rising=scenario.launch_rising,
            )
            assert_equivalent(expected, result)
            assert result.scenario == scenario

    def test_random_circuits_with_parasitics(self, mini_models, tech):
        for seed in (3, 11, 27):
            circuit = build_mini_circuit(seed, tech=tech)
            expected = oracle_analyze(circuit, mini_models)
            assert_equivalent(expected, CompiledSTA(circuit, mini_models).analyze())

    def test_ideal_nets_zero_wire(self, mini_models):
        # No parasitics attached: every wire contributes exactly zero.
        circuit = build_mini_circuit(5, tech=None)
        expected = oracle_analyze(circuit, mini_models)
        compiled = CompiledSTA(circuit, mini_models).analyze()
        assert_equivalent(expected, compiled)
        assert compiled.critical_path.wire_total == 0.0

    @pytest.mark.parametrize("rising", [True, False])
    def test_ideal_adder_ties_go_to_first_pin(self, mini_models, rising):
        # Without parasitics, a NAND2 fed by two primary inputs sees the
        # same arrival, slew and (fallback) arc on both pins: an exact
        # tie, which the first pin wins.
        circuit = build_adder(3, name="adder3_ideal")
        expected = oracle_analyze(circuit, mini_models, launch_rising=rising)
        compiled = CompiledSTA(circuit, mini_models).analyze(launch_rising=rising)
        assert_equivalent(expected, compiled)
        first = next(s for s in compiled.critical_path.stages if s.cell_name)
        gate = circuit.gates[first.gate]
        assert all(net in circuit.inputs for net in gate.pins.values())
        assert first.input_pin == next(iter(gate.pins))

    def test_sigma_level_subset(self, adder_circuit, mini_models, compiled_adder):
        levels = (-2, 0, 2)
        expected = oracle_analyze(adder_circuit, mini_models, levels=levels)
        compiled = compiled_adder.analyze(levels=levels)
        assert compiled.critical_path.levels == levels
        assert_equivalent(expected, compiled)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_cells=st.integers(min_value=8, max_value=60),
        depth=st.integers(min_value=2, max_value=8),
        slew_ps=st.floats(min_value=5.0, max_value=260.0),
        rising=st.booleans(),
    )
    def test_property_random_circuit(
        self, mini_models, tech, seed, n_cells, depth, slew_ps, rising
    ):
        depth = min(depth, max(2, n_cells // 2))
        circuit = build_mini_circuit(seed, n_cells=n_cells, depth=depth,
                                     tech=tech if seed % 2 else None)
        expected = oracle_analyze(
            circuit, mini_models, input_slew=slew_ps * PS, launch_rising=rising
        )
        compiled = CompiledSTA(circuit, mini_models).analyze(
            input_slew=slew_ps * PS, launch_rising=rising
        )
        assert_equivalent(expected, compiled)


class TestEntryPoint:
    """``StatisticalSTA`` is one scenario of ``CompiledSTA``, exactly."""

    @pytest.mark.parametrize("which", ["adder", "random"])
    @pytest.mark.parametrize("rising", [True, False])
    @pytest.mark.parametrize("slew_ps", [20.0, 150.0])
    def test_same_result_as_engine(
        self, which, rising, slew_ps, adder_circuit, mini_models, tech
    ):
        circuit = adder_circuit if which == "adder" else build_mini_circuit(23, tech=tech)
        levels = (-3, 0, 2)
        entry = StatisticalSTA(
            circuit, mini_models, input_slew=slew_ps * PS, launch_rising=rising
        ).analyze(levels)
        engine = CompiledSTA(circuit, mini_models).analyze(
            input_slew=slew_ps * PS, launch_rising=rising, levels=levels
        )
        assert entry.arrival == engine.arrival
        assert entry.critical_path == engine.critical_path
        assert entry.correlated_quantiles == engine.correlated_quantiles


class TestBatchSemantics:
    def test_empty_batch(self, compiled_adder):
        assert compiled_adder.analyze_batch([]) == []

    def test_result_type_and_runtime(self, compiled_adder):
        results = compiled_adder.analyze_batch([Scenario(), Scenario(input_slew=50 * PS)])
        for result in results:
            assert isinstance(result, BatchSTAResult)
            assert result.runtime_s > 0

    def test_correlated_quantiles_match_path(self, mini_models, compiled_adder):
        rho = 0.4
        result = compiled_adder.analyze_batch([Scenario(stage_correlation=rho)])[0]
        for n in SIGMA_LEVELS:
            assert result.correlated_quantiles[n] == pytest.approx(
                result.critical_path.total_correlated(n, rho)
            )

    def test_default_correlation_comes_from_models(self, compiled_adder, mini_models):
        result = compiled_adder.analyze_batch([Scenario()])[0]
        rho = mini_models.stage_correlation
        for n in (0, 3):
            assert result.correlated_quantiles[n] == pytest.approx(
                result.critical_path.total_correlated(n, rho)
            )

    def test_perf_counters(self, adder_circuit, mini_models):
        engine = CompiledSTA(adder_circuit, mini_models)
        perf = engine.perf
        assert perf.sta_compiles == 1
        assert perf.wall_s.get("sta_compile", 0.0) > 0.0
        engine.analyze_batch([Scenario(), Scenario(launch_rising=False)])
        assert perf.sta_scenarios == 2
        # One vectorized sweep per level serves the whole batch; arc
        # evaluations still count per (scenario x gate x pin).
        assert perf.sta_levels == engine.design.n_levels
        assert perf.sta_arc_evals == 2 * engine.design.n_arcs
        assert perf.wall_s.get("sta_query", 0.0) > 0.0

    @pytest.mark.parametrize("which", ["adder", "random"])
    def test_arrival_map(self, which, adder_circuit, mini_models, tech):
        circuit = adder_circuit if which == "adder" else build_mini_circuit(19, tech=tech)
        engine = CompiledSTA(circuit, mini_models)
        result = engine.analyze_batch([Scenario(input_slew=35 * PS)])[0]
        # A read-only view over the batch's arrival row, not a dict copy.
        with pytest.raises(TypeError):
            result.arrival[engine.design.net_names[0]] = 0.0
        assert list(result.arrival) == engine.design.net_names
        assert all(type(value) is float for value in result.arrival.values())
        expected = oracle_analyze(circuit, mini_models, input_slew=35 * PS)
        assert result.arrival == expected.arrival
        assert expected.arrival == result.arrival

    def test_design_shape(self, compiled_adder, adder_circuit):
        design = compiled_adder.design
        assert design.n_gates == adder_circuit.n_cells
        assert design.n_nets == adder_circuit.n_nets
        assert design.n_levels >= adder_circuit.logic_depth()
        assert sum(level.n_arcs for level in design.levels) == design.n_arcs


#: Sigma-level tuples of the mixed batches: every level, one level,
#: a subset without 0 and an unordered one.
MIXED_LEVELS = (SIGMA_LEVELS, (0,), (3,), (3, -3), (3, 0, -3))
MIXED_RHOS = (None, 0.0, 0.4, 1.0)
#: Primary-input slews (ps), inside and outside the characterized range.
MIXED_SLEWS_PS = (2.0, 20.0, 240.0, 900.0)


def mixed_batch(n: int = 20):
    """``n`` scenarios cycling every level set, correlation, edge and slew."""
    return [
        Scenario(
            input_slew=MIXED_SLEWS_PS[(i // len(MIXED_LEVELS)) % len(MIXED_SLEWS_PS)] * PS,
            launch_rising=i % 2 == 0,
            levels=MIXED_LEVELS[i % len(MIXED_LEVELS)],
            stage_correlation=MIXED_RHOS[(i // 2) % len(MIXED_RHOS)],
        )
        for i in range(n)
    ]


def ordered(mapping):
    """A mapping's items in iteration order (dict ``==`` ignores order)."""
    return list(mapping.items())


class TestBatchPricing:
    """A batch prices all its paths in array passes, exactly as one by one."""

    def test_no_scalar_moments_on_the_batch_path(
        self, adder_circuit, mini_models, compiled_adder, monkeypatch
    ):
        from repro.core.calibration import ArcCalibration

        def scalar(*args, **kwargs):
            raise AssertionError("scalar ArcCalibration.moments_at called")

        scenarios = mixed_batch(6)
        monkeypatch.setattr(ArcCalibration, "moments_at", scalar)
        results = compiled_adder.analyze_batch(scenarios)
        monkeypatch.undo()
        for scenario, result in zip(scenarios, results):
            expected = oracle_analyze(
                adder_circuit, mini_models, input_slew=scenario.input_slew,
                launch_rising=scenario.launch_rising, levels=scenario.levels,
            )
            assert_equivalent(expected, result)

    @pytest.mark.parametrize("width", [1, 64])
    def test_bank_moments_once_per_batch(self, compiled_adder, monkeypatch, width):
        from repro.core.calibration import ArcTensorBank

        calls = []
        real = ArcTensorBank.moments_at

        def counting(bank, rows, slew, load):
            calls.append(np.shape(rows))
            return real(bank, rows, slew, load)

        monkeypatch.setattr(ArcTensorBank, "moments_at", counting)
        results = compiled_adder.analyze_batch(mixed_batch(width))
        n_cells = sum(r.critical_path.n_cells for r in results)
        assert calls == [(n_cells,)]

    @pytest.mark.parametrize("which", ["adder", "random"])
    def test_mixed_batch_equals_single_runs_and_oracle(
        self, which, adder_circuit, mini_models, tech
    ):
        circuit = adder_circuit if which == "adder" else build_mini_circuit(31, tech=tech)
        engine = CompiledSTA(circuit, mini_models)
        scenarios = mixed_batch(20)
        for scenario, result in zip(scenarios, engine.analyze_batch(scenarios)):
            alone = engine.analyze_batch([scenario])[0]
            assert result.scenario == alone.scenario == scenario
            assert result.arrival == alone.arrival
            assert result.critical_path == alone.critical_path
            assert ordered(result.correlated_quantiles) == ordered(
                alone.correlated_quantiles
            )
            if scenario.stage_correlation is None:
                single = engine.analyze(
                    scenario.input_slew, scenario.launch_rising, scenario.levels
                )
                assert single.critical_path == result.critical_path
                assert ordered(single.correlated_quantiles) == ordered(
                    result.correlated_quantiles
                )

            expected = oracle_analyze(
                circuit, mini_models, input_slew=scenario.input_slew,
                launch_rising=scenario.launch_rising, levels=scenario.levels,
            )
            assert_equivalent(expected, result)
            path, want = result.critical_path, expected.critical_path
            for got_stage, want_stage in zip(path.stages, want.stages):
                assert ordered(got_stage.cell_quantiles) == ordered(
                    want_stage.cell_quantiles
                )
                assert ordered(got_stage.wire_quantiles) == ordered(
                    want_stage.wire_quantiles
                )
            assert ordered(path.quantiles) == ordered(want.quantiles)
            rho = (
                mini_models.stage_correlation
                if scenario.stage_correlation is None
                else scenario.stage_correlation
            )
            assert ordered(result.correlated_quantiles) == [
                (n, want.total_correlated(n, rho)) for n in scenario.levels
            ]

    @pytest.mark.parametrize("bad", [1.5, -0.1])
    def test_out_of_range_correlation_raises(self, compiled_adder, bad):
        scenarios = mixed_batch(12)
        scenarios[7] = Scenario(stage_correlation=bad)
        with pytest.raises(TimingError, match="correlation"):
            compiled_adder.analyze_batch(scenarios)


class TestCompileCache:
    def test_cache_round_trip_identical(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        first = compile_design(adder_circuit, mini_models, cache=cache)
        assert cache.perf.cache_misses == 1 and cache.perf.cache_hits == 0
        second = compile_design(adder_circuit, mini_models, cache=cache)
        assert cache.perf.cache_hits == 1
        r1 = CompiledSTA(adder_circuit, mini_models, design=first).analyze()
        r2 = CompiledSTA(adder_circuit, mini_models, design=second).analyze()
        assert r1.arrival == r2.arrival  # bit-identical, not just close
        for n in SIGMA_LEVELS:
            assert r1.critical_path.total(n) == r2.critical_path.total(n)

    def test_key_tracks_circuit_content(self, adder_circuit, mini_models, tech):
        other = build_adder(3, name="adder3")
        attach_parasitics(other, tech, seed=99)  # different parasitics
        assert design_cache_key(adder_circuit, mini_models) != design_cache_key(
            other, mini_models
        )

    def test_key_resolves_each_pin_cap_once(self, adder_circuit, mini_models, monkeypatch):
        from repro.cells.library import Cell

        calls = []
        real = Cell.input_cap

        def counting(cell, pin, tech):
            calls.append((cell.name, pin))
            return real(cell, pin, tech)

        monkeypatch.setattr(Cell, "input_cap", counting)
        key = design_cache_key(adder_circuit, mini_models)
        distinct = {
            (gate.cell_name, pin)
            for gate in adder_circuit.gates.values()
            for pin in gate.pins
        }
        assert len(calls) == len(set(calls)) <= len(distinct)
        monkeypatch.undo()
        assert design_cache_key(adder_circuit, mini_models) == key

    def test_key_tracks_every_input(self, adder_circuit, mini_models):
        import copy
        import dataclasses

        key = design_cache_key(adder_circuit, mini_models)
        assert design_cache_key(adder_circuit, mini_models) == key
        assert design_cache_key(copy.deepcopy(adder_circuit), mini_models) == key

        def changed(edit):
            circuit = copy.deepcopy(adder_circuit)
            edit(circuit)
            return design_cache_key(circuit, mini_models) != key

        def tapped_net(circuit):
            return next(
                net for net in circuit.nets.values()
                if net.tree is not None and net.sink_leaf
            )

        def segment_r(circuit):
            net = tapped_net(circuit)
            leaf = next(iter(net.sink_leaf.values()))
            net.tree.nodes[leaf].resistance *= 1.001

        def node_c(circuit):
            net = tapped_net(circuit)
            node = list(net.tree.nodes)[1]
            net.tree.nodes[node].cap *= 1.001

        def same_pinout_cell(circuit):
            gate = next(g for g in circuit.gates.values() if g.cell_name == "NAND2x1")
            gate.cell_name = "NOR2x1"

        def pin_net(circuit):
            gate = next(iter(circuit.gates.values()))
            pin, old_net = next(iter(gate.pins.items()))
            new_net = next(n for n in circuit.inputs if n not in gate.pins.values())
            circuit.nets[old_net].sinks.remove((gate.name, pin))
            circuit.nets[old_net].sink_leaf.pop((gate.name, pin))
            gate.pins[pin] = new_net
            circuit.nets[new_net].sinks.append((gate.name, pin))

        def net_order(circuit):
            circuit.nets = dict(reversed(list(circuit.nets.items())))

        for edit in (segment_r, node_c, same_pinout_cell, pin_net, net_order):
            assert changed(edit), edit.__name__
        reweighted = dataclasses.replace(
            mini_models,
            wire=dataclasses.replace(
                mini_models.wire, weight_fo=mini_models.wire.weight_fo * 1.001
            ),
        )
        assert design_cache_key(adder_circuit, reweighted) != key

    def test_compile_flattens_once_and_never_copies_trees(
        self, adder_circuit, mini_models, tmp_path, monkeypatch
    ):
        import repro.core.sta_compiled as sta_compiled
        from repro.interconnect.rctree import RCTree

        calls = []
        real = sta_compiled.flatten_parasitics

        def counting(circuit, models):
            calls.append(circuit.name)
            return real(circuit, models)

        def no_copy(tree):
            raise AssertionError("RCTree.copy called during compile")

        monkeypatch.setattr(sta_compiled, "flatten_parasitics", counting)
        monkeypatch.setattr(RCTree, "copy", no_copy)
        cache = JsonCache(tmp_path)
        compile_design(adder_circuit, mini_models, cache=cache)
        assert (len(calls), cache.perf.cache_misses, cache.perf.cache_hits) == (1, 1, 0)
        compile_design(adder_circuit, mini_models, cache=cache)
        assert (len(calls), cache.perf.cache_hits) == (2, 1)
        compile_design(adder_circuit, mini_models)
        assert len(calls) == 3

    def test_json_round_trip_exact(self, adder_circuit, mini_models):
        import json

        design = compile_design(adder_circuit, mini_models)
        text = json.dumps(delist_document(design.to_dict()))
        restored = CompiledDesign.from_dict(json.loads(text))
        assert_same_design(design, restored)

    def test_stale_artifact_is_rebuilt_not_served(
        self, adder_circuit, mini_models, tmp_path
    ):
        cache = JsonCache(tmp_path)
        compile_design(adder_circuit, mini_models, cache=cache)
        key = design_cache_key(adder_circuit, mini_models)
        path = cache.pack_path(COMPILE_CACHE_KIND, key)
        # Rewrite the pack with scaled tensors, as a stale-calibration
        # artifact would carry; its digests are valid.
        stale = compile_design(adder_circuit, mini_models)
        stale.arcs.mu_coef[0, 0] *= 1.5
        pack_compiled_design(stale, path, design_key=key)
        PackFile.open(path, verify=True)
        hits_before = cache.perf.cache_hits
        served = compile_design(adder_circuit, mini_models, cache=cache)
        # The poisoned artifact was loaded but failed the drift lint and
        # was rebuilt: the served design matches the live calibration.
        assert cache.perf.cache_hits == hits_before + 1
        assert served.pack is None
        assert not lint_compiled_design(served, mini_models.calibrated).errors
        # The rebuild replaced the stale pack on disk.
        reopened = load_compiled_design(path, expected_key=key)
        assert not lint_compiled_design(reopened, mini_models.calibrated).errors


class TestPackCompileCache:
    def test_reopen_maps_the_pack(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        first = compile_design(adder_circuit, mini_models, cache=cache)
        reopened = compile_design(adder_circuit, mini_models, cache=cache)
        key = design_cache_key(adder_circuit, mini_models)
        assert list(tmp_path.glob("*.json")) == []
        assert sorted(tmp_path.iterdir()) == [
            tmp_path / f"{COMPILE_CACHE_KIND}_{key}.rpk"
        ]
        assert first.pack is None
        assert isinstance(reopened.pack, PackFile)
        assert reopened.cache_key == key
        for name, array in design_arrays(reopened).items():
            assert not array.flags.writeable, name
            assert not array.flags.owndata, name
        assert_same_design(compile_design(adder_circuit, mini_models), reopened)

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_pack_is_unlinked_counted_and_rebuilt(
        self, adder_circuit, mini_models, tmp_path, monkeypatch, damage
    ):
        perf = PerfCounters()
        cache = JsonCache(tmp_path, perf=perf)
        compile_design(adder_circuit, mini_models, cache=cache)
        path = cache.pack_path(
            COMPILE_CACHE_KIND, design_cache_key(adder_circuit, mini_models)
        )
        blob = bytearray(path.read_bytes())
        if damage == "truncated":
            del blob[-8:]
        else:
            blob[-1] ^= 0xFF  # the last byte is tensor payload
        path.write_bytes(bytes(blob))

        present_at_store = []
        real_put = cache.put_pack

        def spy(kind, key, write):
            present_at_store.append(cache.pack_path(kind, key).exists())
            return real_put(kind, key, write)

        monkeypatch.setattr(cache, "put_pack", spy)
        engine_perf = PerfCounters()
        rebuilt = compile_design(
            adder_circuit, mini_models, cache=cache, perf=engine_perf
        )
        assert cache.perf is perf and perf.cache_corrupt == 1
        assert (perf.cache_hits, perf.cache_misses) == (0, 2)
        assert present_at_store == [False]  # unlinked before the rebuild
        assert engine_perf.sta_compiles == 1 and rebuilt.pack is None
        reopened = compile_design(adder_circuit, mini_models, cache=cache)
        assert reopened.pack is not None
        assert_same_design(rebuilt, reopened)

    def test_cache_pack_attaches_to_the_registry(
        self, adder_circuit, mini_models, tmp_path
    ):
        from repro.serve.registry import DesignRegistry

        registry = DesignRegistry()
        key = registry.register("adder3", adder_circuit, mini_models)
        cache = JsonCache(tmp_path)
        compile_design(adder_circuit, mini_models, cache=cache)
        assert registry.attach_pack(
            "adder3", cache.pack_path(COMPILE_CACHE_KIND, key)
        )
        engine = registry.engine("adder3")
        assert engine.design.pack is not None
        assert registry.stats()["designs"][0]["mmap"] is True


class TestDriftLint:
    def test_clean_design_passes(self, compiled_adder, mini_models):
        report = lint_compiled_design(compiled_adder.design, mini_models.calibrated)
        assert not report.errors

    def test_digest_mismatch_flagged(self, compiled_adder, mini_models):
        import dataclasses

        stale = dataclasses.replace(
            compiled_adder.design, calibration_digest="0" * 32
        )
        report = lint_compiled_design(stale, mini_models.calibrated)
        assert "NSM003" in report.rule_ids()

    def test_coefficient_drift_flagged(self, adder_circuit, mini_models):
        design = compile_design(adder_circuit, mini_models)
        design.arcs.sigma_coef[0, 0] += 1e-13
        report = lint_compiled_design(design, mini_models.calibrated)
        assert "NSM003" in report.rule_ids()
        assert any("sigma_coef" in d.message for d in report.errors)

    def test_missing_arc_flagged(self, adder_circuit, mini_models):
        import copy

        design = compile_design(adder_circuit, mini_models)
        calibrated = copy.deepcopy(mini_models.calibrated)
        calibrated.arcs = {
            k: v for k, v in calibrated.arcs.items() if k[0] != "NAND2x1"
        }
        report = lint_compiled_design(design, calibrated)
        assert "NSM003" in report.rule_ids()


class TestErrors:
    def test_gateless_circuit_rejected(self, mini_models):
        circuit = Circuit("wires_only")
        circuit.add_input("a")
        circuit.add_output("a")
        with pytest.raises(TimingError, match="no gates"):
            compile_design(circuit, mini_models)

    def test_design_circuit_mismatch(self, adder_circuit, mini_models, tech):
        design = compile_design(adder_circuit, mini_models)
        other = build_mini_circuit(1, tech=tech)
        with pytest.raises(TimingError, match="does not match"):
            CompiledSTA(other, mini_models, design=design)

    def test_lint_fail_fast(self, mini_models):
        circuit = Circuit("broken")
        circuit.add_gate("g0", "INVx1", {"A": "floating"}, "out")
        circuit.add_output("out")
        with pytest.raises(TimingError):
            compile_design(circuit, mini_models)


class TestScalarCaches:
    """Memoized model lookups and the entry point's one engine."""

    def test_cell_ratio_memoized(self, mini_models):
        mini_models._ratio_cache.clear()
        first = mini_models.cell_ratio("INVx4")
        assert "INVx4" in mini_models._ratio_cache
        # Poison the cache to prove the second call is served from it.
        mini_models._ratio_cache["INVx4"] = first + 1.0
        assert mini_models.cell_ratio("INVx4") == first + 1.0
        mini_models._ratio_cache.clear()
        assert mini_models.cell_ratio("INVx4") == first

    def test_flat_pass_built_once_per_engine(
        self, adder_circuit, mini_models, monkeypatch
    ):
        import repro.core.sta_compiled as sta_compiled

        calls = []
        real = sta_compiled.flatten_parasitics

        def counting(circuit, models):
            calls.append(circuit.name)
            return real(circuit, models)

        monkeypatch.setattr(sta_compiled, "flatten_parasitics", counting)
        sta = StatisticalSTA(adder_circuit, mini_models)
        first = sta.analyze()
        second = sta.analyze()
        assert calls == [adder_circuit.name]
        assert sta._engine.perf.sta_compiles == 1
        assert first.arrival == second.arrival
        assert first.critical_path.quantiles == second.critical_path.quantiles
