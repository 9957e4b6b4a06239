"""Tests for the statistical STA engine (Eq. 10)."""

import numpy as np
import pytest

from repro.core.sta import StatisticalSTA, WIRE_SLEW_FACTOR
from repro.errors import NetlistError, TimingError
from repro.moments.stats import SIGMA_LEVELS
from repro.netlist.benchmarks import attach_parasitics
from repro.netlist.circuit import Circuit
from repro.netlist.generators import build_adder
from repro.units import PS
from tests.core.sta_oracle import degrade_slew


@pytest.fixture(scope="module")
def sta_result(adder_circuit, mini_models):
    sta = StatisticalSTA(adder_circuit, mini_models)
    return sta.analyze()


class TestAnalysis:
    def test_all_nets_timed(self, sta_result, adder_circuit):
        for net in adder_circuit.nets:
            assert net in sta_result.arrival

    def test_arrivals_nonnegative_and_finite(self, sta_result):
        values = np.array(list(sta_result.arrival.values()))
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0)

    def test_critical_delay_positive(self, sta_result):
        assert sta_result.critical_delay > 10 * PS

    def test_arrival_increases_along_path(self, sta_result, adder_circuit):
        path = sta_result.critical_path
        arrivals = [sta_result.arrival[s.net] for s in path.stages if s.gate]
        assert arrivals == sorted(arrivals)

    def test_path_quantiles_monotone_in_level(self, sta_result):
        q = sta_result.critical_path.quantiles
        values = [q[n] for n in SIGMA_LEVELS]
        assert values == sorted(values)

    def test_eq10_additivity(self, sta_result):
        # Total equals the stage-wise sum by construction.
        path = sta_result.critical_path
        for n in (-3, 0, 3):
            manual = sum(
                s.cell_quantiles[n] + s.wire_quantiles[n] for s in path.stages)
            assert path.total(n) == pytest.approx(manual)

    def test_path_contains_cells_and_wires(self, sta_result):
        path = sta_result.critical_path
        assert path.n_cells >= 3
        assert path.cell_total > 0
        assert path.wire_total > 0

    def test_edges_alternate_through_inverting_chain(self, sta_result):
        # All adder gates are NAND2 (inverting): consecutive stages flip.
        cells = [s for s in sta_result.critical_path.stages if s.cell_name]
        for a, b in zip(cells, cells[1:]):
            assert a.output_rising != b.output_rising

    def test_runtime_recorded(self, sta_result):
        assert sta_result.runtime_s > 0

    def test_critical_path_is_connected(self, sta_result, adder_circuit):
        cells = [s for s in sta_result.critical_path.stages if s.cell_name]
        for a, b in zip(cells, cells[1:]):
            sink_gate, sink_pin = a.sink
            assert sink_gate == b.gate
            assert sink_pin == b.input_pin
            assert adder_circuit.gates[b.gate].pins[b.input_pin] == a.net


class TestModelInputs:
    def test_launch_polarity_changes_result(self, adder_circuit, mini_models):
        rise = StatisticalSTA(adder_circuit, mini_models, launch_rising=True).analyze()
        fall = StatisticalSTA(adder_circuit, mini_models, launch_rising=False).analyze()
        assert rise.critical_delay != pytest.approx(fall.critical_delay, rel=1e-6)

    def test_bigger_input_slew_slower(self, adder_circuit, mini_models):
        fast = StatisticalSTA(adder_circuit, mini_models, input_slew=10 * PS).analyze()
        slow = StatisticalSTA(adder_circuit, mini_models, input_slew=200 * PS).analyze()
        assert slow.critical_delay > fast.critical_delay

    def test_ideal_nets_supported(self, mini_models):
        c = Circuit("tiny")
        c.add_input("a")
        c.add_gate("g1", "INVx1", {"A": "a"}, "w")
        c.add_gate("g2", "INVx1", {"A": "w"}, "y")
        c.add_output("y")
        res = StatisticalSTA(c, mini_models).analyze()
        assert res.critical_delay > 0
        assert res.critical_path.wire_total == 0.0

    def test_slew_degradation_rule(self, sta_result, mini_models):
        # Each cell sees its driver's output slew degraded through the
        # wire by the RMS rule of the oracle (sta_oracle.degrade_slew).
        stages = sta_result.critical_path.stages
        assert degrade_slew(10 * PS, 5 * PS) == np.hypot(
            10 * PS, WIRE_SLEW_FACTOR * 5 * PS
        )
        for prev, stage in zip(stages, stages[1:]):
            if prev.cell_name:
                arc = mini_models.calibrated.get(
                    prev.cell_name, prev.input_pin, prev.output_rising
                )
                driven = arc.out_slew_at(prev.input_slew, prev.load)
            else:
                driven = prev.input_slew
            assert stage.input_slew == degrade_slew(driven, prev.wire_elmore)

    def test_subset_levels(self, adder_circuit, mini_models):
        res = StatisticalSTA(adder_circuit, mini_models).analyze(levels=(-3, 0, 3))
        assert set(res.critical_path.quantiles) == {-3, 0, 3}


class TestSpreadShape:
    def test_spread_reflects_near_threshold_variability(self, sta_result):
        q = sta_result.critical_path.quantiles
        rel_spread = (q[3] - q[-3]) / q[0]
        assert 0.2 < rel_spread < 2.0

    def test_plus3_further_than_minus3(self, sta_result):
        # Right-skewed delays: the +3 sigma tail is longer.
        q = sta_result.critical_path.quantiles
        assert (q[3] - q[0]) > (q[0] - q[-3])
