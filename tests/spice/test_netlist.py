"""Unit tests for netlist construction and compilation."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice.netlist import (
    Capacitor,
    Mosfet,
    PiecewiseLinearSource,
    Resistor,
    SampledWaveformSource,
    TransistorNetlist,
)
from repro.units import FF, PS
from repro.variation.sampling import ParameterSample


def inverter_netlist(tech, load=1 * FF):
    net = TransistorNetlist()
    net.fix("vdd", tech.vdd)
    net.fix("in", 0.0)
    net.add_mosfet("mp", "p", drain="out", gate="in", source="vdd",
                   width=tech.unit_pmos_width)
    net.add_mosfet("mn", "n", drain="out", gate="in", source="gnd",
                   width=tech.unit_nmos_width)
    net.add_capacitor("cl", "out", load)
    return net


class TestElements:
    def test_mosfet_validation(self):
        with pytest.raises(NetlistError):
            Mosfet("m", "x", "d", "g", "s", 1e-7)
        with pytest.raises(NetlistError):
            Mosfet("m", "n", "d", "g", "s", -1.0)

    def test_resistor_validation(self):
        with pytest.raises(NetlistError):
            Resistor("r", "a", "b", 0.0)

    def test_capacitor_validation(self):
        with pytest.raises(NetlistError):
            Capacitor("c", "a", -1e-15)
        Capacitor("c", "a", 0.0)  # zero allowed

    def test_duplicate_names_rejected(self, tech):
        net = inverter_netlist(tech)
        with pytest.raises(NetlistError):
            net.add_capacitor("cl", "out", 1 * FF)


class TestPWLSource:
    def test_constant(self):
        src = PiecewiseLinearSource.constant(0.6)
        assert src(0.0) == 0.6
        assert src(1e-9) == 0.6

    def test_ramp_interpolates(self):
        src = PiecewiseLinearSource.ramp(0.0, 1.0, 1e-12, 2e-12)
        assert src(0.0) == 0.0
        assert src(2e-12) == pytest.approx(0.5)
        assert src(5e-12) == 1.0

    def test_ramp_rejects_zero_time(self):
        with pytest.raises(NetlistError):
            PiecewiseLinearSource.ramp(0.0, 1.0, 0.0, 0.0)

    def test_saturated_edge_slew(self):
        src = PiecewiseLinearSource.saturated_edge(0.0, 1.0, 0.0, 20 * PS)
        t = np.linspace(0, 60 * PS, 3000)
        v = np.array([src(x) for x in t])
        t20 = t[np.argmax(v >= 0.2)]
        t80 = t[np.argmax(v >= 0.8)]
        assert (t80 - t20) == pytest.approx(20 * PS, rel=0.02)

    def test_saturated_edge_has_slow_tail(self):
        src = PiecewiseLinearSource.saturated_edge(0.0, 1.0, 0.0, 20 * PS)
        t = np.linspace(0, 80 * PS, 4000)
        v = np.array([src(x) for x in t])
        t50 = t[np.argmax(v >= 0.5)]
        t95 = t[np.argmax(v >= 0.95)]
        # Tail (50->95%) slower than head would predict for a pure ramp.
        assert (t95 - t50) > 0.9 * t50

    def test_falling_edge(self):
        src = PiecewiseLinearSource.saturated_edge(1.0, 0.0, 0.0, 20 * PS)
        assert src(0.0) == 1.0
        assert src(1e-9) == 0.0


class TestSampledWaveformSource:
    def test_per_sample_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        waves = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        src = SampledWaveformSource(times, waves)
        out = src(0.5)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(0.0)

    def test_clamps_outside_range(self):
        src = SampledWaveformSource([0.0, 1.0], np.array([[0.0, 1.0]]))
        assert src(-5.0)[0] == 0.0
        assert src(5.0)[0] == 1.0

    def test_activity_interval(self):
        times = np.linspace(0, 10, 11)
        waves = np.zeros((2, 11))
        waves[0, 4:7] = [0.5, 1.0, 1.0]
        waves[0, 7:] = 1.0
        waves[1, 5:] = 1.0
        src = SampledWaveformSource(times, waves)
        t0, t1 = src.activity_interval()
        assert 2.0 <= t0 <= 4.0
        # The last sample reaches its final value between t=4 and t=5.
        assert 4.0 <= t1 <= 6.0

    def test_activity_interval_flat_waveform(self):
        src = SampledWaveformSource([0.0, 1.0], np.array([[0.3, 0.3]]))
        t0, t1 = src.activity_interval()
        assert t0 == t1 == 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(NetlistError):
            SampledWaveformSource([0.0, 1.0], np.zeros((2, 3)))
        with pytest.raises(NetlistError):
            SampledWaveformSource([1.0, 0.0], np.zeros((1, 2)))


class TestCompile:
    def test_unknown_node_indexing(self, tech):
        compiled = inverter_netlist(tech).compile(tech)
        assert compiled.n_unknown == 1
        assert "out" in compiled.node_index

    def test_capacitance_includes_device_parasitics(self, tech):
        net = inverter_netlist(tech, load=1 * FF)
        compiled = net.compile(tech)
        i = compiled.node_index["out"]
        expected_extra = tech.drain_cap(tech.unit_pmos_width) + tech.drain_cap(
            tech.unit_nmos_width
        )
        assert compiled.cdiag[i] == pytest.approx(1 * FF + expected_extra)

    def test_no_device_caps_option(self, tech):
        net = inverter_netlist(tech, load=1 * FF)
        compiled = net.compile(tech, add_device_caps=False)
        assert compiled.cdiag[compiled.node_index["out"]] == pytest.approx(1 * FF)

    def test_resistor_stamps(self, tech):
        net = TransistorNetlist()
        net.fix("vdd", tech.vdd)
        net.add_resistor("r1", "a", "b", 1000.0)
        net.add_resistor("r2", "b", "vdd", 2000.0)
        net.add_capacitor("ca", "a", 1 * FF)
        net.add_capacitor("cb", "b", 1 * FF)
        compiled = net.compile(tech)
        ia, ib = compiled.node_index["a"], compiled.node_index["b"]
        g = compiled.g_const
        assert g[ia, ia] == pytest.approx(1e-3)
        assert g[ia, ib] == pytest.approx(-1e-3)
        assert g[ib, ib] == pytest.approx(1e-3 + 5e-4)
        assert compiled.g_known == [(ib, pytest.approx(5e-4), "vdd")]

    def test_empty_netlist_rejected(self, tech):
        net = TransistorNetlist()
        net.fix("in", 0.0)
        with pytest.raises(NetlistError):
            net.compile(tech)

    def test_bind_sample_count_mismatch(self, tech):
        compiled = inverter_netlist(tech).compile(tech)
        with pytest.raises(NetlistError):
            compiled.bind_sample(ParameterSample.nominal(4, 5))

    def test_mismatch_sigmas_order(self, tech, variation):
        net = inverter_netlist(tech)
        sigmas, is_pmos = net.mismatch_sigmas(variation, tech)
        assert sigmas.shape == (2,)
        assert list(is_pmos) == [True, False]
        # PMOS is wider -> smaller sigma.
        assert sigmas[0] < sigmas[1]

    def test_bind_sample_uses_drawn_length(self, tech, variation):
        # Current, like the Pelgrom sigma, follows the drawn length.
        net = TransistorNetlist()
        net.fix("vdd", tech.vdd)
        net.fix("in", 0.0)
        w = tech.unit_nmos_width
        net.add_mosfet("short", "n", drain="out", gate="in", source="gnd",
                       width=w)
        net.add_mosfet("long", "n", drain="out", gate="in", source="gnd",
                       width=w, length=2 * tech.l_min)
        net.add_capacitor("cl", "out", 1 * FF)
        params = net.compile(tech).bind_sample(ParameterSample.nominal(3, 2))
        np.testing.assert_allclose(params.ispec[1], 0.5 * params.ispec[0],
                                   rtol=1e-15)
        sigmas, _ = net.mismatch_sigmas(variation, tech)
        assert sigmas[1] < sigmas[0]


class TestBuildLinear:
    def _rc_netlist(self, tech):
        net = TransistorNetlist()
        net.fix("drv", 0.0)
        net.add_resistor("r1", "drv", "n1", 100.0)
        net.add_resistor("r2", "n1", "n2", 200.0)
        net.add_capacitor("c1", "n1", 1 * FF)
        net.add_capacitor("c2", "n2", 2 * FF)
        return net.compile(tech)

    def test_nominal_matches_batched_identity(self, tech):
        compiled = self._rc_netlist(tech)
        g0, pulls0, c0 = compiled.build_linear()
        ones_r = np.ones((3, len(compiled.res_stamps)))
        ones_c = np.ones((3, len(compiled.explicit_caps)))
        g1, pulls1, c1 = compiled.build_linear(ones_r, ones_c)
        assert g1.shape == (3, 2, 2)
        assert np.allclose(g1[0], g0)
        assert np.allclose(c1[0], c0)

    def test_r_scale_scales_conductance(self, tech):
        compiled = self._rc_netlist(tech)
        r_scale = np.full((1, 2), 2.0)
        g, pulls, _ = compiled.build_linear(r_scale=r_scale)
        i1 = compiled.node_index["n1"]
        # Doubled resistance -> halved conductances everywhere.
        assert g[0, i1, i1] == pytest.approx(compiled.g_const[i1, i1] / 2)

    def test_c_scale_only_touches_explicit_caps(self, tech):
        compiled = self._rc_netlist(tech)
        c_scale = np.full((1, 2), 3.0)
        _, _, c = compiled.build_linear(c_scale=c_scale)
        i2 = compiled.node_index["n2"]
        assert c[0, i2] == pytest.approx(6 * FF)

    def test_dev_cap_scale(self, tech):
        net = TransistorNetlist()
        net.fix("vdd", tech.vdd)
        net.fix("in", 0.0)
        net.add_mosfet("mp", "p", "out", "in", "vdd", tech.unit_pmos_width)
        net.add_mosfet("mn", "n", "out", "in", "gnd", tech.unit_nmos_width)
        compiled = net.compile(tech)
        scale = np.full((1, 2), 0.5)
        _, _, c = compiled.build_linear(dev_cap_scale=scale)
        i = compiled.node_index["out"]
        assert c[0, i] == pytest.approx(compiled.device_cdiag[i] * 0.5)

    def test_shape_validation(self, tech):
        compiled = self._rc_netlist(tech)
        from repro.errors import NetlistError
        with pytest.raises(NetlistError):
            compiled.build_linear(r_scale=np.ones((2, 5)))
        with pytest.raises(NetlistError):
            compiled.build_linear(c_scale=np.ones((2, 9)))
