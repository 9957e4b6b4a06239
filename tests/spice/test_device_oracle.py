"""Stacked device evaluation against the device-by-device oracle.

``CompiledCircuit.device_currents`` evaluates every MOSFET in one
device-model call and stamps in device-loop order; the oracle in
``device_oracle.py`` is the historical one-device-at-a-time loop. The
two must agree bit for bit on currents and Jacobian stamps, and a whole
arc simulated through the oracle must give the same delay samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells.characterize import ArcCharacterizer
from repro.kernels import available_backends, select_backend
from repro.spice import netlist as netlist_module
from repro.spice.montecarlo import MonteCarloEngine
from repro.spice.netlist import (
    CompiledCircuit,
    PiecewiseLinearSource,
    SampledWaveformSource,
    TransistorNetlist,
)
from repro.spice.transient import TransientSolver
from repro.units import FF, PS
from repro.variation.sampling import ParameterSample

from tests.spice.device_oracle import (
    oracle_bind_sample,
    oracle_device_currents,
    sources_at,
)

BACKENDS = [b["name"] for b in available_backends() if b["available"] == "yes"]


def bits(x: np.ndarray) -> np.ndarray:
    """Raw IEEE-754 bit patterns (distinguishes -0.0 and NaN payloads)."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


def random_sample(n_samples: int, n_devices: int, seed: int) -> ParameterSample:
    rng = np.random.default_rng(seed)
    shape = (n_samples, n_devices)
    return ParameterSample(
        dvth=0.03 * rng.normal(size=shape),
        mobility_scale=1.0 + 0.05 * rng.normal(size=shape),
        length_scale=1.0 + 0.02 * rng.normal(size=shape),
    )


def corner_netlist(tech, n_samples: int) -> TransistorNetlist:
    """Every terminal kind the plan must handle in one circuit.

    PMOS and NMOS devices; a gate, a drain and a source on fixed nodes;
    a diode-connected device (gate on its own drain, so one device adds
    two terms to the same Jacobian entry); a device between two unknown
    nodes; and a per-sample fixed source.
    """
    times = np.linspace(0.0, 40 * PS, 9)
    waves = np.outer(np.linspace(0.9, 1.1, n_samples), np.linspace(0.0, tech.vdd, 9))
    net = TransistorNetlist()
    net.fix("vdd", tech.vdd)
    net.fix("in", PiecewiseLinearSource.ramp(0.0, tech.vdd, 5 * PS, 20 * PS))
    net.fix("chain", SampledWaveformSource(times, waves))
    wp, wn = tech.unit_pmos_width, tech.unit_nmos_width
    net.add_mosfet("mp", "p", "out", "in", "vdd", wp)  # fixed gate + source
    net.add_mosfet("mn", "n", "out", "in", "mid", wn)  # fixed gate
    net.add_mosfet("mn2", "n", "mid", "chain", "gnd", wn)  # per-sample gate
    net.add_mosfet("md", "n", "vdd", "out", "x", wn)  # fixed drain
    net.add_mosfet("mdio", "p", "x", "x", "vdd", wp)  # diode-connected PMOS
    net.add_mosfet("mpass", "n", "x", "mid", "out", wn)  # all unknown
    net.add_capacitor("cl", "out", 1 * FF)
    return net


def check_against_oracle(compiled: CompiledCircuit, sample, t, kernel, seed):
    """Stacked vs oracle on random states, full batch and masked rows."""
    rng = np.random.default_rng(seed)
    n_samples, n = sample.n_samples, compiled.n_unknown
    stacked = compiled.bind_sample(sample)
    per_device = oracle_bind_sample(compiled, sample)
    vfix = compiled.fixed_voltages(t)
    subsets = [None, np.sort(rng.choice(n_samples, n_samples // 3, replace=False))]
    for rows in subsets:
        m = n_samples if rows is None else rows.size
        v = rng.uniform(-0.1, compiled.tech.vdd + 0.1, size=(m, n))
        # Conductance-sized start values, so reordered additions into
        # one entry change its last bits instead of vanishing.
        jac0 = 1e-6 * rng.normal(size=(m, n, n))
        jac_got, jac_want = jac0.copy(), jac0.copy()
        got = compiled.device_currents(
            v, vfix, stacked, jac=jac_got, rows=rows, kernel=kernel
        )
        want = oracle_device_currents(
            compiled, v, sources_at(compiled, t), per_device,
            jac=jac_want, rows=rows, kernel=kernel,
        )
        assert_bit_identical(got, want)
        assert_bit_identical(jac_got, jac_want)
        no_jac = compiled.device_currents(v, vfix, stacked, rows=rows, kernel=kernel)
        assert_bit_identical(no_jac, want)


class TestStackedMatchesOracle:
    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("t", [0.0, 12 * PS, 30 * PS])
    @pytest.mark.parametrize("block", [None, 64])
    def test_corner_terminals(self, tech, monkeypatch, kernel, t, block):
        backend = select_backend(kernel, fallback=False)
        if block is not None:
            # Cuts the 6-device, 96-sample batch into chunks of 10
            # samples (the last one short), its 32-row masked subset
            # into four.
            monkeypatch.setattr(netlist_module, "EVAL_BLOCK", block)
        n_samples = 96
        net = corner_netlist(tech, n_samples)
        compiled = net.compile(tech)
        sample = random_sample(n_samples, len(net.mosfets), seed=3)
        check_against_oracle(compiled, sample, t, backend, seed=5)

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("cell_name", ["INVx1", "NAND2x1", "AOI21x1"])
    def test_cell_netlists(self, tech, variation, library, kernel, cell_name):
        cell = library.get(cell_name)
        chz = ArcCharacterizer(MonteCarloEngine(tech, variation, seed=1))
        setup = chz.arc_setup(cell, cell.inputs[0], 40 * PS, 2 * FF)
        compiled = setup.netlist.compile(tech)
        sample = random_sample(64, len(setup.netlist.mosfets), seed=7)
        check_against_oracle(
            compiled, sample, 20 * PS, select_backend(kernel, fallback=False), seed=9
        )

    def test_fixed_voltages_match_sources(self, tech):
        n_samples = 16
        compiled = corner_netlist(tech, n_samples).compile(tech)
        for t in (0.0, 7 * PS, 100 * PS):
            vfix = compiled.fixed_voltages(t)
            assert vfix.shape == (n_samples, len(compiled.fixed_nodes))
            for k, node in enumerate(compiled.fixed_nodes):
                want = np.broadcast_to(compiled.fixed_sources[node](t), (n_samples,))
                assert_bit_identical(vfix[:, k], want)

    def test_plain_sources_give_one_row(self, tech, variation, library):
        chz = ArcCharacterizer(MonteCarloEngine(tech, variation, seed=1))
        setup = chz.arc_setup(library.get("NAND2x1"), "A", 40 * PS, 2 * FF)
        compiled = setup.netlist.compile(tech)
        vfix = compiled.fixed_voltages(9 * PS)
        assert vfix.shape == (len(compiled.fixed_nodes),)
        assert list(vfix) == [compiled.fixed_sources[n](9 * PS) for n in compiled.fixed_nodes]


class _OracleSpy:
    """Routes the solver through the oracle, or checks every call against it.

    The oracle reads each fixed source at the time of the step being
    solved (taken from ``TransientSolver._step``), independently of the
    solver's once-per-step fixed-voltage array.
    """

    def __init__(self, monkeypatch, replace: bool):
        self.calls = 0
        self.masked_calls = 0
        self.t = None
        stacked_currents = CompiledCircuit.device_currents
        stacked_step = TransientSolver._step
        spy = self

        def step(solver, v_prev, t_new, *args, **kwargs):
            spy.t = t_new
            return stacked_step(solver, v_prev, t_new, *args, **kwargs)

        def device_currents(compiled, v, vfix, params, jac=None, rows=None, kernel=None):
            spy.calls += 1
            spy.masked_calls += rows is not None
            fixv = sources_at(compiled, spy.t)
            if replace:
                return oracle_device_currents(
                    compiled, v, fixv, params, jac=jac, rows=rows, kernel=kernel
                )
            jac_want = None if jac is None else jac.copy()
            want = oracle_device_currents(
                compiled, v, fixv, spy.per_device[id(params)],
                jac=jac_want, rows=rows, kernel=kernel,
            )
            got = stacked_currents(
                compiled, v, vfix, params, jac=jac, rows=rows, kernel=kernel
            )
            assert_bit_identical(got, want)
            if jac is not None:
                assert_bit_identical(jac, jac_want)
            return got

        self.per_device = {}
        stacked_bind = CompiledCircuit.bind_sample

        def bind_sample(compiled, sample):
            if replace:
                return oracle_bind_sample(compiled, sample)
            params = stacked_bind(compiled, sample)
            spy.per_device[id(params)] = oracle_bind_sample(compiled, sample)
            return params

        monkeypatch.setattr(TransientSolver, "_step", step)
        monkeypatch.setattr(CompiledCircuit, "device_currents", device_currents)
        monkeypatch.setattr(CompiledCircuit, "bind_sample", bind_sample)


def simulate(library, tech, variation, cell_name, rising, n_samples, kernel):
    engine = MonteCarloEngine(tech, variation, seed=2023, kernel=kernel)
    chz = ArcCharacterizer(engine)
    cell = library.get(cell_name)
    return chz.simulate_arc(
        cell, cell.inputs[0], input_slew=40 * PS, load=2 * FF,
        n_samples=n_samples, output_rising=rising,
    )


class TestSolverCalls:
    @pytest.mark.parametrize("cell_name", ["INVx1", "NAND2x1", "AOI21x1"])
    @pytest.mark.parametrize("rising", [False, True])
    def test_every_call_of_a_characterization(
        self, tech, variation, library, monkeypatch, cell_name, rising
    ):
        kernel = select_backend()
        spy = _OracleSpy(monkeypatch, replace=False)
        simulate(library, tech, variation, cell_name, rising, 48, kernel.name)
        assert spy.calls > 0
        assert spy.masked_calls > 0  # the masked Newton subsets were covered

    def test_400_sample_arc_is_bit_identical(self, tech, variation, library, monkeypatch):
        kernel = select_backend().name
        got = simulate(library, tech, variation, "NAND2x1", False, 400, kernel)
        _OracleSpy(monkeypatch, replace=True)
        want = simulate(library, tech, variation, "NAND2x1", False, 400, kernel)
        for field in ("delay", "output_slew", "t_launch", "t_capture"):
            assert_bit_identical(getattr(got, field), getattr(want, field))


class TestRecordedSources:
    def test_fixed_nodes_recorded_at_each_step_time(self, tech):
        n_samples = 8
        net = corner_netlist(tech, n_samples)
        compiled = net.compile(tech)
        solver = TransientSolver(
            compiled, random_sample(n_samples, len(net.mosfets), seed=2)
        )
        v0 = np.full((n_samples, compiled.n_unknown), 0.3)
        result = solver.run(v0, 0.0, 40 * PS, 16, record=["in", "chain", "out"])
        for node in ("in", "chain"):
            want = np.array([
                np.broadcast_to(compiled.fixed_sources[node](t), (n_samples,))
                for t in result.times
            ])
            assert_bit_identical(result.voltage_tm(node), want)
