"""Transistor-level netlist representation and compilation.

A :class:`TransistorNetlist` is the device-level view of a circuit:
MOSFETs, resistors, grounded capacitors, and *fixed* nodes whose voltage
is prescribed (supplies and driven inputs). :meth:`TransistorNetlist.compile`
lowers it to a :class:`CompiledCircuit` — index-based arrays ready for
the batched Newton solver in :mod:`repro.spice.transient`.

Formulation
-----------
Nodal analysis on the non-fixed ("unknown") nodes only. All voltage
sources are grounded and attached to fixed nodes, so no branch-current
unknowns are needed (no full MNA). Capacitors are node-to-ground, which
keeps the capacitance matrix constant and diagonal; this loses the
Miller gate-drain feedthrough but preserves every loading effect the
paper's models depend on (gate-cap load, junction self-load, RC wires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import NetlistError
from repro.spice.mosfet import MosfetParams, ekv_ids_and_derivatives
from repro.variation.parameters import Technology, VariationModel
from repro.variation.pelgrom import pelgrom_sigma_vth
from repro.variation.sampling import ParameterSample

#: Name of the implicit ground node (always fixed at 0 V).
GROUND = "gnd"

#: Elements (devices x samples) per device-model call. The solver
#: evaluates every device of a circuit in one call up to this size and
#: cuts larger batches into sample chunks, so the model's temporaries
#: (256 KiB each) stay in cache. The model is elementwise, so the cut
#: changes no float. On a 65536-sample NAND2 arc (2-vCPU host), 32768
#: beat 8192 for both numpy and cnative in 5 of 5 interleaved rounds,
#: and one unchunked call took 1.5x as long with numpy.
EVAL_BLOCK = 32768



@dataclass
class Mosfet:
    """A single MOS device.

    Attributes
    ----------
    name:
        Unique device name within the netlist.
    polarity:
        ``"n"`` or ``"p"``.
    drain, gate, source:
        Node names. Bulk is implicit (gnd for NMOS, vdd for PMOS); the
        EKV evaluation is bulk-referenced via the polarity sign trick.
    width:
        Drawn width in meters.
    length:
        Drawn length in meters (defaults to technology minimum when the
        netlist is compiled if left at 0).
    """

    name: str
    polarity: str
    drain: str
    gate: str
    source: str
    width: float
    length: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise NetlistError(f"mosfet {self.name}: polarity must be 'n' or 'p'")
        if self.width <= 0:
            raise NetlistError(f"mosfet {self.name}: width must be positive")

    @property
    def is_pmos(self) -> bool:
        """True for PMOS devices."""
        return self.polarity == "p"


@dataclass
class Resistor:
    """A two-terminal linear resistor."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise NetlistError(f"resistor {self.name}: resistance must be positive")


@dataclass
class Capacitor:
    """A grounded linear capacitor attached to ``node``."""

    name: str
    node: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise NetlistError(f"capacitor {self.name}: capacitance must be non-negative")


class PiecewiseLinearSource:
    """A piecewise-linear voltage waveform for a fixed node.

    Before the first breakpoint the voltage holds at the first value;
    after the last breakpoint it holds at the last value.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise NetlistError("PWL source needs matching 1-D times and values")
        if self.times.size < 1:
            raise NetlistError("PWL source needs at least one breakpoint")
        if np.any(np.diff(self.times) < 0):
            raise NetlistError("PWL source times must be non-decreasing")

    def __call__(self, t: float) -> float:
        """Voltage at time ``t`` (scalar)."""
        return float(np.interp(t, self.times, self.values))

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinearSource":
        """A DC source at ``value`` volts."""
        return cls([0.0], [value])

    @classmethod
    def ramp(
        cls, v_start: float, v_end: float, t_start: float, ramp_time: float
    ) -> "PiecewiseLinearSource":
        """A linear transition from ``v_start`` to ``v_end`` starting at ``t_start``."""
        if ramp_time <= 0:
            raise NetlistError("ramp_time must be positive")
        return cls([t_start, t_start + ramp_time], [v_start, v_end])

    @classmethod
    def saturated_edge(
        cls, v_start: float, v_end: float, t_start: float, slew: float
    ) -> "PiecewiseLinearSource":
        """A cell-like edge: fast through mid-swing, slow saturating tail.

        Real near-threshold gate outputs cross the middle of the swing
        quickly and crawl through the last ~40 % as the driving device's
        overdrive collapses. Characterizing with plain linear ramps
        biases the delay LUTs; this two-slope edge (60 % of the swing at
        full slope, the rest at ~29 %) matches the requested 20–80 %
        ``slew`` while reproducing that tail.
        """
        if slew <= 0:
            raise NetlistError("slew must be positive")
        # With the knee at 60 % and the tail ending at 2 T, the 20–80 %
        # crossing interval is 1.1 T.
        t_unit = slew / 1.1
        dv = v_end - v_start
        return cls(
            [t_start, t_start + 0.6 * t_unit, t_start + 2.0 * t_unit],
            [v_start, v_start + 0.6 * dv, v_end],
        )


class SampledWaveformSource:
    """A fixed-node source with a *different* waveform per Monte-Carlo sample.

    Used to chain stage-by-stage path simulations: the recorded output
    waveforms of stage ``k`` (shape ``(n_samples, n_points)``) drive the
    input node of stage ``k+1`` while preserving each sample's own edge
    shape and timing. Evaluation at time ``t`` returns an
    ``(n_samples,)`` vector, which broadcasts through the solver.
    """

    def __init__(self, times: Sequence[float], waves: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.waves = np.asarray(waves, dtype=float)
        if self.waves.ndim != 2 or self.waves.shape[1] != self.times.shape[0]:
            raise NetlistError(
                f"waves must be (n_samples, {self.times.shape[0]}), got {self.waves.shape}"
            )
        if np.any(np.diff(self.times) <= 0):
            raise NetlistError("waveform times must be strictly increasing")

    def __call__(self, t: float) -> np.ndarray:
        """Per-sample voltages at time ``t`` as an ``(n_samples,)`` array."""
        times = self.times
        if t <= times[0]:
            return self.waves[:, 0]
        if t >= times[-1]:
            return self.waves[:, -1]
        k = int(np.searchsorted(times, t) - 1)
        frac = (t - times[k]) / (times[k + 1] - times[k])
        return self.waves[:, k] * (1.0 - frac) + self.waves[:, k + 1] * frac

    def activity_interval(self, fraction: float = 0.02) -> "tuple[float, float]":
        """Time span over which any sample's waveform is still moving.

        Returns ``(t_start, t_end)``: the first instant any sample has
        left its initial value and the last instant any sample is still
        more than ``fraction`` of the overall swing away from its final
        value. Simulation windows should cover this interval rather than
        the (ever-growing) recorded span of a chained waveform.
        """
        swing = float(np.max(self.waves) - np.min(self.waves))
        if swing <= 0.0:
            return float(self.times[0]), float(self.times[0])
        tol = fraction * swing
        from_start = np.abs(self.waves - self.waves[:, :1]) > tol
        from_end = np.abs(self.waves - self.waves[:, -1:]) > tol
        started = from_start.any(axis=0)
        unfinished = from_end.any(axis=0)
        k_start = int(np.argmax(started)) if started.any() else 0
        k_end = (
            int(len(self.times) - 1 - np.argmax(unfinished[::-1]))
            if unfinished.any()
            else 0
        )
        k_start = max(0, k_start - 1)
        k_end = min(len(self.times) - 1, k_end + 1)
        return float(self.times[k_start]), float(self.times[k_end])


SourceLike = Union[float, PiecewiseLinearSource, Callable[[float], float]]


def _as_source(value: SourceLike) -> Callable[[float], float]:
    if isinstance(value, (int, float)):
        return PiecewiseLinearSource.constant(float(value))
    if callable(value):
        return value
    raise NetlistError(f"cannot interpret {value!r} as a voltage source")


class TransistorNetlist:
    """Mutable device-level netlist builder.

    Typical usage::

        net = TransistorNetlist()
        net.fix("vdd", 0.6)
        net.fix("in", PiecewiseLinearSource.ramp(0.0, 0.6, 1e-10, 2e-11))
        net.add_mosfet("mp", "p", drain="out", gate="in", source="vdd", width=2e-7)
        net.add_mosfet("mn", "n", drain="out", gate="in", source="gnd", width=1.2e-7)
        net.add_capacitor("cl", "out", 1e-15)
        compiled = net.compile(technology)

    The ground node ``"gnd"`` is always fixed at 0 V.
    """

    def __init__(self) -> None:
        self.mosfets: List[Mosfet] = []
        self.resistors: List[Resistor] = []
        self.capacitors: List[Capacitor] = []
        self._fixed: Dict[str, Callable[[float], float]] = {GROUND: _as_source(0.0)}
        self._names: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _register(self, name: str) -> None:
        if name in self._names:
            raise NetlistError(f"duplicate element name {name!r}")
        self._names.add(name)

    def fix(self, node: str, source: SourceLike) -> None:
        """Prescribe the voltage of ``node`` (supply rail or driven input)."""
        self._fixed[node] = _as_source(source)

    def add_mosfet(
        self,
        name: str,
        polarity: str,
        drain: str,
        gate: str,
        source: str,
        width: float,
        length: float = 0.0,
    ) -> Mosfet:
        """Add a MOSFET and return it."""
        self._register(name)
        device = Mosfet(name, polarity, drain, gate, source, width, length)
        self.mosfets.append(device)
        return device

    def add_resistor(self, name: str, node_a: str, node_b: str, resistance: float) -> Resistor:
        """Add a resistor and return it."""
        self._register(name)
        element = Resistor(name, node_a, node_b, resistance)
        self.resistors.append(element)
        return element

    def add_capacitor(self, name: str, node: str, capacitance: float) -> Capacitor:
        """Add a grounded capacitor and return it."""
        self._register(name)
        element = Capacitor(name, node, capacitance)
        self.capacitors.append(element)
        return element

    def nodes(self) -> List[str]:
        """All node names mentioned by any element (including fixed ones)."""
        seen: Dict[str, None] = {}
        for m in self.mosfets:
            for node in (m.drain, m.gate, m.source):
                seen.setdefault(node, None)
        for r in self.resistors:
            seen.setdefault(r.node_a, None)
            seen.setdefault(r.node_b, None)
        for c in self.capacitors:
            seen.setdefault(c.node, None)
        for node in self._fixed:
            seen.setdefault(node, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Variation hookup
    # ------------------------------------------------------------------
    def mismatch_sigmas(
        self, variation: VariationModel, tech: Technology
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-transistor (sigma_vth_local, is_pmos) arrays for the MC sampler.

        Device order matches :attr:`mosfets`, which is also the column
        order expected of :class:`~repro.variation.sampling.ParameterSample`
        batches passed to the solver.
        """
        sigmas = np.array(
            [
                pelgrom_sigma_vth(variation.avt, m.width, m.length or tech.l_min)
                for m in self.mosfets
            ]
        )
        is_pmos = np.array([m.is_pmos for m in self.mosfets], dtype=bool)
        return sigmas, is_pmos

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, tech: Technology, add_device_caps: bool = True) -> "CompiledCircuit":
        """Lower to index-based arrays for the transient solver.

        Parameters
        ----------
        tech:
            Technology constants (supplies default channel length and the
            per-width parasitic capacitances).
        add_device_caps:
            When True (default), automatically add gate capacitance at
            each device's gate node and junction capacitance at drain and
            source nodes. Capacitance on fixed nodes is skipped (their
            voltage is prescribed, so it draws no solver current).
        """
        unknown = [n for n in self.nodes() if n not in self._fixed]
        index = {name: i for i, name in enumerate(unknown)}
        n = len(unknown)
        if n == 0:
            raise NetlistError("netlist has no unknown nodes to solve for")

        # Explicit capacitor stamps (scalable per-sample: wire variation)
        # are kept separate from device parasitics (not scaled).
        explicit_caps: List[Tuple[int, float]] = []
        for cap in self.capacitors:
            if cap.node in index:
                explicit_caps.append((index[cap.node], cap.capacitance))
        device_cdiag = np.zeros(n)
        device_cap_stamps: List[Tuple[int, int, float]] = []
        if add_device_caps:
            for j, m in enumerate(self.mosfets):
                for node, cap in (
                    (m.gate, tech.gate_cap(m.width)),
                    (m.drain, tech.drain_cap(m.width)),
                    (m.source, tech.drain_cap(m.width)),
                ):
                    if node in index:
                        device_cdiag[index[node]] += cap
                        device_cap_stamps.append((index[node], j, cap))
        cdiag = device_cdiag.copy()
        for i, c in explicit_caps:
            cdiag[i] += c
        # Every unknown node must carry some capacitance for the nodal
        # transient formulation to be well-posed; add a tiny floor.
        floor = 1e-18
        cdiag = np.maximum(cdiag, floor)

        # Resistor stamps, in netlist order so per-resistor scale arrays
        # line up: (ia, ib, fixed_node, g). ib == -1 means the second
        # terminal is the fixed node named `fixed_node`.
        res_stamps: List[Tuple[int, int, str, float]] = []
        g_const = np.zeros((n, n))
        g_known: List[Tuple[int, float, str]] = []
        for r in self.resistors:
            g = 1.0 / r.resistance
            a_u = r.node_a in index
            b_u = r.node_b in index
            if a_u and b_u:
                ia, ib = index[r.node_a], index[r.node_b]
                res_stamps.append((ia, ib, "", g))
                g_const[ia, ia] += g
                g_const[ib, ib] += g
                g_const[ia, ib] -= g
                g_const[ib, ia] -= g
            elif a_u:
                ia = index[r.node_a]
                res_stamps.append((ia, -1, r.node_b, g))
                g_const[ia, ia] += g
                g_known.append((ia, g, r.node_b))
            elif b_u:
                ib = index[r.node_b]
                res_stamps.append((ib, -1, r.node_a, g))
                g_const[ib, ib] += g
                g_known.append((ib, g, r.node_a))
            else:
                # resistor between two fixed nodes: no solver contribution,
                # but keep the slot so scale arrays stay aligned.
                res_stamps.append((-1, -1, "", g))

        terminals: List[Tuple[Tuple[int, ...], Tuple[str, ...]]] = []
        for m in self.mosfets:
            idx = []
            fixed = []
            for node in (m.drain, m.gate, m.source):
                if node in index:
                    idx.append(index[node])
                    fixed.append("")
                else:
                    if node not in self._fixed:  # pragma: no cover - defensive
                        raise NetlistError(f"node {node} is neither unknown nor fixed")
                    idx.append(-1)
                    fixed.append(node)
            terminals.append((tuple(idx), tuple(fixed)))

        return CompiledCircuit(
            netlist=self,
            tech=tech,
            node_index=index,
            cdiag=cdiag,
            g_const=g_const,
            g_known=g_known,
            device_terminals=terminals,
            fixed_sources=dict(self._fixed),
            res_stamps=res_stamps,
            explicit_caps=explicit_caps,
            device_cdiag=device_cdiag,
            device_cap_stamps=device_cap_stamps,
        )


@dataclass
class CompiledCircuit:
    """Index-based circuit ready for batched transient solving.

    Produced by :meth:`TransistorNetlist.compile`; consumed by
    :class:`repro.spice.transient.TransientSolver`. The per-sample device
    parameters are bound separately via :meth:`bind_sample` so one
    compilation serves many Monte-Carlo batches.
    """

    netlist: TransistorNetlist
    tech: Technology
    node_index: Dict[str, int]
    cdiag: np.ndarray
    g_const: np.ndarray
    g_known: List[Tuple[int, float, str]]
    device_terminals: List[Tuple[Tuple[int, ...], Tuple[str, ...]]]
    fixed_sources: Dict[str, Callable[[float], float]]
    res_stamps: List[Tuple[int, int, str, float]] = field(default_factory=list)
    explicit_caps: List[Tuple[int, float]] = field(default_factory=list)
    device_cdiag: np.ndarray = field(default_factory=lambda: np.zeros(0))
    device_cap_stamps: List[Tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stacked device plan, built once: the rows of the node-major
        # [v | vfix] state holding each device's gate, drain and source
        # voltage, the PMOS sign flips, and the stamps of
        # device_currents in device-loop order.
        self.fixed_nodes: Tuple[str, ...] = tuple(self.fixed_sources)
        self.fixed_index = {node: k for k, node in enumerate(self.fixed_nodes)}
        n = self.n_unknown
        rows = np.empty((3, len(self.device_terminals)), dtype=np.int64)
        self._out_stamps: List[Tuple[int, int, bool]] = []
        self._jac_stamps: List[Tuple[int, int, int, int, bool]] = []
        for j, ((id_, ig, is_), (fd, fg, fs)) in enumerate(self.device_terminals):
            for t, (i, node) in enumerate(((ig, fg), (id_, fd), (is_, fs))):
                rows[t, j] = i if i >= 0 else n + self.fixed_index[node]
            pmos = self.netlist.mosfets[j].is_pmos
            # Drain row adds the physical current sign*ids and +g; the
            # source row subtracts both (a - b is exactly a + (-b)).
            for row, negate in ((id_, False), (is_, True)):
                if row < 0:
                    continue
                self._out_stamps.append((row, j, negate != pmos))
                for col, block in ((id_, 1), (ig, 0), (is_, 2)):  # g_d, g_g, g_s
                    if col >= 0:
                        self._jac_stamps.append((row, col, block, j, negate))
        self._terminal_rows = rows
        self._sign = np.array(
            [-1.0 if m.is_pmos else 1.0 for m in self.netlist.mosfets]
        )[:, None]

    @property
    def n_unknown(self) -> int:
        """Number of solved nodes."""
        return len(self.node_index)

    def build_linear(
        self,
        r_scale: Optional[np.ndarray] = None,
        c_scale: Optional[np.ndarray] = None,
        dev_cap_scale: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, List[Tuple[int, np.ndarray, str]], np.ndarray]":
        """Build the (optionally per-sample) linear stamps.

        Parameters
        ----------
        r_scale:
            ``(n_samples, n_resistors)`` multiplicative scale on each
            resistor's *resistance* (netlist order), or None for nominal.
        c_scale:
            ``(n_samples, n_explicit_caps)`` multiplicative scale on each
            explicit capacitor, or None for nominal.
        dev_cap_scale:
            ``(n_samples, n_mosfets)`` multiplicative scale on each
            device's parasitic (gate/junction) capacitances, or None for
            nominal; see ``Technology.cap_vth_sensitivity``.

        Returns
        -------
        (gmat, known_pulls, cvec):
            ``gmat`` has shape ``(n, n)`` or ``(n_samples, n, n)``;
            ``known_pulls`` is a list of ``(node_index, conductance,
            fixed_node)`` with conductance scalar or ``(n_samples,)``;
            ``cvec`` has shape ``(n,)`` or ``(n_samples, n)``.
        """
        n = self.n_unknown
        if r_scale is None:
            gmat: np.ndarray = self.g_const
            known_pulls: List[Tuple[int, np.ndarray, str]] = [
                (i, np.asarray(g), node) for i, g, node in self.g_known
            ]
        else:
            r_scale = np.asarray(r_scale, dtype=float)
            if r_scale.ndim != 2 or r_scale.shape[1] != len(self.res_stamps):
                raise NetlistError(
                    f"r_scale must be (n_samples, {len(self.res_stamps)}), "
                    f"got {r_scale.shape}"
                )
            n_samples = r_scale.shape[0]
            gmat = np.zeros((n_samples, n, n))
            known_pulls = []
            for k, (ia, ib, fixed_node, g0) in enumerate(self.res_stamps):
                if ia < 0:
                    continue
                g = g0 / r_scale[:, k]
                if ib >= 0:
                    gmat[:, ia, ia] += g
                    gmat[:, ib, ib] += g
                    gmat[:, ia, ib] -= g
                    gmat[:, ib, ia] -= g
                else:
                    gmat[:, ia, ia] += g
                    known_pulls.append((ia, g, fixed_node))

        if c_scale is None and dev_cap_scale is None:
            cvec: np.ndarray = self.cdiag
        else:
            if c_scale is not None:
                c_scale = np.asarray(c_scale, dtype=float)
                if c_scale.ndim != 2 or c_scale.shape[1] != len(self.explicit_caps):
                    raise NetlistError(
                        f"c_scale must be (n_samples, {len(self.explicit_caps)}), "
                        f"got {c_scale.shape}"
                    )
                n_samples = c_scale.shape[0]
            if dev_cap_scale is not None:
                dev_cap_scale = np.asarray(dev_cap_scale, dtype=float)
                if (
                    dev_cap_scale.ndim != 2
                    or dev_cap_scale.shape[1] != len(self.netlist.mosfets)
                ):
                    raise NetlistError(
                        f"dev_cap_scale must be (n_samples, {len(self.netlist.mosfets)}), "
                        f"got {dev_cap_scale.shape}"
                    )
                n_samples = dev_cap_scale.shape[0]

            if dev_cap_scale is None:
                cvec = np.broadcast_to(self.device_cdiag, (n_samples, n)).copy()
            else:
                cvec = np.zeros((n_samples, n))
                for i, j, cap in self.device_cap_stamps:
                    cvec[:, i] += cap * dev_cap_scale[:, j]
            for k, (i, c) in enumerate(self.explicit_caps):
                cvec[:, i] += c * (c_scale[:, k] if c_scale is not None else 1.0)
            np.clip(cvec, 1e-18, None, out=cvec)
        return gmat, known_pulls, cvec

    def fixed_voltages(self, t: float) -> np.ndarray:
        """Voltage of every fixed node at time ``t``, in :attr:`fixed_nodes` order.

        One evaluation per source serves a whole time step: the device
        stamps, the resistor pulls and the waveform recorder all read
        this array. Shape ``(n_fixed,)`` when every source is a plain
        waveform, ``(n_samples, n_fixed)`` when any source is per-sample
        (:class:`SampledWaveformSource`).
        """
        values = [self.fixed_sources[node](t) for node in self.fixed_nodes]
        per_sample = [x for x in values if np.ndim(x)]
        if not per_sample:
            return np.array(values, dtype=float)
        out = np.empty((np.shape(per_sample[0])[0], len(values)))
        for k, x in enumerate(values):
            out[:, k] = x
        return out

    def bind_sample(self, sample: ParameterSample) -> MosfetParams:
        """Stacked EKV parameters of every device for a Monte-Carlo batch.

        ``vt`` and ``ispec`` of the result are C-contiguous
        ``(n_devices, n_samples)`` arrays: one row per device, so the
        masked solver's row subsets and every device-model operation run
        along contiguous sample rows. The batch's transistor axis must
        follow the order of ``netlist.mosfets`` (which
        :meth:`TransistorNetlist.mismatch_sigmas` guarantees when the
        sampler is fed from the same netlist).
        """
        devices = self.netlist.mosfets
        if sample.n_transistors != len(devices):
            raise NetlistError(
                f"sample has {sample.n_transistors} transistors, "
                f"netlist has {len(devices)}"
            )
        return MosfetParams.from_technology(
            self.tech,
            np.array([m.is_pmos for m in devices], dtype=bool)[:, None],
            np.array([m.width for m in devices], dtype=float)[:, None],
            dvth=np.ascontiguousarray(sample.dvth.T),
            mobility_scale=np.ascontiguousarray(sample.mobility_scale.T),
            length_scale=np.ascontiguousarray(sample.length_scale.T),
            length=np.array(
                [m.length or self.tech.l_min for m in devices], dtype=float
            )[:, None],
        )

    def device_currents(
        self,
        v: np.ndarray,
        vfix: np.ndarray,
        params: MosfetParams,
        jac: Optional[np.ndarray] = None,
        rows: Optional[np.ndarray] = None,
        kernel: Optional[object] = None,
    ) -> np.ndarray:
        """Sum of nonlinear device currents *leaving* each unknown node.

        Every device is evaluated in one device-model call on
        ``(n_devices, n_samples)`` arrays; the stamps then add each
        device's terms in netlist order, so every residual and Jacobian
        entry sums in the same order as a device-by-device loop.

        Parameters
        ----------
        v:
            State array of shape ``(n_samples, n_unknown)``.
        vfix:
            Fixed-node voltages from :meth:`fixed_voltages` at the
            evaluation time (full batch).
        params:
            Stacked EKV parameters from :meth:`bind_sample`.
        jac:
            Optional ``(n_samples, n_unknown, n_unknown)`` array; when
            given, device conductance stamps are accumulated into it.
        rows:
            Optional index array restricting the evaluation to a subset
            of Monte-Carlo samples: ``v`` (and ``jac``) then cover only
            those rows while ``params`` and per-sample fixed voltages are
            sliced here. Used by the convergence-masked Newton kernel.
        kernel:
            Optional :class:`~repro.kernels.base.KernelBackend` whose
            ``ekv_eval`` replaces the reference device evaluation;
            ``None`` keeps the canonical
            :func:`~repro.spice.mosfet.ekv_ids_and_derivatives`.

        Returns
        -------
        numpy.ndarray
            ``(n_samples, n_unknown)`` residual contribution.
        """
        out = np.zeros(v.shape)
        if not self.netlist.mosfets:
            return out
        m = v.shape[0]
        chunk = max(1, EVAL_BLOCK // len(self.netlist.mosfets))
        if m <= chunk:
            self._device_pass(out, jac, v, vfix, params, rows, kernel)
            return out
        # Cache blocking over the sample axis (see EVAL_BLOCK): each
        # chunk still evaluates every device in one call.
        batch_rows = np.arange(m) if rows is None else rows
        for lo in range(0, m, chunk):
            part = slice(lo, lo + chunk)
            self._device_pass(
                out[part], None if jac is None else jac[part], v[part],
                vfix, params, batch_rows[part], kernel,
            )
        return out

    def _device_pass(
        self,
        out: np.ndarray,
        jac: Optional[np.ndarray],
        v: np.ndarray,
        vfix: np.ndarray,
        params: MosfetParams,
        rows: Optional[np.ndarray],
        kernel: Optional[object],
    ) -> None:
        """Evaluate every device on the state rows ``v`` (batch samples
        ``rows``, or all) in one device-model call and add the stamps."""
        if rows is not None:
            params = params.subset(rows)
            if vfix.ndim == 2:
                vfix = vfix[rows]
        n = self.n_unknown
        # Node-major state: each node is one contiguous row over the
        # samples, so the terminal gather copies whole rows.
        state = np.empty((n + len(self.fixed_nodes), v.shape[0]))
        state[:n] = v.T
        state[n:] = vfix.T if vfix.ndim == 2 else vfix[:, None]
        # Gather (3, n_devices, n_samples) gate/drain/source voltages and
        # apply the PMOS sign flip.
        vgds = state[self._terminal_rows]
        vgds *= self._sign
        ekv = kernel.ekv_eval if kernel is not None else ekv_ids_and_derivatives
        ids, g_g, g_d, g_s = ekv(vgds[0], vgds[1], vgds[2], params)
        # One stamp per device terminal, in device-loop order, so every
        # entry sums its terms in the historical order. The physical
        # current is sign*ids; the sign cancels in the conductances
        # (d(sign*i)/dv = sign*g*sign = g).
        for node, j, negate in self._out_stamps:
            if negate:
                out[:, node] -= ids[j]
            else:
                out[:, node] += ids[j]
        if jac is not None:
            conductances = (g_g, g_d, g_s)
            for row, col, block, j, negate in self._jac_stamps:
                if negate:
                    jac[:, row, col] -= conductances[block][j]
                else:
                    jac[:, row, col] += conductances[block][j]
