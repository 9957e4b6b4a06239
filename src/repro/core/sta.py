"""Statistical static timing analysis with the N-sigma models (Eq. 10).

The engine propagates (mean arrival, slew) through the gate-level
circuit in topological order, identifies the critical path, and then
evaluates the paper's Eq. (10) along it:

    T_path(n sigma) = sum_cells T_c(n sigma) + sum_wires T_w(n sigma)

with the cell quantiles coming from the calibrated moments + Table I
model and the wire quantiles from Elmore × (1 + n·X_w).

Modeling conventions (shared with the golden Monte-Carlo for a fair
comparison):

* a gate's load is its output net's total wire capacitance plus the
  receiver pins' input capacitances (the LVF "effective capacitance"
  simplification);
* wire slew degradation uses the PERI-style RMS rule
  ``slew_sink = sqrt(slew_root^2 + (k * elmore)^2)``;
* arcs use the characterized falling-output data unless rising arcs
  were characterized too (the calibration store falls back per arc).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import InterconnectError, TimingError
from repro.cells.library import CellLibrary
from repro.core.calibration import CalibratedCellLibrary
from repro.core.nsigma_cell import NSigmaCellModel
from repro.core.nsigma_wire import WireVariabilityModel, cell_variability_ratio
from repro.moments.stats import SIGMA_LEVELS, Moments
from repro.netlist.circuit import PRIMARY_OUTPUT, Circuit
from repro.units import PS
from repro.variation.parameters import Technology

#: RMS slew-degradation factor through a wire of the given Elmore delay.
WIRE_SLEW_FACTOR = 1.4


@dataclass
class TimingModels:
    """Everything the STA needs: library, calibrations, N-sigma models.

    ``stage_correlation`` is the measured same-die delay correlation
    between distinct gates (1.0 = the paper's comonotone Eq. (10); see
    :mod:`repro.core.correlation` and
    :meth:`PathTiming.total_correlated`).
    """

    tech: Technology
    library: CellLibrary
    calibrated: CalibratedCellLibrary
    nsigma: NSigmaCellModel
    wire: WireVariabilityModel
    stage_correlation: float = 1.0
    _ratio_cache: Dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def cell_ratio(self, cell_name: str) -> float:
        """Reference variability ratio of a cell (memoized per instance).

        Every wire-variability query needs the driver and load cell
        ratios; deriving one walks the calibration store's fallback
        chain, so the result is cached here — a library has few distinct
        cells but a design queries them millions of times.
        """
        ratio = self._ratio_cache.get(cell_name)
        if ratio is None:
            ratio = cell_variability_ratio(self.calibrated, cell_name)
            self._ratio_cache[cell_name] = ratio
        return ratio


#: Key of one (net, sink) pair: ``(net, gate, pin)``; the primary-output
#: sink is ``(net, "<PO>", "")``.
SinkKey = Tuple[str, str, str]


@dataclass(frozen=True)
class FlatParasitics:
    """Every net's parasitics reduced to the numbers Eqs. (4), (7), (10) use.

    Attributes
    ----------
    net_names:
        Order of the per-net arrays (circuit insertion order).
    net_load / end_elmore:
        ``(N,)`` total load a driver sees (wire cap plus receiver pin
        caps) and the Elmore delay to the net's primary-output tap.
    sink_keys:
        ``(S,)`` the (net, sink) pairs: per net, its primary-output
        entry first, then every gate sink in net order.
    sink_elmore / sink_xw:
        ``(S,)`` Elmore delay to each sink's tap and the Eq. (7) wire
        variability ``X_w`` of its driver/load cell pair.
    """

    net_names: List[str]
    net_load: np.ndarray
    end_elmore: np.ndarray
    sink_keys: List[SinkKey]
    sink_elmore: np.ndarray
    sink_xw: np.ndarray

    def table(self, values: np.ndarray) -> Dict[SinkKey, float]:
        """``sink_keys`` → ``values`` (one of the ``(S,)`` arrays)."""
        return dict(zip(self.sink_keys, values.tolist()))


def flatten_parasitics(circuit: Circuit, models: TimingModels) -> FlatParasitics:
    """Read every net's RC tree once, with receiver pin caps at their taps.

    Real extraction annotates pin loads into the parasitics; Elmore on
    the bare wire would miss the charge the driver pushes into the
    receiver gates. Each tree is walked in BFS order: node caps (pin
    caps added in sink order), their sum as the load, a reverse-BFS
    downstream-cap sum, then a forward Elmore sum. That is the float
    order of :func:`~repro.interconnect.metrics.elmore_delay` on an
    annotated copy, so the values are exactly what the copy gives. A
    sink without a ``sink_leaf`` tap, and the primary output, tap the
    tree's first leaf. Ideal nets (no tree) have zero wire delay.
    """
    gates = circuit.gates
    wire_xw = lru_cache(maxsize=None)(models.wire.wire_variability)
    pin_caps: Dict[Tuple[str, str], float] = {}
    net_load: List[float] = []
    end_elmore: List[float] = []
    sink_keys: List[SinkKey] = []
    sink_elmore: List[float] = []
    sink_xw: List[float] = []
    for name, net in circuit.nets.items():
        driver_ratio = 0.0
        if not net.is_primary_input:
            driver_ratio = models.cell_ratio(gates[net.driver[0]].cell_name)
        sinks = [PRIMARY_OUTPUT]
        caps: List[float] = []  # pin cap of each gate sink
        sink_keys.append((name, *PRIMARY_OUTPUT))
        sink_xw.append(wire_xw(driver_ratio, 0.0))
        for sink in net.sinks:
            if sink == PRIMARY_OUTPUT:
                continue
            cell_name = gates[sink[0]].cell_name
            pin = (cell_name, sink[1])
            cap = pin_caps.get(pin)
            if cap is None:
                cell = models.library.get(cell_name)
                cap = pin_caps[pin] = cell.input_cap(sink[1], models.tech)
            sinks.append(sink)
            caps.append(cap)
            sink_keys.append((name, *sink))
            sink_xw.append(wire_xw(driver_ratio, models.cell_ratio(cell_name)))
        tree = net.tree
        if tree is None:
            load = 0.0
            for cap in caps:
                load += cap
            net_load.append(load)
            end_elmore.append(0.0)
            sink_elmore.extend([0.0] * len(sinks))
            continue
        order = list(tree.topological())
        pos = {node: i for i, node in enumerate(order)}
        first_leaf = tree.leaves()[0]
        try:
            taps = [pos[net.sink_leaf.get(sink, first_leaf)] for sink in sinks]
        except KeyError as exc:
            raise InterconnectError(
                f"net {name!r} taps unknown RC node {exc.args[0]!r}"
            ) from None
        rc = [tree.nodes[node] for node in order]
        down = [node.cap for node in rc]
        for i, cap in zip(taps[1:], caps):
            down[i] += cap
        net_load.append(sum(down))
        parent = [-1] + [pos[node.parent] for node in rc[1:]]
        for i in range(len(order) - 1, 0, -1):
            down[parent[i]] += down[i]
        elmore = [0.0]
        for i in range(1, len(order)):
            elmore.append(elmore[parent[i]] + rc[i].resistance * down[i])
        end_elmore.append(elmore[taps[0]])
        sink_elmore.extend([elmore[i] for i in taps])
    return FlatParasitics(
        net_names=list(circuit.nets),
        net_load=np.asarray(net_load, dtype=float),
        end_elmore=np.asarray(end_elmore, dtype=float),
        sink_keys=sink_keys,
        sink_elmore=np.asarray(sink_elmore, dtype=float),
        sink_xw=np.asarray(sink_xw, dtype=float),
    )


@dataclass
class PathStage:
    """One cell+wire stage of a timing path.

    Attributes
    ----------
    gate:
        Gate instance name ("" for the primary-input launch wire).
    cell_name:
        Library cell of the gate ("" for the launch stage).
    input_pin:
        The gate input pin the path enters through.
    output_rising:
        Edge polarity of the stage's output transition.
    net:
        The net the stage's output drives.
    sink:
        The (gate, pin) the path continues into (or the PO marker).
    input_slew / load:
        Operating condition seen by the cell arc.
    cell_moments:
        Calibrated moments of the cell delay (None for launch stage).
    cell_quantiles:
        Sigma level → cell delay quantile in seconds (zeros for launch).
    wire_elmore / wire_xw:
        Elmore delay to the sink tap and the modeled wire variability.
    wire_quantiles:
        Sigma level → wire delay quantile.
    """

    gate: str
    cell_name: str
    input_pin: str
    output_rising: bool
    net: str
    sink: Tuple[str, str]
    input_slew: float
    load: float
    cell_moments: Optional[Moments]
    cell_quantiles: Dict[int, float]
    wire_elmore: float
    wire_xw: float
    wire_quantiles: Dict[int, float]


@dataclass
class PathTiming:
    """Eq. (10) evaluation along one path."""

    stages: List[PathStage]
    levels: Tuple[int, ...] = SIGMA_LEVELS

    def total(self, level: int) -> float:
        """Path delay quantile at a sigma level (Eq. 10)."""
        return sum(
            s.cell_quantiles.get(level, 0.0) + s.wire_quantiles.get(level, 0.0)
            for s in self.stages
        )

    def total_correlated(self, level: int, correlation: float) -> float:
        """Correlation-aware path quantile (reproduction extension).

        Eq. (10) sums per-stage quantiles, which is exact only when
        stage delays are *comonotone* (perfectly correlated). With
        stage-to-stage delay correlation ``rho < 1`` (local mismatch
        partially averages out along the path), the per-level deviation
        from the median combines in variance space:

            D(n) = sign * sqrt( rho * (sum_i d_i(n))^2
                                + (1 - rho) * sum_i d_i(n)^2 )

        where ``d_i(n) = q_i(n) - q_i(0)``: the correlated variance
        share adds coherently (linear sum squared), the independent
        share in quadrature. ``rho = 1`` recovers Eq. (10) exactly and
        ``rho = 0`` is the fully independent root-sum-square.
        """
        if not 0.0 <= correlation <= 1.0:
            raise TimingError(f"correlation must be in [0, 1], got {correlation}")
        base = self.total(0)
        if level == 0:
            return base
        deviations = [
            (s.cell_quantiles.get(level, 0.0) + s.wire_quantiles.get(level, 0.0))
            - (s.cell_quantiles.get(0, 0.0) + s.wire_quantiles.get(0, 0.0))
            for s in self.stages
        ]
        linear = sum(deviations)
        quad_sq = sum(d * d for d in deviations)
        sign = 1.0 if linear >= 0 else -1.0
        combined = sign * np.sqrt(
            correlation * linear * linear + (1.0 - correlation) * quad_sq
        )
        return base + float(combined)

    @property
    def quantiles(self) -> Dict[int, float]:
        """All sigma-level path quantiles."""
        return {n: self.total(n) for n in self.levels}

    @property
    def n_cells(self) -> int:
        """Number of cell stages on the path."""
        return sum(1 for s in self.stages if s.cell_name)

    @property
    def cell_total(self) -> float:
        """Mean (0σ) cell contribution."""
        return sum(s.cell_quantiles.get(0, 0.0) for s in self.stages)

    @property
    def wire_total(self) -> float:
        """Mean (0σ) wire contribution."""
        return sum(s.wire_quantiles.get(0, 0.0) for s in self.stages)


@dataclass
class STAResult:
    """Full-circuit analysis output."""

    circuit_name: str
    arrival: Dict[str, float]
    critical_path: PathTiming
    runtime_s: float

    @property
    def critical_delay(self) -> float:
        """Mean critical-path delay."""
        return self.critical_path.total(0)


class StatisticalSTA:
    """The paper's timing-analysis engine over a parasitic-annotated circuit.

    Parameters
    ----------
    circuit:
        Gate-level circuit; nets should carry RC trees (ideal nets are
        tolerated and contribute zero wire delay).
    models:
        Fitted :class:`TimingModels`.
    input_slew:
        Slew presented at every primary input.
    """

    def __init__(
        self,
        circuit: Circuit,
        models: TimingModels,
        input_slew: float = 20 * PS,
        launch_rising: bool = True,
    ):
        self.circuit = circuit
        self.models = models
        self.input_slew = input_slew
        self.launch_rising = launch_rising
        self._wires: Optional[Tuple[dict, dict, dict]] = None

    # ------------------------------------------------------------------
    # Parasitics
    # ------------------------------------------------------------------
    def _parasitics(
        self,
    ) -> Tuple[Dict[str, float], Dict[SinkKey, float], Dict[SinkKey, float]]:
        """Net load, sink Elmore and sink X_w maps (one flat pass per engine)."""
        if self._wires is None:
            flat = flatten_parasitics(self.circuit, self.models)
            self._wires = (
                dict(zip(flat.net_names, flat.net_load.tolist())),
                flat.table(flat.sink_elmore),
                flat.table(flat.sink_xw),
            )
        return self._wires

    def _wire_quantiles(
        self, elmore: float, xw: float, levels: Iterable[int]
    ) -> Dict[int, float]:
        return {n: (1.0 + n * xw) * elmore for n in levels}

    @staticmethod
    def _degrade_slew(slew: float, elmore: float) -> float:
        return float(np.hypot(slew, WIRE_SLEW_FACTOR * elmore))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self, levels: Iterable[int] = SIGMA_LEVELS) -> STAResult:
        """Propagate timing and evaluate Eq. (10) on the critical path.

        The circuit (topology + attached RC trees) is first run through
        the :mod:`repro.lint` domain rules; structural errors — undriven
        or multi-driven nets, combinational cycles, unknown cells,
        corrupt parasitics — raise :class:`~repro.errors.TimingError`
        before any propagation happens.
        """
        from repro.lint import lint_circuit

        lint_circuit(self.circuit, library=self.models.library).raise_if_errors(
            TimingError, context=f"circuit {self.circuit.name}"
        )
        t0 = time.perf_counter()
        levels = tuple(levels)
        circuit = self.circuit
        net_load, elmore, _ = self._parasitics()
        # Per-net state at the *driver output* (root of the net's tree):
        # arrival time, slew and edge polarity of the propagated event.
        arrival: Dict[str, float] = {}
        slew: Dict[str, float] = {}
        edge: Dict[str, bool] = {}
        # Which (gate, pin) chain produced each net's arrival.
        from_pin: Dict[str, Optional[Tuple[str, str]]] = {}

        for net_name in circuit.inputs:
            arrival[net_name] = 0.0
            slew[net_name] = self.input_slew
            edge[net_name] = self.launch_rising
            from_pin[net_name] = None

        for gate in circuit.topological_gates():
            load = net_load[gate.output_net]
            cell = self.models.library.get(gate.cell_name)
            best_arrival = -np.inf
            # (pin, slew_at_pin, out_slew, out_edge)
            best: Optional[Tuple[str, float, float, bool]] = None
            for pin, net_name in gate.pins.items():
                if net_name not in arrival:
                    raise TimingError(
                        f"net {net_name!r} reached gate {gate.name!r} unscheduled"
                    )
                elm = elmore[(net_name, gate.name, pin)]
                at_pin = arrival[net_name] + elm
                slew_pin = self._degrade_slew(slew[net_name], elm)
                in_edge = edge[net_name]
                out_edge = (not in_edge) if cell.arc(pin).inverting else in_edge
                arc = self.models.calibrated.get(gate.cell_name, pin, out_edge)
                at_out = at_pin + arc.mu_at(slew_pin, load)
                if at_out > best_arrival:
                    best_arrival = at_out
                    best = (pin, slew_pin, arc.out_slew_at(slew_pin, load), out_edge)
            if best is None:
                raise TimingError(f"gate {gate.name!r} has no inputs")
            arrival[gate.output_net] = best_arrival
            slew[gate.output_net] = best[2]
            edge[gate.output_net] = best[3]
            from_pin[gate.output_net] = (gate.name, best[0])

        # Critical endpoint: include the wire to the worst sink.
        end_net, end_sink, worst = self._worst_endpoint(arrival)
        path = self._trace_path(end_net, from_pin)
        timing = self._path_timing(path, end_sink, arrival, slew, edge, levels)
        runtime = time.perf_counter() - t0
        return STAResult(
            circuit_name=circuit.name,
            arrival=arrival,
            critical_path=timing,
            runtime_s=runtime,
        )

    def _worst_endpoint(
        self, arrival: Dict[str, float]
    ) -> Tuple[str, Tuple[str, str], float]:
        elmore = self._parasitics()[1]
        worst = -np.inf
        end_net = ""
        end_sink = PRIMARY_OUTPUT
        for net_name in self.circuit.nets:
            if net_name not in arrival:
                continue
            at = arrival[net_name] + elmore[(net_name, *PRIMARY_OUTPUT)]
            if at > worst:
                worst = at
                end_net = net_name
        if not end_net:
            raise TimingError("circuit has no timed endpoints")
        return end_net, end_sink, worst

    def _trace_path(
        self, end_net: str, from_pin: Dict[str, Optional[Tuple[str, str]]]
    ) -> List[Tuple[str, str, str]]:
        """Walk back through from_pin: list of (gate, pin, output_net)."""
        chain: List[Tuple[str, str, str]] = []
        net = end_net
        while True:
            prev = from_pin.get(net)
            if prev is None:
                break
            gate_name, pin = prev
            chain.append((gate_name, pin, net))
            net = self.circuit.gates[gate_name].pins[pin]
        chain.reverse()
        return chain

    def _path_timing(
        self,
        chain: List[Tuple[str, str, str]],
        end_sink: Tuple[str, str],
        arrival: Dict[str, float],
        slew: Dict[str, float],
        edge: Dict[str, bool],
        levels: Tuple[int, ...],
    ) -> PathTiming:
        stages: List[PathStage] = []
        circuit = self.circuit
        net_load, elmore, wire_xw = self._parasitics()
        zero_q = {n: 0.0 for n in levels}

        # Launch stage: the primary-input net's wire into the first gate.
        if chain:
            first_gate, first_pin, _ = chain[0]
            launch_net_name = circuit.gates[first_gate].pins[first_pin]
        else:
            launch_net_name = ""
        if launch_net_name and circuit.nets[launch_net_name].is_primary_input:
            sink = (first_gate, first_pin)
            elm = elmore[(launch_net_name, *sink)]
            xw = wire_xw[(launch_net_name, *sink)]
            stages.append(
                PathStage(
                    gate="",
                    cell_name="",
                    input_pin="",
                    output_rising=self.launch_rising,
                    net=launch_net_name,
                    sink=sink,
                    input_slew=self.input_slew,
                    load=net_load[launch_net_name],
                    cell_moments=None,
                    cell_quantiles=dict(zero_q),
                    wire_elmore=elm,
                    wire_xw=xw,
                    wire_quantiles=self._wire_quantiles(elm, xw, levels),
                )
            )

        for k, (gate_name, pin, out_net_name) in enumerate(chain):
            gate = circuit.gates[gate_name]
            in_net_name = gate.pins[pin]
            elm_in = elmore[(in_net_name, gate_name, pin)]
            slew_pin = self._degrade_slew(slew[in_net_name], elm_in)
            load = net_load[out_net_name]
            out_edge = edge[out_net_name]
            arc = self.models.calibrated.get(gate.cell_name, pin, out_edge)
            moments = arc.moments_at(slew_pin, load)
            cell_q = self.models.nsigma.quantiles(moments, levels)
            sink = chain[k + 1][0:2] if k + 1 < len(chain) else end_sink
            elm_out = elmore[(out_net_name, *sink)]
            xw = wire_xw[(out_net_name, *sink)]
            stages.append(
                PathStage(
                    gate=gate_name,
                    cell_name=gate.cell_name,
                    input_pin=pin,
                    output_rising=out_edge,
                    net=out_net_name,
                    sink=sink,
                    input_slew=slew_pin,
                    load=load,
                    cell_moments=moments,
                    cell_quantiles=cell_q,
                    wire_elmore=elm_out,
                    wire_xw=xw,
                    wire_quantiles=self._wire_quantiles(elm_out, xw, levels),
                )
            )
        return PathTiming(stages=stages, levels=levels)
