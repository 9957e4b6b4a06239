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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.cells.library import CellLibrary
from repro.core.calibration import CalibratedCellLibrary
from repro.core.nsigma_cell import NSigmaCellModel
from repro.core.nsigma_wire import WireVariabilityModel, cell_variability_ratio
from repro.interconnect.metrics import elmore_delays
from repro.moments.stats import SIGMA_LEVELS, Moments
from repro.netlist.circuit import PRIMARY_OUTPUT, Circuit, GateInst, Net
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
        self._pin_cap: Dict[Tuple[str, str], float] = {}
        self._ratio_cache: Dict[str, float] = {}
        self._tree_cache: Dict[str, Optional["object"]] = {}
        # Per-net derived parasitics, computed once per engine instance:
        # node → Elmore delay of the annotated tree, and the total load.
        # Multi-sink nets are queried once per sink per analysis; without
        # these, every query re-walked the whole RC tree.
        self._elmore_cache: Dict[str, Dict[str, float]] = {}
        self._load_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Model lookups
    # ------------------------------------------------------------------
    def _input_cap(self, cell_name: str, pin: str) -> float:
        key = (cell_name, pin)
        if key not in self._pin_cap:
            cell = self.models.library.get(cell_name)
            self._pin_cap[key] = cell.input_cap(pin, self.models.tech)
        return self._pin_cap[key]

    def _cell_ratio(self, cell_name: str) -> float:
        if cell_name not in self._ratio_cache:
            self._ratio_cache[cell_name] = self.models.cell_ratio(cell_name)
        return self._ratio_cache[cell_name]

    def _annotated_tree(self, net: Net):
        """The net's RC tree with receiver pin caps added at their taps.

        Real extraction annotates pin loads into the parasitics; Elmore
        on the bare wire would miss the charge the driver pushes into
        the receiver gates.
        """
        if net.name not in self._tree_cache:
            if net.tree is None:
                self._tree_cache[net.name] = None
            else:
                tree = net.tree.copy()
                default_leaf = tree.leaves()[0]
                for sink in net.sinks:
                    if sink == PRIMARY_OUTPUT:
                        continue
                    gate = self.circuit.gates[sink[0]]
                    leaf = net.sink_leaf.get(sink, default_leaf)
                    tree.add_cap(leaf, self._input_cap(gate.cell_name, sink[1]))
                self._tree_cache[net.name] = tree
        return self._tree_cache[net.name]

    def _net_load(self, net: Net) -> float:
        """Total load a driver sees: wire cap + receiver pin caps (cached)."""
        load = self._load_cache.get(net.name)
        if load is not None:
            return load
        tree = self._annotated_tree(net)
        if tree is not None:
            load = tree.total_cap()
        else:
            load = 0.0
            for sink in net.sinks:
                if sink == PRIMARY_OUTPUT:
                    continue
                gate = self.circuit.gates[sink[0]]
                load += self._input_cap(gate.cell_name, sink[1])
        self._load_cache[net.name] = load
        return load

    def _net_elmore(self, net: Net) -> Dict[str, float]:
        """Node → Elmore delay of the net's annotated tree (cached).

        All sink taps of a net share one two-pass tree traversal; the
        per-sink queries of multi-sink nets become dict lookups.
        """
        delays = self._elmore_cache.get(net.name)
        if delays is None:
            tree = self._annotated_tree(net)
            delays = {} if tree is None else elmore_delays(tree)
            self._elmore_cache[net.name] = delays
        return delays

    def _wire_delay_to(self, net: Net, sink: Tuple[str, str]) -> float:
        """Elmore delay from the net root to a sink's tap point."""
        if net.tree is None:
            return 0.0
        leaf = net.sink_leaf.get(sink)
        if leaf is None:
            leaf = net.tree.leaves()[0]
        return float(self._net_elmore(net)[leaf])

    def _wire_xw(self, net: Net, sink: Tuple[str, str]) -> float:
        driver_ratio = 0.0
        if not net.is_primary_input:
            driver_ratio = self._cell_ratio(
                self.circuit.gates[net.driver[0]].cell_name
            )
        load_ratio = 0.0
        if sink != PRIMARY_OUTPUT:
            load_ratio = self._cell_ratio(self.circuit.gates[sink[0]].cell_name)
        return self.models.wire.wire_variability(driver_ratio, load_ratio)

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
            out_net = circuit.nets[gate.output_net]
            load = self._net_load(out_net)
            cell = self.models.library.get(gate.cell_name)
            best_arrival = -np.inf
            # (pin, slew_at_pin, out_slew, out_edge)
            best: Optional[Tuple[str, float, float, bool]] = None
            for pin, net_name in gate.pins.items():
                net = circuit.nets[net_name]
                if net_name not in arrival:
                    raise TimingError(
                        f"net {net_name!r} reached gate {gate.name!r} unscheduled"
                    )
                elm = self._wire_delay_to(net, (gate.name, pin))
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
        worst = -np.inf
        end_net = ""
        end_sink = PRIMARY_OUTPUT
        for net_name, net in self.circuit.nets.items():
            if net_name not in arrival:
                continue
            sinks = [s for s in net.sinks if s == PRIMARY_OUTPUT] or [PRIMARY_OUTPUT]
            for sink in sinks:
                at = arrival[net_name] + self._wire_delay_to(net, sink)
                if at > worst:
                    worst = at
                    end_net = net_name
                    end_sink = sink
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
        zero_q = {n: 0.0 for n in levels}

        # Launch stage: the primary-input net's wire into the first gate.
        if chain:
            first_gate, first_pin, _ = chain[0]
            launch_net_name = circuit.gates[first_gate].pins[first_pin]
        else:
            launch_net_name = ""
        if launch_net_name and circuit.nets[launch_net_name].is_primary_input:
            net = circuit.nets[launch_net_name]
            sink = (first_gate, first_pin)
            elm = self._wire_delay_to(net, sink)
            xw = self._wire_xw(net, sink)
            stages.append(
                PathStage(
                    gate="",
                    cell_name="",
                    input_pin="",
                    output_rising=self.launch_rising,
                    net=launch_net_name,
                    sink=sink,
                    input_slew=self.input_slew,
                    load=self._net_load(net),
                    cell_moments=None,
                    cell_quantiles=dict(zero_q),
                    wire_elmore=elm,
                    wire_xw=xw,
                    wire_quantiles=self._wire_quantiles(elm, xw, levels),
                )
            )

        for k, (gate_name, pin, out_net_name) in enumerate(chain):
            gate = circuit.gates[gate_name]
            in_net = circuit.nets[gate.pins[pin]]
            out_net = circuit.nets[out_net_name]
            elm_in = self._wire_delay_to(in_net, (gate_name, pin))
            slew_pin = self._degrade_slew(slew[in_net.name], elm_in)
            load = self._net_load(out_net)
            out_edge = edge[out_net_name]
            arc = self.models.calibrated.get(gate.cell_name, pin, out_edge)
            moments = arc.moments_at(slew_pin, load)
            cell_q = self.models.nsigma.quantiles(moments, levels)
            sink = chain[k + 1][0:2] if k + 1 < len(chain) else end_sink
            if k + 1 < len(chain):
                next_gate, next_pin, _ = chain[k + 1]
                sink = (next_gate, next_pin)
            elm_out = self._wire_delay_to(out_net, sink)
            xw = self._wire_xw(out_net, sink)
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
