"""Statistical static timing analysis with the N-sigma models (Eq. 10).

The STA propagates (mean arrival, slew) through the gate-level circuit
in topological order, identifies the critical path, and then evaluates
the paper's Eq. (10) along it:

    T_path(n sigma) = sum_cells T_c(n sigma) + sum_wires T_w(n sigma)

with the cell quantiles coming from the calibrated moments + Table I
model and the wire quantiles from Elmore × (1 + n·X_w).

This module holds what the analysis is built from and what it reports:
the fitted :class:`TimingModels`, the one flat parasitic pass
(:func:`flatten_parasitics`) and the path-report types
(:class:`PathStage`, :class:`PathTiming`, :class:`STAResult`). The one
propagation engine is :class:`~repro.core.sta_compiled.CompiledSTA`;
:class:`StatisticalSTA` is its one-scenario entry point. A dict-based
walker in ``tests/core/sta_oracle.py`` holds the engine to these
conventions with exact equality.

Modeling conventions (shared with the golden Monte-Carlo for a fair
comparison):

* a gate's load is its output net's total wire capacitance plus the
  receiver pins' input capacitances (the LVF "effective capacitance"
  simplification);
* wire slew degradation uses the PERI-style RMS rule
  ``slew_sink = sqrt(slew_root^2 + (k * elmore)^2)``;
* a gate's output event comes from its latest-arriving input pin, the
  first such pin on a tie, and the critical endpoint is the first net
  (in circuit order) with the latest arrival plus Elmore delay to its
  output tap;
* arcs use the characterized falling-output data unless rising arcs
  were characterized too (the calibration store falls back per arc).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

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

if TYPE_CHECKING:  # repro.core.sta_compiled imports this module
    from repro.core.sta_compiled import CompiledSTA

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


def check_stage_correlation(correlation: float) -> None:
    """Raise :class:`TimingError` unless ``0 <= correlation <= 1``."""
    if not 0.0 <= correlation <= 1.0:
        raise TimingError(f"correlation must be in [0, 1], got {correlation}")


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
        check_stage_correlation(correlation)
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
    arrival: Mapping[str, float]
    critical_path: PathTiming
    runtime_s: float

    @property
    def critical_delay(self) -> float:
        """Mean critical-path delay."""
        return self.critical_path.total(0)


class StatisticalSTA:
    """The paper's path report: one scenario of the compiled STA engine.

    Parameters
    ----------
    circuit:
        Gate-level circuit; nets should carry RC trees (ideal nets are
        tolerated and contribute zero wire delay).
    models:
        Fitted :class:`TimingModels`.
    input_slew / launch_rising:
        Slew and edge presented at every primary input.
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
        self._engine: Optional["CompiledSTA"] = None

    def analyze(self, levels: Iterable[int] = SIGMA_LEVELS) -> STAResult:
        """Propagate timing and evaluate Eq. (10) on the critical path.

        The first call compiles the circuit without a cache. Its lint
        raises :class:`~repro.errors.TimingError` on structural errors
        (undriven or multi-driven nets, cycles, unknown cells, corrupt
        parasitics) before any propagation.
        """
        if self._engine is None:
            # Imported here: repro.core.sta_compiled imports this module.
            from repro.core.sta_compiled import CompiledSTA

            self._engine = CompiledSTA(self.circuit, self.models)
        return self._engine.analyze(self.input_slew, self.launch_rising, levels)
