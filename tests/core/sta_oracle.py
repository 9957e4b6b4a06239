"""A dict-based scalar STA walker: the exact oracle of the STA engine.

:class:`~repro.core.sta_compiled.CompiledSTA` levelizes the circuit,
packs the arcs into tensors and propagates ``(scenarios, nets)`` arrays.
This walker derives the same result the plain way, one gate at a time
in topological order, from nothing but:

* :func:`~repro.core.sta.flatten_parasitics` (checked against its own
  independent oracle in ``test_flat_parasitics.py``);
* the scalar :class:`~repro.core.calibration.ArcCalibration` queries
  ``mu_at`` / ``out_slew_at`` / ``moments_at``;
* ``hypot`` wire slew degradation, a first-wins strict ``>`` over input
  pins and over endpoint nets, and the scalar Table I quantiles.

Every float goes through the same rounded operations as the engine's
array code, so the two agree exactly, not to a tolerance.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.sta import (
    WIRE_SLEW_FACTOR,
    PathStage,
    PathTiming,
    STAResult,
    TimingModels,
    flatten_parasitics,
)
from repro.moments.stats import SIGMA_LEVELS
from repro.netlist.circuit import PRIMARY_OUTPUT, Circuit
from repro.units import PS


def degrade_slew(slew: float, elmore: float) -> float:
    """RMS slew degradation through a wire of the given Elmore delay."""
    return float(np.hypot(slew, WIRE_SLEW_FACTOR * elmore))


def oracle_analyze(
    circuit: Circuit,
    models: TimingModels,
    input_slew: float = 20 * PS,
    launch_rising: bool = True,
    levels: Iterable[int] = SIGMA_LEVELS,
) -> STAResult:
    """Arrivals and the priced critical path of one scenario."""
    levels = tuple(levels)
    flat = flatten_parasitics(circuit, models)
    net_load = dict(zip(flat.net_names, flat.net_load.tolist()))
    elmore = flat.table(flat.sink_elmore)
    wire_xw = flat.table(flat.sink_xw)

    arrival: Dict[str, float] = {}
    slew: Dict[str, float] = {}
    edge: Dict[str, bool] = {}
    from_pin: Dict[str, Tuple[str, str]] = {}
    for net in circuit.inputs:
        arrival[net] = 0.0
        slew[net] = input_slew
        edge[net] = launch_rising

    for gate in circuit.topological_gates():
        load = net_load[gate.output_net]
        cell = models.library.get(gate.cell_name)
        best_at = -np.inf
        best: Optional[Tuple[str, float, float, bool]] = None
        for pin, net in gate.pins.items():
            elm = elmore[(net, gate.name, pin)]
            slew_pin = degrade_slew(slew[net], elm)
            out_edge = (not edge[net]) if cell.arc(pin).inverting else edge[net]
            arc = models.calibrated.get(gate.cell_name, pin, out_edge)
            at_out = arrival[net] + elm + arc.mu_at(slew_pin, load)
            if at_out > best_at:
                best_at = at_out
                best = (pin, slew_pin, arc.out_slew_at(slew_pin, load), out_edge)
        assert best is not None, gate.name
        arrival[gate.output_net] = best_at
        slew[gate.output_net] = best[2]
        edge[gate.output_net] = best[3]
        from_pin[gate.output_net] = (gate.name, best[0])

    worst, end_net = -np.inf, ""
    for net in circuit.nets:
        at = arrival[net] + elmore[(net, *PRIMARY_OUTPUT)]
        if at > worst:
            worst, end_net = at, net

    chain: List[Tuple[str, str, str]] = []  # (gate, pin, output net)
    net = end_net
    while net in from_pin:
        gate_name, pin = from_pin[net]
        chain.append((gate_name, pin, net))
        net = circuit.gates[gate_name].pins[pin]
    chain.reverse()

    def wire_stage(**fields) -> PathStage:
        key = (fields["net"], *fields["sink"])
        elm, xw = elmore[key], wire_xw[key]
        return PathStage(
            wire_elmore=elm,
            wire_xw=xw,
            wire_quantiles={n: (1.0 + n * xw) * elm for n in levels},
            **fields,
        )

    stages: List[PathStage] = []
    if chain:
        first_gate, first_pin, _ = chain[0]
        launch = circuit.gates[first_gate].pins[first_pin]
        stages.append(wire_stage(
            gate="", cell_name="", input_pin="", output_rising=launch_rising,
            net=launch, sink=(first_gate, first_pin), input_slew=input_slew,
            load=net_load[launch], cell_moments=None,
            cell_quantiles={n: 0.0 for n in levels},
        ))
    for k, (gate_name, pin, out_net) in enumerate(chain):
        gate = circuit.gates[gate_name]
        in_net = gate.pins[pin]
        slew_pin = degrade_slew(slew[in_net], elmore[(in_net, gate_name, pin)])
        load = net_load[out_net]
        arc = models.calibrated.get(gate.cell_name, pin, edge[out_net])
        moments = arc.moments_at(slew_pin, load)
        sink = chain[k + 1][:2] if k + 1 < len(chain) else PRIMARY_OUTPUT
        stages.append(wire_stage(
            gate=gate_name, cell_name=gate.cell_name, input_pin=pin,
            output_rising=edge[out_net], net=out_net, sink=sink,
            input_slew=slew_pin, load=load, cell_moments=moments,
            cell_quantiles=models.nsigma.quantiles(moments, levels),
        ))
    return STAResult(
        circuit_name=circuit.name,
        arrival=arrival,
        critical_path=PathTiming(stages=stages, levels=levels),
        runtime_s=0.0,
    )
