"""The flat parasitic pass against an independent per-net oracle.

Both STA engines and the design key read their parasitics from
:func:`~repro.core.sta.flatten_parasitics`, so comparing the engines
with each other can no longer catch a wrong load or Elmore delay. The
oracle here derives every value from first principles instead: it
annotates a copy of each net's :class:`RCTree` with the receiver pin
caps by hand, takes Elmore from the dict-based
:func:`~repro.interconnect.metrics.elmore_delay`, and X_w from the
scalar :meth:`WireVariabilityModel.wire_variability`. Equality is exact.
"""

import pytest

from repro.core.nsigma_wire import cell_variability_ratio
from repro.core.sta import flatten_parasitics
from repro.errors import InterconnectError
from repro.interconnect.metrics import elmore_delay
from repro.interconnect.rctree import RCTree
from repro.netlist.benchmarks import attach_parasitics, build_iscas85_like
from repro.netlist.circuit import PRIMARY_OUTPUT, Circuit
from repro.units import FF


def oracle(circuit, models):
    """Net load, and Elmore / X_w per (net, sink), computed net by net."""

    def pin_cap(sink):
        cell = models.library.get(circuit.gates[sink[0]].cell_name)
        return cell.input_cap(sink[1], models.tech)

    def ratio(gate_name):
        cell_name = circuit.gates[gate_name].cell_name
        return cell_variability_ratio(models.calibrated, cell_name)

    loads, elmore, xw = {}, {}, {}
    for name, net in circuit.nets.items():
        gate_sinks = [s for s in net.sinks if s != PRIMARY_OUTPUT]
        if net.tree is None:
            load = 0.0
            for sink in gate_sinks:
                load += pin_cap(sink)
            delays = None
        else:
            default = net.tree.leaves()[0]
            annotated = net.tree.copy()
            for sink in gate_sinks:
                annotated.add_cap(net.sink_leaf.get(sink, default), pin_cap(sink))
            load = sum(annotated.nodes[n].cap for n in annotated.topological())
            delays = elmore_delay(annotated)
        loads[name] = load
        driver = 0.0 if net.is_primary_input else ratio(net.driver[0])
        for sink in [PRIMARY_OUTPUT] + gate_sinks:
            key = (name, *sink)
            elmore[key] = (
                0.0 if delays is None else delays[net.sink_leaf.get(sink, default)]
            )
            fanout = 0.0 if sink == PRIMARY_OUTPUT else ratio(sink[0])
            xw[key] = models.wire.wire_variability(driver, fanout)
    return loads, elmore, xw


def assert_matches_oracle(circuit, models):
    flat = flatten_parasitics(circuit, models)
    loads, elmore, xw = oracle(circuit, models)
    assert flat.net_names == list(circuit.nets)
    assert flat.net_load.tolist() == [loads[n] for n in flat.net_names]
    assert flat.sink_keys == list(elmore)
    assert flat.table(flat.sink_elmore) == elmore
    assert flat.table(flat.sink_xw) == xw
    assert flat.end_elmore.tolist() == [
        elmore[(n, *PRIMARY_OUTPUT)] for n in flat.net_names
    ]
    return flat


def chain(prefix, n, r=40.0, c=0.3 * FF):
    tree = RCTree("root", root_cap=0.05 * FF)
    parent = "root"
    for k in range(n):
        tree.add_segment(f"{prefix}{k}", parent, r * (k + 1), c * (k + 2))
        parent = f"{prefix}{k}"
    return tree


def corner_circuit():
    """Every tap convention on a few nets.

    * ``n1``: a tree whose first leaf in insertion order (``t3``) is not
      its first leaf in BFS order (``b1``); two sinks share leaf ``b1``
      and ``g4.A`` has no ``sink_leaf`` entry (default leaf);
    * ``side``: an ideal net (no tree);
    * ``n2``: primary-output only, with a tree;
    * ``n3``: primary output first, then a gate sink;
    * ``n4``: a gate sink, then a primary output tapped off the default
      leaf through ``sink_leaf``;
    * ``n6``: ideal and primary-output only.
    """
    c = Circuit("corners")
    for name in ("a", "b", "side"):
        c.add_input(name)
    c.add_gate("g1", "NAND2x1", {"A": "a", "B": "b"}, "n1")
    c.add_gate("g2", "INVx1", {"A": "n1"}, "n2")
    c.add_gate("g3", "INVx2", {"A": "n1"}, "n3")
    c.add_gate("g4", "NOR2x1", {"A": "n1", "B": "side"}, "n4")
    c.add_output("n2")
    c.add_output("n3")
    c.add_gate("g5", "INVx4", {"A": "n3"}, "n5")
    c.add_gate("g6", "INVx8", {"A": "n4"}, "n6")
    c.add_output("n4")
    c.add_output("n5")
    c.add_output("n6")

    for name, n_seg in (("a", 2), ("b", 3), ("n2", 2), ("n3", 4), ("n5", 1)):
        c.nets[name].tree = chain(f"{name}_", n_seg)
    c.nets["a"].sink_leaf = {("g1", "A"): "a_1"}
    c.nets["b"].sink_leaf = {("g1", "B"): "b_2"}
    c.nets["n3"].sink_leaf = {("g5", "A"): "n3_3"}

    n1 = RCTree("root", root_cap=0.1 * FF)
    n1.add_segment("t1", "root", 60.0, 0.4 * FF)
    n1.add_segment("t2", "t1", 70.0, 0.5 * FF)
    n1.add_segment("t3", "t2", 80.0, 0.6 * FF)
    n1.add_segment("b1", "t1", 90.0, 0.7 * FF)
    c.nets["n1"].tree = n1
    c.nets["n1"].sink_leaf = {("g2", "A"): "b1", ("g3", "A"): "b1"}

    n4 = chain("n4_", 2)
    n4.add_segment("n4_x", "root", 55.0, 0.2 * FF)
    c.nets["n4"].tree = n4
    c.nets["n4"].sink_leaf = {("g6", "A"): "n4_1", PRIMARY_OUTPUT: "n4_x"}
    return c


class TestAgainstOracle:
    def test_adder(self, adder_circuit, mini_models):
        assert_matches_oracle(adder_circuit, mini_models)

    def test_c432(self, mini_models, tech):
        circuit = build_iscas85_like("c432", type_names=("INV",))
        attach_parasitics(circuit, tech, seed=3)
        flat = assert_matches_oracle(circuit, mini_models)
        assert len(flat.net_names) > 600

    def test_tap_corner_cases(self, mini_models):
        circuit = corner_circuit()
        flat = assert_matches_oracle(circuit, mini_models)
        elmore = flat.table(flat.sink_elmore)
        load = dict(zip(flat.net_names, flat.net_load.tolist()))
        tree = circuit.nets["n1"].tree
        assert tree.leaves()[0] == "t3" and list(tree.topological())[-1] == "t3"
        # g4.A has no tap of its own: it reads the first leaf in
        # insertion order, the leaf its pin cap was put on.
        assert elmore[("n1", "g4", "A")] == elmore[("n1", *PRIMARY_OUTPUT)]
        assert elmore[("n1", "g2", "A")] == elmore[("n1", "g3", "A")]
        assert elmore[("n1", "g4", "A")] != elmore[("n1", "g2", "A")]
        # Ideal nets: zero wire delay, pin caps only.
        assert elmore[("side", "g4", "B")] == 0.0
        assert load["side"] > 0.0 and load["n6"] == 0.0
        # A sink_leaf entry moves the primary-output tap off the default leaf.
        assert elmore[("n4", *PRIMARY_OUTPUT)] != elmore[("n4", "g6", "A")]
        keys = [k for k in flat.sink_keys if k[0] in ("n2", "n3", "n4")]
        assert keys == [
            ("n2", *PRIMARY_OUTPUT),
            ("n3", *PRIMARY_OUTPUT),
            ("n3", "g5", "A"),
            ("n4", *PRIMARY_OUTPUT),
            ("n4", "g6", "A"),
        ]

    def test_unknown_tap_rejected(self, mini_models):
        circuit = corner_circuit()
        circuit.nets["n1"].sink_leaf[("g2", "A")] = "nowhere"
        with pytest.raises(InterconnectError, match="nowhere"):
            flatten_parasitics(circuit, mini_models)

    def test_source_trees_untouched(self, mini_models):
        circuit = corner_circuit()
        before = {
            name: [(n.resistance, n.cap) for n in net.tree.nodes.values()]
            for name, net in circuit.nets.items()
            if net.tree is not None
        }
        flatten_parasitics(circuit, mini_models)
        assert before == {
            name: [(n.resistance, n.cap) for n in net.tree.nodes.values()]
            for name, net in circuit.nets.items()
            if net.tree is not None
        }
