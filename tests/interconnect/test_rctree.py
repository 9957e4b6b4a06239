"""Unit and property tests for the RC tree structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InterconnectError
from repro.interconnect.rctree import RCTree
from repro.spice.netlist import TransistorNetlist
from repro.units import FF


def simple_tree():
    """root -- a -- b, with branch a -- c."""
    t = RCTree("root", root_cap=0.5 * FF)
    t.add_segment("a", "root", 100.0, 1 * FF)
    t.add_segment("b", "a", 200.0, 2 * FF)
    t.add_segment("c", "a", 300.0, 3 * FF)
    return t


class TestConstruction:
    def test_duplicate_node_rejected(self):
        t = simple_tree()
        with pytest.raises(InterconnectError):
            t.add_segment("a", "root", 1.0, 0.0)

    def test_unknown_parent_rejected(self):
        t = simple_tree()
        with pytest.raises(InterconnectError):
            t.add_segment("x", "nope", 1.0, 0.0)

    def test_nonpositive_resistance_rejected(self):
        t = simple_tree()
        with pytest.raises(InterconnectError):
            t.add_segment("x", "a", 0.0, 0.0)

    def test_add_cap_accumulates(self):
        t = simple_tree()
        t.add_cap("b", 1 * FF)
        assert t.nodes["b"].cap == pytest.approx(3 * FF)

    def test_add_cap_unknown_node(self):
        with pytest.raises(InterconnectError):
            simple_tree().add_cap("zz", 1 * FF)


class TestTopology:
    def test_leaves(self):
        assert set(simple_tree().leaves()) == {"b", "c"}

    def test_path_to(self):
        assert simple_tree().path_to("b") == ["root", "a", "b"]

    def test_path_to_unknown(self):
        with pytest.raises(InterconnectError):
            simple_tree().path_to("zz")

    def test_topological_root_first(self):
        order = list(simple_tree().topological())
        assert order[0] == "root"
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")

    def test_totals(self):
        t = simple_tree()
        assert t.total_cap() == pytest.approx(6.5 * FF)
        assert t.total_resistance() == pytest.approx(600.0)
        assert t.n_segments() == 3

    def test_downstream_cap(self):
        down = simple_tree().downstream_cap()
        assert down["b"] == pytest.approx(2 * FF)
        assert down["a"] == pytest.approx(6 * FF)
        assert down["root"] == pytest.approx(6.5 * FF)

    def test_copy_is_deep(self):
        t = simple_tree()
        c = t.copy()
        c.add_cap("b", 5 * FF)
        assert t.nodes["b"].cap == pytest.approx(2 * FF)

    def test_wide_fanout_tree_order_values_and_copy(self):
        """A 2,041-node fan-out tree, built depth-first: BFS order is the
        reference queue walk, and a copy keeps order and values but shares
        no mutable state with its source."""
        from collections import deque

        from repro.interconnect.metrics import elmore_delay

        t = RCTree("root", root_cap=0.2 * FF)
        for h in range(40):
            t.add_segment(f"h{h}", "root", 10.0 + h, 0.1 * FF * (h + 1))
            for k in range(50):
                t.add_segment(f"h{h}_{k}", f"h{h}", 50.0 + k, 0.01 * FF * (k + 1))
        assert len(t.nodes) == 2041

        reference, queue = [], deque([t.root])
        while queue:
            node = queue.popleft()
            reference.append(node)
            queue.extend(t.children(node))
        assert list(t.topological()) == reference
        assert reference[:41] == ["root"] + [f"h{h}" for h in range(40)]

        c = t.copy()
        assert list(c.nodes) == list(t.nodes)
        assert list(c.topological()) == reference
        assert c.leaves() == t.leaves()
        for name, node in t.nodes.items():
            assert c.nodes[name] == node and c.nodes[name] is not node
            assert c.children(name) == t.children(name)
        assert c.total_cap() == t.total_cap()
        assert elmore_delay(c) == elmore_delay(t)

        before = {name: (n.resistance, n.cap) for name, n in t.nodes.items()}
        c.add_cap("h7_3", 1 * FF)
        c.add_segment("extra", "h7", 1.0, 1 * FF)
        assert {name: (n.resistance, n.cap) for name, n in t.nodes.items()} == before
        assert "extra" not in t.nodes and "extra" not in t.children("h7")


class TestEmbed:
    def test_embed_creates_elements(self, tech):
        t = simple_tree()
        net = TransistorNetlist()
        net.fix("drv", 0.0)
        mapping = t.embed(net, "w", "drv")
        assert mapping["root"] == "drv"
        assert len(net.resistors) == 3
        # root cap + three node caps
        assert len(net.capacitors) == 4

    def test_embedded_elmore_matches_metric(self, tech):
        from repro.interconnect.metrics import elmore_delay
        from repro.spice.transient import TransientSolver
        from repro.spice.netlist import PiecewiseLinearSource
        from repro.variation.sampling import ParameterSample

        # Drive the tree with an ideal step and check the 63.2% point of
        # the farthest sink is near its Elmore delay (within the usual
        # multi-pole tolerance).
        t = simple_tree()
        net = TransistorNetlist()
        net.fix("drv", PiecewiseLinearSource([0.0, 1e-15], [0.0, 1.0]))
        mapping = t.embed(net, "w", "drv")
        compiled = net.compile(tech)
        solver = TransientSolver(compiled, ParameterSample.nominal(1, 0))
        res = solver.run(np.zeros((1, compiled.n_unknown)), 0.0, 20e-12, 2000,
                         record=[mapping["b"]])
        wave = res.voltage(mapping["b"])[0]
        t632 = res.times[np.argmax(wave >= 0.632)]
        elm = elmore_delay(t, "b")
        assert t632 == pytest.approx(elm, rel=0.35)


@given(
    rs=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8),
    cs=st.lists(st.floats(min_value=0.0, max_value=1e-14), min_size=1, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_chain_invariants(rs, cs):
    """Property: chain totals equal sums; downstream decreasing."""
    n = min(len(rs), len(cs))
    t = RCTree("root")
    parent = "root"
    for k in range(n):
        t.add_segment(f"n{k}", parent, rs[k], cs[k])
        parent = f"n{k}"
    assert t.total_resistance() == pytest.approx(sum(rs[:n]))
    assert t.total_cap() == pytest.approx(sum(cs[:n]))
    down = t.downstream_cap()
    chain = ["root"] + [f"n{k}" for k in range(n)]
    values = [down[x] for x in chain]
    assert all(a >= b - 1e-30 for a, b in zip(values, values[1:]))
