"""RC tree data structure.

A net's parasitics form a tree rooted at the driver pin: each non-root
node hangs off its parent through a segment resistance and carries a
grounded capacitance (wire-to-ground plus any receiver pin load).

The class supports the three uses the flow needs:

* analytic metrics (Elmore / higher moments) via
  :mod:`repro.interconnect.metrics`;
* embedding into a transistor netlist for golden Monte-Carlo simulation
  (:meth:`RCTree.embed`);
* SPEF round-tripping (:mod:`repro.interconnect.spef`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from repro.errors import InterconnectError
from repro.spice.netlist import TransistorNetlist


@dataclass
class RCNode:
    """One tree node: its upstream segment resistance and grounded cap."""

    name: str
    parent: Optional[str]
    resistance: float
    cap: float


class RCTree:
    """A grounded-capacitor RC tree rooted at the driver pin.

    Parameters
    ----------
    root:
        Name of the root (driver) node. The root may carry capacitance
        but has no upstream resistance.
    root_cap:
        Grounded capacitance at the root itself.
    """

    def __init__(self, root: str = "root", root_cap: float = 0.0):
        if not math.isfinite(root_cap) or root_cap < 0:
            raise InterconnectError(
                f"root {root!r}: cap must be finite and non-negative, got {root_cap!r}"
            )
        self._nodes: Dict[str, RCNode] = {
            root: RCNode(name=root, parent=None, resistance=0.0, cap=root_cap)
        }
        self._children: Dict[str, List[str]] = {root: []}
        self.root = root

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_segment(self, name: str, parent: str, resistance: float, cap: float) -> None:
        """Attach node ``name`` to ``parent`` through ``resistance`` ohms.

        ``cap`` farads of grounded capacitance land on the new node.

        Raises
        ------
        InterconnectError
            On duplicate node names, unknown parents, non-finite values,
            non-positive resistance or negative capacitance — a tree
            that accepted any of these would silently corrupt every
            downstream Elmore/moment computation.
        """
        if name in self._nodes:
            raise InterconnectError(f"duplicate RC node {name!r}")
        if parent not in self._nodes:
            raise InterconnectError(f"parent node {parent!r} does not exist")
        if not math.isfinite(resistance) or not math.isfinite(cap):
            raise InterconnectError(
                f"segment {name!r}: non-finite R/C (R={resistance!r}, C={cap!r})"
            )
        if resistance <= 0:
            raise InterconnectError(
                f"segment {name!r}: resistance must be positive, got {resistance!r}"
            )
        if cap < 0:
            raise InterconnectError(
                f"segment {name!r}: cap must be non-negative, got {cap!r}"
            )
        self._nodes[name] = RCNode(name=name, parent=parent, resistance=resistance, cap=cap)
        self._children[name] = []
        self._children[parent].append(name)

    def add_cap(self, node: str, cap: float) -> None:
        """Add extra grounded capacitance at an existing node (pin load)."""
        if node not in self._nodes:
            raise InterconnectError(f"no RC node {node!r}")
        if not math.isfinite(cap):
            raise InterconnectError(f"node {node!r}: non-finite cap {cap!r}")
        if cap < 0:
            raise InterconnectError(
                f"node {node!r}: cap must be non-negative, got {cap!r}"
            )
        self._nodes[node].cap += cap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Dict[str, RCNode]:
        """Node name → :class:`RCNode` (insertion order: root first)."""
        return self._nodes

    def children(self, node: str) -> List[str]:
        """Direct children of ``node``."""
        return self._children[node]

    def leaves(self) -> List[str]:
        """Nodes without children (receiver pins), in insertion order."""
        return [n for n, ch in self._children.items() if not ch]

    def path_to(self, node: str) -> List[str]:
        """Node names from the root to ``node`` inclusive."""
        if node not in self._nodes:
            raise InterconnectError(f"no RC node {node!r}")
        path = [node]
        while self._nodes[path[-1]].parent is not None:
            path.append(self._nodes[path[-1]].parent)
        return list(reversed(path))

    def topological(self) -> Iterator[str]:
        """Nodes in root-to-leaf (BFS) order."""
        order = [self.root]
        i = 0
        while i < len(order):
            order.extend(self._children[order[i]])
            i += 1
        return iter(order)

    def total_cap(self) -> float:
        """Sum of all grounded capacitance (the driver's "effective" load ceiling)."""
        return sum(n.cap for n in self._nodes.values())

    def total_resistance(self) -> float:
        """Sum of all segment resistances."""
        return sum(n.resistance for n in self._nodes.values())

    def downstream_cap(self) -> Dict[str, float]:
        """Per-node capacitance of the subtree rooted there (incl. itself)."""
        order = list(self.topological())
        down = {name: self._nodes[name].cap for name in order}
        for name in reversed(order):
            parent = self._nodes[name].parent
            if parent is not None:
                down[parent] += down[name]
        return down

    def n_segments(self) -> int:
        """Number of resistive segments (= nodes minus the root)."""
        return len(self._nodes) - 1

    # ------------------------------------------------------------------
    # Embedding into a transistor netlist
    # ------------------------------------------------------------------
    def embed(
        self,
        net: TransistorNetlist,
        prefix: str,
        root_node: str,
    ) -> Dict[str, str]:
        """Add this tree's R/C elements to a device-level netlist.

        Parameters
        ----------
        net:
            Target netlist.
        prefix:
            Unique prefix for element and node names.
        root_node:
            Circuit node the tree's root attaches to (the driver output).

        Returns
        -------
        dict
            Tree node name → circuit node name (the root maps to
            ``root_node``; every other node gets ``{prefix}_{name}``).
        """
        mapping = {self.root: root_node}
        for name in self.topological():
            node = self._nodes[name]
            if node.parent is None:
                if node.cap > 0:
                    net.add_capacitor(f"{prefix}_c_{name}", root_node, node.cap)
                continue
            circuit_node = f"{prefix}_{name}"
            mapping[name] = circuit_node
            net.add_resistor(
                f"{prefix}_r_{name}", mapping[node.parent], circuit_node, node.resistance
            )
            if node.cap > 0:
                net.add_capacitor(f"{prefix}_c_{name}", circuit_node, node.cap)
        return mapping

    # ------------------------------------------------------------------
    def copy(self) -> "RCTree":
        """Deep copy (topology, values and node order).

        The source tree was validated node by node as it was built, so
        its maps are cloned directly instead of re-adding every segment.
        """
        out = RCTree(self.root)
        out._nodes = {name: replace(node) for name, node in self._nodes.items()}
        out._children = {name: list(ch) for name, ch in self._children.items()}
        return out

    def __repr__(self) -> str:
        return (
            f"RCTree(root={self.root!r}, nodes={len(self._nodes)}, "
            f"R={self.total_resistance():.1f}ohm, C={self.total_cap() * 1e15:.2f}fF)"
        )
