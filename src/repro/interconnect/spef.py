"""SPEF subset reader and writer.

The flow consumes the same information IC Compiler would have emitted
in a Standard Parasitic Exchange Format file: per-net ``*D_NET`` blocks
with ``*CAP`` (grounded caps) and ``*RES`` (segment resistors) sections.
This module round-trips that subset — enough structure that real SPEF
habits (header, units, connectivity section) carry over, without
implementing the full IEEE 1481 grammar.

Limitations (documented, enforced):

* only grounded caps (no coupling ``*CAP`` pairs);
* resistor sections must form a tree rooted at the net's driver node;
* name maps (``*NAME_MAP``) are not supported.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import InterconnectError
from repro.interconnect.rctree import RCTree
from repro.units import FF, OHM

_HEADER = """*SPEF "IEEE 1481-1998"
*DESIGN "{design}"
*VENDOR "repro"
*PROGRAM "repro.interconnect.spef"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
"""

# Units used on disk (SPEF-conventional) vs the SI used in memory.
_R_UNIT = OHM
_C_UNIT = FF


def write_spef(
    nets: Dict[str, RCTree],
    path: Union[str, Path],
    design: str = "repro_design",
) -> None:
    """Write nets as ``*D_NET`` blocks.

    Node naming: the tree's own node names are written verbatim; the
    root is also declared as the net's driver connection. Values are
    written with nine significant digits so sub-attofarad caps survive.
    """
    path = Path(path)
    lines = [_HEADER.format(design=design)]
    for net_name, tree in nets.items():
        lines.append(f'*D_NET {net_name} {tree.total_cap() / _C_UNIT:.9g}')
        lines.append("*CONN")
        lines.append(f"*I {tree.root} O")
        for leaf in tree.leaves():
            if leaf != tree.root:
                lines.append(f"*I {leaf} I")
        lines.append("*CAP")
        k = 1
        for name, node in tree.nodes.items():
            if node.cap > 0:
                lines.append(f"{k} {name} {node.cap / _C_UNIT:.9g}")
                k += 1
        lines.append("*RES")
        k = 1
        for name in tree.topological():
            node = tree.nodes[name]
            if node.parent is not None:
                lines.append(f"{k} {node.parent} {name} {node.resistance / _R_UNIT:.9g}")
                k += 1
        lines.append("*END")
        lines.append("")
    path.write_text("\n".join(lines))


def _parse_float(token: str, what: str, net: str) -> float:
    """Parse one numeric token, naming the net on failure."""
    try:
        return float(token)
    except ValueError:
        raise InterconnectError(
            f"net {net}: non-numeric {what} value {token!r}"
        ) from None


def parse_spef_records(path: Union[str, Path]) -> List[dict]:
    """Tokenize ``*D_NET`` blocks into raw records (shared with the linter).

    Each record carries ``name``, ``total`` (the header's cap total in
    farads, or ``None`` when absent), ``caps`` (node → farads), ``res``
    (node, node, ohms triples) and ``driver``. Grammar violations —
    truncated sections, coupling caps, duplicate cap entries,
    non-numeric values, unterminated nets — raise
    :class:`~repro.errors.InterconnectError` with the offending net
    named.
    """
    path = Path(path)
    records: List[dict] = []
    current: "dict | None" = None
    section = ""
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("*D_NET"):
            if current is not None:
                raise InterconnectError(f"unterminated *D_NET {current['name']}")
            parts = line.split()
            if len(parts) < 2:
                raise InterconnectError(f"malformed *D_NET line: {line!r}")
            total = None
            if len(parts) >= 3:
                total = _parse_float(parts[2], "*D_NET cap total", parts[1]) * _C_UNIT
            current = {
                "name": parts[1], "total": total,
                "caps": {}, "res": [], "driver": "",
            }
            section = ""
            continue
        if current is None:
            continue
        if line.startswith("*CONN"):
            section = "conn"
            continue
        if line.startswith("*CAP"):
            section = "cap"
            continue
        if line.startswith("*RES"):
            section = "res"
            continue
        if line.startswith("*END"):
            records.append(current)
            current = None
            continue
        name = current["name"]
        if section == "conn" and line.startswith("*I"):
            parts = line.split()
            if len(parts) >= 3 and parts[2] == "O":
                current["driver"] = parts[1]
            continue
        if section == "cap":
            parts = line.split()
            if len(parts) == 3:
                node = parts[1]
                if node in current["caps"]:
                    raise InterconnectError(
                        f"net {name}: duplicate *CAP entry for node {node!r}"
                    )
                current["caps"][node] = (
                    _parse_float(parts[2], "*CAP", name) * _C_UNIT
                )
            elif len(parts) == 4:
                raise InterconnectError(
                    f"coupling caps are not supported (net {name})"
                )
            else:
                raise InterconnectError(
                    f"net {name}: malformed (truncated?) *CAP line: {line!r}"
                )
            continue
        if section == "res":
            parts = line.split()
            if len(parts) != 4:
                raise InterconnectError(
                    f"net {name}: malformed (truncated?) *RES line: {line!r}"
                )
            current["res"].append(
                (parts[1], parts[2], _parse_float(parts[3], "*RES", name) * _R_UNIT)
            )
    if current is not None:
        raise InterconnectError(f"unterminated *D_NET {current['name']}")
    return records


def check_cap_budget(
    record: dict, tree: RCTree, rel_tol: float = 1e-3, abs_tol: float = 1e-18
) -> Optional[str]:
    """Compare a net's ``*D_NET`` header cap total against its cap entries.

    Returns a message describing the mismatch, or ``None`` when the
    budget is consistent (or no total was declared). A mismatch means
    the file was hand-edited or corrupted after extraction.
    """
    total = record.get("total")
    if total is None:
        return None
    actual = tree.total_cap()
    if abs(actual - total) <= max(abs_tol, rel_tol * max(abs(total), abs(actual))):
        return None
    return (
        f"net {record['name']}: *D_NET cap total {total / _C_UNIT:.6f} fF "
        f"does not match the sum of *CAP entries {actual / _C_UNIT:.6f} fF"
    )


def read_spef(path: Union[str, Path]) -> Dict[str, RCTree]:
    """Parse ``*D_NET`` blocks back into :class:`RCTree` objects.

    The resistor section is re-rooted at the driver (``*I <node> O``
    connection, or the first resistor's first node when absent). The
    reader fails fast with :class:`~repro.errors.InterconnectError` on
    structural problems — the same conditions
    :func:`repro.lint.domain.lint_spef` reports as diagnostics: grammar
    violations, non-tree resistor networks, negative R/C (via
    :class:`RCTree` construction) and cap budgets that contradict the
    ``*D_NET`` header total.
    """
    nets: Dict[str, RCTree] = {}
    for record in parse_spef_records(path):
        tree = _build_tree(record)
        mismatch = check_cap_budget(record, tree)
        if mismatch is not None:
            raise InterconnectError(mismatch)
        nets[record["name"]] = tree
    return nets


def _build_tree(record: dict) -> RCTree:
    caps: Dict[str, float] = dict(record["caps"])
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for a, b, r in record["res"]:
        adjacency.setdefault(a, []).append((b, r))
        adjacency.setdefault(b, []).append((a, r))
    if not adjacency:
        raise InterconnectError(f"net {record['name']} has no resistors")
    root = record["driver"] or record["res"][0][0]
    if root not in adjacency:
        raise InterconnectError(
            f"net {record['name']}: driver {root!r} not in the resistor network"
        )
    tree = RCTree(root, root_cap=caps.get(root, 0.0))
    visited = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop(0)
        for neighbor, r in adjacency[node]:
            if neighbor in visited:
                continue
            visited.add(neighbor)
            tree.add_segment(neighbor, node, r, caps.get(neighbor, 0.0))
            frontier.append(neighbor)
    if len(visited) != len(adjacency):
        missing = set(adjacency) - visited
        raise InterconnectError(
            f"net {record['name']}: resistor network is not a connected tree "
            f"(unreached: {sorted(missing)[:5]})"
        )
    return tree
