"""Analytic interconnect delay metrics.

* **Elmore** (Eq. 4 of the paper): the first moment of the impulse
  response from root to a sink, ``sum_k R_common(sink,k) * C_k``. The
  paper uses it directly as the mean wire delay ``mu_w`` — which is
  exact in the slow-ramp limit, since an LTI network delays a linear
  ramp by exactly its first moment.
* **Second moment** ``m2`` and the **D2M** metric
  (``ln 2 * m1^2 / sqrt(m2)``) as a tighter classical comparison point.

Both are computed for all nodes in two linear tree traversals.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import InterconnectError
from repro.interconnect.rctree import RCTree


def _weighted_elmore(tree: RCTree, weights: Dict[str, float]) -> Dict[str, float]:
    """Generic Elmore recursion with arbitrary per-node "charge" weights.

    With ``weights = caps`` this yields the first moment; feeding
    ``caps * m1`` back in yields the second-moment sum (standard
    path-tracing moment computation).
    """
    order = list(tree.topological())
    down = {name: weights.get(name, 0.0) for name in order}
    for name in reversed(order):
        parent = tree.nodes[name].parent
        if parent is not None:
            down[parent] += down[name]
    out = {tree.root: 0.0}
    for name in order:
        node = tree.nodes[name]
        if node.parent is None:
            continue
        out[name] = out[node.parent] + node.resistance * down[name]
    return out


def elmore_delay(tree: RCTree, sink: str = "") -> "float | Dict[str, float]":
    """Elmore delay from the root.

    Parameters
    ----------
    sink:
        Node to report; when empty, a dict for *all* nodes is returned.
    """
    caps = {name: node.cap for name, node in tree.nodes.items()}
    all_delays = _weighted_elmore(tree, caps)
    if not sink:
        return all_delays
    if sink not in all_delays:
        raise InterconnectError(f"no RC node {sink!r}")
    return all_delays[sink]


def impulse_moments(tree: RCTree, sink: str) -> "tuple[float, float]":
    """First and second impulse-response moments ``(m1, m2)`` at ``sink``.

    ``m1`` is the Elmore delay; ``m2 = sum_k R_common C_k m1_k``.
    (These are the moment *sums*; in transfer-function terms
    ``H(s) = 1 - m1 s + m2 s^2 - ...``.)
    """
    caps = {name: node.cap for name, node in tree.nodes.items()}
    m1 = _weighted_elmore(tree, caps)
    weighted = {name: caps[name] * m1[name] for name in caps}
    m2 = _weighted_elmore(tree, weighted)
    if sink not in m1:
        raise InterconnectError(f"no RC node {sink!r}")
    return m1[sink], m2[sink]


def d2m_delay(tree: RCTree, sink: str) -> float:
    """The D2M ("delay with two moments") metric ``ln2 * m1^2 / sqrt(m2)``.

    D2M tightens Elmore's pessimism on far sinks of resistive nets; it
    appears in the paper's related work as the classical refinement.
    """
    m1, m2 = impulse_moments(tree, sink)
    if m2 <= 0.0:
        return 0.0
    return math.log(2.0) * m1 * m1 / math.sqrt(m2)
