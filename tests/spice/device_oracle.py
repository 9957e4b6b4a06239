"""Device-by-device reference for ``CompiledCircuit.device_currents``.

The solver evaluates every MOSFET of a circuit in one device-model call
on ``(devices, samples)`` arrays. This module keeps the historical
formulation as an exact oracle: one :class:`MosfetParams` per device,
one device-model call per device, and the stamps added device by
device. Both must agree bit for bit (``tests/spice/test_device_oracle.py``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.spice.mosfet import MosfetParams, ekv_ids_and_derivatives
from repro.spice.netlist import CompiledCircuit
from repro.variation.sampling import ParameterSample


def oracle_bind_sample(
    compiled: CompiledCircuit, sample: ParameterSample
) -> List[MosfetParams]:
    """Per-device EKV parameters, one column of the batch each."""
    return [
        MosfetParams.from_technology(
            compiled.tech,
            m.is_pmos,
            m.width,
            dvth=sample.dvth[:, j],
            mobility_scale=sample.mobility_scale[:, j],
            length_scale=sample.length_scale[:, j],
            length=m.length or compiled.tech.l_min,
        )
        for j, m in enumerate(compiled.netlist.mosfets)
    ]


def oracle_device_currents(
    compiled: CompiledCircuit,
    v: np.ndarray,
    fixv: Callable[[str], object],
    params: List[MosfetParams],
    jac: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
    kernel: Optional[object] = None,
) -> np.ndarray:
    """Device currents leaving each unknown node, one device at a time.

    ``fixv(node)`` returns a fixed node's full-batch voltage (a float,
    or an ``(n_samples,)`` array for per-sample sources); ``rows``
    slices it and each device's parameters like the masked solver does.
    """
    n_samples = v.shape[0]
    ekv = kernel.ekv_eval if kernel is not None else ekv_ids_and_derivatives

    def fixed(node: str):
        value = fixv(node)
        if rows is not None and isinstance(value, np.ndarray) and value.ndim:
            return value[rows]
        return value

    out = np.zeros((n_samples, compiled.n_unknown))
    for (idx, fixed_nodes), m, p in zip(
        compiled.device_terminals, compiled.netlist.mosfets, params
    ):
        if rows is not None:
            p = p.subset(rows)
        (id_, ig, is_), (fd, fg, fs) = idx, fixed_nodes
        vd = v[:, id_] if id_ >= 0 else fixed(fd)
        vg = v[:, ig] if ig >= 0 else fixed(fg)
        vs = v[:, is_] if is_ >= 0 else fixed(fs)
        sign = -1.0 if m.is_pmos else 1.0
        ids, g_g, g_d, g_s = ekv(sign * vg, sign * vd, sign * vs, p)
        # Physical drain-to-source current; the sign flip cancels in
        # the conductances (d(sign*i)/dv = sign*g*sign = g).
        i_phys = np.broadcast_to(sign * ids, (n_samples,))
        if id_ >= 0:
            out[:, id_] += i_phys
        if is_ >= 0:
            out[:, is_] -= i_phys
        if jac is not None:
            stamp_rows = [(r, s) for r, s in ((id_, 1.0), (is_, -1.0)) if r >= 0]
            cols = [(c, g) for c, g in ((id_, g_d), (ig, g_g), (is_, g_s)) if c >= 0]
            for row, rsign in stamp_rows:
                for col, g in cols:
                    jac[:, row, col] += rsign * np.broadcast_to(g, (n_samples,))
    return out


def sources_at(compiled: CompiledCircuit, t: float) -> Callable[[str], object]:
    """``fixv`` reading each fixed source directly at time ``t``."""
    return lambda node: compiled.fixed_sources[node](t)
