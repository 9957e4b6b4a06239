"""EKV-style MOSFET model, vectorized over Monte-Carlo samples.

The EKV formulation expresses the channel current as the difference of a
*forward* and a *reverse* component, each an interpolation function of
the pinch-off voltage referenced to source/drain:

    i_f = F((v_p - v_s) / phi_t)      F(x) = ln(1 + exp(x/2))^2
    i_r = F((v_p - v_d) / phi_t)      v_p = (v_g - v_t_eff) / n
    I_DS = I_spec * (i_f - i_r) * (1 + lambda * v_ds)

with ``I_spec = 2 n kp (W/L) phi_t^2``. ``F`` tends to ``exp(x)`` for
``x << 0`` (subthreshold: exponential in Vgs) and to ``(x/2)^2`` for
``x >> 0`` (strong inversion: square law), with a smooth moderate-
inversion transition — exactly the regime of a 0.6 V near-threshold
design. The exponential subthreshold sensitivity to the (varying)
threshold voltage is what produces the skewed, heavy-tailed delay
distributions the paper calibrates.

Second-order effects included: DIBL (``v_t_eff = v_t - dibl*v_ds``) and
channel-length modulation (the ``1 + lambda*v_ds`` factor).

PMOS devices are handled by evaluating the same equations on negated
terminal voltages; see :class:`repro.spice.netlist.Mosfet` for the sign
bookkeeping, which works out so that the conductance derivatives carry
over *unchanged*.

All functions accept and return NumPy arrays and evaluate elementwise,
so a single call evaluates every Monte-Carlo sample of every device of a
circuit at once: the solver passes ``(devices, samples)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import thermal_voltage
from repro.variation.parameters import Technology


def _softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def _interp_f(x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """EKV interpolation function ``F(x) = softplus(x/2)^2`` and its derivative.

    ``F'(x) = softplus(x/2) * sigmoid(x/2)``. The sigmoid is recovered
    from the softplus through the identity
    ``sigmoid(y) = 1 - exp(-softplus(y))`` — one ``expm1`` on an
    always-nonpositive argument instead of a second branch-masked
    exponential. This sits on the Newton hot path (every device, every
    iteration, every Monte-Carlo sample), where the saving is material.
    """
    sp = _softplus(x * 0.5)
    return sp * sp, sp * -np.expm1(-sp)


@dataclass(frozen=True)
class MosfetParams:
    """Electrical parameters of one device evaluation.

    ``vt``, ``ispec`` may be arrays: one entry per Monte-Carlo sample,
    or ``(devices, samples)`` for every device of a circuit (see
    :meth:`repro.spice.netlist.CompiledCircuit.bind_sample`); the
    scalars ``n_slope``, ``phi_t``, ``dibl``, ``lam`` are shared.

    Attributes
    ----------
    vt:
        Effective zero-bias threshold magnitude in volts (nominal +
        sampled deviation).
    ispec:
        Specific current ``2 n kp (W/L) phi_t^2`` in amperes (absorbs
        the sampled mobility and length scaling).
    n_slope:
        Subthreshold slope factor ``n``.
    phi_t:
        Thermal voltage in volts.
    dibl:
        DIBL coefficient (V/V).
    lam:
        Channel-length-modulation coefficient (1/V).
    """

    vt: np.ndarray
    ispec: np.ndarray
    n_slope: float
    phi_t: float
    dibl: float
    lam: float

    def subset(self, rows: np.ndarray) -> "MosfetParams":
        """Restrict per-sample parameter arrays to the given sample rows.

        Used by the convergence-masked Newton kernel to evaluate the
        device model only for still-unconverged Monte-Carlo samples. The
        sample axis is the last one, so on stacked ``(devices, samples)``
        arrays this is one gather per parameter.
        Scalar parameters pass through unchanged.
        """
        return MosfetParams(
            vt=np.take(self.vt, rows, axis=-1) if np.ndim(self.vt) else self.vt,
            ispec=np.take(self.ispec, rows, axis=-1) if np.ndim(self.ispec) else self.ispec,
            n_slope=self.n_slope,
            phi_t=self.phi_t,
            dibl=self.dibl,
            lam=self.lam,
        )

    @classmethod
    def from_technology(
        cls,
        tech: Technology,
        is_pmos,
        width,
        dvth: np.ndarray,
        mobility_scale: np.ndarray,
        length_scale: np.ndarray,
        length=None,
    ) -> "MosfetParams":
        """Build evaluation parameters from technology constants and a sample batch.

        Parameters
        ----------
        tech:
            Nominal process constants.
        is_pmos:
            Device polarity; selects ``vt0_p``/``kp_p`` vs ``vt0_n``/``kp_n``.
            A ``(n_devices, 1)`` boolean column builds stacked parameters.
        width:
            Drawn width in meters (``(n_devices, 1)`` when stacked).
        dvth, mobility_scale, length_scale:
            Per-sample deviations from :class:`~repro.variation.sampling.ParameterSample`:
            ``(n_samples,)`` for one device, ``(n_devices, n_samples)``
            when stacked.
        length:
            Drawn length in meters (``(n_devices, 1)`` when stacked);
            ``None`` means the technology minimum ``tech.l_min``.
        """
        phi_t = thermal_voltage(tech.temperature_c)
        vt0 = np.where(is_pmos, tech.vt0_p, tech.vt0_n)
        kp = np.where(is_pmos, tech.kp_p, tech.kp_n)
        n = tech.subthreshold_slope_factor
        drawn = tech.l_min if length is None else length
        w_over_l = width / (drawn * np.asarray(length_scale, dtype=float))
        ispec = 2.0 * n * kp * w_over_l * phi_t**2 * np.asarray(mobility_scale, dtype=float)
        vt = vt0 + np.asarray(dvth, dtype=float)
        return cls(
            vt=vt,
            ispec=ispec,
            n_slope=n,
            phi_t=phi_t,
            dibl=tech.dibl,
            lam=tech.channel_length_modulation,
        )


def ekv_ids(
    vg: np.ndarray, vd: np.ndarray, vs: np.ndarray, params: MosfetParams
) -> np.ndarray:
    """Drain-to-source current of an NMOS-referenced device.

    All voltages are bulk-referenced; arrays broadcast. Positive return
    value means conventional current flowing from drain to source.
    """
    ids, _, _, _ = ekv_ids_and_derivatives(vg, vd, vs, params)
    return ids


def ekv_ids_and_derivatives(
    vg: np.ndarray, vd: np.ndarray, vs: np.ndarray, params: MosfetParams
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Current and small-signal conductances of an NMOS-referenced device.

    This is the *golden* evaluation used by the ``numpy`` kernel
    backend; accelerated backends (:mod:`repro.kernels`) must match it
    within the documented equivalence envelope (lint rule ``KRN001``).

    Returns
    -------
    (ids, di_dvg, di_dvd, di_dvs):
        The drain-to-source current and its partial derivatives with
        respect to the gate, drain and source voltages. Shapes follow
        NumPy broadcasting of the inputs against the parameter arrays.
    """
    return _ekv_core(vg, vd, vs, params, _interp_f)


def _ekv_core(
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
    params: MosfetParams,
    interp,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """EKV algebra parameterized over the interpolation-function kernel.

    ``interp(x) -> (F(x), F'(x))`` lets accelerated backends substitute
    a faster (SIMD-friendly) softplus formulation while sharing every
    other operation — and its exact ordering — with the reference path.
    """
    vg = np.asarray(vg, dtype=float)
    vd = np.asarray(vd, dtype=float)
    vs = np.asarray(vs, dtype=float)
    phi_t = params.phi_t
    n = params.n_slope
    vds = vd - vs
    vt_eff = params.vt - params.dibl * vds
    vp = (vg - vt_eff) / n

    x_f = (vp - vs) / phi_t
    x_r = (vp - vd) / phi_t
    f_f, fp_f = interp(x_f)
    f_r, fp_r = interp(x_r)

    clm = 1.0 + params.lam * vds
    diff = f_f - f_r
    ids = params.ispec * diff * clm

    # dvp/dvg = 1/n; dvp/dvd = dibl/n; dvp/dvs = -dibl/n
    dxf_dvg = 1.0 / (n * phi_t)
    dxr_dvg = dxf_dvg
    dxf_dvd = (params.dibl / n) / phi_t
    dxf_dvs = (-params.dibl / n - 1.0) / phi_t
    dxr_dvd = (params.dibl / n - 1.0) / phi_t
    dxr_dvs = (-params.dibl / n) / phi_t

    di_dvg = params.ispec * clm * (fp_f * dxf_dvg - fp_r * dxr_dvg)
    di_dvd = params.ispec * (clm * (fp_f * dxf_dvd - fp_r * dxr_dvd) + params.lam * diff)
    di_dvs = params.ispec * (clm * (fp_f * dxf_dvs - fp_r * dxr_dvs) - params.lam * diff)
    return ids, di_dvg, di_dvd, di_dvs
