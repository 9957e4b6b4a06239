"""Batched backward-Euler transient solver.

The solver integrates the nodal equations

    C dv/dt + i_lin(v, t) + i_dev(v, t) = 0

for *all Monte-Carlo samples simultaneously*: the state is a
``(n_samples, n_nodes)`` array and each Newton iteration performs one
:func:`numpy.linalg.solve` on a ``(n_samples, n, n)`` stack of
Jacobians. For the small node counts of a cell + RC tree (< ~30) this is
orders of magnitude faster than looping SPICE decks, while remaining a
genuine nonlinear transient simulation of every sample.

Backward Euler is used rather than trapezoidal integration: it is
L-stable (no numerical ringing on stiff RC stages) and its first-order
error cancels almost perfectly in *delay differences* measured at fixed
step counts; tests in ``tests/spice`` check step-halving convergence.

Kernel optimizations (all opt-out via ``masked=False`` for reference
comparisons, all within Newton-tolerance of the reference):

* **convergence masking** — after the first couple of Newton iterations
  most Monte-Carlo samples have converged; subsequent iterations
  re-linearize and solve only the still-active subset (samples are
  independent, so freezing converged rows is exact);
* **buffer reuse** — the ``(n_samples, n, n)`` Jacobian stack is
  allocated once per solver and reused across every time step;
* **Newton prediction** — each step starts from a quadratic
  extrapolation of the trailing states instead of the previous state;
  the predictor only moves the starting iterate (the converged fixed
  point is unchanged) but collapses most samples on smooth waveform
  segments to a single solve-and-confirm iteration;
* **small-system adjugate solve** — ``n <= 3`` Jacobian stacks are
  inverted with an elementwise Cramer expansion over the sample axis,
  several times faster than the batched LAPACK dispatch at cell-circuit
  sizes;
* **linear fast path** — circuits without nonlinear devices and with a
  sample-independent conductance matrix (2-D ``_gmat``, 1-D ``_cvec``)
  factorize one ``(n, n)`` system per step size and back-substitute all
  samples at once instead of solving an ``(n_samples, n, n)`` stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.kernels.base import KernelBackend
from repro.perf import PerfCounters
from repro.spice.netlist import CompiledCircuit
from repro.units import NS
from repro.variation.sampling import ParameterSample


@dataclass
class TransientResult:
    """Recorded waveforms of a transient run.

    Waveforms are stored **time-major** — ``(n_points, n_samples)`` — the
    layout the solver records in (one contiguous row per step) and the
    layout window concatenation and threshold measurement consume
    directly. The historical sample-major ``(n_samples, n_points)`` view
    is materialised lazily (and cached per node) the first time
    :meth:`voltage` or :attr:`waveforms` is touched, so callers that
    only measure crossings never pay the transpose.

    Attributes
    ----------
    times:
        ``(n_points,)`` sample instants (seconds).
    waveforms_t:
        Node name → ``(n_points, n_samples)`` time-major voltage array.
        Fixed nodes are recorded broadcast across samples.
    final_state:
        ``(n_samples, n_unknown)`` state at ``times[-1]`` — pass back to
        :meth:`TransientSolver.run` to continue the simulation.
    """

    times: np.ndarray
    waveforms_t: Dict[str, np.ndarray]
    final_state: np.ndarray

    @property
    def waveforms(self) -> Dict[str, np.ndarray]:
        """Node name → ``(n_samples, n_points)`` sample-major waveforms."""
        return {name: self.voltage(name) for name in self.waveforms_t}

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of ``node`` as ``(n_samples, n_points)`` (cached)."""
        cache = self.__dict__.setdefault("_sample_major", {})
        if node not in cache:
            cache[node] = _to_sample_major(self.waveforms_t[node])
        return cache[node]

    def voltage_tm(self, node: str) -> np.ndarray:
        """Waveform of ``node`` in native time-major ``(n_points, n_samples)``."""
        return self.waveforms_t[node]

    def extended_with(self, other: "TransientResult") -> "TransientResult":
        """Concatenate a follow-on run (its first point must continue this one)."""
        times = np.concatenate([self.times, other.times])
        waves_t = {
            k: np.concatenate([self.waveforms_t[k], other.waveforms_t[k]], axis=0)
            for k in self.waveforms_t
        }
        return TransientResult(
            times=times, waveforms_t=waves_t, final_state=other.final_state
        )


def _to_sample_major(buf: np.ndarray) -> np.ndarray:
    """Transpose a time-major ``(n_points, n_samples)`` recording buffer
    into the ``(n_samples, n_points)`` result layout.

    Copied in 32-column blocks: a plain ``ascontiguousarray(buf.T)``
    walks one long-strided axis elementwise and is ~3x slower at
    Monte-Carlo batch sizes, while blocks keep both source rows and
    destination columns inside the cache.
    """
    n_points, n_samples = buf.shape
    out = np.empty((n_samples, n_points))
    for k0 in range(0, n_points, 32):
        block = buf[k0:k0 + 32]
        out[:, k0:k0 + block.shape[0]] = block.T
    return out


class TransientSolver:
    """Newton/backward-Euler integrator bound to one Monte-Carlo batch.

    Parameters
    ----------
    compiled:
        Circuit from :meth:`repro.spice.netlist.TransistorNetlist.compile`.
    sample:
        Per-transistor parameter batch (its transistor order must match
        the netlist's device order).
    r_scale / c_scale:
        Optional per-sample multiplicative scales for wire resistors and
        explicit capacitors (see :meth:`CompiledCircuit.build_linear`).
    max_newton:
        Maximum Newton iterations per time step.
    dv_tol:
        Convergence threshold on the Newton update (volts).
    damp:
        Per-iteration clamp on the Newton update magnitude (volts);
        prevents overshoot through the exponential device regions.
    masked:
        Enable per-sample convergence masking (default). ``False``
        selects the reference kernel that iterates every sample until
        the whole batch converges — kept for numerical A/B tests.
    perf:
        Optional :class:`~repro.perf.PerfCounters` accumulating Newton
        iterations, linear solves and active-sample statistics.
    kernel:
        Optional :class:`~repro.kernels.base.KernelBackend` supplying
        the hot-path primitives (device eval, stacked Newton solve,
        update/compact, shared factorization). ``None`` resolves via
        :func:`repro.kernels.select_backend` (the ``REPRO_KERNEL``
        environment variable; ``numpy`` reference by default).
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        sample: ParameterSample,
        r_scale: Optional[np.ndarray] = None,
        c_scale: Optional[np.ndarray] = None,
        dev_cap_scale: Optional[np.ndarray] = None,
        max_newton: int = 12,
        dv_tol: float = 1e-5,
        damp: float = 0.3,
        masked: bool = True,
        perf: Optional[PerfCounters] = None,
        kernel: Optional[KernelBackend] = None,
    ):
        if kernel is None:
            from repro.kernels import select_backend

            kernel = select_backend()
        self.kernel = kernel
        self.compiled = compiled
        self.sample = sample
        self.params = compiled.bind_sample(sample)
        self.n_samples = sample.n_samples
        self.n = compiled.n_unknown
        self.max_newton = max_newton
        self.dv_tol = dv_tol
        self.damp = damp
        self.masked = masked
        self.perf = perf
        self._gmat, pulls, self._cvec = compiled.build_linear(
            r_scale, c_scale, dev_cap_scale
        )
        # Resistor pulls read their fixed node from the per-step
        # fixed-voltage array (see CompiledCircuit.fixed_voltages).
        self._known_pulls = [
            (i, g, compiled.fixed_index[node]) for i, g, node in pulls
        ]
        # Pre-allocated Jacobian stack, reused by every Newton iteration
        # of every time step (the reference kernel used to allocate one
        # (S, n, n) array per step).
        self._jac_buf = np.empty((self.n_samples, self.n, self.n))
        self._diag_idx = np.arange(self.n)
        # Fast path: no nonlinear devices and sample-independent linear
        # stamps -> the step matrix is one (n, n) system shared by all
        # samples; factorize it once per step size.
        self._fast_linear = (
            not compiled.netlist.mosfets
            and self._gmat.ndim == 2
            and self._cvec.ndim == 1
        )
        self._fast_factors: Dict[float, object] = {}
        names = [""] * self.n
        for name, i in compiled.node_index.items():
            names[i] = name
        self._node_names = names

    # ------------------------------------------------------------------
    def _linear_currents(
        self, v: np.ndarray, vfix: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Linear (resistor) currents for the given state rows.

        ``vfix`` holds the step's fixed-node voltages
        (:meth:`CompiledCircuit.fixed_voltages`, full batch). ``rows``
        restricts per-sample stamps and per-sample fixed-node voltages
        to a subset of Monte-Carlo samples (``v`` already covers only
        those rows).
        """
        if self._gmat.ndim == 2:
            out = v @ self._gmat.T
        else:
            gmat = self._gmat if rows is None else self._gmat[rows]
            out = np.einsum("snm,sm->sn", gmat, v)
        if rows is not None and vfix.ndim == 2:
            vfix = vfix[rows]
        for i, g, k in self._known_pulls:
            if rows is not None and np.ndim(g):
                g = g[rows]
            out[:, i] -= g * vfix[..., k]
        return out

    # ------------------------------------------------------------------
    # Error diagnostics
    # ------------------------------------------------------------------
    def _nonfinite_message(self, v: np.ndarray, t_new: float) -> str:
        bad = np.argwhere(~np.isfinite(v))
        nodes = sorted({self._node_names[j] for _, j in bad[:16]})
        n_bad = len({int(s) for s, _ in bad})
        return (
            f"non-finite state at t={t_new:g} on node(s) {', '.join(nodes)} "
            f"({n_bad}/{self.n_samples} samples affected)"
        )

    def _singular_message(self, jac: np.ndarray, t_new: float) -> str:
        # Identify near-zero pivot rows so the message names the culprit
        # nodes instead of just the time point (error path only).
        if jac.ndim == 2:
            jac = jac[None]
        row_mag = np.max(np.abs(jac), axis=2)  # (S, n)
        scale = max(float(np.max(row_mag)), 1.0)
        bad_rows = np.argwhere(row_mag < 1e-12 * scale)  # repro-lint: disable=UNIT001 (relative tol)
        nodes = sorted({self._node_names[j] for _, j in bad_rows[:16]})
        detail = f" on node(s) {', '.join(nodes)}" if nodes else ""
        return f"singular Jacobian at t={t_new:g}{detail}"

    # ------------------------------------------------------------------
    # Step kernels
    # ------------------------------------------------------------------
    def _solve_stack(
        self, jac: np.ndarray, resid: np.ndarray, t_new: float
    ) -> np.ndarray:
        """Newton update ``-J^{-1} r`` for a ``(S, n, n)`` Jacobian stack.

        Delegates to the active kernel backend (adjugate expansion for
        ``n <= 3``, batched LAPACK above — see
        :mod:`repro.kernels.numpy_backend` for the reference
        implementation). Exactly singular systems raise
        :class:`SimulationError` naming the offending nodes.
        """
        try:
            return self.kernel.solve_stack(jac, resid)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(self._singular_message(jac, t_new)) from exc

    def _step(
        self,
        v_prev: np.ndarray,
        t_new: float,
        dt: float,
        vfix: np.ndarray,
        v_guess: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One backward-Euler step from ``v_prev`` to time ``t_new``.

        ``vfix`` is ``compiled.fixed_voltages(t_new)``, evaluated once
        by the caller and shared by every Newton iteration of the step.
        ``v_guess`` is an optional predicted state used by the masked
        kernel as the Newton starting point; the reference kernel
        ignores it (it always starts from ``v_prev``, like the
        pre-optimization solver).
        """
        if self._fast_linear:
            return self._step_fast(v_prev, t_new, dt, vfix)
        if self.masked:
            return self._step_masked(v_prev, t_new, dt, vfix, v_guess)
        return self._step_reference(v_prev, t_new, dt, vfix)

    def _fast_factorization(self, dt: float, c_over_dt: np.ndarray):
        """Per-``dt`` cached factorization of the linear step matrix."""
        key = float(dt)
        factor = self._fast_factors.get(key)
        if factor is None:
            a = self._gmat + np.diag(c_over_dt)
            factor = self.kernel.fast_factorization(a)
            self._fast_factors[key] = factor
        return factor

    def _fast_solve(self, factor, rhs: np.ndarray) -> np.ndarray:
        """Solve the shared (n, n) system against an (S, n) right-hand side."""
        return self.kernel.fast_solve(factor, rhs)

    def _step_fast(
        self, v_prev: np.ndarray, t_new: float, dt: float, vfix: np.ndarray
    ) -> np.ndarray:
        """Linear-circuit step: one shared factorization, all samples at once."""
        c_over_dt = self._cvec / dt
        factor = self._fast_factorization(dt, c_over_dt)
        v = v_prev.copy()
        for _ in range(self.max_newton):
            resid = (v - v_prev) * c_over_dt + self._linear_currents(v, vfix)
            delta = self._fast_solve(factor, -resid)
            np.clip(delta, -self.damp, self.damp, out=delta)
            v += delta
            if self.perf is not None:
                self.perf.incr(
                    newton_iterations=1,
                    linear_solves=1,
                    fast_solves=1,
                    sample_solves=self.n_samples,
                    full_sample_solves=self.n_samples,
                )
                self.perf.add_kernel_op(
                    self.kernel.name, "fast_solve", self.n_samples
                )
            if not np.all(np.isfinite(v)):
                raise SimulationError(self._nonfinite_message(v, t_new))
            if np.max(np.abs(delta)) < self.dv_tol:
                break
        return v

    def _step_masked(
        self,
        v_prev: np.ndarray,
        t_new: float,
        dt: float,
        vfix: np.ndarray,
        v_guess: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Newton step that re-solves only the still-unconverged samples.

        Monte-Carlo samples are independent (the Jacobian is block
        diagonal across samples), so freezing a converged sample's state
        while others keep iterating is exact — not an approximation.

        When ``v_guess`` is given (:meth:`run` extrapolates it from the
        trailing states) the iteration starts there instead of at
        ``v_prev``, with the jump clamped to ``damp`` like any Newton
        update: on smooth waveform segments the prediction already sits
        within tolerance of the backward-Euler solution, so most samples
        converge in a single iteration instead of solve-then-confirm.
        The converged result is the same Newton fixed point either way.

        The loop body lives in
        :meth:`repro.kernels.base.KernelBackend.step_masked` so
        accelerated backends can swap the inner primitives (or override
        the whole step) without touching solver logic.
        """
        return self.kernel.step_masked(self, v_prev, t_new, dt, vfix, v_guess)

    def _step_reference(
        self, v_prev: np.ndarray, t_new: float, dt: float, vfix: np.ndarray
    ) -> np.ndarray:
        """Reference kernel: every sample iterates until the batch converges.

        Numerically this is the original (pre-masking) solver; it shares
        the pre-allocated Jacobian buffer but none of the masking logic,
        so A/B tests can bound the masking error directly.
        """
        c_over_dt = self._cvec / dt  # (n,) or (S, n)
        v = v_prev.copy()
        jac = self._jac_buf
        for _ in range(self.max_newton):
            jac[:] = self._gmat  # broadcasts (n,n) or copies (S,n,n)
            dev = self.compiled.device_currents(v, vfix, self.params, jac=jac)
            resid = (v - v_prev) * c_over_dt + self._linear_currents(v, vfix) + dev
            jac[:, self._diag_idx, self._diag_idx] += c_over_dt
            try:
                delta = np.linalg.solve(jac, -resid[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SimulationError(self._singular_message(jac, t_new)) from exc
            np.clip(delta, -self.damp, self.damp, out=delta)
            v += delta
            if self.perf is not None:
                self.perf.incr(
                    newton_iterations=1,
                    linear_solves=1,
                    sample_solves=self.n_samples,
                    full_sample_solves=self.n_samples,
                )
            if not np.all(np.isfinite(v)):
                raise SimulationError(self._nonfinite_message(v, t_new))
            if np.max(np.abs(delta)) < self.dv_tol:
                break
        return v

    # ------------------------------------------------------------------
    def dc_settle(
        self,
        v0: np.ndarray,
        t: float = 0.0,
        steps: int = 60,
        dt: float = NS,
    ) -> np.ndarray:
        """Pseudo-transient DC solve: relax ``v0`` toward the operating point.

        Runs up to ``steps`` large backward-Euler steps with sources
        frozen at time ``t``, exiting early once the state stops moving.
        Robust where a plain Newton DC solve would need source stepping,
        at negligible cost. Early exits and per-step costs are tracked
        in :attr:`perf` when counters are attached.
        """
        v = np.array(v0, dtype=float, copy=True)
        vfix = self.compiled.fixed_voltages(t)
        for _ in range(steps):
            v_new = self._step(v, t, dt, vfix)
            if self.perf is not None:
                self.perf.incr(dc_steps=1)
            if np.max(np.abs(v_new - v)) < self.dv_tol:
                if self.perf is not None:
                    self.perf.incr(dc_early_exits=1)
                return v_new
            v = v_new
        return v

    def run(
        self,
        v0: np.ndarray,
        t_start: float,
        t_stop: float,
        n_steps: int,
        record: Sequence[str],
    ) -> TransientResult:
        """Integrate from ``t_start`` to ``t_stop`` in ``n_steps`` uniform steps.

        Parameters
        ----------
        v0:
            Initial state, shape ``(n_samples, n_unknown)`` (e.g. the
            result of :meth:`dc_settle`).
        record:
            Node names to store waveforms for; both solved and fixed
            nodes are accepted.

        Returns
        -------
        TransientResult
            Waveforms sampled at the step boundaries, including
            ``t_start`` itself (so ``n_steps + 1`` points).
        """
        if n_steps < 1:
            raise SimulationError("n_steps must be >= 1")
        if t_stop <= t_start:
            raise SimulationError("t_stop must be after t_start")
        v = np.array(v0, dtype=float, copy=True)
        if v.shape != (self.n_samples, self.n):
            raise SimulationError(
                f"v0 shape {v.shape} != ({self.n_samples}, {self.n})"
            )
        dt = (t_stop - t_start) / n_steps
        times = t_start + dt * np.arange(n_steps + 1)
        # Recording buffers are time-major so each step writes one
        # contiguous row instead of a strided column scatter; the result
        # keeps that layout and transposes lazily only when asked.
        waves_t = {name: np.empty((n_steps + 1, self.n_samples)) for name in record}
        self._record_into(waves_t, 0, v, self.compiled.fixed_voltages(t_start))
        # Trailing states feed the masked kernel's Newton predictor:
        # quadratic extrapolation once two back-states exist, linear with
        # one, none on the first step. The predictor only moves the
        # starting iterate — convergence is still judged per update.
        v1: Optional[np.ndarray] = None  # state one step back
        v2: Optional[np.ndarray] = None  # state two steps back
        for k in range(1, n_steps + 1):
            if v2 is not None:
                guess = 3.0 * v - 3.0 * v1 + v2
            elif v1 is not None:
                guess = 2.0 * v - v1
            else:
                guess = None
            vfix = self.compiled.fixed_voltages(times[k])
            v_new = self._step(v, times[k], dt, vfix, v_guess=guess)
            v2 = v1
            v1 = v
            v = v_new
            self._record_into(waves_t, k, v, vfix)
        if self.perf is not None:
            self.perf.incr(steps=n_steps)
        return TransientResult(times=times, waveforms_t=waves_t, final_state=v)

    def _record_into(
        self, waves: Dict[str, np.ndarray], k: int, v: np.ndarray, vfix: np.ndarray
    ) -> None:
        """Store the state and the step's fixed-node voltages into row
        ``k`` of the time-major buffers."""
        for name, arr in waves.items():
            if name in self.compiled.node_index:
                arr[k] = v[:, self.compiled.node_index[name]]
            else:
                arr[k] = vfix[..., self.compiled.fixed_index[name]]
