"""Kernel backend protocol for the Monte-Carlo transient hot path.

A :class:`KernelBackend` implements the per-step primitives the
batched Newton solver (:class:`repro.spice.transient.TransientSolver`)
actually spends its time in:

* :meth:`~KernelBackend.ekv_eval` — the MOSFET device evaluation
  (current + conductances), one elementwise call per Newton iteration
  over every device and Monte-Carlo sample;
* :meth:`~KernelBackend.solve_stack` — the Newton update
  ``-J^{-1} r`` for a ``(S, n, n)`` Jacobian stack (adjugate expansion
  for ``n <= 3``, batched LAPACK above);
* :meth:`~KernelBackend.apply_update` — clamp the Newton update,
  scatter it into the state, and compact the still-active sample rows
  (the inner loop of the convergence-masked kernel);
* :meth:`~KernelBackend.fast_factorization` /
  :meth:`~KernelBackend.fast_solve` — the shared-factorization path
  for linear circuits;
* :meth:`~KernelBackend.step_masked` — one whole masked backward-Euler
  step, composed from the primitives above by the shared default
  implementation (backends may override it wholesale).

The ``numpy`` backend is the *golden reference*: it is the historical
solver code verbatim, so selecting it reproduces every previously
published number bit-for-bit. ``cnative`` must stay within the
documented equivalence envelope (see ``docs/kernels.md`` and lint rule
``KRN001``): well-conditioned primitive outputs within 1e-15 relative,
cancellation-amplified conductances within 1e-9 relative, end-to-end
delays within 1e-12 s.

Backends are stateless and cheap to construct; per-run state (Jacobian
buffers, factorizations) stays on the solver.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.mosfet import MosfetParams
    from repro.spice.transient import TransientSolver


class KernelBackend:
    """Abstract kernel backend; concrete backends override the primitives.

    Class attributes
    ----------------
    name:
        Registry key (``"numpy"`` or ``"cnative"``).
    version:
        Backend implementation version; bumped whenever the numeric
        behavior of a primitive changes. ``identity()`` — salted into
        cache keys — combines both, so artifacts produced by different
        backends (or different versions of one backend) never alias.
    """

    name: str = "abstract"
    version: str = "0"

    # ------------------------------------------------------------------
    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        """Capability probe: ``(available, reason)``.

        Unavailable backends report *why* (missing dependency, failed
        compile, failed self-check) so ``repro lint`` and the CLI can
        explain a fallback instead of silently degrading.
        """
        return True, "available"

    def identity(self) -> str:
        """Stable identity string for cache-key salting."""
        return f"{self.name}-{self.version}"

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def ekv_eval(
        self,
        vg: np.ndarray,
        vd: np.ndarray,
        vs: np.ndarray,
        params: "MosfetParams",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """EKV current and conductances ``(ids, di_dvg, di_dvd, di_dvs)``.

        Elementwise: inputs broadcast together and each output element
        depends only on the inputs at its position. The solver calls it
        once per Newton iteration on C-contiguous ``(devices, samples)``
        voltage and parameter arrays covering every MOSFET of the
        circuit (see ``docs/kernels.md``); scalars and ``(S,)`` arrays
        keep working for single-device use.
        """
        raise NotImplementedError

    def solve_stack(self, jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
        """Newton update ``-J^{-1} r`` for a ``(S, n, n)`` Jacobian stack.

        Raises :class:`numpy.linalg.LinAlgError` on an exactly singular
        system; the solver translates that into a
        :class:`~repro.errors.SimulationError` naming the culprit nodes.
        """
        raise NotImplementedError

    def apply_update(
        self,
        v: np.ndarray,
        rows: Optional[np.ndarray],
        delta: np.ndarray,
        damp: float,
        dv_tol: float,
    ) -> Tuple[Optional[np.ndarray], bool]:
        """Clamp ``delta`` to ``±damp``, add it into ``v`` (at ``rows`` when
        given), and return ``(next_rows, finite)``.

        ``next_rows`` is the compacted index array of samples whose
        clamped update still exceeded ``dv_tol`` (``None`` when every
        sample converged); ``finite`` is False when any update entry is
        non-finite (the solver then raises). ``delta`` is clamped
        in-place, mirroring the historical kernel.
        """
        raise NotImplementedError

    def fast_factorization(self, a: np.ndarray) -> object:
        """Factorize the shared ``(n, n)`` linear step matrix."""
        raise NotImplementedError

    def fast_solve(self, factor: object, rhs: np.ndarray) -> np.ndarray:
        """Solve the factorized system against an ``(S, n)`` right-hand side."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Composite step (shared implementation; backends may override)
    # ------------------------------------------------------------------
    def step_masked(
        self,
        solver: "TransientSolver",
        v_prev: np.ndarray,
        t_new: float,
        dt: float,
        vfix: np.ndarray,
        v_guess: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One convergence-masked backward-Euler step.

        This is the historical ``TransientSolver._step_masked`` body
        with the inner primitives routed through the backend. Samples
        are independent (the Jacobian is block diagonal across them),
        so freezing converged rows while the rest iterate is exact.
        ``vfix`` holds the fixed-node voltages at ``t_new``, evaluated
        once for the step; each iteration evaluates every device of
        the circuit in one ``ekv_eval`` call.
        """
        from repro.errors import SimulationError

        c_over_dt = solver._cvec / dt  # (n,) or (S, n)
        if v_guess is None:
            v = v_prev.copy()
        else:
            v = v_prev + np.clip(v_guess - v_prev, -solver.damp, solver.damp)
        n_all = solver.n_samples
        rows: Optional[np.ndarray] = None  # None = every sample still active
        n_active = n_all
        perf = solver.perf
        for _ in range(solver.max_newton):
            va = v if rows is None else v[rows]
            vp = v_prev if rows is None else v_prev[rows]
            if c_over_dt.ndim == 1 or rows is None:
                codt = c_over_dt
            else:
                codt = c_over_dt[rows]
            jac = solver._jac_buf[:n_active]
            if solver._gmat.ndim == 2 or rows is None:
                jac[:] = solver._gmat
            else:
                jac[:] = solver._gmat[rows]
            dev = solver.compiled.device_currents(
                va, vfix, solver.params, jac=jac, rows=rows, kernel=self
            )
            resid = (
                (va - vp) * codt
                + solver._linear_currents(va, vfix, rows)
                + dev
            )
            jac[:, solver._diag_idx, solver._diag_idx] += codt
            delta = solver._solve_stack(jac, resid, t_new)
            next_rows, finite = self.apply_update(
                v, rows, delta, solver.damp, solver.dv_tol
            )
            if perf is not None:
                perf.incr(
                    newton_iterations=1,
                    linear_solves=1,
                    sample_solves=n_active,
                    full_sample_solves=n_all,
                )
                perf.add_kernel_op(self.name, "device_eval",
                                   n_active * len(solver.compiled.netlist.mosfets))
                perf.add_kernel_op(self.name, "solve_stack", n_active)
            if not finite:
                raise SimulationError(solver._nonfinite_message(v, t_new))
            if next_rows is None:
                break
            rows = next_rows
            n_active = rows.size
        return v
