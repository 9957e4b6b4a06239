"""C-native backend: ctypes micro-kernels around numpy transcendentals.

Strategy (measured on this hot path — see ``docs/kernels.md``):

* Transcendentals (``exp``/``log1p``/``expm1``) stay in numpy, whose
  SIMD ufunc loops beat scalar ``libm`` calls from C by ~3x.
* Everything else — the EKV bias algebra, the current/conductance
  combine, the adjugate Newton solve, and the clamp/scatter/compact
  update — runs as single-pass C loops (``_native.c``), eliminating a
  dozen-odd full-array numpy passes per Newton iteration.

The C source is compiled on first use with the system C compiler
(``$CC``, ``cc`` or ``gcc``) into a content-hashed shared object under
a per-user cache directory (override with ``REPRO_NATIVE_CACHE``), so
the cost is paid once per source revision, not per process.

The EKV softplus is computed as ``log1p(exp(-|y|)) + max(y, 0)``
(:func:`fast_softplus`), which touches only SIMD-vectorized
single-argument ufuncs instead of the scalar ``logaddexp`` inner loop
of the reference. Inputs the C stages cannot take (scalars, non-
contiguous or broadcast arrays) run the same formulas in numpy
(:func:`fast_interp_f`), so both paths agree bit-for-bit and stay
within the documented envelope of ``numpy``.

Every C expression mirrors that numpy path operation-for-operation and
the build disables FP contraction. The :meth:`probe` self-check
verifies this bit-identity on every primitive before the backend can
be selected; any discrepancy — compiler quirk, missing toolchain —
degrades the probe to unavailable and selection falls back gracefully.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.kernels.numpy_backend import NumpyBackend

# Raw addresses are passed as void pointers: ndarray.ctypes.data is a
# plain int attribute, ~10x cheaper per call than data_as()/cast().
_void_p = ctypes.c_void_p


def fast_softplus(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` via SIMD-vectorized ``exp``/``log1p``.

    Matches :func:`repro.spice.mosfet._softplus` (``logaddexp(0, x)``)
    branch-for-branch: for ``x <= 0`` both compute ``log1p(exp(x))``;
    for ``x > 0`` both compute ``x + log1p(exp(-x))``. Only ulp-level
    rounding of the ufunc implementations differs. NaN propagates
    through ``exp``/``log1p``/``where`` exactly as through
    ``logaddexp``.
    """
    e = np.exp(-np.abs(x))
    l = np.log1p(e)
    return np.where(x > 0.0, x + l, l)


def fast_interp_f(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """EKV interpolation ``(F(x), F'(x))`` on the fast softplus.

    Mirrors :func:`repro.spice.mosfet._interp_f` with the softplus
    swapped; the derivative-via-``expm1`` identity is kept verbatim.
    """
    sp = fast_softplus(x * 0.5)
    return sp * sp, sp * -np.expm1(-sp)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compile_library() -> ctypes.CDLL:
    """Compile (if needed) and load the native kernel library."""
    src = Path(__file__).with_name("_native.c")
    code = src.read_bytes()
    digest = hashlib.sha256(code).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_native_{digest}.so"
    if not so_path.exists():
        compiler = os.environ.get("CC")
        if not compiler:
            from shutil import which

            compiler = which("cc") or which("gcc") or which("clang")
        if not compiler:
            raise RuntimeError("no C compiler found (set $CC)")
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        try:
            os.close(fd)
            proc = subprocess.run(
                [
                    compiler,
                    "-O2",
                    "-fPIC",
                    "-shared",
                    "-ffp-contract=off",
                    str(src),
                    "-o",
                    tmp,
                    "-lm",
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"C kernel compilation failed: {proc.stderr.strip()[:500]}"
                )
            os.replace(tmp, so_path)  # atomic under concurrent builders
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(so_path))
    i64 = ctypes.c_int64
    dbl = ctypes.c_double
    lib.ekv_prep.restype = None
    lib.ekv_prep.argtypes = [
        i64,
        _void_p, i64, _void_p, i64, _void_p, i64, _void_p, i64,
        dbl, dbl, dbl,
        _void_p, _void_p, _void_p, _void_p, _void_p,
    ]
    lib.softplus_finish.restype = None
    lib.softplus_finish.argtypes = [i64, _void_p, _void_p, _void_p, _void_p]
    lib.ekv_combine.restype = None
    lib.ekv_combine.argtypes = [
        i64,
        _void_p, _void_p, _void_p, _void_p, _void_p,
        _void_p, i64,
        dbl, dbl, dbl, dbl,
        _void_p, _void_p, _void_p, _void_p,
    ]
    for fn in (lib.solve_stack1, lib.solve_stack2, lib.solve_stack3):
        fn.restype = i64
        fn.argtypes = [i64, _void_p, _void_p, _void_p]
    lib.apply_update.restype = i64
    lib.apply_update.argtypes = [
        _void_p, i64, _void_p, i64, _void_p, i64,
        dbl, dbl, _void_p, _void_p,
    ]
    return lib


def _ptr_stride(x: np.ndarray) -> Tuple[int, int]:
    """(address, element-stride) for a 0-d or 1-d float64 array."""
    if x.ndim == 0:
        return x.ctypes.data, 0
    return x.ctypes.data, x.strides[0] // 8


def _dptr(x: np.ndarray) -> int:
    return x.ctypes.data


def _numpy_ekv_eval(vg, vd, vs, params) -> Tuple[np.ndarray, ...]:
    """The EKV model on :func:`fast_interp_f`: what the C stages compute."""
    from repro.spice.mosfet import _ekv_core

    return _ekv_core(vg, vd, vs, params, fast_interp_f)


class CNativeBackend(NumpyBackend):
    """ctypes C micro-kernel backend (numpy SIMD transcendentals + C loops)."""

    name = "cnative"
    version = "1"

    _lib: Optional[ctypes.CDLL] = None
    _probe_result: Optional[Tuple[bool, str]] = None

    # ------------------------------------------------------------------
    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        if cls._probe_result is None:
            try:
                cls._lib = _compile_library()
                cls._self_check()
                cls._probe_result = (True, "compiled C kernels, self-check passed")
            except Exception as exc:  # degrade, never break selection
                cls._lib = None
                cls._probe_result = (False, f"{type(exc).__name__}: {exc}")
        return cls._probe_result

    @classmethod
    def _self_check(cls) -> None:
        """Require bit-identity with the pure-numpy primitives.

        Runs once at probe time on deterministic pseudo-random data; a
        compiler that contracts or reorders FP ops fails here and the
        backend reports unavailable instead of producing off-envelope
        numbers.
        """
        from repro.spice.mosfet import MosfetParams

        rng = np.random.default_rng(20260807)
        ref = NumpyBackend()
        inst = cls.__new__(cls)  # bypass probe recursion; _lib already set
        s = 257
        for n in (1, 2, 3):
            jac = rng.normal(size=(s, n, n))
            jac[:, np.arange(n), np.arange(n)] += 4.0  # well conditioned
            resid = rng.normal(size=(s, n))
            got = inst.solve_stack(jac.copy(), resid.copy())
            want = ref.solve_stack(jac, resid)
            if not np.array_equal(got, want):
                raise RuntimeError(f"solve_stack{n} self-check mismatch")
            v1 = rng.normal(size=(s, n))
            v2 = v1.copy()
            rows = np.flatnonzero(rng.random(s) < 0.7)
            d1 = 0.5 * rng.normal(size=(rows.size, n))
            d2 = d1.copy()
            got_rows, got_fin = inst.apply_update(v1, rows, d1, 0.3, 1e-2)
            want_rows, want_fin = ref.apply_update(v2, rows, d2, 0.3, 1e-2)
            same_rows = (got_rows is None and want_rows is None) or (
                got_rows is not None
                and want_rows is not None
                and np.array_equal(got_rows, want_rows)
            )
            if not (
                same_rows
                and got_fin == want_fin
                and np.array_equal(v1, v2)
                and np.array_equal(d1, d2)
            ):
                raise RuntimeError("apply_update self-check mismatch")
        params = MosfetParams(
            vt=0.35 + 0.02 * rng.normal(size=s),
            ispec=np.abs(  # amperes, not a time/length unit
                1e-6 * (1.0 + 0.1 * rng.normal(size=s))),  # repro-lint: disable=UNIT001
            n_slope=1.3,
            phi_t=0.0258,
            dibl=0.08,
            lam=0.1,
        )
        vg = 0.6 * rng.random(s)
        vd = 0.6 * rng.random(s)
        vs = 0.1 * rng.random(s)
        got = inst.ekv_eval(vg, vd, vs, params)
        want = _numpy_ekv_eval(vg, vd, vs, params)
        for name, g, w in zip(("ids", "gg", "gd", "gs"), got, want):
            if not np.array_equal(np.asarray(g), np.asarray(w)):
                raise RuntimeError(f"ekv_eval self-check mismatch on {name}")

    # ------------------------------------------------------------------
    def ekv_eval(self, vg, vd, vs, params) -> Tuple[np.ndarray, ...]:
        lib = type(self)._lib
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        vt = np.asarray(params.vt, dtype=float)
        ispec = np.asarray(params.ispec, dtype=float)
        shape = np.broadcast_shapes(
            vg.shape, vd.shape, vs.shape, vt.shape, ispec.shape
        )
        if lib is None or not shape:
            # Scalar evaluation (unit tests, sanity probes) keeps the
            # numpy shape semantics of the reference.
            return _numpy_ekv_eval(vg, vd, vs, params)
        # The model is elementwise, so the solver's stacked (devices,
        # samples) input runs through the C stages as one flat vector.
        # The C loops broadcast scalars only: every array input must
        # cover the whole shape and ravel without a copy.
        flat = []
        for x in (vg, vd, vs, vt, ispec):
            if x.ndim and (
                x.shape != shape or (x.ndim > 1 and not x.flags.c_contiguous)
            ):
                return _numpy_ekv_eval(vg, vd, vs, params)
            flat.append(x.reshape(-1) if x.ndim > 1 else x)
        vg, vd, vs, vt, ispec = flat
        s = int(np.prod(shape))
        work = np.empty((9, s))
        y_f, y_r, nay_f, nay_r, vds, sp_f, em_f, sp_r, em_r = work
        lib.ekv_prep(
            s,
            *_ptr_stride(vg), *_ptr_stride(vd), *_ptr_stride(vs),
            *_ptr_stride(vt),
            params.n_slope, params.phi_t, params.dibl,
            _dptr(y_f), _dptr(y_r), _dptr(nay_f), _dptr(nay_r), _dptr(vds),
        )
        # Only the transcendentals run as numpy (SIMD) passes; the
        # surrounding elementwise assembly is fused into the C stages.
        # y is already x*0.5, so the math matches fast_interp_f
        # bit-for-bit. Buffers are reused in place (nay -> l).
        np.exp(nay_f, out=nay_f)
        np.log1p(nay_f, out=nay_f)
        np.exp(nay_r, out=nay_r)
        np.log1p(nay_r, out=nay_r)
        lib.softplus_finish(s, _dptr(y_f), _dptr(nay_f), _dptr(sp_f), _dptr(em_f))
        np.expm1(em_f, out=em_f)
        lib.softplus_finish(s, _dptr(y_r), _dptr(nay_r), _dptr(sp_r), _dptr(em_r))
        np.expm1(em_r, out=em_r)
        result = np.empty((4, s))
        ids, gg, gd, gs = result
        ip, istride = _ptr_stride(ispec)
        lib.ekv_combine(
            s,
            _dptr(sp_f), _dptr(em_f), _dptr(sp_r), _dptr(em_r), _dptr(vds),
            ip, istride,
            params.n_slope, params.phi_t, params.dibl, params.lam,
            _dptr(ids), _dptr(gg), _dptr(gd), _dptr(gs),
        )
        ids, gg, gd, gs = result.reshape((4,) + shape)
        return ids, gg, gd, gs

    def solve_stack(self, jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
        lib = type(self)._lib
        n = jac.shape[-1]
        if lib is None or n > 3 or jac.shape[0] == 0:
            return super().solve_stack(jac, resid)
        jac = np.ascontiguousarray(jac)
        resid = np.ascontiguousarray(resid)
        delta = np.empty_like(resid)
        fn = (lib.solve_stack1, lib.solve_stack2, lib.solve_stack3)[n - 1]
        bad = fn(jac.shape[0], _dptr(jac), _dptr(resid), _dptr(delta))
        if bad >= 0:
            raise np.linalg.LinAlgError(f"singular {n}x{n} Jacobian stack")
        return delta

    def apply_update(
        self,
        v: np.ndarray,
        rows: Optional[np.ndarray],
        delta: np.ndarray,
        damp: float,
        dv_tol: float,
    ) -> Tuple[Optional[np.ndarray], bool]:
        lib = type(self)._lib
        if (
            lib is None
            or delta.shape[0] == 0
            or not delta.flags.c_contiguous
            or not v.flags.c_contiguous
        ):
            return super().apply_update(v, rows, delta, damp, dv_tol)
        if rows is None:
            rows_ptr = None
        else:
            rows = np.ascontiguousarray(rows, dtype=np.int64)
            rows_ptr = rows.ctypes.data
        n_active = delta.shape[0]
        out_rows = np.empty(n_active, dtype=np.int64)
        nonfinite = ctypes.c_int64(0)
        count = lib.apply_update(
            _dptr(v), v.shape[1], rows_ptr, n_active,
            _dptr(delta), delta.shape[1],
            damp, dv_tol,
            out_rows.ctypes.data, ctypes.byref(nonfinite),
        )
        if nonfinite.value:
            return rows, False
        if count == 0:
            return None, True
        return out_rows[:count].copy(), True
