"""Pluggable kernel backends for the Monte-Carlo transient hot path.

The batched Newton solver spends essentially all of its time in a
handful of primitives (EKV device evaluation, the stacked Newton solve,
the clamp/scatter/compact update). This package isolates those
primitives behind :class:`~repro.kernels.base.KernelBackend` so they can
be swapped without touching solver logic:

``numpy``
    The golden reference — the historical solver code verbatim.
    Always available; reproduces published results bit-for-bit.
``cnative``
    C micro-kernels (compiled on first use with the system C compiler
    via ctypes) for the adjugate solve, the update/compact loop, and
    the EKV combine stage, around numpy's SIMD transcendentals.
    Available when a working C toolchain is present and the compiled
    kernels pass their self-check.

Selection
---------
:func:`select_backend` resolves, in order: an explicit ``name``
argument, the ``REPRO_KERNEL`` environment variable, the ``"numpy"``
default. Requesting an unavailable or unknown backend falls back to
``numpy`` with a one-time warning (never an error) — characterization
on a machine without a C compiler must still run.

``cnative`` is validated against the reference within the documented
equivalence envelope (``docs/kernels.md``, lint rule ``KRN001``), and
every backend's :meth:`identity` is salted into cache keys
(:func:`repro.cache.version_salt`) so artifacts produced by different
backends never alias.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Type

from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "KERNEL_ENV",
    "available_backends",
    "backend_identity",
    "default_backend",
    "select_backend",
]

#: Environment variable naming the desired backend. The CLI ``--kernel``
#: flag sets this so worker processes and cache-key salting see the same
#: choice as the parent.
KERNEL_ENV = "REPRO_KERNEL"


def _registry() -> Dict[str, Type[KernelBackend]]:
    """Backend classes by name. The import is local so a broken
    optional backend can never poison ``import repro``."""
    from repro.kernels.cnative_backend import CNativeBackend

    return {"cnative": CNativeBackend, "numpy": NumpyBackend}


# Backend instances are cached because probing may compile C sources;
# construction must stay cheap for the solver.
_instances: Dict[str, KernelBackend] = {}
_warned: set = set()


def _instance(name: str) -> KernelBackend:
    inst = _instances.get(name)
    if inst is None:
        inst = _registry()[name]()
        _instances[name] = inst
    return inst


def available_backends() -> List[Dict[str, str]]:
    """Probe every registered backend.

    Returns a list of ``{"name", "available", "detail"}`` dicts, the
    always-available reference ``numpy`` last — the payload behind
    ``repro kernels`` style introspection and the docs' backend matrix.
    """
    out: List[Dict[str, str]] = []
    for name, cls in _registry().items():
        ok, reason = cls.probe()
        out.append({
            "name": name,
            "available": "yes" if ok else "no",
            "detail": reason,
        })
    return out


def select_backend(
    name: Optional[str] = None,
    *,
    fallback: bool = True,
) -> KernelBackend:
    """Resolve and instantiate a kernel backend.

    Parameters
    ----------
    name:
        Backend name (``"numpy"`` or ``"cnative"``), or ``None`` to
        consult the ``REPRO_KERNEL`` environment variable (default
        ``"numpy"``).
    fallback:
        When True (the default), an unavailable or unknown request
        degrades to ``numpy`` with a one-time ``RuntimeWarning``.
        When False, it raises ``ValueError`` — used by tests and CI
        jobs that must not silently run a different backend than they
        claim to.
    """
    requested = name if name is not None else os.environ.get(KERNEL_ENV) or "numpy"
    requested = requested.strip().lower()
    reg = _registry()
    if requested not in reg:
        if not fallback:
            raise ValueError(
                f"unknown kernel backend {requested!r}; "
                f"known: {', '.join(sorted(reg))}"
            )
        _warn_once(requested, f"unknown kernel backend {requested!r}")
        return _instance("numpy")
    ok, reason = reg[requested].probe()
    if ok:
        return _instance(requested)
    if not fallback:
        raise ValueError(f"kernel backend {requested!r} unavailable: {reason}")
    _warn_once(requested, f"kernel backend {requested!r} unavailable ({reason})")
    return _instance("numpy")


def _warn_once(requested: str, why: str) -> None:
    if requested in _warned:
        return
    _warned.add(requested)
    warnings.warn(
        f"{why}; falling back to the 'numpy' backend",
        RuntimeWarning,
        stacklevel=3,
    )


def default_backend() -> KernelBackend:
    """The backend implied by the current environment (no argument)."""
    return select_backend(None)


def backend_identity(name: Optional[str] = None) -> str:
    """Identity string of the resolved backend, for cache-key salting.

    Uses the same resolution (env var, fallback) as
    :func:`select_backend`, so the salt always names the backend that
    would actually run.
    """
    return select_backend(name).identity()
