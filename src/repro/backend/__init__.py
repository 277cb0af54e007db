"""Pluggable array backends: the dtype/op seam under the kernel stack.

The abstract-interpretation kernels (interval, zonotope, DeepPoly, the
fused split+join) are BLAS-bound: their hot loops are GEMMs and einsums
over dense operands.  This module abstracts *which* array engine and
precision those operands use behind a tiny protocol so the same kernel
code can run

- ``numpy64`` — float64 numpy, the **bitwise reference**.  Every
  equivalence matrix in the test suite pins against this backend; its
  ops are literally ``np.matmul``/``np.einsum`` and its outward-rounding
  slack is exactly ``0.0``, so routing a kernel through the backend seam
  changes nothing on the reference path.
- ``numpy32`` — float32 numpy, the fast path (float32 GEMMs measure
  ~2.2-2.5x float64 on commodity BLAS).  Analyzer bounds stay *sound*
  by outward rounding: every concretization widens its bounds by a
  directed-rounding slack proportional to the accumulated magnitude
  (see :func:`slack_for`), and fuzz tests pin the containment invariant
  (float32 bounds always contain the float64 bounds).

Design rule (keeps the reference path bitwise and the kernels pure):
kernels consult the *active* backend only at lift boundaries (element
constructors, ``from_box``/``from_boxes``) and at the hot GEMM call
sites; everything in between derives its dtype from the arrays it is
handed.  The outward-rounding slack is likewise dtype-driven
(:func:`slack_for` returns 0.0 for float64), so transformer math never
depends on mutable global state.

The active backend is a module-level default (``numpy64``) with a
thread-local override stack for scoped switches (:func:`use_backend`).
Nothing reads the environment: a run names its backend in its
``RunOptions``, and kernel calls crossing the process boundary carry
their backend tag in the ``KernelCall`` and re-enter it on the worker
(see ``repro.exec.calls``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKEND_CHOICES",
    "active",
    "available",
    "get",
    "outward_cast",
    "outward_center_radius",
    "register",
    "set_active",
    "slack_for",
    "unit_roundoff",
    "use_backend",
]

#: The names the CLI exposes.
BACKEND_CHOICES = ("numpy64", "numpy32")

#: Unit roundoff by dtype char.  float64 is deliberately absent: it is
#: the bitwise reference precision, so its slack must be exactly zero.
_UNIT_ROUNDOFF = {"f": 2.0 ** -24, "e": 2.0 ** -11}

#: Safety factor on the gamma(n) directed-rounding bound.  The slack is
#: an *envelope*, not a formal per-op error analysis: kernels interleave
#: dots, elementwise products and reductions whose exact op counts vary,
#: so the bound is amplified and then validated empirically by the
#: containment fuzz tests (tests/backend/test_containment.py).
_SLACK_SAFETY = 4.0


def unit_roundoff(dtype) -> float:
    """Unit roundoff ``u`` of ``dtype`` (0.0 for the float64 reference)."""
    return _UNIT_ROUNDOFF.get(np.dtype(dtype).char, 0.0)


def outward_cast(
    low: np.ndarray, high: np.ndarray, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Cast box bounds to ``dtype``, rounding *outward* when narrowing.

    ``astype`` rounds to nearest, which can move a lower bound up (or an
    upper bound down) — unsound for a lift.  When the target dtype is
    narrower than the source, each bound is nudged one ulp outward so the
    cast interval always contains the original.  Widening or same-width
    casts are exact and pass through untouched (the float64 reference
    path stays bitwise).
    """
    dt = np.dtype(dtype)
    lo_src = np.asarray(low)
    hi_src = np.asarray(high)
    lo = lo_src.astype(dt)
    hi = hi_src.astype(dt)
    if dt.itemsize < lo_src.dtype.itemsize:
        lo = np.nextafter(lo, dt.type(-np.inf))
        hi = np.nextafter(hi, dt.type(np.inf))
    return lo, hi


def outward_center_radius(
    center: np.ndarray, radius: np.ndarray, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Cast a center/radius box form to ``dtype``, padding outward when
    narrowing: the radius absorbs the center's cast error plus one ulp so
    the cast form still contains the original.  Exact for same-width or
    widening casts (float64 reference path unchanged)."""
    dt = np.dtype(dtype)
    c_src = np.asarray(center)
    r_src = np.asarray(radius)
    c = c_src.astype(dt)
    r = r_src.astype(dt)
    if dt.itemsize < c_src.dtype.itemsize:
        cast_err = np.abs(c_src - c.astype(c_src.dtype))
        r = np.nextafter((r_src + cast_err).astype(dt), dt.type(np.inf))
    return c, r


def slack_for(dtype, terms: int) -> float:
    """Outward-rounding slack scale for an ~``terms``-flop accumulation.

    The classic directed-rounding bound for an ``n``-term dot product is
    ``gamma(n) = n*u / (1 - n*u)``; we amplify by :data:`_SLACK_SAFETY`
    to cover the surrounding elementwise traffic.  Returns exactly
    ``0.0`` for float64 inputs so reference-path arithmetic is untouched
    (every widening site guards with ``if scale:``).
    """
    u = _UNIT_ROUNDOFF.get(np.dtype(dtype).char, 0.0)
    if not u or terms <= 0:
        return 0.0
    nu = min(0.5, _SLACK_SAFETY * float(terms) * u)
    return nu / (1.0 - nu)


class ArrayBackend:
    """A named array engine: dtype + the op/allocation protocol.

    The base class *is* the numpy implementation — ``numpy64`` and
    ``numpy32`` are instances differing only in dtype, and their ops
    forward straight to numpy so the float64 instance is bitwise
    transparent.
    """

    def __init__(self, name: str, dtype) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)

    @property
    def unit_roundoff(self) -> float:
        return unit_roundoff(self.dtype)

    def slack(self, terms: int) -> float:
        """Outward-rounding slack scale for this backend's dtype."""
        return slack_for(self.dtype, terms)

    # ------------------------------------------------------------------
    # Ops (the hot-kernel protocol)
    # ------------------------------------------------------------------

    def matmul(self, a, b):
        return np.matmul(a, b)

    def einsum(self, spec, *operands, **kwargs):
        return np.einsum(spec, *operands, **kwargs)

    def relu(self, x):
        return np.maximum(x, 0.0)

    def take(self, a, indices, axis=None, mode="raise"):
        return np.take(a, indices, axis=axis, mode=mode)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    # ------------------------------------------------------------------
    # Allocation hooks (lift boundaries)
    # ------------------------------------------------------------------

    def asarray(self, x) -> np.ndarray:
        return np.asarray(x, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def empty(self, shape) -> np.ndarray:
        return np.empty(shape, dtype=self.dtype)

    def full(self, shape, fill) -> np.ndarray:
        return np.full(shape, fill, dtype=self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayBackend({self.name!r}, dtype={self.dtype.name})"


# ----------------------------------------------------------------------
# Registry + active-backend management
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ArrayBackend] = {}
_LOCK = threading.Lock()
_TLS = threading.local()

#: Module-level default; :func:`set_active` moves it.
_ACTIVE_NAME = "numpy64"


def register(backend: ArrayBackend, *, replace: bool = False) -> ArrayBackend:
    """Register a backend under its name (idempotent unless ``replace``)."""
    with _LOCK:
        if backend.name in _REGISTRY and not replace:
            return _REGISTRY[backend.name]
        _REGISTRY[backend.name] = backend
    return backend


def available() -> tuple[str, ...]:
    """Names of the registered backends."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> ArrayBackend:
    """Resolve a backend by name (``KeyError`` naming the choices)."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise KeyError(
            f"unknown backend {name!r}; available: {available()}"
        )
    return backend


def active() -> ArrayBackend:
    """The backend kernels should lift into right now.

    Thread-local ``use_backend`` overrides win over the module default,
    so a scoped switch on one thread never leaks into another.
    """
    stack = getattr(_TLS, "stack", None)
    name = stack[-1] if stack else _ACTIVE_NAME
    return get(name)


def set_active(name: str) -> ArrayBackend:
    """Set the module-level default backend (validates the name)."""
    global _ACTIVE_NAME
    backend = get(name)
    _ACTIVE_NAME = backend.name
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[ArrayBackend]:
    """Scoped backend switch (thread-local, re-entrant)."""
    backend = get(name)
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(backend.name)
    try:
        yield backend
    finally:
        stack.pop()


register(ArrayBackend("numpy64", np.float64))
register(ArrayBackend("numpy32", np.float32))
