"""Array backends: the named dtype a run's kernels compute in.

The abstract-interpretation kernels (interval, zonotope, DeepPoly, the
fused split+join) are BLAS-bound numpy code.  A backend is a name plus
the dtype those kernels lift their operands into:

- ``numpy64`` — float64, the **bitwise reference**.  Every equivalence
  matrix in the test suite pins against this backend; its
  outward-rounding slack is exactly ``0.0``, so the reference path runs
  no widening code at all.
- ``numpy32`` — float32, the fast path (float32 GEMMs measure
  ~2.2-2.5x float64 on commodity BLAS).  Analyzer bounds stay *sound*
  by outward rounding: every concretization widens its bounds by a
  directed-rounding slack proportional to the accumulated magnitude
  (see :func:`slack_for`), and fuzz tests pin the containment invariant
  (float32 bounds always contain the float64 bounds).

Design rule (keeps the reference path bitwise and the kernels pure):
kernels consult the *active* backend only at lift boundaries (element
constructors, ``from_box``/``from_boxes``) and when picking a network's
lowered op list; everything in between derives its dtype from the
arrays it is handed.  The outward-rounding slack is likewise
dtype-driven (:func:`slack_for` returns 0.0 for float64), so
transformer math never depends on mutable global state.

The active backend is ``numpy64`` unless a thread-local
:func:`use_backend` scope names another.  Nothing reads the
environment: a run names its backend in its ``RunOptions``, and kernel
calls crossing the process boundary carry their backend tag in the
``KernelCall`` and re-enter it on the worker (see ``repro.exec.calls``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "BACKEND_CHOICES",
    "Backend",
    "active",
    "outward_cast",
    "outward_center_radius",
    "slack_for",
    "use_backend",
]


@dataclass(frozen=True)
class Backend:
    """A named array precision: the dtype a run's kernels lift into."""

    name: str
    dtype: np.dtype


_BACKENDS = {
    "numpy64": Backend("numpy64", np.dtype(np.float64)),
    "numpy32": Backend("numpy32", np.dtype(np.float32)),
}

#: The names the CLI exposes.
BACKEND_CHOICES = tuple(_BACKENDS)

#: Unit roundoff by dtype char.  float64 is deliberately absent: it is
#: the bitwise reference precision, so its slack must be exactly zero.
_UNIT_ROUNDOFF = {"f": 2.0 ** -24, "e": 2.0 ** -11}

#: Safety factor on the gamma(n) directed-rounding bound.  The slack is
#: an *envelope*, not a formal per-op error analysis: kernels interleave
#: dots, elementwise products and reductions whose exact op counts vary,
#: so the bound is amplified and then validated empirically by the
#: containment fuzz tests (tests/backend/test_containment.py).
_SLACK_SAFETY = 4.0


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


_TLS = threading.local()


def active() -> Backend:
    """The backend kernels should lift into right now: the innermost
    :func:`use_backend` scope on this thread, else ``numpy64``."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else _BACKENDS["numpy64"]


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Scoped backend switch (thread-local, re-entrant); ``KeyError``
    naming the choices for an unknown name."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise KeyError(
            f"unknown backend {name!r}; available: {BACKEND_CHOICES}"
        )
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()
