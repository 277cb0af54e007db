"""Fused zonotope split+join contraction kernels.

The ReLU case-split loop of the zonotope family is memory-bandwidth
bound: one contraction round of the PR-5 kernels
(``_stacked_relu_split`` followed by ``_stacked_join``) materializes a
dozen-plus ``(R, k, n)`` temporaries — both branch generator tensors,
their absolute values and signs, the sign-agreement mask, and the pad
differences — before throwing every one of them away.  This module fuses
the split, the negative-branch projection, and the join into a single
pass over preallocated scratch buffers (:class:`ScratchArena`), chained
through ``np.multiply(..., out=)`` / ``np.add(..., out=)`` so the steady
state allocates nothing per round.

**Bitwise contract.**  :func:`fused_split_join` computes exactly the
float sequence of the unfused composition ``_stacked_join(*
_stacked_relu_split(...))`` — same operations, same operand order, with
``out=`` variants of the same ufuncs — so its results are bitwise equal
to the reference path (pinned by ``benchmarks/bench_zonotope_batch.py``).
Every reduction and product is batch-height-stable, which keeps the
sequential ``Zonotope.relu`` (the ``R == 1`` instantiation of
:func:`stacked_relu`) bitwise equal to batched rows at any height.

**Generator compaction.**  Splits and joins zero out noise symbols: a
join keeps a generator row only where the two branches' signs agree, so
rows decay to exactly zero as the contraction loop progresses (and error
promotion of an exactly-zero error term creates zero rows at birth).
:func:`stacked_relu` drops rows that are zero across the whole stack
before the round loop and re-checks after every join round, shrinking
``k`` for all later rounds.  Compaction is *internal*: the output is
scattered back to the caller's full ``k`` with zero rows restored, so
representation shapes never change across the transformer boundary.

Dropping zero rows is value-preserving only because every reduction over
the generator axis here is *strictly sequential in k*:

- radius/pad sums reduce ``(R, k, n)`` over ``axis=1`` — a strided axis,
  which numpy accumulates sequentially (adding an exact-zero term is the
  identity, up to the sign of a zero);
- the contraction ``total`` and stale-radius column sums go through
  :func:`gen_sum`, which lays the ``(R, k)`` operand out ``(k, R)``
  C-contiguous so the reduced axis is strided (numpy's pairwise
  summation only triggers on the contiguous inner axis, and pairwise
  order is *not* invariant to dropping zero entries);
- the branch-center product runs as ``einsum("rjk,rkn->rjn")``, whose
  accumulation loop over ``k`` is sequential (and height-stable, unlike
  BLAS GEMV-vs-GEMM routing).

Results under compaction are therefore ``==``-equal to the uncompacted
path everywhere (signed zeros may differ in bit pattern; ``-0.0 == 0.0``
is what every equality pin in the test suite compares).
:func:`set_compaction` selects the uncompacted reference path for the
compaction tests; it toggles only the row dropping, never the reduction
forms, so both settings stay comparable.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backend import slack_for as _slack_for
from repro.obs.metrics import registry as _metrics_registry

#: Coefficients at or below this magnitude are treated as untouched by
#: symbol contraction and sign-agreement tests (canonical home; re-used
#: by :mod:`repro.abstract.zonotope` and the batched kernels).
_COEF_TOL = 1e-12

_compaction_on = True

#: Structural counters for the bench-side regression guards.  ``calls``
#: counts fused split+join invocations; ``arena_allocs`` counts scratch
#: block (re)allocations and must stay flat once shapes stabilize;
#: ``arena_reuses`` counts requests served without allocating;
#: ``compacted_rows`` accumulates generator rows dropped by compaction.
#:
#: The dict lives in the :mod:`repro.obs.metrics` registry as the
#: ``fused`` counter group; this module-level alias is the same object
#: (snapshots see ``fused.calls`` etc., worker deltas merge back into
#: it), and the hot-path increment idiom is unchanged.
FUSED_COUNTERS = _metrics_registry().group(
    "fused", ("calls", "arena_allocs", "arena_reuses", "compacted_rows")
)


def set_compaction(enabled: bool) -> bool:
    """Set the compaction switch; returns the previous value.

    The switch is process-global, and kernel-call descriptors do not
    carry it to process-executor workers: it exists so tests can run the
    uncompacted reference path in-process and compare it with the
    compacted default.
    """
    global _compaction_on
    previous = _compaction_on
    _compaction_on = bool(enabled)
    return previous


def reset_counters() -> dict:
    """Zero the structural counters, returning the pre-reset snapshot."""
    snapshot = dict(FUSED_COUNTERS)
    for key in FUSED_COUNTERS:
        FUSED_COUNTERS[key] = 0
    return snapshot


def gen_sum(stack: np.ndarray) -> np.ndarray:
    """Sum ``(R, k)`` over the generator axis, strictly sequentially.

    Equivalent in exact arithmetic to ``stack.sum(axis=1)``, but the
    operand is transposed into a ``(k, width)`` C-contiguous buffer so
    the reduction runs down a strided axis: numpy accumulates those
    left-to-right instead of pairwise, which makes the result invariant
    (up to zero signs) under inserting or dropping exact-zero entries —
    the property generator compaction relies on.  A zero pad column
    keeps the inner width >= 2 (numpy collapses width-1 reductions back
    to the pairwise 1-D path), so the association is identical at every
    ``R``, including the sequential transformer's ``R == 1``.
    """
    rows, k = stack.shape
    buf = np.zeros((k, max(rows, 2)), dtype=stack.dtype)
    buf[:, :rows] = stack.T
    return np.add.reduce(buf, axis=0)[:rows]


class ScratchArena:
    """Per-thread scratch blocks for the fused kernel, keyed on dtype and
    trailing shape with grow-only row capacity.

    A request for ``nbuf`` buffers of shape ``(r, k, n)`` is served from
    one ``(nbuf, capacity, k, n)`` block by slicing the leading rows —
    views stay C-contiguous, so ``out=`` ufunc chains and ``einsum``
    treat them as ordinary arrays.  Buffers are only valid until the next
    request with the same key (the round loop copies results out before
    its next iteration).  Arenas are thread-local
    (:func:`_thread_arena`): library callers may run kernel calls on
    threads of their own, and those must not share scratch.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple, np.ndarray] = {}

    def request(
        self, nbuf: int, r: int, k: int, n: int, dtype=np.float64, tag: str = ""
    ) -> list[np.ndarray]:
        # The tag keeps same-shape requests from one kernel invocation on
        # distinct blocks (e.g. (R, k, n) tensors vs (R, 2, k) symbol
        # ranges when k == n == 2 would otherwise alias).
        key = (tag, np.dtype(dtype).char, k, n)
        block = self._blocks.get(key)
        if block is None or block.shape[0] < nbuf or block.shape[1] < r:
            capacity = r if block is None else max(r, block.shape[1])
            count = nbuf if block is None else max(nbuf, block.shape[0])
            block = np.empty((count, capacity, k, n), dtype=dtype)
            self._blocks[key] = block
            FUSED_COUNTERS["arena_allocs"] += 1
        else:
            FUSED_COUNTERS["arena_reuses"] += 1
        return [block[i, :r] for i in range(nbuf)]


_TLS = threading.local()


def _thread_arena() -> ScratchArena:
    arena = getattr(_TLS, "arena", None)
    if arena is None:
        arena = _TLS.arena = ScratchArena()
    return arena


def drop_thread_arena() -> None:
    """Forget the calling thread's scratch arena.  A forked executor
    worker calls this: its main thread inherits the arena of the parent
    thread that forked it."""
    _TLS.arena = None


def fused_split_join(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    rows: np.ndarray,
    dims: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split + project + join for many ``(row, dim)`` pairs in one pass.

    Returns ``(center, gens, err)`` of the joined branches, shapes
    ``(R, n) / (R, k, n) / (R, n)``.  Bitwise equal to
    ``_stacked_join(*_stacked_relu_split(...))`` on the same inputs.
    The generator output is a scratch-arena view valid only until this
    thread's next fused call — callers copy it out immediately (the
    round loop's ``gens[s_rows] = ...`` write-back does exactly that).
    """
    count = rows.size
    k, n = gens.shape[1], gens.shape[2]
    arena = _thread_arena()
    FUSED_COUNTERS["calls"] += 1
    # Five (R, k, n) float buffers and three bool masks, reused across
    # rounds: sub(-> joined gens), both branch tensors, two abs/sign
    # scratch tensors.  No other (R, k, n) arrays are created.
    dtype = gens.dtype
    sub, g_pos, g_neg, t1, t2 = arena.request(5, count, k, n, dtype=dtype)
    m1, m2, m3 = arena.request(3, count, k, n, dtype=bool)
    lo_sym, hi_sym, half = arena.request(3, count, 2, k, dtype=dtype, tag="sym")

    # mode="clip" writes straight into sub; the default mode="raise"
    # bounce-buffers the gather through a fresh (R, k, n) temporary
    # (rows come from flatnonzero/argsort and are always in bounds).
    np.take(gens, rows, axis=0, out=sub, mode="clip")
    coeffs = gens[rows, :, dims]  # (R, k) contiguous gather
    abs_coeffs = np.abs(coeffs)
    total = gen_sum(abs_coeffs) + errs[rows, dims]
    touched = abs_coeffs > _COEF_TOL
    rest = total[:, None] - abs_coeffs
    c = centers[rows, dims][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pos_bound = (-c - rest) / coeffs
        neg_bound = (-c + rest) / coeffs
    pos_lower = touched & (coeffs > 0)
    pos_upper = touched & ~pos_lower
    lo_sym.fill(-1.0)
    hi_sym.fill(1.0)
    np.copyto(lo_sym[:, 0], np.maximum(lo_sym[:, 0], pos_bound), where=pos_lower)
    np.copyto(hi_sym[:, 0], np.minimum(hi_sym[:, 0], pos_bound), where=pos_upper)
    np.copyto(lo_sym[:, 1], np.maximum(lo_sym[:, 1], neg_bound), where=pos_upper)
    np.copyto(hi_sym[:, 1], np.minimum(hi_sym[:, 1], neg_bound), where=pos_lower)
    np.minimum(lo_sym, hi_sym, out=lo_sym)  # guard against numeric inversion
    np.subtract(hi_sym, lo_sym, out=half)
    half /= 2.0
    mid = lo_sym  # (lo + hi) / 2 overwrites lo_sym, which is dead after
    np.add(lo_sym, hi_sym, out=mid)
    mid /= 2.0
    branch_centers = np.einsum("rjk,rkn->rjn", mid, sub)
    branch_centers += centers[rows][:, None, :]
    pos_c = branch_centers[:, 0]
    neg_c = branch_centers[:, 1]
    np.multiply(sub, half[:, 0][:, :, None], out=g_pos)
    np.multiply(sub, half[:, 1][:, :, None], out=g_neg)
    pos_e = errs[rows]
    neg_e = errs[rows]
    span = np.arange(count)
    neg_c[span, dims] = 0.0
    g_neg[span, :, dims] = 0.0
    neg_e[span, dims] = 0.0

    # ---- join, in place over the scratch tensors ---------------------
    np.abs(g_pos, out=t1)  # |g1|
    np.abs(g_neg, out=t2)  # |g2|
    rad1 = t1.sum(axis=1) + pos_e
    rad2 = t2.sum(axis=1) + neg_e
    lo = np.minimum(pos_c - rad1, neg_c - rad2)
    hi = np.maximum(pos_c + rad1, neg_c + rad2)
    center = (lo + hi) / 2.0
    # same_sign = (sign(g1) == sign(g2)) & (|g1| > tol), decomposed into
    # strict-sign clauses so the sign tensors never materialize: where
    # |g1| > tol the sign of g1 is +-1, and a zero g2 fails both clauses
    # exactly as sign(0) fails the equality.
    np.greater(g_pos, _COEF_TOL, out=m1)
    np.greater(g_neg, 0.0, out=m2)
    np.logical_and(m1, m2, out=m1)
    np.less(g_pos, -_COEF_TOL, out=m2)
    np.less(g_neg, 0.0, out=m3)
    np.logical_and(m2, m3, out=m2)
    np.logical_or(m1, m2, out=m1)  # same_sign
    # sign(g1) * min(|g1|, |g2|) == copysign(min(|g1|, |g2|), g1) under
    # same_sign (where g1 is strictly signed).
    np.minimum(t1, t2, out=t1)
    np.copysign(t1, g_pos, out=t1)
    joined = sub  # the gather is dead; reuse it for the joined gens
    joined.fill(0.0)
    np.copyto(joined, t1, where=m1)
    np.subtract(g_pos, joined, out=g_pos)
    np.abs(g_pos, out=g_pos)
    pad1 = g_pos.sum(axis=1)
    pad1 += np.abs(pos_c - center)
    pad1 += pos_e
    np.subtract(g_neg, joined, out=g_neg)
    np.abs(g_neg, out=g_neg)
    pad2 = g_neg.sum(axis=1)
    pad2 += np.abs(neg_c - center)
    pad2 += neg_e
    return center, joined, np.maximum(pad1, pad2)


def _compact(
    work_gens: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop generator rows that are exactly zero across the whole stack.

    Returns the (possibly new) work tensor and the surviving original
    row indices.  No-ops (no copy) when every row carries mass.
    """
    alive = np.flatnonzero((work_gens != 0.0).any(axis=(0, 2)))
    if alive.size == work_gens.shape[1]:
        return work_gens, live
    FUSED_COUNTERS["compacted_rows"] += work_gens.shape[1] - alive.size
    return work_gens[:, alive, :], live[alive]


def stacked_relu(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    skips: list[frozenset],
    radius: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Zonotope.relu(skip_dims)`` for every row, batched and fused.

    The no-crossing clamp runs in one elementwise pass; the residual
    data-dependent case-split loop runs in *rounds*: round ``t``
    processes the ``t``-th entry of every row's private widest-first
    crossing order, so the split+join contraction vectorizes across rows
    while each row still sees its dims in exactly the sequential order.
    The sequential transformer is the ``R == 1`` instantiation (every
    product and reduction is height-stable), which is what keeps batched
    rows bitwise equal to :class:`~repro.abstract.zonotope.Zonotope`.

    ``radius`` optionally passes the caller's already-computed pre-clamp
    radii (the batched analogue of the sequential radius cache).

    Inputs are never mutated; with compaction enabled the round loop
    runs at the live-row ``k`` and the output generators are scattered
    back to the input ``k`` with zero rows restored (see the module
    docstring for why that is value-preserving).
    """
    rows = centers.shape[0]
    # --- one-pass no-crossing clamp ----------------------------------
    if radius is None:
        radius = np.abs(gens).sum(axis=1) + errs
    dead = centers + radius <= 0.0
    for r, skip in enumerate(skips):
        if skip:
            dead[r, list(skip)] = False
    centers = np.where(dead, 0.0, centers)
    work_gens = np.where(dead[:, None, :], 0.0, gens)
    errs = np.where(dead, 0.0, errs)
    # Sequential elements re-derive their radius cache on the clamped
    # arrays (zeroed columns sum to exactly 0, untouched columns are
    # unchanged, so this equals patching the cache) — only clamped rows
    # can have changed.
    clamped = dead.any(axis=1)
    if clamped.any():
        radius = radius.copy()
        radius[clamped] = (
            np.abs(work_gens[clamped]).sum(axis=1) + errs[clamped]
        )
    low = centers - radius
    high = centers + radius
    orders = [_crossing_order(low[r], high[r]) for r in range(rows)]
    # --- generator compaction ----------------------------------------
    full_k = gens.shape[1]
    live = None
    if _compaction_on and full_k:
        work_gens, live = _compact(work_gens, np.arange(full_k))
    # ``fresh`` mirrors the sequential radius cache: a row keeps using its
    # post-clamp radii until its first projection or split invalidates
    # them, after which per-dim bounds come from fresh column sums.
    fresh = np.ones(rows, dtype=bool)
    for position in range(max((len(o) for o in orders), default=0)):
        todo = [
            (r, int(orders[r][position]))
            for r in range(rows)
            if position < len(orders[r])
            and int(orders[r][position]) not in skips[r]
        ]
        if not todo:
            continue
        t_rows = np.array([r for r, _ in todo])
        t_dims = np.array([d for _, d in todo])
        rad = np.empty(len(todo), dtype=centers.dtype)
        cached = fresh[t_rows]
        if cached.any():
            rad[cached] = radius[t_rows[cached], t_dims[cached]]
        stale = ~cached
        if stale.any():
            cols = work_gens[t_rows[stale], :, t_dims[stale]]  # (S, k)
            rad[stale] = (
                gen_sum(np.abs(cols)) + errs[t_rows[stale], t_dims[stale]]
            )
        c = centers[t_rows, t_dims]
        project = c + rad <= 0.0
        split = ~project & (c - rad < 0.0)
        p_rows, p_dims = t_rows[project], t_dims[project]
        if p_rows.size:
            centers[p_rows, p_dims] = 0.0
            work_gens[p_rows, :, p_dims] = 0.0
            errs[p_rows, p_dims] = 0.0
            fresh[p_rows] = False
        s_rows, s_dims = t_rows[split], t_dims[split]
        if s_rows.size:
            joined = fused_split_join(
                centers, work_gens, errs, s_rows, s_dims
            )
            centers[s_rows] = joined[0]
            work_gens[s_rows] = joined[1]
            errs[s_rows] = joined[2]
            fresh[s_rows] = False
            # Joins are the row-zeroing operation: re-check liveness so
            # later rounds run at the shrunken k.
            if live is not None and work_gens.shape[1]:
                work_gens, live = _compact(work_gens, live)
    scale = _slack_for(centers.dtype, gens.shape[1] + 4)
    if scale:
        # Outward rounding (float32 path): cover the round loop's fused
        # contraction round-off so the stacked result always contains the
        # reference-precision one (validated by the containment fuzz).
        errs = errs + scale * (
            np.abs(centers) + np.abs(work_gens).sum(axis=1) + errs
        )
    if live is not None and live.size < full_k:
        out_gens = np.zeros((rows, full_k, centers.shape[1]), dtype=centers.dtype)
        out_gens[:, live, :] = work_gens
        return centers, out_gens, errs
    return centers, work_gens, errs


def _crossing_order(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """One row's crossing dims, widest first (``Zonotope.crossing_dims``)."""
    crossing = np.flatnonzero((low < 0.0) & (high > 0.0))
    widths = high[crossing] - low[crossing]
    return crossing[np.argsort(-widths, kind="stable")]
