"""The pre-fusion stacked-ReLU reference kernel and its bench workload.

Kept verbatim as the path :func:`repro.abstract.fused.stacked_relu` is
measured against (the ``_unfused_bound_expr`` precedent in
``benchmarks/bench_zonotope_batch.py``): the PR-5 round-loop structure —
``_stacked_relu_split`` materializing both branch tensors, then
``_stacked_join`` allocating a dozen more ``(S, k, n)`` temporaries —
with no scratch arena and no generator compaction.  It calls the
*current* shared primitives (:func:`~repro.abstract.fused.gen_sum` stale
sums, the einsum branch-center product inside ``_stacked_relu_split``),
so its results are **bitwise equal** to the fused kernel and every
measured difference is memory traffic: per-round temporaries plus the
full-``k`` passes compaction avoids.

``benchmarks/bench_zonotope_batch.py`` gates the fused kernel's
throughput floor, and its bitwise equality, against it.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.fused import gen_sum
from repro.abstract.zonotope_batch import (
    _crossing_order,
    _stacked_join,
    _stacked_radius,
    _stacked_relu_split,
)


def prefused_stacked_relu(centers, gens, errs, skips, radius=None):
    """``stacked_relu`` with the pre-fusion kernel structure (PR 5)."""
    rows = centers.shape[0]
    if radius is None:
        radius = _stacked_radius(gens, errs)
    dead = centers + radius <= 0.0
    for r, skip in enumerate(skips):
        if skip:
            dead[r, list(skip)] = False
    centers = np.where(dead, 0.0, centers)
    gens = np.where(dead[:, None, :], 0.0, gens)
    errs = np.where(dead, 0.0, errs)
    clamped = dead.any(axis=1)
    if clamped.any():
        radius = radius.copy()
        radius[clamped] = _stacked_radius(gens[clamped], errs[clamped])
    low = centers - radius
    high = centers + radius
    orders = [_crossing_order(low[r], high[r]) for r in range(rows)]
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
        rad = np.empty(len(todo))
        cached = fresh[t_rows]
        if cached.any():
            rad[cached] = radius[t_rows[cached], t_dims[cached]]
        stale = ~cached
        if stale.any():
            cols = gens[t_rows[stale], :, t_dims[stale]]
            rad[stale] = (
                gen_sum(np.abs(cols)) + errs[t_rows[stale], t_dims[stale]]
            )
        c = centers[t_rows, t_dims]
        project = c + rad <= 0.0
        split = ~project & (c - rad < 0.0)
        p_rows, p_dims = t_rows[project], t_dims[project]
        if p_rows.size:
            centers[p_rows, p_dims] = 0.0
            gens[p_rows, :, p_dims] = 0.0
            errs[p_rows, p_dims] = 0.0
            fresh[p_rows] = False
        s_rows, s_dims = t_rows[split], t_dims[split]
        if s_rows.size:
            joined = _stacked_join(
                *_stacked_relu_split(centers, gens, errs, s_rows, s_dims)
            )
            centers[s_rows] = joined[0]
            gens[s_rows] = joined[1]
            errs[s_rows] = joined[2]
            fresh[s_rows] = False
    return centers, gens, errs


def promotion_stack(seed: int, rows: int, k: int, n: int, dead_rows: float):
    """A powerset-frontier-shaped stacked-ReLU workload.

    ``dead_rows`` is the fraction of generator rows that are exactly
    zero across the stack — the structure real frontiers carry: error
    promotion of a dimension whose error term is already ``0.0`` (every
    non-crossing dimension after an earlier affine) mints an all-zero
    generator row, and rows whose branch signs disagree everywhere are
    zeroed by joins.  The zero rows cost the pre-fusion kernel full-
    ``k`` passes every round; generator compaction exists to skip them.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 0.6, (rows, n))
    gens = rng.normal(0.0, 0.25, (rows, k, n)) / np.sqrt(k)
    zero_rows = rng.choice(k, int(k * dead_rows), replace=False)
    gens[:, zero_rows, :] = 0.0
    errs = np.abs(rng.normal(0.0, 0.02, (rows, n)))
    skips = [frozenset() for _ in range(rows)]
    return centers, gens, errs, skips
