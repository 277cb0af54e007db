"""Projected gradient descent over box regions (the paper's Minimize).

Minimizes the margin objective with sign-scaled steps (the L∞-natural update
used by Madry et al.'s PGD) followed by Euclidean projection back onto the
box.  Multiple restarts — the box center plus uniform random points — guard
against the local minima that motivate the paper's region splitting.

The kernel is *batched*: all restarts of a region — and restarts of many
regions at once — advance in lockstep as one ``(B, n)`` batch through the
network, so every affine layer runs as a single GEMM instead of ``B`` GEMVs.
:func:`pgd_minimize` is the single-region convenience wrapper over the same
kernel, which keeps the sequential and batched verification engines on
identical arithmetic per region: a region's trajectory depends only on its
own randomness, never on which other regions share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attack.objective import MarginObjective
from repro.obs.metrics import registry as _metrics_registry
from repro.utils.boxes import Box
from repro.utils.rng import as_generator, spawn
from repro.utils.timing import Deadline

#: Semantic kernel-work counters, shared with the Analyze side
#: (:mod:`repro.abstract.analyzer` registers the same ``kernel`` group).
#: ``*_batches`` counts kernel invocations, ``*_rows`` the regions they
#: carried — executor-invariant quantities: a Process run's merged
#: totals must equal a Serial run's (pinned by the scheduler's metrics
#: equality test).
_KERNEL_COUNTERS = _metrics_registry().group(
    "kernel", ("pgd_batches", "pgd_rows", "analyze_batches", "analyze_rows")
)


@dataclass(frozen=True)
class PGDConfig:
    """PGD hyper-parameters.

    Attributes:
        steps: gradient steps per restart.
        restarts: total starts (the first is always the region center).
        step_fraction: per-dimension step = ``step_fraction * width_d``;
            decays linearly to a tenth of itself over the run.
        stop_below: early-exit as soon as ``F(x) <= stop_below`` (set this
            to the verifier's δ so falsification returns immediately).
    """

    steps: int = 40
    restarts: int = 2
    step_fraction: float = 0.1
    stop_below: float = 0.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0.0 < self.step_fraction <= 1.0:
            raise ValueError("step_fraction must lie in (0, 1]")


def _normalize_rngs(
    rngs, count: int
) -> list[np.random.Generator]:
    """One independent generator per region.

    A list or tuple holds one entry per region (a generator, or a seed or
    ``SeedSequence`` to build one from); anything else is normalized
    through :func:`as_generator` and — when several regions are minimized
    together — spawned into per-region streams so that a region's
    randomness never depends on its batch companions.
    """
    if isinstance(rngs, (list, tuple)):
        if len(rngs) != count:
            raise ValueError(
                f"got {len(rngs)} generators for {count} regions"
            )
        return [as_generator(g) for g in rngs]
    gen = as_generator(rngs)
    if count == 1:
        return [gen]
    return spawn(gen, count)


def pgd_minimize_batch(
    objective: MarginObjective,
    regions: Sequence[Box],
    config: PGDConfig | None = None,
    rngs=None,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``objective`` over every region at once.

    Returns ``(best_x, best_f)`` with shapes ``(R, n)`` and ``(R,)``; row
    ``i`` always lies inside ``regions[i]``.

    All ``R * restarts`` trajectories advance in lockstep; a per-region
    early-exit mask freezes every row of a region as soon as its best value
    drops to ``stop_below``, and frozen regions stop consuming randomness —
    which is what keeps a region's result identical whether it is minimized
    alone or inside a larger batch.
    """
    if not regions:
        raise ValueError("need at least one region")
    _KERNEL_COUNTERS["pgd_batches"] += 1
    _KERNEL_COUNTERS["pgd_rows"] += len(regions)
    config = config or PGDConfig()
    gens = _normalize_rngs(rngs, len(regions))
    n = regions[0].ndim
    num_regions = len(regions)
    restarts = config.restarts
    rows = num_regions * restarts

    lows = np.empty((num_regions, n))
    highs = np.empty((num_regions, n))
    starts = np.empty((rows, n))
    for i, region in enumerate(regions):
        if region.ndim != n:
            raise ValueError("all regions must share one dimensionality")
        lows[i] = region.low
        highs[i] = region.high
        start_rows = starts[i * restarts : (i + 1) * restarts]
        start_rows[0] = region.center
        if restarts > 1:
            start_rows[1:] = region.sample(gens[i], restarts - 1)

    # Per-row projection bounds (each region's rows share its box).
    row_low = np.repeat(lows, restarts, axis=0)
    row_high = np.repeat(highs, restarts, axis=0)
    base_step = np.repeat(
        config.step_fraction * (highs - lows), restarts, axis=0
    )
    row_region = np.repeat(np.arange(num_regions), restarts)

    x = np.clip(starts, row_low, row_high)
    centers = x[::restarts]
    best_x = centers.copy()
    best_f = objective.value_batch(centers)

    # active[i] False once region i hit stop_below (or we ran out of time).
    active = best_f > config.stop_below
    if not active.any():
        return best_x, best_f

    def _fold_best(f: np.ndarray) -> None:
        """Per-region best: the first strictly-improving row wins."""
        per_region = f.reshape(num_regions, restarts)
        winners = per_region.argmin(axis=1)
        f_min = per_region[np.arange(num_regions), winners]
        update = active & (f_min < best_f)
        if update.any():
            best_f[update] = f_min[update]
            best_x[update] = x.reshape(num_regions, restarts, n)[
                update, winners[update]
            ]

    for step in range(config.steps):
        if deadline is not None and deadline.expired():
            return best_x, best_f
        f, grad = objective.value_and_gradient_batch(x)
        _fold_best(f)
        active &= best_f > config.stop_below
        if not active.any():
            return best_x, best_f

        direction = np.sign(grad)
        row_active = active[row_region]
        # Dead-ReLU plateau: the margin is locally constant, so the gradient
        # carries no information.  Take a random direction to escape (a
        # restart in miniature) — drawn from the row's own region stream so
        # batching never changes a region's trajectory.
        flat = row_active & ~direction.any(axis=1)
        for r in np.flatnonzero(flat):
            direction[r] = gens[row_region[r]].choice([-1.0, 1.0], size=n)
        decay = 1.0 - 0.9 * (step / config.steps)
        stepped = np.clip(x - decay * base_step * direction, row_low, row_high)
        x = np.where(row_active[:, None], stepped, x)

    # Final positions of still-active regions get one last evaluation.
    if active.any():
        _fold_best(objective.value_batch(x))
    return best_x, best_f


def pgd_minimize(
    objective: MarginObjective,
    region: Box,
    config: PGDConfig | None = None,
    rng: int | np.random.SeedSequence | np.random.Generator | None = None,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, float]:
    """Best point found and its objective value.

    The returned point always lies inside ``region``.  This is the
    single-region view of :func:`pgd_minimize_batch`, so sequential and
    batched verification run identical per-region arithmetic.
    """
    best_x, best_f = pgd_minimize_batch(
        objective, [region], config, [as_generator(rng)], deadline
    )
    return best_x[0], float(best_f[0])
