"""Deterministic random-number handling.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy), and
normalizes it through :func:`as_generator`.  Keeping this in one place makes
all experiments reproducible by construction.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def as_generator(
    rng: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Integers and seed sequences become seeded generators, generators pass
    through unchanged, and ``None`` produces a generator seeded from OS
    entropy.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are derived through ``SeedSequence`` spawning so that results
    do not depend on the order in which children are later consumed.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]
