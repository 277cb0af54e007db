"""Bounded powerset domains: up to ``k`` disjuncts of a base domain.

This is the paper's ``(d, k)`` domain family (§4.1): the domain policy picks
a base domain and a disjunct budget, and ReLU case splits populate the
disjuncts.  With ``k = 1`` the powerset degenerates to the base domain; with
larger ``k`` it retains the case splits that the plain domains would have
joined away (Figure 4's bottom row).

Splitting strategy: crossing dimensions are ranked by their maximum width
across disjuncts (widest first — the widest crossing loses the most
precision when joined) and split while the budget allows; all remaining
ReLU behaviour is delegated to the base domain's transformer.

For zonotopes this sequential element is only the reference that the
batched kernel (:class:`~repro.abstract.zonotope_batch.PowersetBatch`,
which every Analyze call runs) is tested against; powersets of
intervals have no batched kernel and run here.  Every transformer runs
the base domain's own transformer disjunct by disjunct, so each
disjunct carries that transformer's float32 outward rounding.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.element import AbstractElement


class PowersetElement(AbstractElement):
    """A finite union of base-domain elements, capped at ``max_disjuncts``."""

    def __init__(self, elements: list[AbstractElement], max_disjuncts: int) -> None:
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
        if not elements:
            raise ValueError("a powerset element needs at least one disjunct")
        sizes = {e.size for e in elements}
        if len(sizes) != 1:
            raise ValueError(f"disjuncts disagree on dimension: {sizes}")
        if len(elements) > max_disjuncts:
            raise ValueError(
                f"{len(elements)} disjuncts exceed the budget of {max_disjuncts}"
            )
        self.elements = list(elements)
        self.max_disjuncts = max_disjuncts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.elements[0].size

    @property
    def num_disjuncts(self) -> int:
        return len(self.elements)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lows, highs = zip(*(e.bounds() for e in self.elements))
        return np.minimum.reduce(lows), np.maximum.reduce(highs)

    def __repr__(self) -> str:
        return (
            f"PowersetElement(size={self.size}, "
            f"disjuncts={self.num_disjuncts}/{self.max_disjuncts})"
        )

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def _wrap(self, elements: list[AbstractElement]) -> "PowersetElement":
        return PowersetElement(elements, self.max_disjuncts)

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "PowersetElement":
        return self._wrap([e.affine(weight, bias) for e in self.elements])

    def maxpool(self, windows: np.ndarray) -> "PowersetElement":
        return self._wrap([e.maxpool(windows) for e in self.elements])

    def pad(self, radii: np.ndarray) -> "PowersetElement":
        # Applies identically to every disjunct (generator shapes are
        # untouched, so siblings stay joinable).
        return self._wrap([e.pad(radii) for e in self.elements])

    def relu(self, skip_dims: frozenset[int] = frozenset()) -> "PowersetElement":
        # Each disjunct tracks the dims it was split on: a split branch
        # already over-approximates the ReLU image on that dim, so the final
        # base-domain pass must not re-process it (it would re-join the
        # residual tail and throw away the precision the split bought).
        current: list[tuple[AbstractElement, frozenset[int]]] = [
            (e, skip_dims) for e in self.elements
        ]
        budget = self.max_disjuncts
        for dim in self._ranked_crossing_dims(self.elements):
            if len(current) >= budget:
                break
            nxt: list[tuple[AbstractElement, frozenset[int]]] = []
            for i, (element, done) in enumerate(current):
                lo, hi = element.dim_bounds(dim)
                would_total = len(nxt) + (len(current) - i) + 1
                if lo < 0.0 < hi and dim not in done and would_total <= budget:
                    pos, neg = element.relu_split(dim)
                    nxt.append((pos, done | {dim}))
                    nxt.append((neg, done | {dim}))
                else:
                    nxt.append((element, done))
            current = nxt
        # Whatever crossing behaviour remains (budget exhausted, residual
        # tails after contraction) is handled by the base transformer.
        return self._wrap([e.relu(skip_dims=done) for e, done in current])

    @staticmethod
    def _ranked_crossing_dims(elements: list[AbstractElement]) -> list[int]:
        """Union of crossing dims, ordered by maximum width across disjuncts."""
        width_by_dim: dict[int, float] = {}
        for element in elements:
            low, high = element.bounds()
            for dim in np.flatnonzero((low < 0.0) & (high > 0.0)):
                width = float(high[dim] - low[dim])
                dim = int(dim)
                if width > width_by_dim.get(dim, 0.0):
                    width_by_dim[dim] = width
        return sorted(width_by_dim, key=lambda d: -width_by_dim[d])

    # ------------------------------------------------------------------
    # Case-split hooks
    # ------------------------------------------------------------------

    def crossing_dims(self) -> np.ndarray:
        return np.asarray(self._ranked_crossing_dims(self.elements), dtype=np.int64)

    def relu_split(self, dim: int) -> tuple["AbstractElement", "AbstractElement"]:
        raise TypeError("powerset domains cannot be nested inside a powerset")

    def relu_dim(self, dim: int) -> "PowersetElement":
        return self._wrap([e.relu_dim(dim) for e in self.elements])

    def join(self, other: "AbstractElement") -> "PowersetElement":
        if not isinstance(other, PowersetElement):
            raise TypeError("cannot join powerset with non-powerset element")
        budget = max(self.max_disjuncts, other.max_disjuncts)
        merged = self.elements + other.elements
        while len(merged) > budget:
            # Fold the two disjuncts whose centers are closest — they lose
            # the least volume when joined.
            centers = [np.add(*e.bounds()) / 2.0 for e in merged]
            best, best_dist = (0, 1), np.inf
            for i in range(len(merged)):
                for j in range(i + 1, len(merged)):
                    dist = float(np.linalg.norm(centers[i] - centers[j]))
                    if dist < best_dist:
                        best, best_dist = (i, j), dist
            i, j = best
            joined = merged[i].join(merged[j])
            merged = [e for k, e in enumerate(merged) if k not in (i, j)]
            merged.append(joined)
        return PowersetElement(merged, budget)

    # ------------------------------------------------------------------
    # Margins
    # ------------------------------------------------------------------

    def lower_margin(self, label: int, other: int) -> float:
        """Union semantics: the bound must hold for every disjunct."""
        return min(e.lower_margin(label, other) for e in self.elements)

    def min_margin(self, label: int) -> float:
        return min(e.min_margin(label) for e in self.elements)
