"""Domain specifications: the ``(d, k)`` pairs the domain policy selects.

The paper's selection function φ_α maps policy outputs to a tuple ``(d, k)``
where ``d`` is the base domain (intervals or zonotopes) and ``k`` the
disjunct budget of the bounded powerset (§4.1).  :class:`DomainSpec` is that
tuple, with the machinery to lift an input box into the chosen domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abstract.element import AbstractElement
from repro.abstract.interval import IntervalElement
from repro.abstract.powerset import PowersetElement
from repro.abstract.zonotope import Zonotope
from repro.utils.boxes import Box

#: "interval" and "zonotope" are the paper's §6 menu.  "symbolic"
#: (ReluVal-style symbolic intervals) and "deeppoly" (back-substitution
#: bounds) implement the §9 future-work idea of exposing more precise,
#: solver-like analyses as domains the policy can learn to select
#: (see ``repro.ext``).
BASE_DOMAINS = ("interval", "zonotope", "symbolic", "deeppoly")

_LETTERS = {"interval": "I", "zonotope": "Z", "symbolic": "S", "deeppoly": "D"}


@dataclass(frozen=True)
class DomainSpec:
    """An abstract domain choice: base domain plus disjunct budget.

    ``DomainSpec("zonotope", 2)`` is the paper's ``(Z, 2)`` — powerset of
    zonotopes with at most two disjuncts; ``DomainSpec("interval", 1)`` is
    the plain interval domain ``(I, 1)``.  The "symbolic" base supports no
    disjunctions (its ReLU relaxation subsumes the case split).
    """

    base: str
    disjuncts: int = 1

    def __post_init__(self) -> None:
        if self.base not in BASE_DOMAINS:
            raise ValueError(
                f"unknown base domain {self.base!r}; choose from {BASE_DOMAINS}"
            )
        if self.disjuncts < 1:
            raise ValueError(f"disjuncts must be >= 1, got {self.disjuncts}")
        if self.base in ("symbolic", "deeppoly") and self.disjuncts != 1:
            raise ValueError(
                f"the {self.base} domain does not support disjunctions"
            )

    def lift(self, box: Box):
        """Embed an input box into this domain."""
        if self.base == "symbolic":
            # Imported here to avoid a cycle (symbolic_interval -> nn).
            from repro.abstract.symbolic_interval import SymbolicInterval

            return SymbolicInterval.identity(box)
        if self.base == "deeppoly":
            from repro.abstract.deeppoly import DeepPolyState

            return DeepPolyState.identity(box)
        if self.base == "interval":
            element: AbstractElement = IntervalElement.from_box(box)
        else:
            element = Zonotope.from_box(box)
        if self.disjuncts == 1:
            return element
        return PowersetElement([element], max_disjuncts=self.disjuncts)

    def lift_batch(self, boxes: list[Box]):
        """Embed a list of input boxes into this domain's batched kernel.

        Returns a :class:`~repro.abstract.batched.BatchedElement` whose
        row ``i`` tracks ``boxes[i]``, or ``None`` when no batched kernel
        exists for this domain (symbolic intervals, interval powersets) —
        Analyze then propagates each region from :meth:`lift`.
        """
        if self.base == "interval" and self.disjuncts == 1:
            from repro.abstract.interval import IntervalBatch

            return IntervalBatch.from_boxes(boxes)
        if self.base == "deeppoly":
            from repro.abstract.deeppoly import DeepPolyBatch

            return DeepPolyBatch.from_boxes(boxes)
        if self.base == "zonotope":
            from repro.abstract.zonotope_batch import (
                PowersetBatch,
                ZonotopeBatch,
            )

            if self.disjuncts == 1:
                return ZonotopeBatch.from_boxes(boxes)
            return PowersetBatch.from_boxes(boxes, self.disjuncts)
        return None

    @property
    def short_name(self) -> str:
        letter = _LETTERS[self.base]
        return letter if self.disjuncts == 1 else f"{letter}x{self.disjuncts}"

    def __str__(self) -> str:
        return f"({_LETTERS[self.base]}, {self.disjuncts})"


INTERVAL = DomainSpec("interval", 1)
ZONOTOPE = DomainSpec("zonotope", 1)
SYMBOLIC = DomainSpec("symbolic", 1)
DEEPPOLY = DomainSpec("deeppoly", 1)


def bounded_intervals(k: int) -> DomainSpec:
    """Powerset of intervals with at most ``k`` disjuncts."""
    return DomainSpec("interval", k)


def bounded_zonotopes(k: int) -> DomainSpec:
    """Powerset of zonotopes with at most ``k`` disjuncts."""
    return DomainSpec("zonotope", k)
