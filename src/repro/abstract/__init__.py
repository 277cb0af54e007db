"""Abstract interpretation engine (the ELINA substitute).

Implements the numeric domains the paper's analyzer chooses among (§2.3):

- :mod:`repro.abstract.interval` — interval (box) domain.
- :mod:`repro.abstract.zonotope` — zonotope domain with the AI2-style
  case-split-then-join ReLU transformer.
- :mod:`repro.abstract.powerset` — bounded powerset of either base domain,
  which keeps ReLU case splits as disjuncts up to a budget.
- :mod:`repro.abstract.domains` — :class:`DomainSpec`, the ``(base, k)``
  pairs the domain policy selects from.
- :mod:`repro.abstract.analyzer` — pushes regions through a network's op
  sequence on the batched kernels and returns their classification
  margins (the paper's ``Analyze``).
- :mod:`repro.abstract.symbolic_interval` — symbolic intervals in the style
  of ReluVal (the ReluVal baseline's domain; the scheduler reaches it
  through ``--domain symbolic`` and ``SolverAwareLinearPolicy``).
- :mod:`repro.abstract.batched` — the :class:`BatchedElement` protocol the
  batched kernels implement (``IntervalBatch``, ``DeepPolyBatch``,
  ``ZonotopeBatch``, ``PowersetBatch``).
- :mod:`repro.abstract.zonotope_batch` — stacked zonotope/powerset kernels
  with the round-based batched ReLU case-split loop (bitwise identical to
  the sequential elements, row by row).
"""

from repro.abstract.batched import BatchedElement
from repro.abstract.element import AbstractElement
from repro.abstract.interval import IntervalBatch, IntervalElement
from repro.abstract.zonotope import Zonotope
from repro.abstract.zonotope_batch import PowersetBatch, ZonotopeBatch
from repro.abstract.powerset import PowersetElement
from repro.abstract.domains import (
    DEEPPOLY,
    DomainSpec,
    INTERVAL,
    SYMBOLIC,
    ZONOTOPE,
)
from repro.abstract.analyzer import AnalysisResult, analyze, propagate
from repro.abstract.deeppoly import DeepPolyBatch, DeepPolyState
from repro.abstract.symbolic_interval import SymbolicInterval

__all__ = [
    "AbstractElement",
    "BatchedElement",
    "IntervalElement",
    "IntervalBatch",
    "Zonotope",
    "ZonotopeBatch",
    "PowersetElement",
    "PowersetBatch",
    "DomainSpec",
    "INTERVAL",
    "ZONOTOPE",
    "SYMBOLIC",
    "DEEPPOLY",
    "AnalysisResult",
    "analyze",
    "propagate",
    "DeepPolyState",
    "DeepPolyBatch",
    "SymbolicInterval",
]
