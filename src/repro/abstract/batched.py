"""The batched-element interface every batched domain kernel implements.

A :class:`BatchedElement` over-approximates ``B`` independent sets of
activation vectors at one point in the network — one row per input region —
and advances all of them through each transformer with stacked array
kernels instead of a per-region Python loop.  This is the §6 "independent
sub-region analyses" opportunity realized as batching; the protocol was
extracted from ``IntervalBatch`` / ``DeepPolyBatch`` (PR 1) so the
zonotope and powerset kernels plug into the same dispatch
(:meth:`repro.abstract.domains.DomainSpec.lift_batch`) without the
analyzer special-casing any domain.

**Row contract.**  Row ``i`` of a batched element must mean exactly what
the corresponding sequential element means for region ``i`` alone.  The
tests hold it by comparing arrays: a batched element's row-``i`` bounds
(for the zonotope family its center, generators and error radii) against
the sequential element's, both built with
:func:`~repro.abstract.analyzer.propagate`.  How tight that "exactly" is
depends on the domain's arithmetic:

- The zonotope-family kernels (``ZonotopeBatch`` / ``PowersetBatch``) are
  *batch-height-stable by construction*: every reduction and product is
  phrased so a row's float sequence is independent of how many rows share
  the kernel call (fixed-shape per-slice GEMMs, per-row contiguous
  reductions, einsum mat-vecs).  Batch-vs-single results are bitwise
  identical, which is what lets the scheduler fuse zonotope sweeps across
  jobs without perturbing any job's outcome.
- The interval and DeepPoly kernels run GEMMs whose operand shapes include
  the batch height, so rows agree with the sequential elements up to BLAS
  kernel round-off (bounded at 1e-12 / 1e-9 by the equivalence tests).

``rows(indices)`` gives the sub-batch holding those rows (used for
per-label margin checks over mixed-label batches).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class BatchedElement(ABC):
    """Sound over-approximations of ``B`` regions, one row per region."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def batch_size(self) -> int:
        """Number of regions in the batch."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Dimension of each region's concretization."""

    @abstractmethod
    def rows(self, indices) -> "BatchedElement":
        """The sub-batch holding the given rows."""

    # ------------------------------------------------------------------
    # Transformers (mirror the lowered op sequence)
    # ------------------------------------------------------------------

    @abstractmethod
    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "BatchedElement":
        """Image of every row under ``x -> W x + b``."""

    @abstractmethod
    def relu(self) -> "BatchedElement":
        """Image of every row under element-wise ``max(x, 0)``."""

    @abstractmethod
    def maxpool(self, windows: np.ndarray) -> "BatchedElement":
        """Image of every row under per-window max."""

    def pad(self, radii: np.ndarray) -> "BatchedElement":
        """Image of every row under independent per-dimension error
        ``y_j = x_j + e_j, |e_j| <= radii_j`` (see
        :meth:`repro.abstract.element.AbstractElement.pad`)."""
        raise TypeError(
            f"{type(self).__name__} does not implement the pad transformer"
        )

    # ------------------------------------------------------------------
    # Property checking
    # ------------------------------------------------------------------

    @abstractmethod
    def min_margin(self, label: int) -> np.ndarray:
        """Per-region sound lower bound on ``min_{j≠K} (y_K - y_j)``,
        shape ``(B,)`` — the analyzer's verification condition is
        ``min_margin(K) > 0`` row-wise."""
