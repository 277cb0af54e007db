"""The interval (box) abstract domain.

The cheapest domain the paper's policy can select (``(I, k)`` in §4.1).
Every transformer here is the standard optimal interval transformer; ReLU
is exact per dimension (clamping), so :meth:`relu` needs no case splits —
splits still help the powerset variant because later *affine* layers lose
less precision on tighter boxes.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.batched import BatchedElement
from repro.abstract.element import AbstractElement
from repro.backend import active as _active_backend
from repro.backend import outward_cast as _outward_cast
from repro.backend import slack_for as _slack_for
from repro.utils.boxes import Box


def _coerce_bound(a: np.ndarray) -> np.ndarray:
    """Sanitize a bound array while *preserving* a float dtype.

    Constructors are called both at the lift boundary (where the active
    backend chose the dtype) and by every transformer (where the dtype
    must ride along unchanged) — so non-float input is coerced to the
    float64 reference, but float32/float64 arrays pass through as-is.
    """
    arr = np.asarray(a)
    if arr.dtype.char not in "efd":
        arr = arr.astype(np.float64)
    return arr


class IntervalElement(AbstractElement):
    """Component-wise bounds ``[low, high]``."""

    def __init__(self, low: np.ndarray, high: np.ndarray) -> None:
        low = _coerce_bound(low).reshape(-1)
        high = _coerce_bound(high).reshape(-1)
        if high.dtype != low.dtype:
            high = high.astype(low.dtype)
        if low.shape != high.shape:
            raise ValueError(f"shape mismatch: {low.shape} vs {high.shape}")
        if np.any(low > high + 1e-12):
            raise ValueError("empty interval element (low > high)")
        self.low = low
        self.high = np.maximum(high, low)

    @staticmethod
    def from_box(box: Box) -> "IntervalElement":
        low, high = _outward_cast(box.low, box.high, _active_backend().dtype)
        return IntervalElement(low, high)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.low.size

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.low.copy(), self.high.copy()

    def __repr__(self) -> str:
        return f"IntervalElement(size={self.size})"

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "IntervalElement":
        pos = np.maximum(weight, 0.0)
        neg = np.minimum(weight, 0.0)
        low = pos @ self.low + neg @ self.high + bias
        high = pos @ self.high + neg @ self.low + bias
        scale = _slack_for(low.dtype, weight.shape[1])
        if scale:
            mag = np.maximum(np.abs(self.low), np.abs(self.high))
            slack = scale * (np.abs(weight) @ mag + np.abs(bias))
            low = low - slack
            high = high + slack
        return IntervalElement(low, high)

    def relu(self, skip_dims: frozenset[int] = frozenset()) -> "IntervalElement":
        # Clamping is the exact per-dimension ReLU image, so it is sound and
        # optimal even on dims an earlier split already handled; the
        # skip_dims hint can be ignored.
        return IntervalElement(np.maximum(self.low, 0.0), np.maximum(self.high, 0.0))

    def maxpool(self, windows: np.ndarray) -> "IntervalElement":
        low = self.low[windows].max(axis=1)
        high = self.high[windows].max(axis=1)
        return IntervalElement(low, high)

    def pad(self, radii: np.ndarray) -> "IntervalElement":
        low = self.low - radii
        high = self.high + radii
        scale = _slack_for(low.dtype, 2)
        if scale:
            # Outward rounding (float32 path): the subtraction/addition
            # round-off is bounded by the result magnitude.
            low = low - scale * np.abs(low)
            high = high + scale * np.abs(high)
        return IntervalElement(low, high)

    # ------------------------------------------------------------------
    # Case splits
    # ------------------------------------------------------------------

    def crossing_dims(self) -> np.ndarray:
        crossing = np.flatnonzero((self.low < 0.0) & (self.high > 0.0))
        widths = self.high[crossing] - self.low[crossing]
        return crossing[np.argsort(-widths, kind="stable")]

    def relu_split(self, dim: int) -> tuple["IntervalElement", "IntervalElement"]:
        lo, hi = self.low[dim], self.high[dim]
        if not lo < 0.0 < hi:
            raise ValueError(f"dimension {dim} does not cross zero: [{lo}, {hi}]")
        pos_low = self.low.copy()
        pos_low[dim] = 0.0
        pos = IntervalElement(pos_low, self.high.copy())
        neg_low = self.low.copy()
        neg_high = self.high.copy()
        neg_low[dim] = 0.0
        neg_high[dim] = 0.0
        neg = IntervalElement(neg_low, neg_high)
        return pos, neg

    def relu_dim(self, dim: int) -> "IntervalElement":
        low = self.low.copy()
        high = self.high.copy()
        low[dim] = max(low[dim], 0.0)
        high[dim] = max(high[dim], 0.0)
        return IntervalElement(low, high)

    def join(self, other: "AbstractElement") -> "IntervalElement":
        if not isinstance(other, IntervalElement):
            raise TypeError("cannot join interval with non-interval element")
        return IntervalElement(
            np.minimum(self.low, other.low), np.maximum(self.high, other.high)
        )

    # ------------------------------------------------------------------
    # Margins
    # ------------------------------------------------------------------

    def lower_margin(self, label: int, other: int) -> float:
        return float(self.low[label] - self.high[other])


class IntervalBatch(BatchedElement):
    """Interval bounds for ``B`` regions at once: arrays of shape ``(B, n)``.

    Each transformer is the standard optimal interval transformer applied
    row-wise, but phrased so every affine layer is one ``(B, n) @ W.T`` GEMM
    instead of ``B`` GEMVs — the §6 parallelization opportunity realized as
    batching.  Row ``i`` always equals (within BLAS kernel round-off) the
    bounds :class:`IntervalElement` computes for region ``i`` alone.
    """

    def __init__(self, low: np.ndarray, high: np.ndarray) -> None:
        low = _coerce_bound(low)
        high = _coerce_bound(high)
        if high.dtype != low.dtype:
            high = high.astype(low.dtype)
        if low.ndim != 2 or low.shape != high.shape:
            raise ValueError(
                f"batch bounds must be matching (B, n) arrays, got "
                f"{low.shape} vs {high.shape}"
            )
        self.low = low
        self.high = np.maximum(high, low)

    @staticmethod
    def from_boxes(boxes: list[Box]) -> "IntervalBatch":
        if not boxes:
            raise ValueError("need at least one box")
        low, high = _outward_cast(
            np.stack([b.low for b in boxes]),
            np.stack([b.high for b in boxes]),
            _active_backend().dtype,
        )
        return IntervalBatch(low, high)

    @property
    def batch_size(self) -> int:
        return self.low.shape[0]

    @property
    def size(self) -> int:
        return self.low.shape[1]

    def rows(self, indices) -> "IntervalBatch":
        """The sub-batch holding the given rows (used for per-label
        margin checks over mixed-label batches)."""
        indices = np.asarray(indices, dtype=np.int64)
        return IntervalBatch(self.low[indices], self.high[indices])

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "IntervalBatch":
        pos = np.maximum(weight, 0.0)
        neg = np.minimum(weight, 0.0)
        low = self.low @ pos.T + self.high @ neg.T + bias
        high = self.high @ pos.T + self.low @ neg.T + bias
        scale = _slack_for(low.dtype, weight.shape[1])
        if scale:
            mag = np.maximum(np.abs(self.low), np.abs(self.high))
            slack = scale * (mag @ np.abs(weight).T + np.abs(bias))
            low = low - slack
            high = high + slack
        return IntervalBatch(low, high)

    def relu(self) -> "IntervalBatch":
        return IntervalBatch(
            np.maximum(self.low, 0.0), np.maximum(self.high, 0.0)
        )

    def maxpool(self, windows: np.ndarray) -> "IntervalBatch":
        return IntervalBatch(
            self.low[:, windows].max(axis=2), self.high[:, windows].max(axis=2)
        )

    def pad(self, radii: np.ndarray) -> "IntervalBatch":
        low = self.low - radii
        high = self.high + radii
        scale = _slack_for(low.dtype, 2)
        if scale:
            low = low - scale * np.abs(low)
            high = high + scale * np.abs(high)
        return IntervalBatch(low, high)

    def min_margin(self, label: int) -> np.ndarray:
        """Per-region sound lower bound on ``min_{j≠K} (y_K - y_j)``."""
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        masked = self.high.copy()
        masked[:, label] = -np.inf
        return self.low[:, label] - masked.max(axis=1)
