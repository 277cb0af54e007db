"""Symbolic interval analysis in the style of ReluVal/Neurify.

Activations are bounded by *affine functions of the network input* rather
than constants: ``Al·x + bl <= h(x) <= Au·x + bu`` for all ``x`` in the
input box.  Affine layers transform the bounds exactly; crossing ReLUs
relax them with the standard chord (upper) and scaled-line (lower)
relaxations.  Because lower and upper equations share the input variables,
the output margin check stays relational — the property that lets ReluVal
beat plain interval propagation.

Used by the ReluVal baseline (:mod:`repro.baselines.reluval`), and by the
scheduler through ``--domain symbolic`` and ``SolverAwareLinearPolicy``.
It has no float32 outward rounding, so Analyze runs it on the float64
lowering under every backend.  Max pooling is unsupported, matching the
original tool (the paper excludes the conv network from the
ReluVal/Reluplex comparison for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.boxes import Box


def _affine_bounds_over_box(
    a: np.ndarray, b: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Concrete range of ``A x + b`` for ``x`` in ``box``."""
    pos = np.maximum(a, 0.0)
    neg = np.minimum(a, 0.0)
    low = pos @ box.low + neg @ box.high + b
    high = pos @ box.high + neg @ box.low + b
    return low, high


@dataclass
class SymbolicInterval:
    """Affine lower/upper bounds of a layer's activations over ``box``.

    Attributes:
        al, bl: the lower equations ``Al x + bl``.
        au, bu: the upper equations ``Au x + bu``.
        box: the input region both bounds quantify over.
    """

    al: np.ndarray
    bl: np.ndarray
    au: np.ndarray
    bu: np.ndarray
    box: Box

    @staticmethod
    def identity(box: Box) -> "SymbolicInterval":
        n = box.ndim
        eye = np.eye(n)
        zero = np.zeros(n)
        return SymbolicInterval(eye.copy(), zero.copy(), eye.copy(), zero.copy(), box)

    @property
    def size(self) -> int:
        return self.bl.size

    # ------------------------------------------------------------------
    # Concretization
    # ------------------------------------------------------------------

    def concrete_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit concrete bounds implied by the equations."""
        low, _ = _affine_bounds_over_box(self.al, self.bl, self.box)
        _, high = _affine_bounds_over_box(self.au, self.bu, self.box)
        return low, high

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "SymbolicInterval":
        pos = np.maximum(weight, 0.0)
        neg = np.minimum(weight, 0.0)
        al = pos @ self.al + neg @ self.au
        bl = pos @ self.bl + neg @ self.bu + bias
        au = pos @ self.au + neg @ self.al
        bu = pos @ self.bu + neg @ self.bl + bias
        return SymbolicInterval(al, bl, au, bu, self.box)

    def relu(self) -> "SymbolicInterval":
        lower_lo, lower_hi = _affine_bounds_over_box(self.al, self.bl, self.box)
        upper_lo, upper_hi = _affine_bounds_over_box(self.au, self.bu, self.box)
        al, bl = self.al.copy(), self.bl.copy()
        au, bu = self.au.copy(), self.bu.copy()
        for i in range(self.size):
            if lower_lo[i] >= 0.0:
                continue  # provably active: identity
            if upper_hi[i] <= 0.0:
                al[i], bl[i] = 0.0, 0.0  # provably inactive: zero
                au[i], bu[i] = 0.0, 0.0
                continue
            # Upper equation: chord over its own range when it crosses.
            if upper_lo[i] < 0.0:
                span = upper_hi[i] - upper_lo[i]
                lam = upper_hi[i] / span if span > 0 else 0.0
                au[i] *= lam
                bu[i] = lam * (bu[i] - upper_lo[i])
            # Lower equation: zero if it can only be negative, else scale.
            if lower_hi[i] <= 0.0:
                al[i], bl[i] = 0.0, 0.0
            else:
                span = lower_hi[i] - lower_lo[i]
                lam = lower_hi[i] / span if span > 0 else 0.0
                al[i] *= lam
                bl[i] *= lam
        return SymbolicInterval(al, bl, au, bu, self.box)

    def maxpool(self, windows: np.ndarray) -> "SymbolicInterval":
        raise TypeError(
            "symbolic intervals do not support max pooling "
            "(ReluVal excludes convolutional networks)"
        )

    def pad(self, radii: np.ndarray) -> "SymbolicInterval":
        """Shift the bound equations' constant terms outward: both bounds
        stay affine in the input, so relational margins survive the pad."""
        return SymbolicInterval(
            self.al, self.bl - radii, self.au, self.bu + radii, self.box
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Alias of :meth:`concrete_bounds` (analyzer-facing name)."""
        return self.concrete_bounds()

    # ------------------------------------------------------------------
    # Margin check
    # ------------------------------------------------------------------

    def lower_margin(self, label: int, other: int) -> float:
        """Relational lower bound on ``y_label - y_other`` over the box:
        the minimum of the affine form ``lower_label(x) - upper_other(x)``."""
        a = self.al[label] - self.au[other]
        b = self.bl[label] - self.bu[other]
        low, _ = _affine_bounds_over_box(a[None, :], np.array([b]), self.box)
        return float(low[0])

    def min_margin(self, label: int) -> float:
        return min(
            self.lower_margin(label, j) for j in range(self.size) if j != label
        )

