"""The zonotope abstract domain with AI2-style case-split ReLU.

A zonotope is an affine form ``x = c + Gᵀη + diag(e)ξ`` with shared noise
symbols ``η ∈ [-1, 1]^k`` and per-dimension independent error symbols
``ξ ∈ [-1, 1]^n``.  The matrix ``G`` carries the relational information
(correlations between activations); the error vector ``e`` accumulates the
non-relational slack introduced by joins and max pooling.

The ReLU transformer follows the paper (Figure 4 and AI2): each crossing
dimension is case-split into the ``x_i >= 0`` and ``x_i <= 0`` half-spaces
(via sound noise-symbol contraction), the negative branch is projected to
zero, and — in the *plain* zonotope domain — the two branches are joined.
The bounded powerset domain instead keeps them as disjuncts
(:mod:`repro.abstract.powerset`).  This is deliberately the lossier
split-join transformer rather than the tighter min-area relaxation: it is
what makes the paper's Example 2.3 fail with one zonotope and succeed with
two, which our tests reproduce.

The join keeps shared generator structure (in the style of Goubault &
Putot's perturbed affine sets): per noise symbol it retains the common
sign-consistent part of both generators and pushes the residual into the
error vector, so joined elements stay relational where the branches agree.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.element import AbstractElement
from repro.abstract.fused import _COEF_TOL, gen_sum, stacked_relu
from repro.backend import active as _active_backend
from repro.backend import outward_center_radius as _outward_center_radius
from repro.backend import slack_for as _slack_for
from repro.utils.boxes import Box


def _coerce_term(a: np.ndarray, dtype=None) -> np.ndarray:
    """Sanitize an affine-form component, preserving float dtypes.

    Non-float input coerces to the float64 reference; float32/float64
    arrays pass through so transformer output keeps the dtype the lift
    boundary chose (``dtype`` forces agreement across the three parts).
    """
    arr = np.asarray(a)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype.char not in "efd":
        arr = arr.astype(np.float64)
    return arr


class Zonotope(AbstractElement):
    """Affine form ``c + Gᵀη + diag(err)ξ`` over ``η, ξ ∈ [-1, 1]``.

    Attributes:
        center: shape ``(n,)``.
        gens: shape ``(k, n)`` — row ``j`` is the effect of noise symbol j.
        err: shape ``(n,)``, non-negative independent error radii.
    """

    def __init__(self, center: np.ndarray, gens: np.ndarray, err: np.ndarray) -> None:
        center = _coerce_term(center).reshape(-1)
        gens = _coerce_term(gens, dtype=center.dtype)
        err = _coerce_term(err, dtype=center.dtype).reshape(-1)
        if gens.ndim != 2 or gens.shape[1] != center.size:
            raise ValueError(
                f"generator matrix shape {gens.shape} incompatible with "
                f"center of size {center.size}"
            )
        if err.size != center.size:
            raise ValueError(
                f"error vector size {err.size} != dimension {center.size}"
            )
        if np.any(err < 0):
            raise ValueError("error radii must be non-negative")
        self.center = center
        self.gens = gens
        self.err = err
        self._radius: np.ndarray | None = None

    @classmethod
    def _make(
        cls, center: np.ndarray, gens: np.ndarray, err: np.ndarray
    ) -> "Zonotope":
        """Internal constructor for already-validated float64 arrays.

        The transformers construct zonotopes in tight loops (one per ReLU
        case split); skipping re-validation of arrays we just computed is a
        measurable win on the powerset hot path.
        """
        obj = object.__new__(cls)
        obj.center = center
        obj.gens = gens
        obj.err = err
        obj._radius = None
        return obj

    @staticmethod
    def from_box(box: Box) -> "Zonotope":
        # The box radii start as error terms; the first affine op materializes
        # them into proper generator rows (see :meth:`affine`).
        n = box.ndim
        dtype = _active_backend().dtype
        center, radius = _outward_center_radius(box.center, box.radius, dtype)
        return Zonotope(center, np.zeros((0, n), dtype=dtype), radius)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.center.size

    @property
    def num_gens(self) -> int:
        return self.gens.shape[0]

    def radius(self) -> np.ndarray:
        # Cached: zonotopes are immutable by convention and the verifier's
        # case-split loops re-query bounds of the same element many times.
        if self._radius is None:
            self._radius = np.abs(self.gens).sum(axis=0) + self.err
        return self._radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        rad = self.radius()
        return self.center - rad, self.center + rad

    def dim_bounds(self, dim: int) -> tuple[float, float]:
        # O(num_gens) instead of materializing all-dimension bounds.
        if self._radius is not None:
            rad = self._radius[dim]
        else:
            rad = np.abs(self.gens[:, dim]).sum() + self.err[dim]
        c = self.center[dim]
        return float(c - rad), float(c + rad)

    def __repr__(self) -> str:
        return f"Zonotope(size={self.size}, gens={self.num_gens})"

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "Zonotope":
        """Exact affine image.

        Error symbols are *promoted to generator rows* here
        (``diag(err) @ Wᵀ``) rather than propagated as the interval
        ``|W| @ err``: an affine map correlates the outputs, and keeping
        that correlation is what lets the relational margin bound
        (:meth:`lower_margin`) stay sharp — without it, per-dimension error
        mass gets double-counted across the two outputs of the margin.
        The promotion always happens (even for all-zero error vectors) so
        that sibling disjuncts in a powerset keep identical generator
        shapes and remain joinable.

        The center product goes through ``einsum`` rather than ``@``:
        BLAS routes matrix-vector products through a GEMV kernel whose
        reduction order differs from the GEMM kernel's rows, while
        einsum's dot loop is identical at every batch height.  Using it
        here (and in the batched kernels) is what makes
        :class:`~repro.abstract.zonotope_batch.ZonotopeBatch` rows bitwise
        equal to this sequential transformer.
        """
        center = np.einsum("ij,j->i", weight, self.center) + bias
        promoted = self.err[:, None] * weight.T  # row i = err_i * W[:, i]
        gens = np.vstack([self.gens @ weight.T, promoted])
        scale = _slack_for(center.dtype, weight.shape[1])
        if not scale:
            return Zonotope._make(center, gens, np.zeros(center.size, dtype=center.dtype))
        # Outward rounding (float32 path): the GEMM/einsum round-off is
        # bounded by the accumulated magnitude; absorb it into the error
        # vector so the fast-path zonotope always contains the reference.
        mag = np.abs(self.center) + self.radius()
        err = scale * (np.abs(weight) @ mag + np.abs(bias))
        return Zonotope._make(center, gens, err.astype(center.dtype, copy=False))

    def relu(self, skip_dims: frozenset[int] = frozenset()) -> "Zonotope":
        """Case-split ReLU via the fused contraction kernel.

        This is the ``R == 1`` instantiation of
        :func:`repro.abstract.fused.stacked_relu` — the fused kernel's
        products and reductions are batch-height-stable, so delegating
        keeps this transformer bitwise equal to batched rows (and buys
        the sequential path the same scratch-arena reuse and generator
        compaction as the batch).
        """
        center, gens, err = stacked_relu(
            self.center[None, :], self.gens[None], self.err[None], [skip_dims]
        )
        return Zonotope._make(center[0], gens[0], err[0])

    def _project_dim(self, dim: int) -> "Zonotope":
        """Set one dimension to exactly 0 (the dead ReLU branch)."""
        center = self.center.copy()
        gens = self.gens.copy()
        err = self.err.copy()
        center[dim] = 0.0
        gens[:, dim] = 0.0
        err[dim] = 0.0
        return Zonotope._make(center, gens, err)

    def maxpool(self, windows: np.ndarray) -> "Zonotope":
        low, high = self.bounds()
        out = windows.shape[0]
        rows = np.arange(out)
        lows = low[windows]  # (out, k)
        highs = high[windows]
        winners = lows.argmax(axis=1)
        winner_src = windows[rows, winners]
        # A window is exact when its best-lower unit dominates every rival's
        # upper bound: the max is that unit and relational info survives.
        rivals = highs.copy()
        rivals[rows, winners] = -np.inf
        dominant = lows[rows, winners] >= rivals.max(axis=1)
        # Interval-hull fallback for contested windows.
        hull_lo = lows.max(axis=1)
        hull_hi = highs.max(axis=1)
        center = np.where(
            dominant, self.center[winner_src], (hull_lo + hull_hi) / 2.0
        )
        gens = np.where(dominant[None, :], self.gens[:, winner_src], 0.0)
        err = np.where(dominant, self.err[winner_src], (hull_hi - hull_lo) / 2.0)
        scale = _slack_for(center.dtype, 8)
        if scale:
            err = err + scale * (np.abs(center) + err)
        return Zonotope._make(center, gens, err)

    def pad(self, radii: np.ndarray) -> "Zonotope":
        """Exact pad transformer: the error vector *is* the zonotope's
        independent-per-dimension noise slot, and :meth:`lower_margin`
        counts ``e_label`` and ``e_other`` separately — matching the pad
        op's independent-adversary semantics with no precision loss."""
        err = self.err + radii
        scale = _slack_for(err.dtype, 2)
        if scale:
            # Outward rounding (float32 path): cover the addition round-off.
            err = err + scale * err
        return Zonotope._make(self.center, self.gens, err)

    # ------------------------------------------------------------------
    # Case splits
    # ------------------------------------------------------------------

    def crossing_dims(self) -> np.ndarray:
        low, high = self.bounds()
        crossing = np.flatnonzero((low < 0.0) & (high > 0.0))
        widths = high[crossing] - low[crossing]
        return crossing[np.argsort(-widths, kind="stable")]

    def relu_split(self, dim: int) -> tuple["Zonotope", "Zonotope"]:
        lo, hi = self.dim_bounds(dim)
        if not lo < 0.0 < hi:
            raise ValueError(f"dimension {dim} does not cross zero: [{lo}, {hi}]")
        coeffs = self.gens[:, dim]
        abs_coeffs = np.abs(coeffs)
        # gen_sum, not a pairwise 1-D sum: the contraction totals must be
        # invariant to zero generator rows so compaction stays exact, and
        # must match the batched split kernel at every height.
        total = gen_sum(abs_coeffs[None, :])[0] + self.err[dim]
        touched = abs_coeffs > _COEF_TOL
        rest = total - abs_coeffs
        c = self.center[dim]
        with np.errstate(divide="ignore", invalid="ignore"):
            pos_bound = (-c - rest) / coeffs
            neg_bound = (-c + rest) / coeffs
        pos_lower = touched & (coeffs > 0)
        pos_upper = touched & ~pos_lower
        # Both branches' symbol-range cuts in one (2, k) pass: the positive
        # branch cuts {x_dim >= 0}, the negative branch swaps the cut sides
        # with the constraint orientation.  Sharing the center/generator
        # rescale (one GEMM for both centers) halves the dominant cost of
        # the powerset domains' case-split loop.
        dtype = self.gens.dtype
        lo_sym = np.full((2, self.num_gens), -1.0, dtype=dtype)
        hi_sym = np.ones((2, self.num_gens), dtype=dtype)
        lo_sym[0] = np.where(pos_lower, np.maximum(lo_sym[0], pos_bound), lo_sym[0])
        hi_sym[0] = np.where(pos_upper, np.minimum(hi_sym[0], pos_bound), hi_sym[0])
        lo_sym[1] = np.where(pos_upper, np.maximum(lo_sym[1], neg_bound), lo_sym[1])
        hi_sym[1] = np.where(pos_lower, np.minimum(hi_sym[1], neg_bound), hi_sym[1])
        lo_sym = np.minimum(lo_sym, hi_sym)  # guard against numeric inversion
        mid = (lo_sym + hi_sym) / 2.0
        half = (hi_sym - lo_sym) / 2.0
        # einsum, not BLAS: the (2, k) @ (k, n) GEMM's reduction order is
        # not zero-row-invariant, while einsum's accumulation loop over k
        # is sequential (and identical at every stacked height).
        centers = self.center + np.einsum("jk,kn->jn", mid, self.gens)
        err = self.err
        scale = _slack_for(dtype, self.num_gens + 4)
        if scale:
            # Outward rounding (float32 path): cover the contraction's
            # rescale/einsum round-off so both branches stay sound.
            err = err + scale * (np.abs(self.center) + self.radius())
        # Positive branch: on {x_dim >= 0} the ReLU is the identity, and the
        # contracted zonotope over-approximates that meet, so it directly
        # over-approximates the branch image (any residual negative tail left
        # by the one-round contraction is imprecision, not unsoundness).
        pos = Zonotope._make(
            centers[0], self.gens * half[0][:, None], err.copy()
        )
        # Negative branch: ReLU projects the dimension to exactly 0.
        neg = Zonotope._make(
            centers[1], self.gens * half[1][:, None], err.copy()
        )._project_dim(dim)
        return pos, neg

    def relu_dim(self, dim: int) -> "Zonotope":
        lo, hi = self.dim_bounds(dim)
        if hi <= 0.0:
            return self._project_dim(dim)
        if lo >= 0.0:
            return self
        pos, neg = self.relu_split(dim)
        return pos.join(neg)

    def join(self, other: "AbstractElement") -> "Zonotope":
        if not isinstance(other, Zonotope):
            raise TypeError("cannot join zonotope with non-zonotope element")
        if other.num_gens != self.num_gens or other.size != self.size:
            raise ValueError("zonotope join requires matching shapes")
        lo1, hi1 = self.bounds()
        lo2, hi2 = other.bounds()
        center = (np.minimum(lo1, lo2) + np.maximum(hi1, hi2)) / 2.0
        same_sign = (np.sign(self.gens) == np.sign(other.gens)) & (
            np.abs(self.gens) > _COEF_TOL
        )
        gens = np.where(
            same_sign,
            np.sign(self.gens)
            * np.minimum(np.abs(self.gens), np.abs(other.gens)),
            0.0,
        )
        pad1 = (
            np.abs(self.center - center)
            + np.abs(self.gens - gens).sum(axis=0)
            + self.err
        )
        pad2 = (
            np.abs(other.center - center)
            + np.abs(other.gens - gens).sum(axis=0)
            + other.err
        )
        err = np.maximum(pad1, pad2)
        scale = _slack_for(center.dtype, self.num_gens + 4)
        if scale:
            err += scale * (np.abs(center) + np.abs(gens).sum(axis=0) + err)
        return Zonotope._make(center, gens, err)

    # ------------------------------------------------------------------
    # Margins
    # ------------------------------------------------------------------

    def lower_margin(self, label: int, other: int) -> float:
        """Relational bound: ``(c_K - c_j) - Σ|g_K - g_j| - (e_K + e_j)``.

        This uses the shared noise symbols, which is exactly why zonotopes
        out-verify intervals on margins even when their per-output bounds
        coincide.
        """
        diff = self.center[label] - self.center[other]
        gen_mass = np.abs(self.gens[:, label] - self.gens[:, other]).sum()
        return float(diff - gen_mass - self.err[label] - self.err[other])
