"""Axis-aligned boxes over ``R^n``: the input-region geometry of the paper.

A robustness property ``(I, K)`` uses a box ``I`` as its input region (the
paper's brightening attacks and our L∞ balls are both boxes).  Boxes are the
unit of recursion in Algorithm 1: the partition policy cuts a box with an
axis-aligned hyperplane ``x_d = c`` and the verifier recurses on the halves.

Boxes are immutable value objects backed by float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """An axis-aligned box ``{x : low <= x <= high}``.

    Attributes:
        low: lower corner, shape ``(n,)``.
        high: upper corner, shape ``(n,)``; must satisfy ``low <= high``.
    """

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64).reshape(-1)
        high = np.asarray(self.high, dtype=np.float64).reshape(-1)
        if low.shape != high.shape:
            raise ValueError(
                f"low/high shape mismatch: {low.shape} vs {high.shape}"
            )
        if low.size == 0:
            raise ValueError("boxes must have at least one dimension")
        if not np.all(low <= high):
            bad = int(np.argmax(low > high))
            raise ValueError(
                f"low > high at dimension {bad}: {low[bad]} > {high[bad]}"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_center_radius(center: np.ndarray, radius: float | np.ndarray) -> "Box":
        """Box ``[center - radius, center + radius]`` (per-dimension radius ok)."""
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), center.shape)
        if np.any(radius < 0):
            raise ValueError("radius must be non-negative")
        return Box(center - radius, center + radius)

    @staticmethod
    def linf_ball(
        center: np.ndarray,
        epsilon: float,
        clip_low: float | None = None,
        clip_high: float | None = None,
    ) -> "Box":
        """L∞ ball of radius ``epsilon``, optionally clipped to ``[clip_low, clip_high]``.

        Image inputs are typically clipped to ``[0, 1]``.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        low = center - epsilon
        high = center + epsilon
        if clip_low is not None:
            low = np.maximum(low, clip_low)
            high = np.maximum(high, clip_low)
        if clip_high is not None:
            low = np.minimum(low, clip_high)
            high = np.minimum(high, clip_high)
        return Box(low, high)

    @staticmethod
    def unit(n: int) -> "Box":
        """The unit hypercube ``[0, 1]^n``."""
        return Box(np.zeros(n), np.ones(n))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.low.size

    @property
    def center(self) -> np.ndarray:
        return (self.low + self.high) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return self.high - self.low

    @property
    def radius(self) -> np.ndarray:
        return self.widths / 2.0

    def diameter(self) -> float:
        """Euclidean diameter, ``D(X)`` from Definition 5.1 of the paper."""
        return float(np.linalg.norm(self.widths))

    def longest_dim(self) -> int:
        """Index of the widest dimension (first of ties)."""
        return int(np.argmax(self.widths))

    def mean_width(self) -> float:
        """Average side length — one of the paper's policy features."""
        return float(np.mean(self.widths))

    def is_degenerate(self, tol: float = 0.0) -> bool:
        """True if every dimension has width ``<= tol``."""
        return bool(np.all(self.widths <= tol))

    def volume(self) -> float:
        """Lebesgue volume (0 for degenerate boxes; may overflow to inf)."""
        with np.errstate(over="ignore"):
            return float(np.prod(self.widths))

    # ------------------------------------------------------------------
    # Membership / projection / sampling
    # ------------------------------------------------------------------

    def contains(self, x: np.ndarray, atol: float = 1e-9) -> bool:
        """Point membership with a small tolerance for float round-off."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != self.low.shape:
            raise ValueError(f"point has dimension {x.size}, box has {self.ndim}")
        return bool(np.all(x >= self.low - atol) and np.all(x <= self.high + atol))

    def contains_box(self, other: "Box", atol: float = 1e-9) -> bool:
        return bool(
            np.all(other.low >= self.low - atol)
            and np.all(other.high <= self.high + atol)
        )

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the box (used by PGD)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return np.clip(x, self.low, self.high)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform samples: shape ``(ndim,)`` if ``n is None`` else ``(n, ndim)``."""
        if n is None:
            return rng.uniform(self.low, self.high)
        if n < 0:
            raise ValueError("sample count must be non-negative")
        return rng.uniform(self.low, self.high, size=(n, self.ndim))

    def corners(self, max_corners: int = 1024) -> np.ndarray:
        """All ``2^ndim`` corners if that is at most ``max_corners``.

        Raises ``ValueError`` for higher-dimensional boxes, where materializing
        the corner set would be exponential.
        """
        if 2**self.ndim > max_corners:
            raise ValueError(
                f"box has 2^{self.ndim} corners, above the {max_corners} cap"
            )
        grids = np.meshgrid(*[(self.low[i], self.high[i]) for i in range(self.ndim)])
        return np.stack([g.ravel() for g in grids], axis=1)

    # ------------------------------------------------------------------
    # Splitting (the partition policy's primitive)
    # ------------------------------------------------------------------

    def split(self, dim: int, value: float) -> tuple["Box", "Box"]:
        """Split into ``(x_d <= value, x_d >= value)``.

        ``value`` must lie strictly inside the box along ``dim``; splitting at
        a face would violate the paper's Assumption 1 (both halves must be
        strictly smaller).
        """
        if not 0 <= dim < self.ndim:
            raise ValueError(f"split dimension {dim} out of range [0, {self.ndim})")
        if not self.low[dim] < value < self.high[dim]:
            raise ValueError(
                f"split value {value} not strictly inside "
                f"[{self.low[dim]}, {self.high[dim]}] on dim {dim}"
            )
        left_high = self.high.copy()
        left_high[dim] = value
        right_low = self.low.copy()
        right_low[dim] = value
        return Box(self.low, left_high), Box(right_low, self.high)

    def split_interior(
        self, dim: int, value: float, min_fraction: float = 0.01
    ) -> tuple["Box", "Box"]:
        """Split at ``value`` after nudging it away from the faces.

        This enforces Assumption 1 the way the paper's §6 describes: "if the
        splitting plane is at the boundary of I, it is offset slightly".  The
        split point is clamped so each half keeps at least ``min_fraction`` of
        the width along ``dim``.
        """
        if not 0 <= dim < self.ndim:
            raise ValueError(f"split dimension {dim} out of range [0, {self.ndim})")
        if not 0 < min_fraction < 0.5:
            raise ValueError("min_fraction must lie in (0, 0.5)")
        lo, hi = self.low[dim], self.high[dim]
        if hi <= lo:
            raise ValueError(f"cannot split degenerate dimension {dim}")
        margin = (hi - lo) * min_fraction
        value = float(np.clip(value, lo + margin, hi - margin))
        if not lo < value < hi:
            # The width is below float resolution: no strictly-interior
            # split point exists.
            raise ValueError(
                f"dimension {dim} is too narrow to split: [{lo}, {hi}]"
            )
        return self.split(dim, value)

    def bisect(self, dim: int | None = None) -> tuple["Box", "Box"]:
        """Split at the midpoint of ``dim`` (default: the longest dimension)."""
        if dim is None:
            dim = self.longest_dim()
        mid = float((self.low[dim] + self.high[dim]) / 2.0)
        return self.split(dim, mid)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def hull(self, other: "Box") -> "Box":
        """Smallest box containing both operands (the interval join)."""
        return Box(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(
            np.array_equal(self.low, other.low)
            and np.array_equal(self.high, other.high)
        )

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:
        if self.ndim <= 4:
            pairs = ", ".join(
                f"[{lo:.4g}, {hi:.4g}]" for lo, hi in zip(self.low, self.high)
            )
            return f"Box({pairs})"
        return f"Box(ndim={self.ndim}, diameter={self.diameter():.4g})"
