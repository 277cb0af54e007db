"""The abstract-element interface every domain implements.

An element over-approximates a set of activation vectors at one point in the
network.  Transformers mirror the lowered op sequence (affine / relu /
maxpool); splitting hooks support the bounded powerset domain's ReLU case
splits; and :meth:`lower_margin` exposes the (possibly relational) bound the
analyzer uses for the robustness check.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class AbstractElement(ABC):
    """A sound over-approximation of a set of vectors in ``R^size``."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def size(self) -> int:
        """Dimension of the concretization."""

    @abstractmethod
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Component-wise concrete bounds ``(low, high)``."""

    def dim_bounds(self, dim: int) -> tuple[float, float]:
        """Concrete bounds of a single dimension."""
        low, high = self.bounds()
        return float(low[dim]), float(high[dim])

    def contains(self, x: np.ndarray, atol: float = 1e-7) -> bool:
        """Sound (necessary-condition) membership via the bounding box.

        Domains with relational constraints may report ``True`` for points
        outside the exact concretization; tests use this only in the sound
        direction (a concrete execution must never be reported outside).
        """
        low, high = self.bounds()
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return bool(np.all(x >= low - atol) and np.all(x <= high + atol))

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    @abstractmethod
    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "AbstractElement":
        """Image under ``x -> W x + b``."""

    @abstractmethod
    def relu(self, skip_dims: frozenset[int] = frozenset()) -> "AbstractElement":
        """Image under element-wise ``max(x, 0)``.

        ``skip_dims`` lists dimensions already handled by an earlier
        :meth:`relu_split` on this element: a split branch over-approximates
        the ReLU image on its split dimension, so re-processing it would
        only lose precision.  Domains whose per-dimension ReLU is exact
        (intervals) may ignore the hint.
        """

    @abstractmethod
    def maxpool(self, windows: np.ndarray) -> "AbstractElement":
        """Image under per-window max (``windows``: ``(out, k)`` index sets)."""

    def pad(self, radii: np.ndarray) -> "AbstractElement":
        """Image under ``y_j = x_j + e_j`` with each ``e_j ∈ [-radii_j,
        +radii_j]`` chosen *independently* per dimension.

        This is the transformer of :class:`repro.nn.network.PadOp`, the op
        the network-abstraction layer (:mod:`repro.abstract.netabs`) uses
        to carry merged-neuron error.  Domains not reachable from a padded
        network may keep the default.
        """
        raise TypeError(
            f"{type(self).__name__} does not implement the pad transformer"
        )

    # ------------------------------------------------------------------
    # Case-split hooks (powerset support)
    # ------------------------------------------------------------------

    @abstractmethod
    def crossing_dims(self) -> np.ndarray:
        """Dims whose bounds strictly straddle 0, widest crossing first."""

    @abstractmethod
    def relu_split(self, dim: int) -> tuple["AbstractElement", "AbstractElement"]:
        """The two ReLU branches on ``dim``.

        Returns ``(pos, neg)`` where ``pos`` over-approximates
        ``{relu_dim(x) : x in γ(self), x_dim >= 0}`` (identity on ``dim``)
        and ``neg`` over-approximates the ``x_dim <= 0`` branch (``dim``
        projected to exactly 0).  Their union covers the ReLU image on
        ``dim``; other dimensions are untouched.
        """

    @abstractmethod
    def relu_dim(self, dim: int) -> "AbstractElement":
        """ReLU applied to a single dimension (split-then-join for
        relational domains; exact clamping for intervals)."""

    @abstractmethod
    def join(self, other: "AbstractElement") -> "AbstractElement":
        """A sound upper bound of both elements."""

    # ------------------------------------------------------------------
    # Property checking
    # ------------------------------------------------------------------

    @abstractmethod
    def lower_margin(self, label: int, other: int) -> float:
        """A sound lower bound on ``y_label - y_other`` over γ(self)."""

    def min_margin(self, label: int) -> float:
        """``min_{j != label}`` of :meth:`lower_margin` — the analyzer's
        verification condition is ``min_margin(K) > 0``."""
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        margins = [
            self.lower_margin(label, j) for j in range(self.size) if j != label
        ]
        if not margins:
            raise ValueError("margin undefined for single-output networks")
        return min(margins)
