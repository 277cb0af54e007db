"""The adversarial objective ``F(x) = N(x)_K - max_{j≠K} N(x)_j`` (Eq. 2).

``F(x) <= 0`` at a point in the input region means some other class scores
at least as high as the target class — a true adversarial counterexample.
``F(x) <= δ`` is the paper's δ-counterexample condition (Definition 5.3).
"""

from __future__ import annotations

import numpy as np

from repro.nn.network import Network


class MultiLabelMarginObjective:
    """Batched margin objective with a *per-region* target label.

    The multi-property scheduler (:mod:`repro.sched`) fuses sub-regions of
    different properties of the same network into one PGD batch; those
    properties generally disagree on the target class ``K``, so the margin
    is evaluated with one label per region instead of one label per
    objective.  :class:`MarginObjective` is this class with one label, so
    row ``i`` of every batch computes exactly what
    ``MarginObjective(network, labels[i])`` computes on the same batch,
    which is what keeps cross-property sweeps faithful to per-property
    runs (up to the BLAS round-off that comes with a different batch
    height, exactly as for the PR 1 batched kernels).

    The batched PGD kernel evaluates either one row per region (restart
    folding) or ``restarts`` contiguous rows per region (lockstep steps), so
    batches always arrive as whole region blocks in region-major order; the
    label vector is repeated to match.
    """

    def __init__(self, network: Network, labels) -> None:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.size == 0:
            raise ValueError("need at least one label")
        if network.output_size < 2:
            raise ValueError("margin objective needs at least two classes")
        if np.any(labels < 0) or np.any(labels >= network.output_size):
            bad = labels[(labels < 0) | (labels >= network.output_size)][0]
            raise ValueError(
                f"label {bad} out of range for {network.output_size} outputs"
            )
        self.network = network
        self.labels = labels

    def _row_labels(self, rows: int) -> np.ndarray:
        if rows % self.labels.size != 0:
            raise ValueError(
                f"batch of {rows} rows is not whole region blocks of "
                f"{self.labels.size} labels"
            )
        return np.repeat(self.labels, rows // self.labels.size)

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        """``F`` at every row of ``x`` under that row's region label."""
        x = np.atleast_2d(x)
        labels = self._row_labels(x.shape[0])
        scores = self.network.forward(x)
        rows = np.arange(scores.shape[0])
        masked = scores.copy()
        masked[rows, labels] = -np.inf
        return scores[rows, labels] - masked.max(axis=1)

    def value_and_gradient_batch(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(F, ∇F)`` per row, each under its region's label."""
        x = np.atleast_2d(x)
        labels = self._row_labels(x.shape[0])
        scores, caches = self.network.forward_cached(x)
        rows = np.arange(scores.shape[0])
        masked = scores.copy()
        masked[rows, labels] = -np.inf
        runners = np.argmax(masked, axis=1)
        values = scores[rows, labels] - scores[rows, runners]
        seeds = np.zeros_like(scores)
        seeds[rows, labels] = 1.0
        seeds[rows, runners] = -1.0  # runner-up is never the label
        grads = self.network.backward_input(caches, seeds)
        return values, grads.reshape(x.shape[0], -1)


class MarginObjective(MultiLabelMarginObjective):
    """Callable margin objective with (sub)gradients.

    ``F`` is piecewise differentiable; at points where several non-target
    classes tie for the max we take the subgradient of the first maximizer,
    which is the standard choice for PGD on margin losses.

    The batched methods are :class:`MultiLabelMarginObjective`'s with the
    one label.  The label is checked as a scalar, so a construction (one
    per ``featurize`` call) does no array work.
    """

    def __init__(self, network: Network, label: int) -> None:
        if not 0 <= label < network.output_size:
            raise ValueError(
                f"label {label} out of range for {network.output_size} outputs"
            )
        if network.output_size < 2:
            raise ValueError("margin objective needs at least two classes")
        self.network = network
        self.label = label

    @property
    def labels(self) -> np.ndarray:
        return np.array([self.label], dtype=np.int64)

    def value(self, x: np.ndarray) -> float:
        scores = self.network.logits(x)
        others = np.delete(scores, self.label)
        return float(scores[self.label] - others.max())

    def __call__(self, x: np.ndarray) -> float:
        return self.value(x)

    def _runner_up(self, scores: np.ndarray) -> int:
        """Index of the best-scoring class other than the target."""
        masked = scores.copy()
        masked[self.label] = -np.inf
        return int(np.argmax(masked))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(F(x), ∇F(x))`` in one forward+backward pass."""
        scores = self.network.logits(x)
        j = self._runner_up(scores)
        seed = np.zeros(self.network.output_size)
        seed[self.label] = 1.0
        seed[j] = -1.0
        grad = self.network.input_gradient(x, seed)
        return float(scores[self.label] - scores[j]), grad

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def target_gradient(self, x: np.ndarray) -> np.ndarray:
        """``∇ N(x)_K`` — used by the partition policy's influence feature."""
        seed = np.zeros(self.network.output_size)
        seed[self.label] = 1.0
        return self.network.input_gradient(x, seed)
