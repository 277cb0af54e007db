"""Gaussian-process regression with a Cholesky solver.

Implements exactly what Bayesian optimization needs: fit observations, then
query posterior means and variances at candidate points.  Targets are
standardized internally so kernel variance 1 is a sensible default.

The Cholesky factor can grow *incrementally*: :meth:`GaussianProcess.extend`
appends observations by solving one triangular system and factoring the
new rows' Schur complement — O(n²m) against the O(n³) full refit — while
target standardization (which shifts with every new y) is refreshed by an
O(n²) solve against the cached factor.  This is what makes per-iteration
model updates and constant-liar batch suggestions cheap inside the
Bayesian-optimization loop.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from repro.bayesopt.kernels import Kernel, RBF

_JITTER = 1e-10


class GaussianProcess:
    """GP regression ``f ~ GP(0, k)`` with homoscedastic noise."""

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-6) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel or RBF()
        self.noise = float(noise)
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def is_fit(self) -> bool:
        return self._x is not None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``(x, y)``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.shape[0] != y.size:
            raise ValueError(f"{x.shape[0]} inputs but {y.size} targets")
        if y.size == 0:
            raise ValueError("cannot fit a GP on zero observations")
        cov = self.kernel(x, x)
        cov[np.diag_indices_from(cov)] += self.noise + _JITTER
        # scipy.linalg.cholesky calls the same LAPACK potrf as cho_factor
        # but returns a *clean* triangle (the other half zeroed), which is
        # what lets extend() stack the factor blockwise.
        self._chol = (cholesky(cov, lower=True), True)
        self._x = x
        self._refit_targets(y)
        return self

    def extend(self, x_new: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Append observations to a fitted GP without a full refactor.

        ``x_new`` holds the new input rows; ``y`` holds *all* targets (old
        then new, ``n + m`` of them) because standardization shifts with
        every new observation.  The cached Cholesky factor grows by the
        new rows' Schur complement:

        .. math::
           K' = \\begin{pmatrix} K & B \\\\ B^T & C \\end{pmatrix}
           \\Rightarrow
           L' = \\begin{pmatrix} L & 0 \\\\ (L^{-1}B)^T & \\mathrm{chol}(C - B^T L^{-T} L^{-1} B) \\end{pmatrix}

        A Schur complement that loses positive definiteness to round-off
        (near-duplicate inputs) falls back to a full :meth:`fit`.
        """
        if not self.is_fit:
            return self.fit(x_new, y)
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        n, m = self._x.shape[0], x_new.shape[0]
        if y.size != n + m:
            raise ValueError(
                f"extend() needs all targets: have {n} + {m} inputs "
                f"but {y.size} targets"
            )
        if m == 0:
            self._refit_targets(y)
            return self
        chol = self._chol[0]
        cross = self.kernel(self._x, x_new)
        head = solve_triangular(chol, cross, lower=True)
        tail_cov = self.kernel(x_new, x_new)
        tail_cov[np.diag_indices_from(tail_cov)] += self.noise + _JITTER
        schur = tail_cov - head.T @ head
        try:
            tail = cholesky(schur, lower=True)
        except LinAlgError:
            return self.fit(np.vstack([self._x, x_new]), y)
        grown = np.zeros((n + m, n + m))
        grown[:n, :n] = chol
        grown[n:, :n] = head.T
        grown[n:, n:] = tail
        self._chol = (grown, True)
        self._x = np.vstack([self._x, x_new])
        self._refit_targets(y)
        return self

    def copy(self) -> "GaussianProcess":
        """An independent GP sharing nothing mutable with this one.

        Fitted state is copied, so the clone can :meth:`extend` with
        speculative observations (constant-liar batches) without touching
        the original.
        """
        clone = GaussianProcess(self.kernel, noise=self.noise)
        if self.is_fit:
            clone._x = self._x.copy()
            clone._chol = (self._chol[0].copy(), True)
            clone._alpha = self._alpha.copy()
            clone._y_mean = self._y_mean
            clone._y_std = self._y_std
        return clone

    def _refit_targets(self, y: np.ndarray) -> None:
        """Restandardize targets and recompute ``alpha`` (O(n²))."""
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        self._alpha = cho_solve(self._chol, (y - self._y_mean) / self._y_std)

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points (de-standardized)."""
        if not self.is_fit:
            raise RuntimeError("fit() must be called before posterior()")
        xq = np.atleast_2d(np.asarray(xq, dtype=np.float64))
        k_star = self.kernel(xq, self._x)
        mean_norm = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        var_norm = self.kernel.diag(xq) - np.sum(k_star * v.T, axis=1)
        var_norm = np.maximum(var_norm, 0.0)
        mean = mean_norm * self._y_std + self._y_mean
        var = var_norm * self._y_std**2
        return mean, var
