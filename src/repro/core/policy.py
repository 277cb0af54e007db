"""Verification policies: π_θ = (π_α, π_I) from §4 of the paper.

A policy makes the two decisions Algorithm 1 cannot make on its own:

- **domain policy** π_α: which abstract domain ``(d, k)`` to try;
- **partition policy** π_I: which axis-aligned hyperplane ``x_d = c`` to
  split the region with.

:class:`LinearPolicy` is the paper's parameterization
``φ(θ · ρ(N, I, K, x*))``: a parameter matrix θ (learned by Bayesian
optimization) applied to the feature vector ρ, followed by the selection
functions φ_α and φ_I described in §6:

- φ_α clips and discretizes two outputs into a base domain (intervals vs
  zonotopes) and a disjunct count;
- φ_I uses two outputs as scores choosing between the *longest* dimension
  and the *most influential* dimension (gradient × width, after [54]), and
  a third output as the split offset: 0 bisects the region, 1 puts the
  plane through ``x*``.

:class:`BisectionPolicy` is the hand-crafted static baseline (fixed domain,
bisect the longest dimension) used to measure the value of learning (RQ3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.abstract.domains import DomainSpec, ZONOTOPE
from repro.attack.objective import MarginObjective
from repro.core.features import NUM_FEATURES, featurize
from repro.core.property import RobustnessProperty
from repro.nn.network import Network
from repro.utils.boxes import Box

#: Disjunct budgets φ_α can select (the paper's implementation discretizes
#: its second output into a small fixed menu).  The top entry matches
#: AI2-Bounded64, the strongest domain in the paper's comparison.
DISJUNCT_CHOICES = (1, 2, 4, 8, 16, 64)

#: Outputs of θ·ρ: two for the domain policy, three for the partition policy.
NUM_OUTPUTS = 5

DomainChoice = DomainSpec


@dataclass(frozen=True)
class SplitChoice:
    """An axis-aligned splitting plane ``x_dim = value``."""

    dim: int
    value: float


class VerificationPolicy(ABC):
    """The decision interface Algorithm 1 consults."""

    @abstractmethod
    def choose_domain(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> DomainSpec:
        """π_α: pick the abstract domain for this sub-problem."""

    @abstractmethod
    def choose_split(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> SplitChoice:
        """π_I: pick the splitting plane for this sub-problem."""

    def describe(self) -> str:
        return type(self).__name__


def _influence_dim(
    network: Network, prop: RobustnessProperty, x_star: np.ndarray
) -> int:
    """Dimension with the largest |∂N(x*)_K/∂x_d| · width_d.

    This is ReluVal's smear-style influence heuristic referenced in §6: a
    wide dimension the target score is sensitive to is where refinement
    buys the most precision.
    """
    grad = MarginObjective(network, prop.label).target_gradient(x_star)
    influence = np.abs(grad) * prop.region.widths
    return int(np.argmax(influence))


def _usable_dim(region: Box, dim: int) -> int:
    """Fall back to the widest dimension when ``dim`` is degenerate."""
    if region.widths[dim] > 0.0:
        return dim
    fallback = region.longest_dim()
    if region.widths[fallback] <= 0.0:
        raise ValueError("cannot split a degenerate (point) region")
    return fallback


def _squash(raw: np.ndarray, half_diameter: float) -> np.ndarray:
    """Squash each feature to a bounded, scale-free range so a single θ
    generalizes across networks and region sizes (the paper trains on
    ACAS and deploys on MNIST/CIFAR)."""
    return np.array(
        [
            raw[0] / (half_diameter + 1e-12),
            raw[1] / (1.0 + abs(raw[1])),
            raw[2] / (1.0 + raw[2]),
            raw[3] / (1.0 + raw[3]),
        ]
    )


class LinearPolicy(VerificationPolicy):
    """The learnable policy ``φ(θ · ρ̂(ι))``.

    ``ρ̂`` is the §6 feature vector, squashed to ``[0, 1]``-comparable scales
    and extended with a constant bias entry (so constant strategies are
    expressible).  θ has shape ``(5, NUM_FEATURES + 1)`` — 25 parameters,
    comfortably inside Bayesian optimization's budget.
    """

    num_params = NUM_OUTPUTS * (NUM_FEATURES + 1)

    def __init__(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        expected = (NUM_OUTPUTS, NUM_FEATURES + 1)
        if theta.shape != expected:
            raise ValueError(f"theta must have shape {expected}, got {theta.shape}")
        self.theta = theta

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def default() -> "LinearPolicy":
        """A hand-initialized policy: zonotopes with 2 disjuncts, split the
        longest dimension at its midpoint.  This is the pre-training prior;
        learning (``repro.learn``) replaces it."""
        theta = np.zeros((NUM_OUTPUTS, NUM_FEATURES + 1))
        theta[0, -1] = 1.0  # base domain score -> zonotope
        theta[1, -1] = 0.3  # disjunct score -> second menu entry (2)
        theta[2, -1] = 1.0  # prefer the longest dimension
        theta[3, -1] = 0.0
        theta[4, -1] = 0.0  # offset 0 -> bisect
        return LinearPolicy(theta)

    @staticmethod
    def from_vector(vec: np.ndarray) -> "LinearPolicy":
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != LinearPolicy.num_params:
            raise ValueError(
                f"expected {LinearPolicy.num_params} parameters, got {vec.size}"
            )
        return LinearPolicy(vec.reshape(NUM_OUTPUTS, NUM_FEATURES + 1))

    def to_vector(self) -> np.ndarray:
        return self.theta.reshape(-1).copy()

    @staticmethod
    def parameter_box(scale: float = 2.0) -> Box:
        """The search box Bayesian optimization explores θ in."""
        n = LinearPolicy.num_params
        return Box(-scale * np.ones(n), scale * np.ones(n))

    # ------------------------------------------------------------------
    # φ(θ · ρ̂)
    # ------------------------------------------------------------------

    def _outputs(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> np.ndarray:
        raw = featurize(network, prop, x_star, f_star)
        half_diameter = prop.region.diameter() / 2.0
        finite = np.isfinite(raw)
        if finite.all():
            squashed = _squash(raw, half_diameter)
        else:
            # A feature past float64's range (say an overflowed gradient
            # norm) would squash to NaN.  Every squash lies in [-1, 1]
            # (x* sits inside the region, so feature 1's ratio too), so
            # such a feature takes the squash's limit instead: -1 at
            # -inf, +1 at +inf or NaN.
            squashed = np.where(
                finite,
                _squash(np.where(finite, raw, 0.0), half_diameter),
                np.where(raw < 0, -1.0, 1.0),
            )
        return self.theta @ np.append(squashed, 1.0)  # 1.0: the bias

    def choose_domain(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> DomainSpec:
        out = self._outputs(network, prop, x_star, f_star)
        base = "interval" if float(np.clip(out[0], 0.0, 1.0)) < 0.5 else "zonotope"
        frac = float(np.clip(out[1], 0.0, 1.0))
        idx = min(int(frac * len(DISJUNCT_CHOICES)), len(DISJUNCT_CHOICES) - 1)
        return DomainSpec(base, DISJUNCT_CHOICES[idx])

    def choose_split(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> SplitChoice:
        out = self._outputs(network, prop, x_star, f_star)
        if out[2] >= out[3]:
            dim = prop.region.longest_dim()
        else:
            dim = _influence_dim(network, prop, x_star)
        dim = _usable_dim(prop.region, dim)
        ratio = float(np.clip(out[4], 0.0, 1.0))
        center = prop.region.center[dim]
        value = center + ratio * (float(x_star[dim]) - center)
        return SplitChoice(dim=dim, value=value)

    def describe(self) -> str:
        return f"LinearPolicy(theta_norm={np.linalg.norm(self.theta):.3f})"


class BisectionPolicy(VerificationPolicy):
    """Static hand-crafted strategy: fixed domain, bisect a dimension.

    With ``split="longest"`` this mirrors ReluVal-style refinement without
    learning; with ``split="influence"`` it uses the gradient×width
    heuristic.  Used by the RQ3 ablation (Figure 15) as the no-learning
    comparison point.
    """

    def __init__(self, domain: DomainSpec = ZONOTOPE, split: str = "longest") -> None:
        if split not in ("longest", "influence"):
            raise ValueError(f"split must be 'longest' or 'influence', got {split!r}")
        self.domain = domain
        self.split = split

    def choose_domain(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> DomainSpec:
        return self.domain

    def choose_split(
        self,
        network: Network,
        prop: RobustnessProperty,
        x_star: np.ndarray,
        f_star: float,
    ) -> SplitChoice:
        if self.split == "longest":
            dim = prop.region.longest_dim()
        else:
            dim = _usable_dim(
                prop.region, _influence_dim(network, prop, x_star)
            )
        center = prop.region.center[dim]
        return SplitChoice(dim=dim, value=float(center))

    def describe(self) -> str:
        return f"BisectionPolicy(domain={self.domain}, split={self.split})"


def default_policy() -> LinearPolicy:
    """The policy used when no learned policy is supplied."""
    return LinearPolicy.default()
