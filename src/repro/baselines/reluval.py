"""The ReluVal baseline: symbolic intervals + hand-crafted bisection.

ReluVal (Wang et al., USENIX Security '18) verifies with symbolic interval
propagation and refines by bisecting the input dimension with the highest
*smear* value (output sensitivity × input width).  It is complete given
enough splits, but — per the paper's RQ2/RQ3 analysis — it has neither
gradient-based counterexample search (it falsified 0 of the paper's
benchmarks) nor a learned refinement policy.  Falsification here happens
only when a sampled region center is concretely misclassified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abstract.analyzer import analyze
from repro.abstract.domains import SYMBOLIC
from repro.core.property import RobustnessProperty
from repro.core.results import Falsified, Timeout, Verified, VerificationStats
from repro.nn.network import Network
from repro.utils.boxes import Box
from repro.utils.timing import Deadline, Stopwatch


@dataclass(frozen=True)
class ReluValConfig:
    """Budgets for the ReluVal search."""

    timeout: float | None = None
    max_depth: int = 200

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class ReluVal:
    """Iterative symbolic-interval refinement with the smear heuristic."""

    def __init__(self, config: ReluValConfig | None = None) -> None:
        self.config = config or ReluValConfig()

    def _smear_dim(self, network: Network, region: Box) -> int:
        """ReluVal's split heuristic: ``argmax_i max_j |J_ji| * w_i``.

        The Jacobian is taken concretely at the region center — a practical
        stand-in for ReluVal's interval Jacobian that preserves the
        heuristic's character (sensitivity × width).
        """
        center = region.center
        rows = []
        for j in range(network.output_size):
            seed = np.zeros(network.output_size)
            seed[j] = 1.0
            rows.append(network.input_gradient(center, seed))
        jac = np.abs(np.stack(rows))  # (m, n)
        smear = jac.max(axis=0) * region.widths
        dim = int(np.argmax(smear))
        if region.widths[dim] <= 0.0:
            dim = region.longest_dim()
        return dim

    def verify(self, network: Network, prop: RobustnessProperty):
        """Decide the property; returns the shared outcome dataclasses."""
        config = self.config
        stats = VerificationStats()
        deadline = Deadline(config.timeout)
        watch = Stopwatch().start()
        stack: list[tuple[Box, int]] = [(prop.region, 0)]
        try:
            while stack:
                if deadline.expired():
                    stats.time_seconds = watch.stop()
                    return Timeout("wall clock", stats)
                region, depth = stack.pop()
                stats.max_depth_reached = max(stats.max_depth_reached, depth)

                # Concrete sample check (ReluVal's only falsification path).
                center = region.center
                margin = prop.margin_at(network, center)
                if margin <= 0.0:
                    stats.time_seconds = watch.stop()
                    return Falsified(center, margin, stats)

                stats.analyze_calls += 1
                stats.record_domain("symbolic")
                if analyze(
                    network, region, prop.label, SYMBOLIC, deadline
                ).verified:
                    continue

                if depth >= config.max_depth:
                    stats.time_seconds = watch.stop()
                    return Timeout("split depth", stats)
                dim = self._smear_dim(network, region)
                try:
                    left, right = region.bisect(dim)
                except ValueError:
                    # Width below float resolution: no further refinement is
                    # possible for this sub-region.
                    stats.time_seconds = watch.stop()
                    return Timeout("degenerate region", stats)
                stats.splits += 1
                stack.append((right, depth + 1))
                stack.append((left, depth + 1))
        except TimeoutError:
            stats.time_seconds = watch.stop()
            return Timeout("wall clock", stats)
        stats.time_seconds = watch.stop()
        return Verified(stats)

    def describe(self) -> str:
        return "ReluVal"
