"""Tests for the §9 future-work extension: the solver-like symbolic domain."""

import numpy as np
import pytest

from repro.abstract.analyzer import analyze
from repro.abstract.domains import DomainSpec, SYMBOLIC
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty, linf_property
from repro.core.verifier import Verifier, verify
from repro.ext.solver_policy import SolverAwareLinearPolicy
from repro.nn.builders import lenet_conv, mlp, xor_network
from repro.utils.boxes import Box


class TestSymbolicDomainSpec:
    def test_constant_exists(self):
        assert SYMBOLIC.base == "symbolic"
        assert SYMBOLIC.short_name == "S"
        assert str(SYMBOLIC) == "(S, 1)"

    def test_no_disjunctions(self):
        with pytest.raises(ValueError, match="disjunctions"):
            DomainSpec("symbolic", 2)

    def test_analyze_with_symbolic_domain(self):
        net = xor_network()
        box = Box(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
        result = analyze(net, box, 1, SYMBOLIC)
        assert result.verified

    def test_symbolic_matches_standalone_analyzer(self):
        from repro.abstract.analyzer import propagate
        from repro.abstract.symbolic_interval import SymbolicInterval

        net = mlp(4, [10, 10], 3, rng=0)
        box = Box.from_center_radius(np.full(4, 0.2), 0.1)
        via_spec = analyze(net, box, 0, SYMBOLIC)
        assert isinstance(SYMBOLIC.lift(box), SymbolicInterval)
        margin = propagate(
            net.ops(), SymbolicInterval.identity(box)
        ).min_margin(0)
        assert via_spec.verified == (margin > 0.0)
        assert via_spec.margin_lower_bound == pytest.approx(margin)

    def test_symbolic_rejects_conv(self):
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        with pytest.raises(TypeError, match="max pooling"):
            analyze(net, Box.unit(16), 0, SYMBOLIC)

    def test_symbolic_sound(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            net = mlp(3, [8], 3, rng=seed)
            box = Box.from_center_radius(rng.uniform(-0.3, 0.3, 3), 0.15)
            result = analyze(net, box, 0, SYMBOLIC)
            ys = net.forward(box.sample(rng, 200))
            margins = ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1)
            assert result.margin_lower_bound <= margins.min() + 1e-9


class TestSolverAwarePolicy:
    def test_default_picks_symbolic(self):
        net = mlp(4, [8], 3, rng=0)
        prop = RobustnessProperty(Box.unit(4), 0)
        policy = SolverAwareLinearPolicy.default()
        domain = policy.choose_domain(net, prop, prop.region.center, 1.0)
        assert domain == SYMBOLIC

    def test_conv_falls_back_to_zonotope(self):
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        prop = RobustnessProperty(Box.unit(16), 0)
        policy = SolverAwareLinearPolicy.default()
        domain = policy.choose_domain(net, prop, prop.region.center, 1.0)
        assert domain.base == "zonotope"

    def test_menu_thirds(self):
        net = mlp(4, [8], 3, rng=0)
        prop = RobustnessProperty(Box.unit(4), 0)
        seen = set()
        for frac in np.linspace(0.0, 1.0, 31):
            theta = np.zeros_like(SolverAwareLinearPolicy.default().theta)
            theta[0, -1] = frac
            policy = SolverAwareLinearPolicy(theta)
            seen.add(policy.choose_domain(net, prop, prop.region.center, 1.0).base)
        assert seen == {"interval", "zonotope", "symbolic"}

    def test_verifier_end_to_end(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        outcome = verify(
            net,
            prop,
            policy=SolverAwareLinearPolicy.default(),
            config=VerifierConfig(timeout=10),
            rng=0,
        )
        assert outcome.kind == "verified"
        assert "S" in outcome.stats.domains_used

    def test_trainable_with_existing_machinery(self):
        # The θ space is unchanged, so vector round-trips work and the
        # policy slots into the verifier/trainer stack.
        policy = SolverAwareLinearPolicy.default()
        vec = policy.to_vector()
        again = SolverAwareLinearPolicy(vec.reshape(policy.theta.shape))
        np.testing.assert_array_equal(again.theta, policy.theta)

    def test_falsification_still_works(self):
        net = xor_network()
        prop = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0)
        outcome = verify(
            net,
            prop,
            policy=SolverAwareLinearPolicy.default(),
            config=VerifierConfig(timeout=10),
            rng=0,
        )
        assert outcome.kind == "falsified"
