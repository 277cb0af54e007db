"""End-to-end regression tests for every worked example in the paper.

These tests pin the reproduction to the paper's text: the XOR network of
Figure 3, Examples 2.1–2.3, the Algorithm 1 trace of Example 3.1/Figure 5,
and the claims of §5 (soundness, termination, δ-completeness) on those
networks.
"""

import numpy as np
import pytest

from repro import (
    Box,
    DomainSpec,
    RobustnessProperty,
    VerifierConfig,
    analyze,
    verify,
)
from repro.abstract.analyzer import propagate
from repro.core.policy import BisectionPolicy
from repro.nn.builders import example_2_2_network, example_2_3_network, xor_network


class TestExample21:
    """Example 2.1: the XOR network's classification behaviour."""

    def test_forward_trace_of_paper(self):
        net = xor_network()
        # "consider the vector [0 0]^T. After applying the affine
        # transformation from the first layer, we obtain [0 -1]^T."
        hidden = net.layers[0].forward(np.array([[0.0, 0.0]]))[0]
        np.testing.assert_array_equal(hidden, [0.0, -1.0])
        # "After applying ReLU, we get [0 0]^T."
        np.testing.assert_array_equal(np.maximum(hidden, 0), [0.0, 0.0])
        # "we get [1 0]^T ... the network will classify [0 0]^T as a zero."
        np.testing.assert_array_equal(net.logits(np.array([0.0, 0.0])), [1.0, 0.0])

    def test_full_truth_table(self):
        net = xor_network()
        assert net.classify(np.array([0.0, 1.0])) == 1
        assert net.classify(np.array([1.0, 0.0])) == 1
        assert net.classify(np.array([1.0, 1.0])) == 0


class TestExample22:
    """Example 2.2: robustness holds on [-1,1], fails on [-1,2]."""

    def test_paper_arithmetic(self):
        net = example_2_2_network()
        # The paper prints N(0) = [1 3]; the network as defined actually
        # gives [2 3] (the [a+1, a+2] form with a = relu(1) = 1).  Both
        # agree the label is 1; we pin the corrected arithmetic.
        np.testing.assert_allclose(net.logits(np.array([0.0])), [2.0, 3.0])
        np.testing.assert_allclose(net.logits(np.array([2.0])), [8.0, 6.0])

    def test_verifier_decides_both_regions(self):
        net = example_2_2_network()
        config = VerifierConfig(timeout=10)
        ok = verify(
            net, RobustnessProperty(Box(np.array([-1.0]), np.array([1.0])), 1),
            config=config, rng=0,
        )
        assert ok.kind == "verified"
        bad = verify(
            net, RobustnessProperty(Box(np.array([-1.0]), np.array([2.0])), 1),
            config=config, rng=0,
        )
        assert bad.kind == "falsified"
        # Every x > 1.5 flips the label; the witness must be in that zone.
        assert bad.counterexample[0] > 1.0


class TestExample23:
    """Example 2.3 / Figure 4: the domain hierarchy on the 2-2-2 network."""

    def test_zonotope_fails_powerset_succeeds(self):
        net = example_2_3_network()
        box = Box(np.zeros(2), np.ones(2))
        assert not analyze(net, box, 1, DomainSpec("zonotope", 1)).verified
        assert analyze(net, box, 1, DomainSpec("zonotope", 2)).verified

    def test_unsafe_point_of_figure_4(self):
        # The figure marks [1.2, 1.2] as the unsafe output point contained
        # in the joined zonotope; our plain-zonotope margin bound of -0.2
        # corresponds exactly to that spurious output.
        net = example_2_3_network()
        box = Box(np.zeros(2), np.ones(2))
        result = analyze(net, box, 1, DomainSpec("zonotope", 1))
        assert result.margin_lower_bound == pytest.approx(-0.2)
        output = propagate(net.ops(), DomainSpec("zonotope", 1).lift(box))
        lo, hi = output.bounds()
        assert lo[0] <= 1.2 <= hi[0]
        assert lo[1] <= 1.2 <= hi[1]

    def test_whole_pipeline_verifies(self):
        net = example_2_3_network()
        prop = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 1)
        assert verify(net, prop, config=VerifierConfig(timeout=10), rng=0).kind == "verified"


class TestExample31:
    """Example 3.1 / Figure 5: Algorithm 1 on the XOR network."""

    def test_weak_domain_trace_requires_splits(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        policy = BisectionPolicy(domain=DomainSpec("zonotope", 1))
        outcome = verify(net, prop, policy=policy, config=VerifierConfig(timeout=10), rng=0)
        assert outcome.kind == "verified"
        # The paper's trace splits twice (three verified leaves); our
        # split points differ but refinement must occur.
        assert outcome.stats.splits >= 1
        assert outcome.stats.analyze_calls >= 3

    def test_plain_zonotope_cannot_do_it_in_one_shot(self):
        net = xor_network()
        box = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        assert not analyze(net, box, 1, DomainSpec("zonotope", 1)).verified


class TestSection5Guarantees:
    """Theorems 5.2 and 5.4 exercised on the paper's networks."""

    def test_termination_on_all_paper_networks(self):
        config = VerifierConfig(timeout=30, delta=1e-4)
        cases = [
            (xor_network(), Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1),
            (example_2_2_network(), Box(np.array([-1.0]), np.array([1.0])), 1),
            (example_2_3_network(), Box(np.zeros(2), np.ones(2)), 1),
        ]
        for net, box, label in cases:
            outcome = verify(net, RobustnessProperty(box, label), config=config, rng=0)
            assert outcome.kind in ("verified", "falsified")

    def test_delta_completeness_on_falsification(self):
        net = example_2_2_network()
        config = VerifierConfig(timeout=10, delta=1e-3)
        prop = RobustnessProperty(Box(np.array([-1.0]), np.array([2.0])), 1)
        outcome = verify(net, prop, config=config, rng=0)
        assert outcome.kind == "falsified"
        assert prop.margin_at(net, outcome.counterexample) <= config.delta
