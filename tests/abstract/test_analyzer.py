"""Tests for the network-level analyzer, including Example 2.3."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.abstract.analyzer import AnalysisResult, analyze, propagate
from repro.abstract.domains import DomainSpec, INTERVAL, ZONOTOPE
from repro.abstract.interval import IntervalElement
from repro.nn.builders import example_2_3_network, lenet_conv, mlp, xor_network
from repro.utils.boxes import Box
from repro.utils.timing import Deadline


class TestPropagate:
    def test_matches_concrete_on_point(self):
        net = mlp(4, [8, 8], 3, rng=0)
        x = np.random.default_rng(0).normal(size=4)
        point = Box(x, x)
        out = propagate(net.ops(), INTERVAL.lift(point))
        lo, hi = out.bounds()
        y = net.logits(x)
        np.testing.assert_allclose(lo, y, atol=1e-9)
        np.testing.assert_allclose(hi, y, atol=1e-9)

    def test_deadline_raises(self):
        net = mlp(4, [8], 3, rng=0)
        expired = Deadline(limit=-1.0)
        with pytest.raises(TimeoutError):
            propagate(net.ops(), INTERVAL.lift(Box.unit(4)), expired)

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError, match="unknown op"):
            propagate([object()], INTERVAL.lift(Box.unit(2)))


class TestAnalyze:
    def test_validates_args(self):
        net = mlp(4, [8], 3, rng=0)
        with pytest.raises(ValueError, match="dims"):
            analyze(net, Box.unit(5), 0, INTERVAL)
        with pytest.raises(ValueError, match="label"):
            analyze(net, Box.unit(4), 7, INTERVAL)

    def test_verified_iff_margin_positive(self):
        net = xor_network()
        box = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        result = analyze(net, box, 1, DomainSpec("zonotope", 2))
        assert result.verified == (result.margin_lower_bound > 0)

    def test_result_is_verdict_and_margin(self):
        """A result carries the verdict and its margin bound, nothing
        else, and pickles by value (as process workers return it)."""
        net = xor_network()
        box = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        result = analyze(net, box, 1, ZONOTOPE)
        assert [field.name for field in dataclasses.fields(result)] == [
            "verified",
            "margin_lower_bound",
        ]
        clone = pickle.loads(pickle.dumps(result))
        assert type(clone) is AnalysisResult
        assert clone == result

    def test_example_2_3_domain_hierarchy(self):
        """The paper's Example 2.3: only (Z, >=2) verifies."""
        net = example_2_3_network()
        box = Box(np.zeros(2), np.ones(2))
        assert not analyze(net, box, 1, INTERVAL).verified
        assert not analyze(net, box, 1, DomainSpec("interval", 2)).verified
        assert not analyze(net, box, 1, ZONOTOPE).verified
        assert analyze(net, box, 1, DomainSpec("zonotope", 2)).verified
        assert analyze(net, box, 1, DomainSpec("zonotope", 4)).verified

    def test_example_2_3_margins_match_hand_computation(self):
        # Plain zonotope bound is exactly -0.2 (the unsafe point [1.2, 1.2]
        # of Figure 4); two disjuncts prove exactly +0.1 (the true minimum
        # margin, attained at input (1, 0)).
        net = example_2_3_network()
        box = Box(np.zeros(2), np.ones(2))
        plain = analyze(net, box, 1, ZONOTOPE)
        assert plain.margin_lower_bound == pytest.approx(-0.2)
        split = analyze(net, box, 1, DomainSpec("zonotope", 2))
        assert split.margin_lower_bound == pytest.approx(0.1)

    def test_soundness_no_false_verified(self):
        # If any domain verifies, dense sampling must find no counterexample.
        rng = np.random.default_rng(0)
        for seed in range(10):
            net = mlp(3, [10], 3, rng=seed)
            center = rng.uniform(-1, 1, 3)
            box = Box.from_center_radius(center, 0.3)
            label = net.classify(center)
            for spec in (INTERVAL, ZONOTOPE, DomainSpec("zonotope", 4)):
                result = analyze(net, box, label, spec)
                if result.verified:
                    preds = net.classify_batch(box.sample(rng, 300))
                    assert np.all(preds == label)

    def test_margin_bound_sound(self):
        rng = np.random.default_rng(1)
        for seed in range(8):
            net = mlp(4, [12], 3, rng=100 + seed)
            box = Box.from_center_radius(rng.uniform(-1, 1, 4), 0.4)
            for spec in (INTERVAL, ZONOTOPE, DomainSpec("interval", 4)):
                result = analyze(net, box, 0, spec)
                ys = net.forward(box.sample(rng, 200))
                margins = ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1)
                assert result.margin_lower_bound <= margins.min() + 1e-9

    def test_conv_network_supported(self):
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.4, 0.6, 16)
        box = Box.linf_ball(x, 0.01, clip_low=0.0, clip_high=1.0)
        label = net.classify(x)
        result = analyze(net, box, label, ZONOTOPE)
        output = propagate(net.ops(), ZONOTOPE.lift(box))
        assert result.margin_lower_bound == output.min_margin(label)
        # Soundness: concrete outputs stay inside the output abstraction.
        lo, hi = output.bounds()
        for sample in box.sample(rng, 50):
            y = net.logits(sample)
            assert np.all(y >= lo - 1e-8) and np.all(y <= hi + 1e-8)

    def test_domain_precision_ordering_on_xor(self):
        # On the XOR net's region, Zx2 must be at least as precise as Z.
        net = xor_network()
        box = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        plain = analyze(net, box, 1, ZONOTOPE)
        split = analyze(net, box, 1, DomainSpec("zonotope", 2))
        assert split.margin_lower_bound >= plain.margin_lower_bound - 1e-9
