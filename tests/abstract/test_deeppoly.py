"""Tests for the DeepPoly-style back-substitution domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.analyzer import analyze
from repro.abstract.deeppoly import DeepPolyState
from repro.abstract.domains import DEEPPOLY, SYMBOLIC, DomainSpec
from repro.nn.builders import example_2_3_network, lenet_conv, mlp, xor_network
from repro.utils.boxes import Box


class TestIdentity:
    def test_bounds_equal_box(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        state = DeepPolyState.identity(box)
        lo, hi = state.bounds()
        np.testing.assert_allclose(lo, box.low)
        np.testing.assert_allclose(hi, box.high)


class TestAffine:
    def test_exact_linear_bound(self):
        box = Box(np.zeros(2), np.ones(2))
        state = DeepPolyState.identity(box).affine(
            np.array([[1.0, -1.0]]), np.array([0.5])
        )
        lo, hi = state.bounds()
        assert lo[0] == pytest.approx(-0.5)
        assert hi[0] == pytest.approx(1.5)

    def test_cancelling_composition_is_exact(self):
        # y = x through two layers that a concretizing analysis would widen.
        box = Box(np.array([0.0]), np.array([1.0]))
        state = (
            DeepPolyState.identity(box)
            .affine(np.array([[1.0], [-1.0]]), np.zeros(2))
            .affine(np.array([[0.5, -0.5]]), np.zeros(1))
        )
        lo, hi = state.bounds()
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(1.0)


class TestRelu:
    def test_stable_neurons_exact(self):
        box = Box(np.array([1.0, -2.0]), np.array([2.0, -1.0]))
        state = DeepPolyState.identity(box).relu()
        lo, hi = state.bounds()
        np.testing.assert_allclose(lo, [1.0, 0.0])
        np.testing.assert_allclose(hi, [2.0, 0.0])

    def test_crossing_relaxation_sound(self):
        box = Box(np.array([-1.0]), np.array([2.0]))
        state = DeepPolyState.identity(box).relu()
        lo, hi = state.bounds()
        for x in np.linspace(-1, 2, 31):
            y = max(x, 0.0)
            assert lo[0] - 1e-9 <= y <= hi[0] + 1e-9

    def test_adaptive_lower_slope(self):
        # Positive-dominated neuron keeps the identity lower bound, so its
        # lower output bound equals its (negative) input lower bound.
        box = Box(np.array([-0.5]), np.array([2.0]))
        state = DeepPolyState.identity(box).relu()
        lo, _ = state.bounds()
        assert lo[0] == pytest.approx(-0.5)
        # Negative-dominated neuron drops to the 0 lower bound.
        box2 = Box(np.array([-2.0]), np.array([0.5]))
        lo2, _ = DeepPolyState.identity(box2).relu().bounds()
        assert lo2[0] == pytest.approx(0.0)


class TestMaxPool:
    def test_dominant_unit_exact(self):
        box = Box(np.array([5.0, 0.0]), np.array([6.0, 1.0]))
        state = DeepPolyState.identity(box).maxpool(np.array([[0, 1]]))
        lo, hi = state.bounds()
        assert lo[0] == pytest.approx(5.0)
        assert hi[0] == pytest.approx(6.0)

    def test_overlapping_window_sound(self):
        rng = np.random.default_rng(0)
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        state = DeepPolyState.identity(box).maxpool(np.array([[0, 1]]))
        lo, hi = state.bounds()
        for x in box.sample(rng, 100):
            y = x.max()
            assert lo[0] - 1e-9 <= y <= hi[0] + 1e-9


class TestAnalyze:
    def test_verifies_xor_region(self):
        net = xor_network()
        box = Box(np.array([0.35, 0.35]), np.array([0.65, 0.65]))
        result = analyze(net, box, 1, DEEPPOLY)
        assert result.verified
        assert result.margin_lower_bound > 0

    def test_supports_conv_networks(self):
        # Unlike symbolic intervals, DeepPoly handles max pooling.
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.4, 0.6, 16)
        box = Box.linf_ball(x, 0.005, clip_low=0.0, clip_high=1.0)
        result = analyze(net, box, net.classify(x), DEEPPOLY)
        assert isinstance(result.verified, bool)
        margin = result.margin_lower_bound
        # Soundness of the margin bound against sampling.
        label = net.classify(x)
        ys = net.forward(box.sample(rng, 100))
        margins = ys[:, label] - np.max(
            np.delete(ys, label, axis=1), axis=1
        )
        assert margin <= margins.min() + 1e-9

    def test_via_domain_spec(self):
        net = xor_network()
        box = Box(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
        result = analyze(net, box, 1, DEEPPOLY)
        assert result.verified

    def test_no_disjunctions(self):
        with pytest.raises(ValueError, match="disjunctions"):
            DomainSpec("deeppoly", 2)

    def test_at_least_as_precise_as_symbolic_on_deep_nets(self):
        # Back-substitution composes relaxations; eager concretization
        # (symbolic intervals) cannot be tighter on the margin.
        rng = np.random.default_rng(2)
        wins, ties = 0, 0
        for seed in range(8):
            net = mlp(4, [12, 12, 12], 3, rng=seed)
            box = Box.from_center_radius(rng.uniform(-0.3, 0.3, 4), 0.15)
            deep_margin = analyze(net, box, 0, DEEPPOLY).margin_lower_bound
            sym_margin = analyze(net, box, 0, SYMBOLIC).margin_lower_bound
            if deep_margin > sym_margin + 1e-9:
                wins += 1
            elif deep_margin >= sym_margin - 1e-9:
                ties += 1
        assert wins + ties >= 6  # dominant or equal nearly always

    def test_example_2_3_margin(self):
        # DeepPoly is also not exact on Example 2.3, but it must be sound
        # (bound <= 0.1, the true minimum margin).
        net = example_2_3_network()
        box = Box(np.zeros(2), np.ones(2))
        margin = analyze(net, box, 1, DEEPPOLY).margin_lower_bound
        assert margin <= 0.1 + 1e-9


class TestSoundnessFuzz:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_two_layer_sound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        low = rng.uniform(-1, 0, n)
        high = low + rng.uniform(0.1, 1.5, n)
        box = Box(low, high)
        w1 = rng.normal(size=(5, n))
        b1 = rng.normal(size=5)
        w2 = rng.normal(size=(2, 5))
        b2 = rng.normal(size=2)
        state = (
            DeepPolyState.identity(box).affine(w1, b1).relu().affine(w2, b2)
        )
        lo, hi = state.bounds()
        margin_lb = state.lower_margin(0, 1)
        for x in box.sample(rng, 40):
            y = w2 @ np.maximum(w1 @ x + b1, 0) + b2
            assert np.all(y >= lo - 1e-8) and np.all(y <= hi + 1e-8)
            assert y[0] - y[1] >= margin_lb - 1e-8
