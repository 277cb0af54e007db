"""Tests for the symbolic interval domain (ReluVal substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.analyzer import analyze
from repro.abstract.domains import INTERVAL, SYMBOLIC
from repro.abstract.symbolic_interval import SymbolicInterval
from repro.nn.builders import lenet_conv, mlp
from repro.utils.boxes import Box


class TestIdentity:
    def test_identity_bounds_equal_box(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        si = SymbolicInterval.identity(box)
        lo, hi = si.concrete_bounds()
        np.testing.assert_allclose(lo, box.low)
        np.testing.assert_allclose(hi, box.high)


class TestAffine:
    def test_exact_for_linear_function(self):
        box = Box(np.zeros(2), np.ones(2))
        si = SymbolicInterval.identity(box)
        w = np.array([[1.0, -1.0]])
        out = si.affine(w, np.array([0.5]))
        lo, hi = out.concrete_bounds()
        # x1 - x2 + 0.5 over the unit box: exactly [-0.5, 1.5].
        assert lo[0] == pytest.approx(-0.5)
        assert hi[0] == pytest.approx(1.5)

    def test_composition_stays_symbolic(self):
        # Two affine layers that cancel: y = x. Symbolic intervals track
        # this exactly; plain intervals would widen.
        box = Box(np.array([0.0]), np.array([1.0]))
        si = SymbolicInterval.identity(box)
        out = si.affine(np.array([[1.0], [-1.0]]), np.zeros(2)).affine(
            np.array([[0.5, -0.5]]), np.zeros(1)
        )
        lo, hi = out.concrete_bounds()
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(1.0)


class TestRelu:
    def test_provably_active_is_identity(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        si = SymbolicInterval.identity(box).relu()
        lo, hi = si.concrete_bounds()
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(2.0)

    def test_provably_inactive_is_zero(self):
        box = Box(np.array([-2.0]), np.array([-1.0]))
        si = SymbolicInterval.identity(box).relu()
        lo, hi = si.concrete_bounds()
        assert lo[0] == hi[0] == 0.0

    def test_crossing_is_sound(self):
        box = Box(np.array([-1.0]), np.array([2.0]))
        si = SymbolicInterval.identity(box).relu()
        lo, hi = si.concrete_bounds()
        for x in np.linspace(-1, 2, 31):
            y = max(x, 0.0)
            assert lo[0] - 1e-9 <= y <= hi[0] + 1e-9


class TestMargins:
    def test_relational_margin(self):
        # y0 = x, y1 = x - 1 -> margin exactly 1 for symbolic intervals.
        box = Box(np.array([0.0]), np.array([10.0]))
        si = SymbolicInterval.identity(box).affine(
            np.array([[1.0], [1.0]]), np.array([0.0, -1.0])
        )
        assert si.lower_margin(0, 1) == pytest.approx(1.0)

    def test_min_margin(self):
        # y0 = x + 5, y1 = 0, y2 = 2x over x in [0, 1]:
        # margin vs y1 = min(x + 5) = 5; vs y2 = min(5 - x) = 4 (relational).
        box = Box(np.zeros(1), np.ones(1))
        si = SymbolicInterval.identity(box).affine(
            np.array([[1.0], [0.0], [2.0]]), np.array([5.0, 0.0, 0.0])
        )
        assert si.lower_margin(0, 1) == pytest.approx(5.0)
        assert si.lower_margin(0, 2) == pytest.approx(4.0)
        assert si.min_margin(0) == pytest.approx(4.0)


class TestAnalyze:
    def test_sound_verification(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            net = mlp(3, [8, 8], 3, rng=seed)
            center = rng.uniform(-0.5, 0.5, 3)
            box = Box.from_center_radius(center, 0.1)
            label = net.classify(center)
            result = analyze(net, box, label, SYMBOLIC)
            assert result.verified == (result.margin_lower_bound > 0)
            if result.verified:
                preds = net.classify_batch(box.sample(rng, 200))
                assert np.all(preds == label)

    def test_margin_bound_sound(self):
        rng = np.random.default_rng(1)
        for seed in range(8):
            net = mlp(4, [10], 3, rng=50 + seed)
            box = Box.from_center_radius(rng.uniform(-1, 1, 4), 0.3)
            margin_lb = analyze(net, box, 0, SYMBOLIC).margin_lower_bound
            ys = net.forward(box.sample(rng, 150))
            margins = ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1)
            assert margin_lb <= margins.min() + 1e-9

    def test_tighter_than_plain_intervals(self):
        # Symbolic intervals dominate plain intervals on deep affine chains.
        count_better = 0
        rng = np.random.default_rng(2)
        for seed in range(10):
            net = mlp(4, [12, 12], 3, rng=200 + seed)
            box = Box.from_center_radius(rng.uniform(-0.5, 0.5, 4), 0.2)
            sym_margin = analyze(net, box, 0, SYMBOLIC).margin_lower_bound
            interval_margin = analyze(net, box, 0, INTERVAL).margin_lower_bound
            assert sym_margin >= interval_margin - 1e-9
            if sym_margin > interval_margin + 1e-9:
                count_better += 1
        assert count_better > 5  # strictly better most of the time

    def test_maxpool_unsupported(self):
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        with pytest.raises(TypeError, match="max pooling"):
            analyze(net, Box.unit(16), 0, SYMBOLIC)


class TestSoundnessFuzz:
    @given(st.integers(0, 300))
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
        si = SymbolicInterval.identity(box).affine(w1, b1).relu().affine(w2, b2)
        lo, hi = si.concrete_bounds()
        margin_lb = si.lower_margin(0, 1)
        for x in box.sample(rng, 40):
            y = w2 @ np.maximum(w1 @ x + b1, 0) + b2
            assert np.all(y >= lo - 1e-8) and np.all(y <= hi + 1e-8)
            assert y[0] - y[1] >= margin_lb - 1e-8
