"""Tests for the Box geometry primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.boxes import Box


def unit2() -> Box:
    return Box(np.zeros(2), np.ones(2))


class TestConstruction:
    def test_basic(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
        assert box.ndim == 2
        np.testing.assert_array_equal(box.low, [0.0, -1.0])
        np.testing.assert_array_equal(box.high, [1.0, 2.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="low > high"):
            Box(np.array([1.0]), np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            Box(np.zeros(2), np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            Box(np.zeros(0), np.zeros(0))

    def test_degenerate_allowed(self):
        box = Box(np.ones(3), np.ones(3))
        assert box.is_degenerate()
        assert box.diameter() == 0.0

    def test_from_center_radius(self):
        box = Box.from_center_radius(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_allclose(box.low, [0.5, 1.5])
        np.testing.assert_allclose(box.high, [1.5, 2.5])

    def test_from_center_radius_per_dim(self):
        box = Box.from_center_radius(np.zeros(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(box.widths, [2.0, 4.0])

    def test_from_center_radius_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Box.from_center_radius(np.zeros(2), -0.1)

    def test_linf_ball_clipped(self):
        ball = Box.linf_ball(np.array([0.05, 0.95]), 0.1, clip_low=0.0, clip_high=1.0)
        np.testing.assert_allclose(ball.low, [0.0, 0.85])
        np.testing.assert_allclose(ball.high, [0.15, 1.0])

    def test_linf_ball_unclipped(self):
        ball = Box.linf_ball(np.zeros(2), 0.5)
        np.testing.assert_allclose(ball.low, [-0.5, -0.5])

    def test_linf_ball_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="non-negative"):
            Box.linf_ball(np.zeros(2), -1.0)

    def test_unit(self):
        box = Box.unit(5)
        assert box.ndim == 5
        assert box.volume() == pytest.approx(1.0)


class TestGeometry:
    def test_center_widths(self):
        box = Box(np.array([0.0, 2.0]), np.array([2.0, 6.0]))
        np.testing.assert_allclose(box.center, [1.0, 4.0])
        np.testing.assert_allclose(box.widths, [2.0, 4.0])
        np.testing.assert_allclose(box.radius, [1.0, 2.0])

    def test_diameter_is_l2_of_widths(self):
        box = Box(np.zeros(2), np.array([3.0, 4.0]))
        assert box.diameter() == pytest.approx(5.0)

    def test_longest_dim(self):
        box = Box(np.zeros(3), np.array([1.0, 5.0, 2.0]))
        assert box.longest_dim() == 1

    def test_mean_width(self):
        box = Box(np.zeros(2), np.array([1.0, 3.0]))
        assert box.mean_width() == pytest.approx(2.0)

    def test_volume(self):
        box = Box(np.zeros(3), np.array([2.0, 3.0, 4.0]))
        assert box.volume() == pytest.approx(24.0)


class TestMembership:
    def test_contains_interior_and_boundary(self):
        box = unit2()
        assert box.contains(np.array([0.5, 0.5]))
        assert box.contains(np.array([0.0, 1.0]))
        assert not box.contains(np.array([1.1, 0.5]))

    def test_contains_tolerance(self):
        box = unit2()
        assert box.contains(np.array([1.0 + 1e-12, 0.5]))

    def test_contains_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            unit2().contains(np.zeros(3))

    def test_contains_box(self):
        outer = unit2()
        inner = Box(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_project(self):
        box = unit2()
        np.testing.assert_allclose(
            box.project(np.array([-1.0, 2.0])), [0.0, 1.0]
        )

    def test_sample_single_and_batch(self):
        box = unit2()
        rng = np.random.default_rng(0)
        single = box.sample(rng)
        assert single.shape == (2,)
        batch = box.sample(rng, 10)
        assert batch.shape == (10, 2)
        assert all(box.contains(x) for x in batch)

    def test_corners(self):
        corners = unit2().corners()
        assert corners.shape == (4, 2)
        assert {tuple(c) for c in corners} == {
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)
        }

    def test_corners_rejects_high_dim(self):
        with pytest.raises(ValueError, match="corners"):
            Box.unit(20).corners()


class TestSplitting:
    def test_split_partitions(self):
        left, right = unit2().split(0, 0.3)
        assert left.high[0] == pytest.approx(0.3)
        assert right.low[0] == pytest.approx(0.3)
        assert left.low[1] == 0.0 and right.high[1] == 1.0

    def test_split_rejects_boundary(self):
        with pytest.raises(ValueError, match="strictly inside"):
            unit2().split(0, 0.0)

    def test_split_rejects_outside(self):
        with pytest.raises(ValueError, match="strictly inside"):
            unit2().split(0, 1.5)

    def test_split_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="out of range"):
            unit2().split(5, 0.5)

    def test_split_interior_clamps_to_interior(self):
        # Requesting a boundary split must nudge inward (Assumption 1).
        left, right = unit2().split_interior(0, 0.0, min_fraction=0.1)
        assert left.widths[0] >= 0.1 - 1e-12
        assert right.widths[0] >= 0.1 - 1e-12

    def test_split_interior_keeps_interior_value(self):
        left, _ = unit2().split_interior(0, 0.5, min_fraction=0.01)
        assert left.high[0] == pytest.approx(0.5)

    def test_split_interior_rejects_degenerate_dim(self):
        box = Box(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="degenerate"):
            box.split_interior(1, 0.5)

    def test_split_interior_shrinks_diameter(self):
        # Assumption 1: both halves strictly smaller than the parent.
        box = unit2()
        left, right = box.split_interior(0, 0.4)
        assert left.diameter() < box.diameter()
        assert right.diameter() < box.diameter()

    def test_bisect_default_longest(self):
        box = Box(np.zeros(2), np.array([1.0, 4.0]))
        left, right = box.bisect()
        assert left.high[1] == pytest.approx(2.0)


class TestSetOps:
    def test_hull(self):
        a = unit2()
        b = Box(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        hull = a.hull(b)
        np.testing.assert_allclose(hull.low, [0.0, -1.0])
        np.testing.assert_allclose(hull.high, [3.0, 1.0])

    def test_equality_and_hash(self):
        a = unit2()
        b = Box(np.zeros(2), np.ones(2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Box(np.zeros(2), 2 * np.ones(2))

    def test_repr_small_and_large(self):
        assert "[0," in repr(unit2()).replace(" ", "")
        assert "ndim=10" in repr(Box.unit(10))


@st.composite
def boxes(draw, max_dim: int = 5):
    n = draw(st.integers(1, max_dim))
    low = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n
        )
    )
    widths = draw(
        st.lists(st.floats(0, 5, allow_nan=False), min_size=n, max_size=n)
    )
    low_arr = np.array(low)
    return Box(low_arr, low_arr + np.array(widths))


class TestProperties:
    @given(boxes())
    @settings(max_examples=50, deadline=None)
    def test_center_always_contained(self, box):
        assert box.contains(box.center)

    @given(boxes(), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_projection_lands_inside(self, box, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-20, 20, size=box.ndim)
        assert box.contains(box.project(x))

    @given(boxes(), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_projection_idempotent(self, box, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-20, 20, size=box.ndim)
        once = box.project(x)
        np.testing.assert_array_equal(once, box.project(once))

    @given(boxes())
    @settings(max_examples=50, deadline=None)
    def test_split_interior_covers_parent(self, box):
        dim = box.longest_dim()
        if box.widths[dim] <= 1e-9:
            return  # too narrow for a strictly-interior split point
        left, right = box.split_interior(dim, float(box.center[dim]))
        assert left.hull(right) == box

    @given(boxes())
    @settings(max_examples=50, deadline=None)
    def test_hull_contains_both(self, box):
        shifted = Box(box.low + 1.0, box.high + 1.0)
        hull = box.hull(shifted)
        assert hull.contains_box(box)
        assert hull.contains_box(shifted)

    @given(boxes())
    @settings(max_examples=30, deadline=None)
    def test_samples_inside(self, box):
        rng = np.random.default_rng(0)
        for x in box.sample(rng, 20):
            assert box.contains(x)
