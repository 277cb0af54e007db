"""Batched zonotope/powerset kernels must match the sequential elements
**bitwise**, row by row.

Unlike the interval/DeepPoly batches (whose GEMM operand shapes include
the batch height, leaving a few ulps of BLAS drift), the zonotope-family
kernels are batch-height-stable by construction — every product and
reduction runs the same float sequence per row at every batch size (see
``repro.abstract.zonotope_batch``).  These tests therefore assert *exact*
equality: margins, bounds, and every representation array, across
disjunct budgets, crossing patterns, overflow joins, and batch heights.
"""

import numpy as np
import pytest

from repro.abstract import fused
from repro.abstract.analyzer import (
    AnalysisResult,
    analyze_batch_multi,
    propagate,
)
from repro.abstract.batched import BatchedElement
from repro.abstract.domains import ZONOTOPE, DomainSpec, bounded_zonotopes
from repro.abstract.zonotope import Zonotope
from repro.abstract.zonotope_batch import PowersetBatch, ZonotopeBatch
from repro.nn.builders import lenet_conv, mlp
from repro.utils.boxes import Box


def _regions(seed, count, n, lo=-0.6, hi=0.6, rmax=0.3):
    rng = np.random.default_rng(seed)
    return [
        Box.from_center_radius(
            rng.uniform(lo, hi, n), float(rng.uniform(0.01, rmax))
        )
        for _ in range(count)
    ]


def _random_batch(seed, batch, k, n):
    """A ZonotopeBatch with nonzero error terms (exercises the err paths
    the from-box pipeline only reaches after joins)."""
    rng = np.random.default_rng(seed)
    return ZonotopeBatch(
        rng.standard_normal((batch, n)),
        rng.standard_normal((batch, k, n)) / k,
        rng.uniform(0.0, 0.2, (batch, n)),
    )


def _one_label_batch(net, regions, label, domain):
    """One batched call with the same target label for every region."""
    return analyze_batch_multi(net, regions, [label] * len(regions), domain)


def _twin(net, region, label, domain):
    """The sequential twin's result: ``domain.lift(region)`` propagated
    alone."""
    margin = propagate(net.ops(), domain.lift(region)).min_margin(label)
    return AnalysisResult(bool(margin > 0.0), float(margin))


def _outputs(net, regions, domain):
    """The batched output element and the per-region sequential ones."""
    batched = propagate(net.ops(), domain.lift_batch(regions))
    singles = [propagate(net.ops(), domain.lift(r)) for r in regions]
    return batched, singles


def _row(batch, i):
    """Row ``i`` of a :class:`ZonotopeBatch` as a sequential zonotope."""
    return Zonotope(
        batch.centers[i].copy(), batch.gens[i].copy(), batch.errs[i].copy()
    )


def _assert_row_equal(element, batch, i):
    """Row ``i`` of a batched zonotope-family element equals the
    sequential ``element`` bitwise: every disjunct's center, generators
    and error radii."""
    if isinstance(batch, PowersetBatch):
        rows = range(batch.offsets[i], batch.offsets[i + 1])
        disjuncts = element.elements
    else:
        rows, disjuncts = [i], [element]
    assert len(disjuncts) == len(rows)
    for zonotope, r in zip(disjuncts, rows):
        assert type(zonotope) is Zonotope
        np.testing.assert_array_equal(zonotope.center, batch.centers[r])
        np.testing.assert_array_equal(zonotope.gens, batch.gens[r])
        np.testing.assert_array_equal(zonotope.err, batch.errs[r])


class TestZonotopeBatchTransformers:
    @pytest.mark.parametrize("seed", range(3))
    def test_relu_matches_sequential_bitwise(self, seed):
        batch = _random_batch(seed, batch=7, k=9, n=6)
        out = batch.relu()
        for i in range(batch.batch_size):
            _assert_row_equal(_row(batch, i).relu(), out, i)

    def test_affine_matches_sequential_bitwise(self):
        batch = _random_batch(11, batch=5, k=6, n=4)
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((7, 4))
        bias = rng.standard_normal(7)
        out = batch.affine(weight, bias)
        for i in range(batch.batch_size):
            _assert_row_equal(_row(batch, i).affine(weight, bias), out, i)

    def test_maxpool_matches_sequential_bitwise(self):
        batch = _random_batch(13, batch=6, k=8, n=8)
        windows = np.array([[0, 1, 2], [3, 4, 5], [5, 6, 7]])
        out = batch.maxpool(windows)
        for i in range(batch.batch_size):
            _assert_row_equal(_row(batch, i).maxpool(windows), out, i)

    def test_min_margin_matches_sequential_bitwise(self):
        batch = _random_batch(17, batch=6, k=10, n=5)
        margins = batch.min_margin(2)
        for i in range(batch.batch_size):
            assert margins[i] == _row(batch, i).min_margin(2)

    def test_rows_slicing(self):
        batch = _random_batch(19, batch=6, k=4, n=3)
        sub = batch.rows([4, 1])
        _assert_row_equal(_row(batch, 4), sub, 0)
        _assert_row_equal(_row(batch, 1), sub, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZonotopeBatch.from_boxes([])
        with pytest.raises(ValueError):
            ZonotopeBatch(
                np.zeros((2, 3)), np.zeros((2, 1, 3)), -np.ones((2, 3))
            )
        with pytest.raises(ValueError):
            ZonotopeBatch(np.zeros((2, 3)), np.zeros((2, 1, 4)), np.zeros((2, 3)))


class TestAnalyzeDispatch:
    """End-to-end: analyze_batch_multi routes zonotope domains through the
    batched kernels and still matches each region's sequential twin
    exactly."""

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(2), bounded_zonotopes(4)],
        ids=str,
    )
    def test_mlp_exact(self, domain):
        net = mlp(5, [12, 10], 3, rng=4)
        regions = _regions(8, 5, 5, rmax=0.5)
        batch = _one_label_batch(net, regions, 1, domain)
        element, outputs = _outputs(net, regions, domain)
        low, high = element.bounds()
        for i, region in enumerate(regions):
            single = _twin(net, region, 1, domain)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == single.margin_lower_bound
            lo_s, hi_s = outputs[i].bounds()
            np.testing.assert_array_equal(low[i], lo_s)
            np.testing.assert_array_equal(high[i], hi_s)

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(3)], ids=str
    )
    def test_conv_with_maxpool_exact(self, domain):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=4, rng=0)
        regions = _regions(2, 3, net.input_size, lo=0.2, hi=0.8, rmax=0.1)
        batch = _one_label_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = _twin(net, region, 1, domain)
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_mixed_labels_exact(self):
        net = mlp(4, [10, 8], 4, rng=2)
        regions = _regions(3, 6, 4, rmax=0.4)
        labels = [0, 1, 2, 3, 1, 0]
        batch = analyze_batch_multi(
            net, regions, labels, bounded_zonotopes(2)
        )
        for i, (region, label) in enumerate(zip(regions, labels)):
            single = _twin(net, region, label, bounded_zonotopes(2))
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_batch_height_stability(self):
        """A row's result is independent of who shares its kernel call —
        the property the scheduler's fused sweeps rely on."""
        net = mlp(6, [16, 12], 4, rng=7)
        regions = _regions(11, 12, 6, rmax=0.5)
        for domain in (ZONOTOPE, bounded_zonotopes(4)):
            full = _one_label_batch(net, regions, 2, domain)
            for cut in (1, 3, 7):
                part = _one_label_batch(net, regions[:cut], 2, domain)
                for i in range(cut):
                    assert (
                        part[i].margin_lower_bound
                        == full[i].margin_lower_bound
                    )

    def test_batched_element_protocol(self):
        boxes = [Box.unit(3), Box.unit(3)]
        for spec, cls in (
            (DomainSpec("zonotope", 1), ZonotopeBatch),
            (DomainSpec("zonotope", 4), PowersetBatch),
        ):
            element = spec.lift_batch(boxes)
            assert isinstance(element, cls)
            assert isinstance(element, BatchedElement)
            assert element.batch_size == 2
        assert DomainSpec("symbolic", 1).lift_batch(boxes) is None
        assert DomainSpec("interval", 4).lift_batch(boxes) is None


class TestPowersetBatchRelu:
    """The satellite contract: randomized batch-vs-single equivalence
    across disjunct counts, crossing patterns, and overflow joins."""

    @pytest.mark.parametrize("budget", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_exact_across_budgets(self, seed, budget):
        net = mlp(5, [14, 10], 3, rng=seed + 20)
        # Wide regions make many dims cross, so small budgets overflow
        # (residual split+join joins inside the final pass) while large
        # budgets keep splitting — both paths compared exactly.
        regions = _regions(seed + 40, 5, 5, rmax=0.8)
        domain = DomainSpec("zonotope", budget)
        batch = _one_label_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = _twin(net, region, 1, domain)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_disjunct_structure_matches(self):
        """Same disjunct count, same per-disjunct arrays as sequential."""
        net = mlp(4, [12], 3, rng=9)
        regions = _regions(5, 4, 4, rmax=0.7)
        element, outputs = _outputs(net, regions, bounded_zonotopes(4))
        for i, want in enumerate(outputs):
            _assert_row_equal(want, element, i)

    def test_no_crossing_clamp_only(self):
        """Regions whose activations never cross take the one-pass clamp
        path; results must still be exact."""
        net = mlp(3, [6], 2, rng=1)
        regions = _regions(6, 4, 3, rmax=0.01)
        batch = _one_label_batch(net, regions, 0, bounded_zonotopes(2))
        for i, region in enumerate(regions):
            single = _twin(net, region, 0, bounded_zonotopes(2))
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_powerset_rows_and_bounds(self):
        boxes = _regions(7, 3, 4, rmax=0.2)
        batch = PowersetBatch.from_boxes(boxes, 3)
        assert batch.total_disjuncts == 3
        sub = batch.rows([2, 0])
        assert sub.batch_size == 2
        low, high = batch.bounds()
        for i, box in enumerate(boxes):
            # Bitwise-equal to the sequential lift (which reconstructs
            # bounds from center ± radius, same as the batch).
            want_low, want_high = Zonotope.from_box(box).bounds()
            np.testing.assert_array_equal(low[i], want_low)
            np.testing.assert_array_equal(high[i], want_high)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowersetBatch.from_boxes([], 2)
        with pytest.raises(ValueError):
            PowersetBatch.from_boxes([Box.unit(2)], 0)
        with pytest.raises(ValueError):
            PowersetBatch(
                np.zeros((3, 2)),
                np.zeros((3, 0, 2)),
                np.zeros((3, 2)),
                np.array([0, 1, 3]),  # second region has 2 > budget rows
                1,
            )


@pytest.fixture
def no_compaction():
    """Run a test with generator compaction disabled, restoring after."""
    previous = fused.set_compaction(False)
    yield
    fused.set_compaction(previous)


class TestGeneratorCompaction:
    """The fused-kernel compaction invariant: dropping provably-zero
    generator rows changes nothing observable — not against the
    uncompacted reference path, and not against the sequential
    single-region elements, across overflow-join and budget cases."""

    @staticmethod
    def _promoted_batch(seed, batch, k, n, dead):
        """A batch with exact-zero generator rows (the err-promotion
        shape compaction exists for)."""
        zb = _random_batch(seed, batch, k, n)
        rng = np.random.default_rng(seed + 1)
        zb.gens[:, rng.choice(k, dead, replace=False), :] = 0.0
        return zb

    @pytest.mark.parametrize("seed", range(4))
    def test_compaction_matches_reference_fuzz(self, seed):
        zb = self._promoted_batch(seed, batch=6, k=12, n=7, dead=5)
        previous = fused.set_compaction(False)
        try:
            want = zb.relu()
        finally:
            fused.set_compaction(previous)
        fused.reset_counters()
        got = zb.relu()
        assert fused.FUSED_COUNTERS["compacted_rows"] > 0
        # Identical values and identical shapes: compaction is internal,
        # the dropped rows come back as zeros in their original slots.
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.gens, want.gens)
        np.testing.assert_array_equal(got.errs, want.errs)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_vs_single_with_compaction_fuzz(self, seed):
        """Batched rows equal sequential elements bitwise whether or not
        compaction runs (both paths apply it identically)."""
        zb = self._promoted_batch(seed + 7, batch=5, k=10, n=6, dead=4)
        for enabled in (True, False):
            previous = fused.set_compaction(enabled)
            try:
                out = zb.relu()
                for i in range(zb.batch_size):
                    _assert_row_equal(_row(zb, i).relu(), out, i)
            finally:
                fused.set_compaction(previous)

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_powerset_budget_cases_match_reference(self, budget):
        """Overflow-join/budget pipelines end to end: margins and every
        disjunct array agree between compaction and the reference path,
        and with the sequential twin."""
        net = mlp(5, [14, 10], 3, rng=31)
        regions = _regions(51, 4, 5, rmax=0.8)
        domain = DomainSpec("zonotope", budget)
        with_compaction = _one_label_batch(net, regions, 1, domain)
        got, _ = _outputs(net, regions, domain)
        previous = fused.set_compaction(False)
        try:
            reference = _one_label_batch(net, regions, 1, domain)
            want, _ = _outputs(net, regions, domain)
            sequential = [_twin(net, r, 1, domain) for r in regions]
        finally:
            fused.set_compaction(previous)
        for got_row, want_row, solo in zip(
            with_compaction, reference, sequential
        ):
            assert got_row.margin_lower_bound == want_row.margin_lower_bound
            assert got_row.margin_lower_bound == solo.margin_lower_bound
        # Every disjunct array of every row, and (powersets) the same
        # disjunct count per row.
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.gens, want.gens)
        np.testing.assert_array_equal(got.errs, want.errs)
        if budget > 1:
            np.testing.assert_array_equal(got.offsets, want.offsets)

    def test_no_compaction_fixture_disables_counters(self, no_compaction):
        zb = self._promoted_batch(3, batch=4, k=8, n=5, dead=3)
        fused.reset_counters()
        zb.relu()
        assert fused.FUSED_COUNTERS["compacted_rows"] == 0


class TestSoundness:
    """Batched outputs must still contain every concrete execution."""

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(3)], ids=str
    )
    def test_contains_concrete_runs(self, domain):
        net = mlp(4, [10, 8], 3, rng=6)
        regions = _regions(9, 3, 4, rmax=0.5)
        element, _ = _outputs(net, regions, domain)
        lows, highs = element.bounds()
        rng = np.random.default_rng(0)
        for i, region in enumerate(regions):
            low, high = lows[i], highs[i]
            for x in region.sample(rng, 40):
                y = net.logits(x)
                assert np.all(y >= low - 1e-9) and np.all(y <= high + 1e-9)
