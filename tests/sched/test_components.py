"""The scheduler's fused-kernel building blocks, pinned row by row.

Cross-property sweeps are only correct if the per-region-label kernels
compute exactly what their single-label counterparts compute per row, and
if the vectorized powerset transformers match the per-disjunct loops they
replaced.  These tests compare them directly.
"""

import numpy as np
import pytest

from repro.abstract.analyzer import analyze, analyze_batch_multi
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    SYMBOLIC,
    ZONOTOPE,
    bounded_intervals,
    bounded_zonotopes,
)
from repro.abstract.powerset import PowersetElement
from repro.abstract.zonotope import Zonotope
from repro.attack.objective import MarginObjective, MultiLabelMarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize_batch
from repro.nn.builders import mlp
from repro.utils.boxes import Box


@pytest.fixture(scope="module")
def net():
    return mlp(4, [10, 10], 4, rng=2)


class TestMultiLabelObjective:
    def test_values_match_per_label_objectives(self, net):
        """Row i equals the single-label objective's row i on the *same*
        batch (identical GEMM shape -> identical bits)."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(6, 4))
        labels = [0, 1, 2, 3, 1, 0]
        multi = MultiLabelMarginObjective(net, labels)
        values = multi.value_batch(x)
        for i, label in enumerate(labels):
            assert values[i] == MarginObjective(net, label).value_batch(x)[i]

    def test_gradients_match_per_label_objectives(self, net):
        rng = np.random.default_rng(1)
        labels = [2, 0, 3]
        x = rng.uniform(0, 1, size=(6, 4))  # two rows per region label
        multi = MultiLabelMarginObjective(net, labels)
        values, grads = multi.value_and_gradient_batch(x)
        row_labels = np.repeat(labels, 2)
        for i, label in enumerate(row_labels):
            ref_v, ref_g = MarginObjective(
                net, int(label)
            ).value_and_gradient_batch(x)
            assert values[i] == ref_v[i]
            np.testing.assert_array_equal(grads[i], ref_g[i])

    def test_uniform_labels_match_single_label_objective(self, net):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(4, 4))
        multi = MultiLabelMarginObjective(net, [1, 1, 1, 1])
        np.testing.assert_array_equal(
            multi.value_batch(x), MarginObjective(net, 1).value_batch(x)
        )

    def test_pgd_rows_match_single_label_runs(self, net):
        """The fused PGD kernel with mixed labels reproduces each region's
        single-label trajectory bit for bit."""
        regions = [
            Box.linf_ball(np.full(4, 0.4), 0.2),
            Box.linf_ball(np.full(4, 0.6), 0.15),
            Box.linf_ball(np.full(4, 0.5), 0.25),
        ]
        labels = [0, 2, 3]
        config = PGDConfig(steps=25, restarts=2, stop_below=-np.inf)
        seeds = [11, 22, 33]
        multi_x, multi_f = pgd_minimize_batch(
            MultiLabelMarginObjective(net, labels),
            regions,
            config,
            [np.random.default_rng(s) for s in seeds],
        )
        for i, (region, label) in enumerate(zip(regions, labels)):
            solo_x, solo_f = pgd_minimize_batch(
                MarginObjective(net, label),
                [region],
                config,
                [np.random.default_rng(seeds[i])],
            )
            np.testing.assert_array_equal(multi_x[i], solo_x[0])
            assert multi_f[i] == solo_f[0]

    def test_rejects_bad_labels_and_row_counts(self, net):
        with pytest.raises(ValueError, match="label"):
            MultiLabelMarginObjective(net, [0, 9])
        with pytest.raises(ValueError, match="label"):
            MultiLabelMarginObjective(net, [-1])
        multi = MultiLabelMarginObjective(net, [0, 1])
        with pytest.raises(ValueError, match="region blocks"):
            multi.value_batch(np.zeros((3, 4)))


class TestAnalyzeBatchMulti:
    @pytest.mark.parametrize(
        "domain",
        [
            INTERVAL,
            DEEPPOLY,
            ZONOTOPE,
            bounded_zonotopes(4),
            # No batched kernel: the per-region fallback takes the labels.
            SYMBOLIC,
            bounded_intervals(2),
        ],
    )
    def test_matches_per_region_analyze(self, net, domain):
        rng = np.random.default_rng(3)
        regions = [
            Box.linf_ball(rng.uniform(0.3, 0.7, 4), 0.1) for _ in range(5)
        ]
        labels = [0, 3, 1, 2, 0]
        results = analyze_batch_multi(net, regions, labels, domain)
        for region, label, result in zip(regions, labels, results):
            solo = analyze(net, region, label, domain)
            assert result.verified == solo.verified
            assert result.margin_lower_bound == pytest.approx(
                solo.margin_lower_bound, abs=1e-9
            )

    def test_uniform_labels_match_label_groups(self, net):
        """One label bounds the whole batch at once; mixed labels bound
        each label group on its own rows.  Both agree."""
        rng = np.random.default_rng(4)
        regions = [
            Box.linf_ball(rng.uniform(0.3, 0.7, 4), 0.05) for _ in range(5)
        ]
        uniform = analyze_batch_multi(net, regions[:4], [2] * 4, DEEPPOLY)
        grouped = analyze_batch_multi(net, regions, [2] * 4 + [0], DEEPPOLY)
        for a, b in zip(uniform, grouped):
            assert a.verified == b.verified
            assert a.margin_lower_bound == pytest.approx(
                b.margin_lower_bound, abs=1e-9
            )

    def test_validates_inputs(self, net):
        region = Box.linf_ball(np.full(4, 0.5), 0.1)
        with pytest.raises(ValueError, match="labels"):
            analyze_batch_multi(net, [region, region], [0], INTERVAL)
        with pytest.raises(ValueError, match="label"):
            analyze_batch_multi(net, [region], [99], INTERVAL)
        with pytest.raises(ValueError, match="dims"):
            analyze_batch_multi(
                net, [Box.linf_ball(np.zeros(3), 0.1)], [0], INTERVAL
            )


def _random_powerset(rng, disjuncts, gens, dim):
    """Same-shape random zonotope disjuncts inside one powerset."""
    elements = [
        Zonotope(
            rng.normal(size=dim),
            rng.normal(size=(gens, dim)) * 0.3,
            np.abs(rng.normal(size=dim)) * 0.1,
        )
        for _ in range(disjuncts)
    ]
    return PowersetElement(elements, max_disjuncts=max(disjuncts, 4))


class TestPowersetVectorization:
    def test_affine_matches_per_disjunct_loop(self):
        rng = np.random.default_rng(5)
        element = _random_powerset(rng, disjuncts=3, gens=6, dim=5)
        weight = rng.normal(size=(4, 5))
        bias = rng.normal(size=4)
        fused = element.affine(weight, bias)
        for disjunct, reference in zip(
            fused.elements, [e.affine(weight, bias) for e in element.elements]
        ):
            np.testing.assert_allclose(
                disjunct.center, reference.center, atol=1e-12
            )
            np.testing.assert_allclose(
                disjunct.gens, reference.gens, atol=1e-12
            )
            np.testing.assert_array_equal(disjunct.err, reference.err)

    def test_relu_matches_per_disjunct_loop(self, monkeypatch):
        rng = np.random.default_rng(6)
        elements = [_random_powerset(rng, 4, 5, 6) for _ in range(10)]
        fused = [e.relu() for e in elements]
        # The pre-vectorization semantics: per-disjunct base transformer.
        monkeypatch.setattr(
            PowersetElement,
            "_final_relu",
            staticmethod(
                lambda current: [e.relu(skip_dims=done) for e, done in current]
            ),
        )
        for element, fast in zip(elements, fused):
            slow = element.relu()
            assert fast.num_disjuncts == slow.num_disjuncts
            for a, b in zip(fast.elements, slow.elements):
                np.testing.assert_array_equal(a.center, b.center)
                np.testing.assert_array_equal(a.gens, b.gens)
                np.testing.assert_array_equal(a.err, b.err)

    def test_final_relu_no_split_matches_clamp(self):
        """Disjuncts with no remaining crossings take the batched clamp;
        it must equal each disjunct's own ReLU transformer output."""
        rng = np.random.default_rng(7)
        # Shift centers so dimensions are decisively positive or negative:
        # no crossings, the batched-clamp path.
        elements = []
        for _ in range(3):
            center = np.where(rng.uniform(size=5) < 0.5, -3.0, 3.0)
            elements.append(
                Zonotope(
                    center,
                    rng.normal(size=(4, 5)) * 0.2,
                    np.abs(rng.normal(size=5)) * 0.05,
                )
            )
        element = PowersetElement(elements, max_disjuncts=3)
        fused = element.relu()
        for disjunct, base in zip(fused.elements, elements):
            reference = base.relu()
            np.testing.assert_array_equal(disjunct.center, reference.center)
            np.testing.assert_array_equal(disjunct.gens, reference.gens)
            np.testing.assert_array_equal(disjunct.err, reference.err)

    def test_mixed_shapes_fall_back(self):
        """Disjuncts with unequal generator shapes use the loop path."""
        a = Zonotope(np.array([1.0, -2.0]), np.zeros((2, 2)), np.zeros(2))
        b = Zonotope(np.array([-1.0, 2.0]), np.zeros((3, 2)), np.zeros(2))
        element = PowersetElement.__new__(PowersetElement)
        element.elements = [a, b]
        element.max_disjuncts = 2
        weight = np.array([[1.0, 0.5], [-0.5, 2.0]])
        fused = element.affine(weight, np.zeros(2))
        for disjunct, reference in zip(
            fused.elements, [e.affine(weight, np.zeros(2)) for e in (a, b)]
        ):
            np.testing.assert_array_equal(disjunct.center, reference.center)
