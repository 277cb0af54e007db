"""The scheduler's fused-kernel building blocks, pinned row by row.

Cross-property sweeps are only correct if the per-region-label kernels
compute exactly what their single-label counterparts compute per row.
These tests compare them directly.
"""

import numpy as np
import pytest

from repro.abstract.analyzer import analyze_batch_multi, propagate
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    SYMBOLIC,
    ZONOTOPE,
    bounded_intervals,
    bounded_zonotopes,
)
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
            solo = propagate(net.ops(), domain.lift(region)).min_margin(label)
            assert result.verified == (solo > 0.0)
            assert result.margin_lower_bound == pytest.approx(solo, abs=1e-9)

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
