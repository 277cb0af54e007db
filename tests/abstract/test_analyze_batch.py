"""Batched analysis must match each region's sequential twin
(``propagate(ops, domain.lift(region))``), region by region.

Tolerances: the batched interval/DeepPoly paths run the same arithmetic as
the sequential elements but through GEMMs whose BLAS reduction order depends
on operand shapes, so "bitwise" equality across batch widths is physically
unattainable; observed drift is a few ulps and the assertions below bound it
at 1e-12 (interval) and 1e-9 (DeepPoly).  The zonotope-family kernels are
batch-height-stable by construction and must match exactly — as must the
domains that fall back to the per-region loop (symbolic, interval
powersets).  ``tests/abstract/test_batched_zonotope.py`` covers the
zonotope kernels in depth.
"""

import weakref

import numpy as np
import pytest

from repro.abstract import deeppoly
from repro.abstract.analyzer import (
    AnalysisResult,
    analyze,
    analyze_batch_checkpointed,
    analyze_batch_multi,
    propagate,
)
from repro.abstract.deeppoly import DeepPolyBatch, _live_units, _live_width
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    SYMBOLIC,
    ZONOTOPE,
    bounded_zonotopes,
)
from repro.backend import use_backend
from repro.nn.builders import lenet_conv, mlp, xor_network
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.obs.metrics import registry as metrics_registry
from repro.utils.boxes import Box


def _one_label_batch(net, regions, label, domain):
    """One batched call with the same target label for every region."""
    return analyze_batch_multi(net, regions, [label] * len(regions), domain)


def _twin(net, region, label, domain):
    """The sequential twin's result: ``domain.lift(region)`` propagated
    alone through the float64 lowering."""
    margin = propagate(net.ops(), domain.lift(region)).min_margin(label)
    return AnalysisResult(bool(margin > 0.0), float(margin))


def _outputs(net, regions, domain):
    """The batched output element and the per-region sequential ones."""
    batched = propagate(net.ops(), domain.lift_batch(regions))
    singles = [propagate(net.ops(), domain.lift(r)) for r in regions]
    return batched, singles


def _regions(seed: int, count: int, n: int, lo=-0.6, hi=0.6) -> list[Box]:
    rng = np.random.default_rng(seed)
    return [
        Box.from_center_radius(
            rng.uniform(lo, hi, n), float(rng.uniform(0.01, 0.3))
        )
        for _ in range(count)
    ]


class TestIntervalBatch:
    def test_bounds_match_per_region(self):
        net = mlp(6, [14, 10], 4, rng=0)
        regions = _regions(1, 6, 6)
        batch = _one_label_batch(net, regions, 2, INTERVAL)
        element, outputs = _outputs(net, regions, INTERVAL)
        for i, region in enumerate(regions):
            single = _twin(net, region, 2, INTERVAL)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-12
            )
            lo_s, hi_s = outputs[i].bounds()
            np.testing.assert_allclose(element.low[i], lo_s, atol=1e-12)
            np.testing.assert_allclose(element.high[i], hi_s, atol=1e-12)

    def test_conv_with_maxpool(self):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=4, rng=0)
        regions = _regions(2, 3, net.input_size, lo=0.2, hi=0.8)
        batch = _one_label_batch(net, regions, 1, INTERVAL)
        for i, region in enumerate(regions):
            single = _twin(net, region, 1, INTERVAL)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-10
            )

    def test_soundness_on_samples(self):
        net = mlp(4, [12], 3, rng=3)
        regions = _regions(4, 4, 4)
        element, _ = _outputs(net, regions, INTERVAL)
        rng = np.random.default_rng(0)
        for i, region in enumerate(regions):
            lo, hi = element.low[i], element.high[i]
            for x in region.sample(rng, 50):
                y = net.logits(x)
                assert np.all(y >= lo - 1e-9) and np.all(y <= hi + 1e-9)


#: Bias offset per hidden-layer state: far enough from the pre-activation
#: spread that "dead" kills every unit on every region and "live" keeps
#: every unit active; "mixed" leaves units dead, stable and crossing.
_STATE_OFFSET = {"dead": -20.0, "live": 20.0, "mixed": 0.0}


def _staged_mlp(states, seed, n_in=6, n_out=4):
    """A Dense/ReLU MLP whose hidden layers are dead, live or mixed on
    every region of :func:`_regions` (inputs in [-0.9, 0.9])."""
    rng = np.random.default_rng(seed)
    layers = []
    size, magnitude = n_in, 1.0
    for i, state in enumerate(states):
        width = 8 + 3 * i
        scale = 1.0 / (magnitude * np.sqrt(size))
        weight = rng.normal(0.0, scale, (width, size))
        bias = _STATE_OFFSET[state] + rng.normal(0.0, 0.1, width)
        layers += [Dense(weight, bias), ReLU()]
        size, magnitude = width, 20.0 if state == "live" else 1.0
    scale = 1.0 / (magnitude * np.sqrt(size))
    weight = rng.normal(0.0, scale, (n_out, size))
    layers.append(Dense(weight, rng.normal(0.0, 0.1, n_out)))
    return Network(layers, input_shape=(n_in,))


def _batched_output(net, regions):
    return propagate(net.ops(), DeepPolyBatch.from_boxes(regions))


LIVE_CHAINS = [
    pytest.param(("mixed", "dead", "mixed"), id="dead-layer"),
    pytest.param(("live", "mixed", "mixed"), id="live-layer"),
    pytest.param(("mixed", "live", "dead"), id="live-then-dead"),
    pytest.param(("mixed", "mixed", "mixed"), id="mixed"),
]


class TestDeepPolyBatch:
    @pytest.mark.parametrize("states", LIVE_CHAINS)
    @pytest.mark.parametrize("radius", [1e-3, 0.1])
    @pytest.mark.parametrize(
        "count, mixed_labels",
        [(1, False), (5, False), (5, True)],
        ids=["B1", "B5", "B5-mixed-labels"],
    )
    def test_live_units_match_per_region(
        self, states, radius, count, mixed_labels
    ):
        """The live-unit rewrite: margins within the 1e-9 contract of
        the per-region dense analysis, identical verdicts, on chains with
        a layer dead on every region, one live on every region, and
        mixed ones; mixed labels take the ``rows()`` margin path."""
        net = _staged_mlp(states, seed=len(states) + count)
        rng = np.random.default_rng(count)
        regions = [
            Box.from_center_radius(rng.uniform(-0.6, 0.6, 6), radius)
            for _ in range(count)
        ]
        labels = [i % 4 if mixed_labels else 2 for i in range(count)]

        element = _batched_output(net, regions)
        assert _live_width(element.layers) is not None
        relus = [r for r in element.layers if type(r) is deeppoly._DiagBounds]
        for relu, state in zip(relus, states):
            idx, dl, du, bu = _live_units(relu)
            if state == "dead":
                assert idx.shape[1] == 0
            elif state == "live":
                # Every unit live on every region: no pad, no zero.
                assert idx.shape[1] == relu.dl.shape[1]
                assert (du != 0).all()
        low, high = element.bounds()
        for i, region in enumerate(regions):
            row = propagate(net.ops(), DEEPPOLY.lift(region))
            row_low, row_high = row.bounds()
            np.testing.assert_allclose(low[i], row_low, atol=1e-9)
            np.testing.assert_allclose(high[i], row_high, atol=1e-9)

        batch = analyze_batch_multi(net, regions, labels, DEEPPOLY)
        for result, region, label in zip(batch, regions, labels):
            single = _twin(net, region, label, DEEPPOLY)
            assert result.verified == single.verified
            assert result.margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-9
            )

    @pytest.mark.parametrize(
        "kinds",
        [("relu", "dense", "relu", "dense"),
         ("dense", "relu", "dense", "dense", "relu", "dense")],
        ids=["relu-on-input", "stacked-dense"],
    )
    def test_live_units_uncommon_chains(self, kinds):
        """A ReLU straight on the input (the box is gathered to its live
        units) and two Dense layers without a ReLU between them."""
        rng = np.random.default_rng(4)
        layers, size = [], 5
        for kind in kinds:
            if kind == "relu":
                layers.append(ReLU())
            else:
                width = 9 if len(layers) < len(kinds) - 1 else 3
                layers.append(Dense(
                    rng.normal(0.0, 1.0 / np.sqrt(size), (width, size)),
                    rng.normal(0.0, 0.2, width),
                ))
                size = width
        net = Network(layers, input_shape=(5,))
        regions = _regions(13, 4, 5)
        assert _live_width(_batched_output(net, regions).layers) is not None
        batch = analyze_batch_multi(net, regions, [0, 1, 2, 0], DEEPPOLY)
        for result, region, label in zip(batch, regions, [0, 1, 2, 0]):
            single = _twin(net, region, label, DEEPPOLY)
            assert result.verified == single.verified
            assert result.margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-9
            )

    @pytest.mark.parametrize("states", LIVE_CHAINS)
    def test_live_units_float32_contained(self, states):
        """Every float32 margin stays below its float64 margin: the
        dense-width outward-rounding slack still covers the compacted
        rewrite."""
        net = _staged_mlp(states, seed=3)
        regions = _regions(9, 6, 6)
        labels = [i % 4 for i in range(len(regions))]
        with use_backend("numpy64"):
            ref = analyze_batch_multi(net, regions, labels, DEEPPOLY)
        with use_backend("numpy32"):
            screen = analyze_batch_multi(net, regions, labels, DEEPPOLY)
        for r32, r64 in zip(screen, ref):
            assert r32.margin_lower_bound <= r64.margin_lower_bound + 1e-9

    def test_gathered_blocks_released_on_return(self, monkeypatch):
        """Gathered operands live only as long as the analysis: once the
        analyzer returns, none is reachable from its results."""
        refs = []

        def tracking(method):
            def wrapped(*args, **kwargs):
                out = method(*args, **kwargs)
                refs.extend(weakref.ref(arr) for arr in out)
                return out

            return wrapped

        monkeypatch.setattr(
            deeppoly._LiveUnits, "block", tracking(deeppoly._LiveUnits.block)
        )
        monkeypatch.setattr(
            deeppoly._LiveUnits, "live", tracking(deeppoly._LiveUnits.live)
        )
        net = mlp(6, [14, 12, 10], 4, rng=5)
        regions = _regions(12, 5, 6)
        labels = [0, 1, 0, 2, 1]
        results = analyze_batch_multi(net, regions, labels, DEEPPOLY)
        assert refs and all(ref() is None for ref in refs)
        refs.clear()
        results, captured = analyze_batch_checkpointed(
            net, regions, labels, DEEPPOLY, capture_boundaries=(2, 4)
        )
        assert refs and all(ref() is None for ref in refs)
        assert results and captured

    def test_relation_structure_selects_the_rewrite(self):
        """MLP chains take the live-unit rewrite; maxpool and pad chains
        keep the dense one.  No option is involved."""
        dense = _batched_output(mlp(4, [6, 9], 2, rng=0), _regions(6, 2, 4))
        assert _live_width(dense.layers) == 9
        conv = lenet_conv(input_shape=(1, 8, 8), num_classes=4, rng=1)
        pooled = _batched_output(conv, _regions(6, 2, conv.input_size))
        assert _live_width(pooled.layers) is None
        padded = DeepPolyBatch.from_boxes(_regions(6, 2, 4)).pad(
            np.full(4, 0.1)
        )
        assert _live_width(padded.layers) is None

    def test_bounds_match_per_region(self):
        net = mlp(6, [14, 12, 8], 4, rng=1)
        regions = _regions(5, 6, 6)
        batch = _one_label_batch(net, regions, 3, DEEPPOLY)
        element, outputs = _outputs(net, regions, DEEPPOLY)
        low, high = element.bounds()
        for i, region in enumerate(regions):
            single = _twin(net, region, 3, DEEPPOLY)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-9
            )
            lo_s, hi_s = outputs[i].bounds()
            np.testing.assert_allclose(low[i], lo_s, atol=1e-9)
            np.testing.assert_allclose(high[i], hi_s, atol=1e-9)

    def test_conv_with_maxpool(self):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=4, rng=1)
        regions = _regions(6, 3, net.input_size, lo=0.2, hi=0.8)
        batch = _one_label_batch(net, regions, 2, DEEPPOLY)
        for i, region in enumerate(regions):
            single = _twin(net, region, 2, DEEPPOLY)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == pytest.approx(
                single.margin_lower_bound, abs=1e-9
            )

    def test_soundness_on_samples(self):
        net = mlp(4, [10, 10], 3, rng=2)
        regions = _regions(7, 3, 4)
        element, _ = _outputs(net, regions, DEEPPOLY)
        low, high = element.bounds()
        rng = np.random.default_rng(1)
        for i, region in enumerate(regions):
            lo, hi = low[i], high[i]
            for x in region.sample(rng, 50):
                y = net.logits(x)
                assert np.all(y >= lo - 1e-9) and np.all(y <= hi + 1e-9)


class TestExactDomains:
    """Batched zonotope kernels and per-region fallbacks: no tolerance."""

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(2), SYMBOLIC], ids=str
    )
    def test_exactly_matches_per_region(self, domain):
        net = mlp(5, [12, 10], 3, rng=4)
        regions = _regions(8, 4, 5)
        batch = _one_label_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = _twin(net, region, 1, domain)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == single.margin_lower_bound


class TestBatchOfOne:
    @pytest.mark.parametrize("domain", [INTERVAL, DEEPPOLY], ids=str)
    def test_single_region_batch(self, domain):
        net = xor_network()
        region = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        batch = _one_label_batch(net, [region], 1, domain)
        single = _twin(net, region, 1, domain)
        assert len(batch) == 1
        assert batch[0].verified == single.verified
        assert batch[0].margin_lower_bound == pytest.approx(
            single.margin_lower_bound, abs=1e-12
        )


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            analyze_batch_multi(xor_network(), [], [], INTERVAL)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analyze_batch_multi(xor_network(), [Box.unit(3)], [0], INTERVAL)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            analyze_batch_multi(xor_network(), [Box.unit(2)], [5], INTERVAL)

    @pytest.mark.parametrize(
        "entry", ["analyze", "analyze_batch_multi", "analyze_batch_checkpointed"]
    )
    def test_entry_points_share_operand_check(self, entry):
        """Every Analyze entry point rejects the same bad operands with the
        same message, and a rejected call counts no kernel work."""
        calls = {
            "analyze": lambda net, regions, labels: [
                analyze(net, regions[0], labels[0], DEEPPOLY)
            ],
            "analyze_batch_multi": lambda net, regions, labels: (
                analyze_batch_multi(net, regions, labels, DEEPPOLY)
            ),
            "analyze_batch_checkpointed": lambda net, regions, labels: (
                analyze_batch_checkpointed(net, regions, labels, DEEPPOLY)[0]
            ),
        }
        call = calls[entry]
        net = xor_network()
        before = metrics_registry().counters_snapshot()
        with pytest.raises(
            ValueError, match="region has 3 dims, network expects 2"
        ):
            call(net, [Box.unit(3)], [0])
        with pytest.raises(
            ValueError, match="label 5 out of range for 2 outputs"
        ):
            call(net, [Box.unit(2)], [5])
        assert not any(
            name.startswith("kernel.")
            for name in metrics_registry().counters_since(before)
        )
        (result,) = call(net, [Box.unit(2)], [0])
        assert result == analyze(net, Box.unit(2), 0, DEEPPOLY)
