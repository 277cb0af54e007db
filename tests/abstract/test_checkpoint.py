"""The bitwise-resume contract of prefix checkpoints.

``analyze_batch_checkpointed`` resumed from a captured boundary state
must reproduce the cold run's floats *exactly* — margins, output bounds,
and verdicts — because the scheduler substitutes resumed suffix runs for
cold runs without re-deriving anything.  "Close" is not good enough:
equality of outcomes under a different float sequence would silently
depend on decision margins.  The matrix below pins bitwise equality
across domains × batch heights × split depths × backends, both from
in-memory captures and through the ``ResultCache`` disk round-trip
(``.px.npz``), plus conv networks and the mismatch guards that keep a
checkpoint from resuming the wrong run.  Single-region resume is the
height-1 row of the batched matrix.
"""

import numpy as np
import pytest

from repro.abstract.analyzer import (
    _checkpointed_walk,
    analyze_batch_checkpointed,
    analyze_batch_multi,
    propagate,
)
from repro.abstract.checkpoint import (
    PrefixBounds,
    capture_element,
    checkpoint_boundaries,
    ops_consumed,
    region_batch_digest,
    restore_element,
    supports_checkpoint,
)
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    SYMBOLIC,
    ZONOTOPE,
    DomainSpec,
    bounded_zonotopes,
)
from repro.abstract.interval import IntervalBatch
from repro.backend import use_backend
from repro.nn.builders import lenet_conv, mlp
from repro.nn.layers import ReLU
from repro.sched.cache import ResultCache
from repro.utils.boxes import Box

DOMAINS = [INTERVAL, ZONOTOPE, DEEPPOLY]
BACKENDS = ["numpy64", "numpy32"]


def _split_regions(low, high, depth):
    """The leaves of ``depth`` rounds of widest-dimension bisection.

    Mirrors how the verifier's frontier produces sub-regions, so the
    matrix exercises the region shapes checkpoints actually see.
    """
    boxes = [(np.asarray(low, float), np.asarray(high, float))]
    for _ in range(depth):
        nxt = []
        for lo, hi in boxes:
            dim = int(np.argmax(hi - lo))
            mid = 0.5 * (lo[dim] + hi[dim])
            hi_a = hi.copy()
            hi_a[dim] = mid
            lo_b = lo.copy()
            lo_b[dim] = mid
            nxt.append((lo, hi_a))
            nxt.append((lo_b, hi))
        boxes = nxt
    return [Box(lo, hi) for lo, hi in boxes]


def _batch(n, height, depth, seed=5):
    rng = np.random.default_rng(seed)
    regions = []
    while len(regions) < height:
        center = rng.uniform(-0.4, 0.4, n)
        radius = float(rng.uniform(0.05, 0.2))
        regions.extend(_split_regions(center - radius, center + radius, depth))
    return regions[:height]


def assert_results_bitwise_equal(cold, resumed):
    assert len(cold) == len(resumed)
    for a, b in zip(cold, resumed):
        assert a.verified == b.verified
        assert a.margin_lower_bound == b.margin_lower_bound  # exact


def _bounds(element):
    """Per-row ``(low, high)`` output bounds of a batched element."""
    if isinstance(element, IntervalBatch):
        return element.low, element.high
    return element.bounds()


def output_bounds(net, regions, domain, resume=None, capture=()):
    """Output bounds of the walk ``analyze_batch_checkpointed`` runs,
    cold or resumed from ``resume``, on the active backend."""
    element = domain.lift_batch(regions) if resume is None else None
    output, _ = _checkpointed_walk(
        net, element, region_batch_digest(regions), domain, None, resume,
        capture,
    )
    return _bounds(output)


def assert_bounds_bitwise_equal(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


class TestBoundaries:
    def test_mlp_boundaries_follow_relus(self):
        net = mlp(4, [6, 5], 3, rng=0)  # D R D R D
        assert checkpoint_boundaries(net) == [2, 4]
        assert all(
            isinstance(net.layers[b - 1], ReLU)
            for b in checkpoint_boundaries(net)
        )

    def test_full_network_boundary_excluded(self):
        # The state after the last layer is the result, not a prefix.
        net = mlp(4, [6], 3, rng=0)
        assert checkpoint_boundaries(net) == [2]
        assert len(net.layers) not in checkpoint_boundaries(net)

    def test_ops_consumed_skips_flatten(self):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=3, rng=0)
        depth = len(net.layers)
        assert ops_consumed(net, depth) == len(net.ops_for(np.float64))
        for b in checkpoint_boundaries(net):
            assert ops_consumed(net, b) <= b

    def test_supports_checkpoint(self):
        assert supports_checkpoint(INTERVAL)
        assert supports_checkpoint(ZONOTOPE)
        assert supports_checkpoint(DEEPPOLY)
        assert not supports_checkpoint(SYMBOLIC)
        assert not supports_checkpoint(bounded_zonotopes(2))
        assert not supports_checkpoint(DomainSpec("interval", 2))


class TestResumeMatrix:
    """Resume must be bitwise-identical to cold, cell by cell."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("height", [1, 4])
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.base)
    def test_resume_equals_cold(self, domain, depth, height, backend):
        net = mlp(5, [12, 10, 8], 3, rng=2)  # boundaries [2, 4, 6]
        regions = _batch(5, height, depth)
        labels = [i % 3 for i in range(len(regions))]
        boundaries = checkpoint_boundaries(net)
        with use_backend(backend):
            cold, captured = analyze_batch_checkpointed(
                net, regions, labels, domain,
                capture_boundaries=boundaries,
            )
            cold_bounds = output_bounds(net, regions, domain)
            assert [c.boundary for c in captured] == boundaries
            for record in captured:
                resumed, later = analyze_batch_checkpointed(
                    net, regions, labels, domain, resume=record,
                    capture_boundaries=boundaries,
                )
                assert_results_bitwise_equal(cold, resumed)
                assert_bounds_bitwise_equal(
                    cold_bounds, output_bounds(net, regions, domain, record)
                )
                # Only boundaries past the resume point are re-captured.
                assert [c.boundary for c in later] == [
                    b for b in boundaries if b > record.boundary
                ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.base)
    def test_disk_round_trip_resume_is_bitwise(
        self, domain, backend, tmp_path
    ):
        net = mlp(5, [12, 10, 8], 3, rng=2)
        regions = _batch(5, 3, 1)
        labels = [0, 1, 2]
        cache = ResultCache(tmp_path / "cache")
        with use_backend(backend):
            cold, captured = analyze_batch_checkpointed(
                net, regions, labels, domain,
                capture_boundaries=checkpoint_boundaries(net),
            )
            cold_bounds = output_bounds(net, regions, domain)
            for record in captured:
                cache.put_prefix(record)
                stored = cache.get_prefix(
                    record.prefix_digest,
                    record.regions_digest,
                    record.domain,
                    record.backend,
                )
                assert stored is not None
                assert stored.boundary == record.boundary
                for name, arr in record.arrays.items():
                    np.testing.assert_array_equal(stored.arrays[name], arr)
                resumed, _ = analyze_batch_checkpointed(
                    net, regions, labels, domain, resume=stored
                )
                assert_results_bitwise_equal(cold, resumed)
                assert_bounds_bitwise_equal(
                    cold_bounds, output_bounds(net, regions, domain, stored)
                )

    @pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.base)
    def test_conv_network_resume_is_bitwise(self, domain):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=3, rng=1)
        boundaries = checkpoint_boundaries(net)
        assert boundaries  # conv nets have checkpointable ReLUs
        regions = _batch(net.input_size, 2, 0, seed=9)
        regions = [
            Box(np.clip(r.low, 0.1, 0.9), np.clip(r.high, 0.1, 0.9))
            for r in regions
        ]
        labels = [0, 1]
        cold, captured = analyze_batch_checkpointed(
            net, regions, labels, domain, capture_boundaries=boundaries
        )
        cold_bounds = output_bounds(net, regions, domain)
        for record in captured:
            # op_count differs from the layer boundary on conv nets
            # (Flatten lowers to no op); both address the same state.
            assert record.op_count == ops_consumed(net, record.boundary)
            resumed, _ = analyze_batch_checkpointed(
                net, regions, labels, domain, resume=record
            )
            assert_results_bitwise_equal(cold, resumed)
            assert_bounds_bitwise_equal(
                cold_bounds, output_bounds(net, regions, domain, record)
            )

    @pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.base)
    def test_cold_checkpointed_equals_plain_batched(self, domain):
        # Emitting checkpoints must not perturb the analysis itself.
        net = mlp(5, [12, 10, 8], 3, rng=2)
        regions = _batch(5, 4, 1)
        labels = [1] * 4
        plain = analyze_batch_multi(net, regions, labels, domain)
        mute, _ = analyze_batch_checkpointed(net, regions, labels, domain)
        loud, _ = analyze_batch_checkpointed(
            net, regions, labels, domain,
            capture_boundaries=checkpoint_boundaries(net),
        )
        assert_results_bitwise_equal(plain, mute)
        assert_results_bitwise_equal(plain, loud)
        plain_bounds = _bounds(
            propagate(net.ops(), domain.lift_batch(regions))
        )
        assert_bounds_bitwise_equal(
            plain_bounds, output_bounds(net, regions, domain)
        )
        assert_bounds_bitwise_equal(
            plain_bounds,
            output_bounds(
                net, regions, domain, capture=checkpoint_boundaries(net)
            ),
        )


class TestGuards:
    @pytest.fixture()
    def record(self):
        net = mlp(5, [12, 10], 3, rng=2)
        regions = _batch(5, 2, 0)
        _, captured = analyze_batch_checkpointed(
            net, regions, [0, 1], DEEPPOLY, capture_boundaries=[2]
        )
        return net, regions, captured[0]

    def test_wrong_backend_raises(self, record):
        net, regions, rec = record
        with use_backend("numpy32"):
            with pytest.raises(ValueError, match="backend"):
                analyze_batch_checkpointed(
                    net, regions, [0, 1], DEEPPOLY, resume=rec
                )

    def test_wrong_domain_raises(self, record):
        net, regions, rec = record
        with pytest.raises(ValueError, match="domain"):
            analyze_batch_checkpointed(
                net, regions, [0, 1], INTERVAL, resume=rec
            )

    def test_wrong_batch_raises(self, record):
        # A record resumes only the ordered batch it was captured for:
        # resuming another batch is refused, never served the record's
        # own rows as that batch's margins.
        net, _, rec = record
        other = _batch(5, 2, 0, seed=77)
        with pytest.raises(ValueError, match="different batch"):
            analyze_batch_checkpointed(
                net, other, [0, 1], DEEPPOLY, resume=rec
            )

    def test_wrong_batch_never_found(self, record, tmp_path):
        # The batch guard lives in the cache address: a checkpoint for
        # one ordered batch is unreachable when probing with another.
        _, regions, rec = record
        cache = ResultCache(tmp_path / "cache")
        cache.put_prefix(rec)
        other = _batch(5, 2, 0, seed=77)
        assert cache.get_prefix(
            rec.prefix_digest,
            region_batch_digest(other),
            rec.domain,
            rec.backend,
        ) is None
        assert cache.get_prefix(
            rec.prefix_digest, rec.regions_digest, rec.domain, rec.backend
        ) is not None

    def test_unsupported_domain_raises(self):
        net = mlp(5, [12], 3, rng=2)
        with pytest.raises(ValueError, match="checkpoint"):
            analyze_batch_checkpointed(
                net, _batch(5, 2, 0), [0, 1], bounded_zonotopes(2)
            )

    def test_unknown_element_type_rejected(self):
        with pytest.raises(TypeError, match="codec"):
            capture_element(object(), [])

    def test_unknown_kind_rejected(self):
        rec = PrefixBounds(
            boundary=1, op_count=1, prefix_digest="x", regions_digest="y",
            domain=("interval", 1), backend="numpy64", kind="martian",
            meta=None, arrays={},
        )
        with pytest.raises(ValueError, match="martian"):
            restore_element(rec, [])


class TestRegionDigest:
    def test_sensitive_to_order_and_values(self):
        a, b = _batch(4, 2, 0)
        assert region_batch_digest([a, b]) != region_batch_digest([b, a])
        assert region_batch_digest([a]) != region_batch_digest([b])
        assert region_batch_digest([a, b]) == region_batch_digest([a, b])

    def test_sensitive_to_batch_height(self):
        a, b = _batch(4, 2, 0)
        assert region_batch_digest([a]) != region_batch_digest([a, a])
