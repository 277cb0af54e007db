"""Containment fuzz: float32 analyzer bounds always contain float64's.

The numpy32 backend's soundness rests on outward rounding — every lift
and every widening site pads by a directed-rounding slack — so for any
network, region, and domain, the float32 margin lower bound must never
exceed the float64 reference bound (a tighter float32 bound would mean
the float32 abstraction failed to contain the float64 one).
"""

import numpy as np
import pytest

from repro.abstract.analyzer import analyze, analyze_batch_multi, propagate
from repro.abstract.domains import SYMBOLIC, DomainSpec
from repro.backend import use_backend
from repro.nn.builders import mlp
from repro.utils.boxes import Box


def random_mlp(seed, hidden=(10, 10)):
    return mlp(4, list(hidden), 3, rng=seed)


def random_box(seed, n=4, max_radius=0.8):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, size=n)
    radius = rng.uniform(0.05, max_radius, size=n)
    return Box(center - radius, center + radius)

DOMAINS = (
    DomainSpec("interval", 1),
    DomainSpec("zonotope", 1),
    DomainSpec("zonotope", 2),
    DomainSpec("deeppoly", 1),
)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.short_name)
@pytest.mark.parametrize("seed", range(12))
def test_margin_bound_containment(domain, seed):
    network = random_mlp(seed)
    region = random_box(seed + 100)
    label = seed % 3
    reference = analyze(network, region, label, domain)
    with use_backend("numpy32"):
        screened = analyze(network, region, label, domain)
    assert (
        screened.margin_lower_bound <= reference.margin_lower_bound + 1e-12
    ), (
        f"float32 margin {screened.margin_lower_bound!r} beats the float64 "
        f"reference {reference.margin_lower_bound!r} (unsound)"
    )


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.short_name)
def test_batched_margin_containment(domain):
    network = random_mlp(7, hidden=(12, 12))
    regions = [random_box(200 + i) for i in range(9)]
    labels = [i % 3 for i in range(9)]
    reference = analyze_batch_multi(network, regions, labels, domain)
    with use_backend("numpy32"):
        screened = analyze_batch_multi(network, regions, labels, domain)
    for ref, scr in zip(reference, screened):
        assert scr.margin_lower_bound <= ref.margin_lower_bound + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_sequential_powerset_twin_contained(seed):
    """The sequential (Z, 2) element, the batched kernel's twin, carries
    each disjunct's float32 affine slack: on small regions, where
    round-off is a large share of the margin, its float32 margin never
    beats the float64 one."""
    domain = DomainSpec("zonotope", 2)
    network = random_mlp(seed)
    rng = np.random.default_rng(seed + 500)
    for _ in range(10):
        region = Box.from_center_radius(
            rng.uniform(-1.0, 1.0, 4), float(rng.uniform(5e-4, 1e-2))
        )
        label = int(network.classify(region.center))
        reference = propagate(network.ops(), domain.lift(region))
        with use_backend("numpy32"):
            screened = propagate(
                network.ops_for(np.float32), domain.lift(region)
            )
        assert screened.min_margin(label) <= reference.min_margin(label)


def test_symbolic_stays_float64_under_numpy32():
    """Symbolic intervals have no outward rounding, so they run the
    float64 lowering under every backend: numpy32 margins are the
    numpy64 ones, bit for bit."""
    network = random_mlp(5, hidden=(12, 12))
    regions = [random_box(400 + i, max_radius=0.1) for i in range(8)]
    labels = [i % 3 for i in range(8)]
    reference = analyze_batch_multi(network, regions, labels, SYMBOLIC)
    with use_backend("numpy32"):
        screened = analyze_batch_multi(network, regions, labels, SYMBOLIC)
    assert [r.margin_lower_bound for r in screened] == [
        r.margin_lower_bound for r in reference
    ]


def test_interval_output_bounds_contain():
    """Elementwise: the float32 output box contains the float64 box."""
    domain = DomainSpec("interval", 1)
    for seed in range(8):
        network = random_mlp(seed, hidden=(8, 8))
        region = random_box(300 + seed)
        reference = propagate(network.ops(), domain.lift(region))
        with use_backend("numpy32"):
            screened = propagate(
                network.ops_for(np.float32), domain.lift(region)
            )
        assert np.all(
            screened.low.astype(np.float64) <= reference.low + 1e-12
        )
        assert np.all(
            screened.high.astype(np.float64) >= reference.high - 1e-12
        )


def test_float64_path_bitwise_through_backend_seam():
    """Routing through the numpy64 backend changes nothing, bit for bit."""
    domain = DomainSpec("zonotope", 2)
    network = random_mlp(3)
    region = random_box(42)
    a = analyze(network, region, 1, domain)
    with use_backend("numpy64"):
        b = analyze(network, region, 1, domain)
    assert a.margin_lower_bound == b.margin_lower_bound


def test_deeppoly_float32_slack_counts_hidden_widths():
    """Float32 DeepPoly never reports a margin above the true minimum.

    Every unit of this 1-input, 1000-wide network is stable on the tiny
    box, so the network is affine there and the minimum margin sits at
    a vertex.  The float32 slack must count the hidden relations' width,
    not only the input's: with the input's alone, both states claimed a
    margin above that minimum.
    """
    network = mlp(1, [1000, 1000], 3, rng=3)
    region = Box(np.array([0.5 - 1e-6]), np.array([0.5 + 1e-6]))
    vertices = network.forward(np.stack([region.low, region.high]))
    true_min = float((vertices[:, :1] - vertices[:, 1:]).min())
    domain = DomainSpec("deeppoly", 1)
    reference = analyze(network, region, 0, domain).margin_lower_bound
    assert reference == pytest.approx(true_min, abs=1e-12)
    with use_backend("numpy32"):
        sequential = propagate(
            network.ops_for(np.float32), domain.lift(region)
        ).min_margin(0)
        (batched,) = analyze_batch_multi(network, [region], [0], domain)
    assert sequential <= true_min
    assert batched.margin_lower_bound <= true_min
