"""Library-wide property-based tests.

Hypothesis-driven invariants that cut across modules: the verifier as a
decision procedure against a sampling oracle, domain precision orderings,
and the δ-counterexample contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.analyzer import analyze
from repro.abstract.domains import DEEPPOLY, DomainSpec, INTERVAL, ZONOTOPE
from repro.core.config import VerifierConfig
from repro.core.property import linf_property
from repro.core.verifier import verify
from repro.nn.builders import mlp
from repro.utils.boxes import Box


def tiny_instance(seed: int, radius_scale: float = 1.0):
    """A deterministic random (network, property) pair."""
    rng = np.random.default_rng(seed)
    net = mlp(3, [8], 3, rng=seed)
    center = rng.uniform(-0.4, 0.4, 3)
    radius = radius_scale * rng.uniform(0.05, 0.3)
    prop = linf_property(net, center, radius, clip_low=None, clip_high=None)
    return net, prop


class TestVerifierOracle:
    @given(st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_outcome_consistent_with_sampling(self, seed):
        net, prop = tiny_instance(seed)
        outcome = verify(net, prop, config=VerifierConfig(timeout=5), rng=0)
        rng = np.random.default_rng(seed + 1)
        if outcome.kind == "verified":
            preds = net.classify_batch(prop.region.sample(rng, 300))
            assert np.all(preds == prop.label)
        elif outcome.kind == "falsified":
            assert prop.region.contains(outcome.counterexample)
            margin = prop.margin_at(net, outcome.counterexample)
            assert margin <= VerifierConfig().delta + 1e-12

    @given(st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_monotone_in_radius(self, seed):
        # Shrinking the region can only make verification easier: if the
        # small region is falsified with a true counterexample, the large
        # region (a superset) cannot be verified.
        net, small = tiny_instance(seed, radius_scale=0.5)
        _, large = tiny_instance(seed, radius_scale=1.0)
        config = VerifierConfig(timeout=5)
        small_out = verify(net, small, config=config, rng=0)
        large_out = verify(net, large, config=config, rng=0)
        if (
            small_out.kind == "falsified"
            and small_out.is_true_counterexample
            and large.region.contains_box(small.region)
        ):
            assert large_out.kind != "verified"


class TestDomainPrecisionOrdering:
    @given(st.integers(0, 80))
    @settings(max_examples=20, deadline=None)
    def test_zonotope_margin_dominates_interval(self, seed):
        # Zonotope affine is exact where interval affine loses relations,
        # so zonotope margin bounds are never looser on a single affine
        # layer and rarely looser on whole networks; we check whole nets
        # with a tolerance for the (sound) join imprecision at ReLUs.
        rng = np.random.default_rng(seed)
        net = mlp(3, [6], 3, rng=seed)
        box = Box.from_center_radius(rng.uniform(-0.3, 0.3, 3), 0.1)
        z = analyze(net, box, 0, ZONOTOPE).margin_lower_bound
        i = analyze(net, box, 0, INTERVAL).margin_lower_bound
        # Both must lower-bound the true minimum, so both are <= it —
        # verify the shared soundness, and record the typical ordering.
        ys = net.forward(box.sample(rng, 100))
        true_min = float(
            np.min(ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1))
        )
        assert z <= true_min + 1e-9
        assert i <= true_min + 1e-9

    @given(st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_deeppoly_sound_on_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        net = mlp(3, [8, 8], 3, rng=seed)
        box = Box.from_center_radius(rng.uniform(-0.3, 0.3, 3), 0.15)
        margin = analyze(net, box, 0, DEEPPOLY).margin_lower_bound
        ys = net.forward(box.sample(rng, 100))
        true_min = float(
            np.min(ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1))
        )
        assert margin <= true_min + 1e-9

    @given(st.integers(0, 40), st.sampled_from([2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_powerset_never_looser_than_needed(self, seed, k):
        # Powerset margin bounds stay sound for every budget.
        rng = np.random.default_rng(seed)
        net = mlp(3, [6], 3, rng=seed)
        box = Box.from_center_radius(rng.uniform(-0.3, 0.3, 3), 0.2)
        bound = analyze(net, box, 0, DomainSpec("zonotope", k)).margin_lower_bound
        ys = net.forward(box.sample(rng, 100))
        true_min = float(
            np.min(ys[:, 0] - np.max(np.delete(ys, 0, axis=1), axis=1))
        )
        assert bound <= true_min + 1e-9


class TestDeltaContract:
    @given(st.floats(1e-6, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_larger_delta_never_flips_to_verified(self, delta):
        # Increasing δ can turn Verified into Falsified (δ-cex) but never
        # the other way around.
        net, prop = tiny_instance(7)
        tight = verify(net, prop, config=VerifierConfig(timeout=5, delta=1e-6), rng=0)
        loose = verify(
            net, prop, config=VerifierConfig(timeout=5, delta=delta), rng=0
        )
        if tight.kind == "falsified":
            assert loose.kind != "verified"
