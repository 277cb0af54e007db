"""Tests for the verification policies (π_α, π_I)."""

import numpy as np
import pytest

import repro.core.policy as policy_module
from repro.abstract.domains import DomainSpec, INTERVAL, ZONOTOPE
from repro.attack.objective import MarginObjective
from repro.core.features import NUM_FEATURES, featurize
from repro.core.policy import (
    BisectionPolicy,
    DISJUNCT_CHOICES,
    LinearPolicy,
    NUM_OUTPUTS,
    SplitChoice,
    default_policy,
)
from repro.core.property import RobustnessProperty, linf_property
from repro.learn.pretrained import pretrained_policy
from repro.nn.builders import mlp
from repro.utils.boxes import Box


def context(seed=0, n=4):
    net = mlp(n, [8], 3, rng=seed)
    prop = RobustnessProperty(Box.unit(n), 0)
    x_star = prop.region.center
    return net, prop, x_star, 1.0


class TestLinearPolicy:
    def test_theta_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            LinearPolicy(np.zeros((3, 3)))

    def test_vector_roundtrip(self):
        policy = LinearPolicy.default()
        vec = policy.to_vector()
        assert vec.size == LinearPolicy.num_params
        again = LinearPolicy.from_vector(vec)
        np.testing.assert_array_equal(again.theta, policy.theta)

    def test_from_vector_validates_size(self):
        with pytest.raises(ValueError, match="parameters"):
            LinearPolicy.from_vector(np.zeros(7))

    def test_parameter_box(self):
        box = LinearPolicy.parameter_box(scale=1.5)
        assert box.ndim == LinearPolicy.num_params
        assert box.low[0] == -1.5

    def test_default_chooses_zonotope_2(self):
        net, prop, x_star, f_star = context()
        domain = default_policy().choose_domain(net, prop, x_star, f_star)
        assert domain == DomainSpec("zonotope", 2)

    def test_default_bisects_longest(self):
        net = mlp(2, [4], 2, rng=0)
        prop = RobustnessProperty(Box(np.zeros(2), np.array([1.0, 4.0])), 0)
        choice = default_policy().choose_split(net, prop, prop.region.center, 1.0)
        assert choice.dim == 1
        assert choice.value == pytest.approx(prop.region.center[1])

    def test_domain_discretization_covers_menu(self):
        # Sweeping the disjunct output across [0, 1] hits every menu entry.
        net, prop, x_star, f_star = context()
        seen = set()
        for frac in np.linspace(0.0, 1.0, 21):
            theta = np.zeros((NUM_OUTPUTS, 5))
            theta[0, -1] = 1.0
            theta[1, -1] = frac
            domain = LinearPolicy(theta).choose_domain(net, prop, x_star, f_star)
            seen.add(domain.disjuncts)
        assert seen == set(DISJUNCT_CHOICES)

    def test_interval_choice(self):
        net, prop, x_star, f_star = context()
        theta = np.zeros((NUM_OUTPUTS, 5))  # base score 0 -> interval
        domain = LinearPolicy(theta).choose_domain(net, prop, x_star, f_star)
        assert domain.base == "interval"

    def test_split_through_xstar(self):
        # Offset output 1 -> the splitting plane passes through x*.
        net = mlp(2, [4], 2, rng=0)
        prop = RobustnessProperty(Box.unit(2), 0)
        x_star = np.array([0.9, 0.5])
        theta = np.zeros((NUM_OUTPUTS, 5))
        theta[2, -1] = 1.0  # longest dim (ties -> dim 0)
        theta[4, -1] = 1.0  # ratio 1
        choice = LinearPolicy(theta).choose_split(net, prop, x_star, 1.0)
        assert choice.value == pytest.approx(x_star[choice.dim])

    def test_influence_dim_choice(self):
        # With the influence score dominating, the policy picks the most
        # gradient-sensitive wide dimension.
        net, prop, x_star, f_star = context()
        theta = np.zeros((NUM_OUTPUTS, 5))
        theta[3, -1] = 1.0  # influence beats longest
        choice = LinearPolicy(theta).choose_split(net, prop, x_star, f_star)
        assert 0 <= choice.dim < prop.region.ndim

    def test_degenerate_dim_fallback(self):
        net = mlp(2, [4], 2, rng=0)
        region = Box(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
        prop = RobustnessProperty(region, 0)
        choice = default_policy().choose_split(net, prop, region.center, 1.0)
        assert choice.dim == 0  # dim 1 is degenerate

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_features_keep_choices_finite(self):
        # Scaled by 1e160, the first layer overflows the gradient-norm
        # feature to inf, whose squash x / (1 + x) alone would be NaN.
        net = mlp(2, [8, 8], 2, rng=0)
        net.layers[0].weight *= 1e160
        net.layers[0].bias *= 1e160
        prop = linf_property(net, np.full(2, 0.5), 0.1)
        x_star = prop.region.center
        f_star = MarginObjective(net, prop.label).value(x_star)
        assert not np.isfinite(featurize(net, prop, x_star, f_star)).all()
        for policy in (default_policy(), pretrained_policy()):
            domain = policy.choose_domain(net, prop, x_star, f_star)
            assert domain.base in ("interval", "zonotope")
            assert domain.disjuncts in DISJUNCT_CHOICES
            choice = policy.choose_split(net, prop, x_star, f_star)
            assert np.isfinite(choice.value)

    #: Raw features with every squash away from its limits.
    RAW = np.array([0.05, -0.3, 2.0, 0.5])

    def _squashed(self, raw, monkeypatch):
        """The squashed features (bias appended): θ = I echoes them."""
        monkeypatch.setattr(policy_module, "featurize", lambda *_: raw)
        net, prop, x_star, f_star = context()
        identity = LinearPolicy(np.eye(NUM_OUTPUTS, NUM_FEATURES + 1))
        return identity._outputs(net, prop, x_star, f_star), prop

    def test_finite_features_squash_exactly(self, monkeypatch):
        # The shipped θ was trained against these formulas; the guard for
        # non-finite features must leave them bit for bit.
        raw = self.RAW
        squashed, prop = self._squashed(raw, monkeypatch)
        half_diameter = prop.region.diameter() / 2.0
        assert squashed.tolist() == [
            raw[0] / (half_diameter + 1e-12),
            raw[1] / (1.0 + abs(raw[1])),
            raw[2] / (1.0 + raw[2]),
            raw[3] / (1.0 + raw[3]),
            1.0,
        ]

    @pytest.mark.parametrize(
        "value, limit",
        [(np.inf, 1.0), (-np.inf, -1.0), (np.nan, 1.0)],
        ids=["inf", "-inf", "nan"],
    )
    def test_non_finite_feature_takes_its_squash_limit(
        self, value, limit, monkeypatch
    ):
        reference, _ = self._squashed(self.RAW, monkeypatch)
        raw = self.RAW.copy()
        raw[1] = value
        squashed, _ = self._squashed(raw, monkeypatch)
        assert squashed[1] == limit
        # The finite features squash exactly as they do on their own.
        np.testing.assert_array_equal(
            np.delete(squashed, 1), np.delete(reference, 1)
        )

    def test_describe(self):
        assert "LinearPolicy" in default_policy().describe()


class TestBisectionPolicy:
    def test_fixed_domain(self):
        net, prop, x_star, f_star = context()
        policy = BisectionPolicy(domain=INTERVAL)
        assert policy.choose_domain(net, prop, x_star, f_star) == INTERVAL

    def test_longest_split(self):
        net = mlp(2, [4], 2, rng=0)
        prop = RobustnessProperty(Box(np.zeros(2), np.array([1.0, 2.0])), 0)
        choice = BisectionPolicy().choose_split(net, prop, prop.region.center, 1.0)
        assert choice == SplitChoice(dim=1, value=1.0)

    def test_influence_split(self):
        net, prop, x_star, f_star = context()
        policy = BisectionPolicy(split="influence")
        choice = policy.choose_split(net, prop, x_star, f_star)
        assert choice.value == pytest.approx(prop.region.center[choice.dim])

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError, match="split"):
            BisectionPolicy(split="random")

    def test_describe_mentions_domain(self):
        assert "Z" in BisectionPolicy(domain=ZONOTOPE).describe()
