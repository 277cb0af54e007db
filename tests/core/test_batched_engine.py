"""Engine equivalence: ``Verifier``'s frontier sweeps must match Algorithm 1.

``Verifier`` (and ``verify``) is a one-job scheduler run;
``sequential_reference`` is the paper's stack loop, one item at a time.
Work-item randomness is path-keyed (each sub-region's seed is a pure
function of its path from the root), so the engine reproduces the
reference's per-region PGD searches no matter how the frontier is
chunked.  These tests pin that contract on the xor network and on the
synthetic ACAS advisory networks: identical outcomes, identical witnesses
under a fixed rng, and identical statistics on verified runs (where both
explore exactly the same refinement tree).
"""

import numpy as np
import pytest

from repro.abstract.domains import INTERVAL, ZONOTOPE, DomainSpec
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.core.results import Falsified, Verified
from repro.core.verifier import Verifier, sequential_reference, verify
from repro.data.acas import acas_network, acas_training_properties
from repro.nn.builders import example_2_2_network, mlp, xor_network
from repro.utils.boxes import Box


@pytest.fixture(scope="session")
def acas_suite():
    """A small trained ACAS advisory network plus mixed-difficulty props."""
    network = acas_network(hidden=(12, 12), epochs=8, rng=7)
    props = acas_training_properties(network, count=6, rng=11)
    return network, props


def _quick(**kwargs):
    defaults = {"timeout": 20.0}
    defaults.update(kwargs)
    return VerifierConfig(**defaults)


def _assert_equivalent(
    net, prop, config, rng=0, check_stats=True, policy=None
):
    seq = sequential_reference(net, prop, policy, config, rng=rng)
    bat = verify(net, prop, policy, config, rng=rng)
    assert seq.kind == bat.kind, f"{seq.kind} vs {bat.kind}"
    if isinstance(seq, Falsified):
        np.testing.assert_allclose(
            bat.counterexample, seq.counterexample, atol=1e-9
        )
        assert bat.margin == pytest.approx(seq.margin, abs=1e-9)
        assert prop.region.contains(bat.counterexample)
    elif isinstance(seq, Verified) and check_stats:
        # Verified runs explore the same refinement tree, so the
        # order-insensitive counters must agree exactly.
        assert bat.stats.pgd_calls == seq.stats.pgd_calls
        assert bat.stats.analyze_calls == seq.stats.analyze_calls
        assert bat.stats.splits == seq.stats.splits
        assert bat.stats.max_depth_reached == seq.stats.max_depth_reached
        assert bat.stats.domains_used == seq.stats.domains_used
    return seq, bat


class TestXorEquivalence:
    def test_verified_region(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        seq, _ = _assert_equivalent(net, prop, _quick())
        assert seq.kind == "verified"

    @pytest.mark.parametrize(
        "domain",
        [INTERVAL, ZONOTOPE, DomainSpec("interval", 2)],
        ids=lambda domain: domain.short_name,
    )
    def test_verified_with_splits(self, domain):
        # Domains too weak for the whole region force real refinement
        # (plain zonotopes: the paper's Example 3.1 trace), exercising
        # multi-item frontier sweeps on batched kernels and on the
        # per-region fallback (interval powersets).
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        policy = BisectionPolicy(domain=domain)
        seq, bat = _assert_equivalent(net, prop, _quick(), policy=policy)
        assert seq.kind == "verified"
        assert bat.stats.splits >= 1

    def test_falsified_region(self):
        net = xor_network()
        prop = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0)
        seq, _ = _assert_equivalent(net, prop, _quick())
        assert seq.kind == "falsified"

    def test_example_2_2_witness_identical(self):
        net = example_2_2_network()
        prop = RobustnessProperty(Box(np.array([-1.0]), np.array([2.0])), 1)
        seq = sequential_reference(net, prop, config=_quick(), rng=0)
        bat = verify(net, prop, config=_quick(), rng=0)
        assert seq.kind == bat.kind == "falsified"
        np.testing.assert_array_equal(seq.counterexample, bat.counterexample)


class TestAcasEquivalence:
    def test_outcomes_and_witnesses(self, acas_suite):
        network, props = acas_suite
        decided = 0
        for prop in props:
            seq, bat = _assert_equivalent(
                network, prop, _quick(timeout=10.0), rng=0
            )
            decided += seq.kind in ("verified", "falsified")
        assert decided >= len(props) // 2  # the suite actually decides

    def test_batch_size_invariance(self, acas_suite):
        """The frontier sweep width must never change the decision."""
        network, props = acas_suite
        prop = props[0]
        outcomes = [
            verify(
                network, prop, config=_quick(timeout=10.0, batch_size=bs),
                rng=0,
            )
            for bs in (1, 2, 7, 32)
        ]
        kinds = {o.kind for o in outcomes}
        assert len(kinds) == 1


class TestBudgetsAndSemantics:
    def test_batch_size_one_matches_sequential_exactly(self):
        net = mlp(4, [12], 3, rng=5)
        prop = linf_property(net, np.full(4, 0.5), 0.3)
        config = _quick(timeout=10.0, batch_size=1)
        _assert_equivalent(net, prop, config)

    def test_delta_counterexamples(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.45, 0.45]), np.array([0.55, 0.55])), 1
        )
        strict = verify(net, prop, config=_quick(delta=1e-9), rng=0)
        assert strict.kind == "verified"
        loose = verify(net, prop, config=_quick(delta=10.0), rng=0)
        assert loose.kind == "falsified"
        assert loose.margin <= 10.0

    def test_timeout_budget(self):
        net = mlp(8, [24, 24, 24], 5, rng=3)
        prop = linf_property(net, np.full(8, 0.5), 0.5)
        outcome = verify(
            net, prop, config=VerifierConfig(timeout=0.05), rng=0
        )
        assert outcome.kind in ("timeout", "falsified")

    def test_depth_cap(self):
        net = mlp(4, [16, 16], 3, rng=4)
        prop = linf_property(net, np.full(4, 0.5), 0.6)
        outcome = verify(
            net, prop, config=VerifierConfig(timeout=20, max_depth=1), rng=0
        )
        assert outcome.kind in ("timeout", "falsified", "verified")

    def test_witness_is_delta_valid(self):
        rng = np.random.default_rng(1)
        falsified = 0
        for seed in range(8):
            net = mlp(3, [10], 3, rng=100 + seed)
            center = rng.uniform(-0.5, 0.5, 3)
            prop = linf_property(net, center, 0.8, clip_low=None, clip_high=None)
            config = _quick(timeout=5)
            outcome = verify(net, prop, config=config, rng=0)
            if isinstance(outcome, Falsified):
                falsified += 1
                assert prop.region.contains(outcome.counterexample)
                margin = prop.margin_at(net, outcome.counterexample)
                assert margin <= config.delta + 1e-12
        assert falsified > 0

    def test_deterministic_across_runs(self):
        net = mlp(4, [12], 3, rng=5)
        prop = linf_property(net, np.full(4, 0.5), 0.3)
        a = verify(net, prop, config=_quick(timeout=5), rng=42)
        b = verify(net, prop, config=_quick(timeout=5), rng=42)
        assert a.kind == b.kind
        if isinstance(a, Falsified):
            np.testing.assert_array_equal(a.counterexample, b.counterexample)


class TestOneJobSchedulerRoute:
    """``Verifier`` is a one-job scheduler run; these pin the two things
    that run must carry over from a verifier instance."""

    def test_reused_instance_keeps_its_rng_stream(self):
        # Each verify() draws the next root seed from the instance's
        # generator, exactly as the reference does from a shared one.
        net = xor_network()
        props = [
            RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0),
            RobustnessProperty(Box(np.array([0.0, 0.4]), np.ones(2)), 0),
        ]
        config = _quick(batch_size=1)
        stream = np.random.default_rng(7)
        bat = Verifier(net, config=config, rng=7)
        for prop in props + props:
            a = sequential_reference(net, prop, config=config, rng=stream)
            b = bat.verify(prop)
            assert a.kind == b.kind == "falsified"
            np.testing.assert_array_equal(a.counterexample, b.counterexample)

    def test_escalation_environment_does_not_leak_in(self, monkeypatch):
        from repro.obs.metrics import registry

        monkeypatch.setenv("REPRO_PRECISION_ESCALATION", "1")
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        before = registry().counters_snapshot()
        outcome = verify(net, prop, config=_quick(), rng=0)
        work = registry().counters_since(before)
        assert outcome.kind == "verified"
        assert work.get("sched.escalated", 0) == 0
        assert not any(".numpy32." in name for name in work)
