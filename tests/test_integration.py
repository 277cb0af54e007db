"""Cross-tool integration tests.

The four tools implement the same decision problem with different
techniques, which gives a strong differential-testing oracle: on any
instance, no tool may contradict another (one proving robustness while
another exhibits a valid counterexample), and the complete tools must agree
with dense sampling.
"""

import numpy as np
import pytest

from repro.baselines.ai2 import AI2, AI2_BOUNDED64
from repro.baselines.reluplex import Reluplex, ReluplexConfig
from repro.baselines.reluval import ReluVal, ReluValConfig
from repro.core.config import VerifierConfig
from repro.core.property import linf_property
from repro.core.verifier import Verifier
from repro.nn.builders import mlp


def run_every_tool(network, prop, timeout=10.0):
    """Outcome kind per tool, plus any counterexamples found."""
    results = {}
    witnesses = {}
    charon = Verifier(network, config=VerifierConfig(timeout=timeout), rng=0)
    outcome = charon.verify(prop)
    results["charon"] = outcome.kind
    if outcome.kind == "falsified":
        witnesses["charon"] = outcome.counterexample

    results["ai2"] = AI2(AI2_BOUNDED64, timeout=timeout).verify(network, prop).kind

    outcome = ReluVal(ReluValConfig(timeout=timeout)).verify(network, prop)
    results["reluval"] = outcome.kind
    if outcome.kind == "falsified":
        witnesses["reluval"] = outcome.counterexample

    outcome = Reluplex(ReluplexConfig(timeout=timeout)).verify(network, prop)
    results["reluplex"] = outcome.kind
    if outcome.kind == "falsified":
        witnesses["reluplex"] = outcome.counterexample
    return results, witnesses


class TestCrossToolAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_no_tool_contradicts_another(self, seed):
        rng = np.random.default_rng(seed)
        network = mlp(3, [8], 3, rng=seed)
        center = rng.uniform(-0.4, 0.4, 3)
        radius = rng.uniform(0.05, 0.3)
        prop = linf_property(network, center, radius, clip_low=None, clip_high=None)

        results, witnesses = run_every_tool(network, prop, timeout=10.0)
        verified = {t for t, k in results.items() if k == "verified"}
        falsified = {t for t, k in results.items() if k == "falsified"}

        # Hard contradiction: a proof plus a *true* counterexample.
        # (δ-counterexamples with tiny positive margin are permitted by
        # δ-completeness, so only check truly-violating witnesses.)
        true_violations = {
            t: x
            for t, x in witnesses.items()
            if prop.margin_at(network, x) <= 0
        }
        if verified and true_violations:
            pytest.fail(
                f"tools disagree: {verified} verified but "
                f"{set(true_violations)} found true counterexamples "
                f"(results: {results})"
            )

        # Every claimed witness must lie inside the region.
        for tool, x in witnesses.items():
            assert prop.region.contains(x), f"{tool} returned an outside witness"

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_verified_claims_survive_sampling(self, seed):
        rng = np.random.default_rng(seed)
        network = mlp(4, [10], 3, rng=seed)
        center = rng.uniform(-0.3, 0.3, 4)
        prop = linf_property(network, center, 0.08, clip_low=None, clip_high=None)

        results, _ = run_every_tool(network, prop, timeout=10.0)
        if any(k == "verified" for k in results.values()):
            preds = network.classify_batch(prop.region.sample(rng, 500))
            assert np.all(preds == prop.label), f"sampling refutes {results}"


class TestTrainedNetworkPipeline:
    def test_end_to_end_on_trained_classifier(self, trained_tiny_net):
        network, dataset = trained_tiny_net
        flat = dataset.inputs.reshape(len(dataset), -1)
        # A correctly classified sample with a small perturbation budget.
        idx = next(
            i for i in range(len(dataset))
            if network.classify(flat[i]) == dataset.labels[i]
        )
        prop = linf_property(network, flat[idx], 0.01)
        outcome = Verifier(
            network, config=VerifierConfig(timeout=10), rng=0
        ).verify(prop)
        assert outcome.kind in ("verified", "falsified")
        if outcome.kind == "falsified":
            assert prop.region.contains(outcome.counterexample)

    def test_larger_epsilon_is_no_easier_to_verify(self, trained_tiny_net):
        network, dataset = trained_tiny_net
        flat = dataset.inputs.reshape(len(dataset), -1)
        idx = next(
            i for i in range(len(dataset))
            if network.classify(flat[i]) == dataset.labels[i]
        )
        kinds = []
        for eps in (0.001, 0.3):
            prop = linf_property(network, flat[idx], eps)
            outcome = Verifier(
                network, config=VerifierConfig(timeout=5), rng=0
            ).verify(prop)
            kinds.append(outcome.kind)
        # The tiny ball must be decided; monotonicity: if the tiny ball is
        # falsified, the bigger ball cannot be verified.
        assert kinds[0] in ("verified", "falsified")
        if kinds[0] == "falsified":
            assert kinds[1] != "verified"
