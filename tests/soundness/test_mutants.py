"""Seeded soundness bugs must fail an independent check.

Each mutant is a one-line soundness bug, applied with ``monkeypatch`` on
a small fixed problem.  For each, a check that does not rest on the code
under test — not a pinned digest, a pinned outcome or a twin
implementation — must pass on the real code and fail under the mutant.

- **M4** — the scheduler's refinement step (``refine_unverified``) queues
  a split's left child twice and drops the right child, so VERIFIED no
  longer rests on leaves that cover the region.  Check: a VERIFIED job's
  region holds no misclassified point of a dense float64 grid, on
  Example 2.2's falsifiable property (region [-1, 2], label 1).
- **M5** — the scheduler's falsification test (``first_falsified``)
  accepts a PGD minimum up to δ + 0.05, so FALSIFIED no longer rests on
  a δ-counterexample.  Check: each FALSIFIED witness, re-run in float64,
  lies in its region with margin ≤ δ, on Example 2.2's robust property
  over [1.1, 1.32], label 1, whose least margin is 0.04 (at x = 1.32).
- **M7** — DeepPoly's one-sided ReLU pass (DESIGN §4) gives no unit its
  second side.  A crossing unit then keeps the one bound it got as both,
  so it is zeroed (``l < 0`` predicted active) or passed through as the
  identity (``u >= 0`` predicted inactive).  Check: concrete outputs
  sampled in each region stay inside its DeepPoly output bounds.
"""

import numpy as np
import pytest

from repro.abstract import deeppoly
from repro.abstract.analyzer import analyze_batch
from repro.abstract.domains import DEEPPOLY
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty
from repro.nn.builders import example_2_2_network, mlp
from repro.sched import Scheduler, VerificationJob, scheduler
from repro.utils.boxes import Box


def _m4_left_child_twice(monkeypatch):
    refine = scheduler.refine_unverified

    def left_twice(*args, **kwargs):
        terminal, pairs = refine(*args, **kwargs)
        return terminal, [(left, left) for left, _ in pairs]

    monkeypatch.setattr(scheduler, "refine_unverified", left_twice)


def _verified_but_misclassified() -> int:
    """VERIFIED jobs whose region holds a grid point the network
    misclassifies, on Example 2.2's falsifiable property."""
    network = example_2_2_network()
    prop = RobustnessProperty(Box(np.array([-1.0]), np.array([2.0])), 1)
    job = VerificationJob(
        network, prop, config=VerifierConfig(timeout=10.0), seed=0
    )
    report = Scheduler([job]).run()
    violations = 0
    for result in report.results:
        if result.outcome.kind != "verified":
            continue
        region = result.job.prop.region
        grid = np.linspace(region.low, region.high, 3001)
        labels = network.forward(grid).argmax(axis=1)
        violations += int((labels != result.job.prop.label).any())
    return violations


def _m5_loose_falsified(monkeypatch):
    falsified = scheduler.first_falsified

    def loose(f_stars, delta):
        return falsified(f_stars, delta + 0.05)

    monkeypatch.setattr(scheduler, "first_falsified", loose)


def _falsified_but_no_counterexample() -> int:
    """FALSIFIED jobs whose witness, re-run in float64, leaves its region
    or has a margin above δ, on Example 2.2's property over
    [1.1, 1.32]."""
    network = example_2_2_network()
    prop = RobustnessProperty(Box(np.array([1.1]), np.array([1.32])), 1)
    job = VerificationJob(
        network, prop, config=VerifierConfig(timeout=10.0), seed=0
    )
    report = Scheduler([job]).run()
    assert report.results[0].outcome.kind in ("verified", "falsified")
    violations = 0
    for result in report.results:
        if result.outcome.kind != "falsified":
            continue
        witness = np.asarray(result.outcome.counterexample, dtype=np.float64)
        scores = network.forward(witness.reshape(1, -1))[0]
        label = result.job.prop.label
        margin = scores[label] - np.delete(scores, label).max()
        violations += int(
            not result.job.prop.region.contains(witness)
            or margin > result.job.config.delta
        )
    return violations


def _m7_no_second_pass(monkeypatch):
    monkeypatch.setattr(
        deeppoly, "_unsettled", lambda known, plus: np.zeros_like(plus)
    )


def _deeppoly_output_escapes() -> int:
    """Sampled concrete outputs outside the batched DeepPoly output
    bounds of their region, over regions that leave deep units
    crossing."""
    network = mlp(4, [10, 10, 10], 3, rng=2)
    rng = np.random.default_rng(7)
    regions = [
        Box.from_center_radius(rng.uniform(-0.6, 0.6, 4), radius)
        for radius in (0.05, 0.2, 0.4)
    ]
    escapes = 0
    for region, result in zip(
        regions, analyze_batch(network, regions, 0, DEEPPOLY)
    ):
        low, high = result.output.bounds()
        outputs = network.forward(region.sample(rng, 200))
        outside = (outputs < low - 1e-9) | (outputs > high + 1e-9)
        escapes += int(outside.any(axis=1).sum())
    return escapes


MUTANTS = [
    pytest.param(
        _m4_left_child_twice, _verified_but_misclassified,
        id="M4-refine-left-child-twice",
    ),
    pytest.param(
        _m5_loose_falsified, _falsified_but_no_counterexample,
        id="M5-falsified-above-delta",
    ),
    pytest.param(
        _m7_no_second_pass, _deeppoly_output_escapes,
        id="M7-deeppoly-no-second-pass",
    ),
]


@pytest.mark.parametrize("mutate, violations", MUTANTS)
def test_independent_check_catches_mutant(mutate, violations, monkeypatch):
    assert violations() == 0
    mutate(monkeypatch)
    assert violations() > 0
