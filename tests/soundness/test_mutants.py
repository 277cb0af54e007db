"""Seeded soundness bugs must fail an independent check.

Each mutant is a one-line soundness bug, applied with ``monkeypatch`` on
a small fixed problem.  For each, a check that does not rest on the code
under test — not a pinned digest, a pinned outcome or a twin
implementation — must pass on the real code and fail under the mutant.

- **M1** — DeepPoly's crossing-unit chord intercept ``bu`` is scaled by
  0.9 in ``_relu_relaxation``, so a crossing unit's upper relation dips
  below ReLU at its own upper bound.  Check: outputs on a dense float64
  grid of Example 2.2's regions, endpoints included, stay inside the
  DeepPoly output bounds.  Both hidden units grow with the one input and
  the first output weighs both positively, so its upper bound is exact
  at the region's upper end, where both chords meet ReLU, and the grid's
  last point reaches it.
- **M2** — every ``ErrorPad`` the network abstraction builds
  (``NetworkAbstraction._build``) has its radii halved, so the abstract
  network no longer over-approximates the concrete one.  Check: at every
  corner of [0, 1]², the concrete outputs stay within the pad radii of
  the abstract network's, whose pad is the identity in a forward pass.
  The network ``Dense([[1, .5], [1, .7]], [1, 1]) → ReLU →
  Dense([[1, -1], [.3, .2]], 0)`` merges its two hidden units into one
  group at level 1; their output-0 weights have opposite signs, so that
  output's pad is exact at the corners with x₂ = 1.
- **M3** — ``backend.outward_cast`` casts to float32 to nearest, with no
  one-ulp widening, patched where the interval and DeepPoly lifts look
  it up.  Check: under ``numpy32`` the lifted interval and DeepPoly
  batches contain every region they were lifted from, bound by bound in
  float64.
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
- **M6** — ``IntervalBatch.affine`` adds no float32 slack.  Check: on a
  one-layer network, where interval bounds are exact, the float64
  outputs at the box corners that attain each output's bounds lie
  inside the ``numpy32`` interval output box.
- **M7** — DeepPoly's one-sided ReLU pass (DESIGN §4) gives no unit its
  second side.  A crossing unit then keeps the one bound it got as both,
  so it is zeroed (``l < 0`` predicted active) or passed through as the
  identity (``u >= 0`` predicted inactive).  Check: concrete outputs
  sampled in each region stay inside its DeepPoly output bounds.
- **M8** — a depth-capped chunk whose first item verifies is finished
  without its second Analyze stage: the scheduler hands the first item's
  result to the chunk's other items instead of analyzing them, so a
  capped leaf that fails Analyze can end VERIFIED.  Check: M4's grid, on
  Example 2.2's property over [-1, 1.6] with ``max_depth=1`` and a
  one-step, one-restart PGD.  The root splits at 0.3 into a verified left
  leaf and a right leaf whose misclassified points (x > 4/3) PGD misses, so
  only Analyze guards that leaf.
- **M9** — ``zonotope_batch._stacked_affine`` adds no float32 slack, so
  the batched zonotope and powerset kernels (which every Analyze call
  runs) return zero error radii under ``numpy32``.  Check: M6's corner
  check on the ``(Z, 1)`` and ``(Z, 2)`` output bounds; after one affine
  layer on a box, zonotope bounds are exact too.
"""

import functools
import itertools

import numpy as np
import pytest

from repro import backend
from repro.abstract import deeppoly, interval, netabs, zonotope_batch
from repro.abstract.analyzer import propagate
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    ZONOTOPE,
    bounded_zonotopes,
)
from repro.attack.pgd import PGDConfig
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty
from repro.nn.builders import example_2_2_network, mlp
from repro.nn.layers import Dense, ErrorPad, ReLU
from repro.nn.network import Network
from repro.sched import Scheduler, VerificationJob, scheduler
from repro.utils.boxes import Box


def _batched_output(network, regions, domain):
    """The batched output element of ``regions`` on the active backend."""
    ops = network.ops_for(backend.active().dtype)
    return propagate(ops, domain.lift_batch(regions))


def _m1_low_chord_intercept(monkeypatch):
    relaxation = deeppoly._relu_relaxation

    def low_intercept(low, high):
        dl, du, bu = relaxation(low, high)
        return dl, du, 0.9 * bu

    monkeypatch.setattr(deeppoly, "_relu_relaxation", low_intercept)


def _deeppoly_grid_escapes() -> int:
    """Grid outputs of Example 2.2's network outside the DeepPoly output
    bounds of their region."""
    network = example_2_2_network()
    regions = [
        Box(np.array([-1.0]), np.array([2.0])),
        Box(np.array([-0.8]), np.array([1.5])),
    ]
    escapes = 0
    lows, highs = _batched_output(network, regions, DEEPPOLY).bounds()
    for region, low, high in zip(regions, lows, highs):
        outputs = network.forward(np.linspace(region.low, region.high, 301))
        outside = (outputs < low - 1e-9) | (outputs > high + 1e-9)
        escapes += int(outside.any(axis=1).sum())
    return escapes


def _m2_half_pads(monkeypatch):
    pad = netabs.ErrorPad
    monkeypatch.setattr(
        netabs, "ErrorPad", lambda radii: pad(0.5 * np.asarray(radii))
    )


def _abstract_network_escapes() -> int:
    """Corners of [0, 1]² where the concrete outputs stray from the
    level-1 abstract network's by more than its pad radii."""
    network = Network(
        [
            Dense(np.array([[1.0, 0.5], [1.0, 0.7]]), np.ones(2)),
            ReLU(),
            Dense(np.array([[1.0, -1.0], [0.3, 0.2]]), np.zeros(2)),
        ],
        input_shape=(2,),
    )
    region = Box.unit(2)
    abstract = netabs.NetworkAbstraction(
        network, "syntactic", 1, regions=[region]
    ).build()
    pad = abstract.layers[-1]
    assert isinstance(pad, ErrorPad) and len(abstract.layers[0].bias) == 1
    corners = np.array(list(itertools.product(*zip(region.low, region.high))))
    deviation = np.abs(network.forward(corners) - abstract.forward(corners))
    return int((deviation > pad.radii).any(axis=1).sum())


def _m3_nearest_cast(monkeypatch):
    def nearest(low, high, dtype):
        return np.asarray(low).astype(dtype), np.asarray(high).astype(dtype)

    monkeypatch.setattr(backend, "outward_cast", nearest)
    monkeypatch.setattr(interval, "_outward_cast", nearest)
    monkeypatch.setattr(deeppoly, "_outward_cast", nearest)


def _float32_lift_escapes() -> int:
    """Region bounds that the ``numpy32`` interval or DeepPoly lift moves
    inward."""
    rng = np.random.default_rng(3)
    regions = [
        Box.from_center_radius(rng.uniform(-1.0, 1.0, 16), 0.1)
        for _ in range(4)
    ]
    low = np.stack([region.low for region in regions])
    high = np.stack([region.high for region in regions])
    with backend.use_backend("numpy32"):
        intervals = INTERVAL.lift_batch(regions)
        polys = DEEPPOLY.lift_batch(regions)
    escapes = 0
    for lifted_low, lifted_high in (
        (intervals.low, intervals.high),
        (polys.box_low, polys.box_high),
    ):
        escapes += int((lifted_low.astype(np.float64) > low).sum())
        escapes += int((lifted_high.astype(np.float64) < high).sum())
    return escapes


def _m4_left_child_twice(monkeypatch):
    refine = scheduler.refine_unverified

    def left_twice(*args, **kwargs):
        terminal, pairs = refine(*args, **kwargs)
        return terminal, [(left, left) for left, _ in pairs]

    monkeypatch.setattr(scheduler, "refine_unverified", left_twice)


def _verified_but_misclassified(
    high: float = 2.0, config: VerifierConfig = VerifierConfig(timeout=10.0)
) -> int:
    """VERIFIED jobs whose region holds a grid point the network
    misclassifies, on Example 2.2's property over [-1, ``high``], label 1
    (falsifiable for ``high`` > 4/3)."""
    network = example_2_2_network()
    prop = RobustnessProperty(Box(np.array([-1.0]), np.array([high])), 1)
    job = VerificationJob(network, prop, config=config, seed=0)
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


def _m8_capped_siblings_unanalyzed(monkeypatch):
    stage = scheduler.Scheduler._analyze_stage

    def first_result_for_siblings(self, work, results_by_state, executor):
        # The second stage is the one whose rows skip each chunk's first
        # item.
        if work and work[0][4].start:
            for state, _, _, _, rows in work:
                results = results_by_state[state.index]
                results[rows] = [results[0]] * len(results[rows])
            return
        stage(self, work, results_by_state, executor)

    monkeypatch.setattr(
        scheduler.Scheduler, "_analyze_stage", first_result_for_siblings
    )


def _capped_leaf_verified_but_misclassified() -> int:
    """M4's grid check where the depth cap leaves Analyze as the only
    guard of a leaf holding misclassified points."""
    config = VerifierConfig(
        timeout=10.0, max_depth=1, pgd=PGDConfig(steps=1, restarts=1)
    )
    return _verified_but_misclassified(1.6, config)


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
    lows, highs = _batched_output(network, regions, DEEPPOLY).bounds()
    for region, low, high in zip(regions, lows, highs):
        outputs = network.forward(region.sample(rng, 200))
        outside = (outputs < low - 1e-9) | (outputs > high + 1e-9)
        escapes += int(outside.any(axis=1).sum())
    return escapes


def _m6_no_interval_affine_slack(monkeypatch):
    affine = interval.IntervalBatch.affine

    def unpadded(self, weight, bias):
        with monkeypatch.context() as patch:
            patch.setattr(interval, "_slack_for", lambda dtype, terms: 0.0)
            return affine(self, weight, bias)

    monkeypatch.setattr(interval.IntervalBatch, "affine", unpadded)


def _m9_no_zonotope_affine_slack(monkeypatch):
    affine = zonotope_batch._stacked_affine

    def unpadded(*args):
        with monkeypatch.context() as patch:
            patch.setattr(
                zonotope_batch, "_slack_for", lambda dtype, terms: 0.0
            )
            return affine(*args)

    monkeypatch.setattr(zonotope_batch, "_stacked_affine", unpadded)


def _float32_corner_misses(*domains) -> int:
    """Float64 outputs at the corners that attain each output's bounds on
    a one-layer network, outside its ``numpy32`` output bounds in each of
    ``domains``."""
    rng = np.random.default_rng(5)
    weight = rng.normal(size=(32, 8))
    bias = rng.normal(scale=100.0, size=32)
    network = Network([Dense(weight, bias)], input_shape=(8,))
    regions = [
        Box.from_center_radius(rng.uniform(-1.0, 1.0, 8), 0.05)
        for _ in range(4)
    ]
    # Output k peaks at the corner taking high where row k's weight is
    # positive, and bottoms out at the opposite corner.
    rows = np.arange(len(weight))
    tops = [
        network.forward(np.where(weight > 0, r.high, r.low))[rows, rows]
        for r in regions
    ]
    bottoms = [
        network.forward(np.where(weight > 0, r.low, r.high))[rows, rows]
        for r in regions
    ]
    misses = 0
    for domain in domains:
        with backend.use_backend("numpy32"):
            output = _batched_output(network, regions, domain)
        lows, highs = (
            (output.low, output.high) if domain == INTERVAL
            else output.bounds()
        )
        for low, high, top, bottom in zip(lows, highs, tops, bottoms):
            misses += int((high.astype(np.float64) < top).sum())
            misses += int((low.astype(np.float64) > bottom).sum())
    return misses


MUTANTS = [
    pytest.param(
        _m1_low_chord_intercept, _deeppoly_grid_escapes,
        id="M1-deeppoly-chord-intercept-low",
    ),
    pytest.param(
        _m2_half_pads, _abstract_network_escapes,
        id="M2-netabs-pad-radii-halved",
    ),
    pytest.param(
        _m3_nearest_cast, _float32_lift_escapes,
        id="M3-outward-cast-to-nearest",
    ),
    pytest.param(
        _m4_left_child_twice, _verified_but_misclassified,
        id="M4-refine-left-child-twice",
    ),
    pytest.param(
        _m5_loose_falsified, _falsified_but_no_counterexample,
        id="M5-falsified-above-delta",
    ),
    pytest.param(
        _m6_no_interval_affine_slack,
        functools.partial(_float32_corner_misses, INTERVAL),
        id="M6-interval-affine-no-float32-slack",
    ),
    pytest.param(
        _m7_no_second_pass, _deeppoly_output_escapes,
        id="M7-deeppoly-no-second-pass",
    ),
    pytest.param(
        _m8_capped_siblings_unanalyzed,
        _capped_leaf_verified_but_misclassified,
        id="M8-capped-chunk-second-stage-skipped",
    ),
    pytest.param(
        _m9_no_zonotope_affine_slack,
        functools.partial(
            _float32_corner_misses, ZONOTOPE, bounded_zonotopes(2)
        ),
        id="M9-zonotope-affine-no-float32-slack",
    ),
]


@pytest.mark.parametrize("mutate, violations", MUTANTS)
def test_independent_check_catches_mutant(mutate, violations, monkeypatch):
    assert violations() == 0
    mutate(monkeypatch)
    assert violations() > 0
