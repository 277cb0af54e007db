"""Seeded soundness bugs must fail an independent check.

Each mutant is a one-line soundness bug, applied with ``monkeypatch`` on
a small fixed problem.  For each, a check that does not rest on the code
under test — not a pinned digest, a pinned outcome or a twin
implementation — must pass on the real code and fail under the mutant.

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
from repro.nn.builders import mlp
from repro.utils.boxes import Box


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
        _m7_no_second_pass, _deeppoly_output_escapes,
        id="M7-deeppoly-no-second-pass",
    ),
]


@pytest.mark.parametrize("mutate, escapes", MUTANTS)
def test_independent_check_catches_mutant(mutate, escapes, monkeypatch):
    assert escapes() == 0
    mutate(monkeypatch)
    assert escapes() > 0
