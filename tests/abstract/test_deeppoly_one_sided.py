"""The one-sided DeepPoly ReLU pass matches the two-sided relaxation.

``DeepPolyBatch.relu`` bounds each unit from the side its region center
predicts, and only unsettled units get the other side in a second pass
(DESIGN §4).  Checked at every ReLU against ``bounds()`` on the same
prefix: the predicted side equals it bit for bit on every unit, the
second side agrees within round-off (it runs through differently shaped
GEMMs), and every settled unit's relaxation is bitwise the two-sided
one.  Verdicts match a two-sided run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract import deeppoly
from repro.abstract.analyzer import analyze_batch_multi
from repro.abstract.deeppoly import DeepPolyBatch, _DiagBounds
from repro.abstract.domains import DEEPPOLY
from repro.backend import use_backend
from repro.nn.builders import mlp
from repro.nn.layers import Dense, ReLU
from repro.nn.network import AffineOp, Network
from repro.utils.boxes import Box

#: Second-side tolerance per backend, relative to the layer's largest
#: bound: the BLAS round-off of a differently shaped reduction.
_TOL = {"numpy64": 1e-9, "numpy32": 1e-4}


def _two_sided_relu(self):
    low, high = self.bounds()
    return self._extended(_DiagBounds(*deeppoly._relu_relaxation(low, high)))


def _compare_relus(network, regions, backend):
    """Walk the network, comparing every ReLU's one-sided bounds and
    relaxation with ``bounds()`` on the same prefix.  Returns each
    ReLU's ``(low, high)`` from ``bounds()``."""
    made = []

    def recording(low, high):
        made.append((low, high))
        return relaxation(low, high)

    relaxation = deeppoly._relu_relaxation
    seen = []
    with use_backend(backend), pytest.MonkeyPatch.context() as patch:
        patch.setattr(deeppoly, "_relu_relaxation", recording)
        element = DeepPolyBatch.from_boxes(regions)
        for op in network.ops_for(element.box_low.dtype):
            if isinstance(op, AffineOp):
                element = element.affine(op.weight, op.bias)
                continue
            low, high = element.bounds()
            plus = element._units.center(element) > 0.0
            made.clear()
            element = element.relu()
            ((got_low, got_high),) = made
            settled = (low >= 0.0) | (high < 0.0)
            one_sided = len(element.layers) > 2
            if one_sided:
                np.testing.assert_array_equal(got_low[plus], low[plus])
                np.testing.assert_array_equal(got_high[~plus], high[~plus])
            else:  # a ReLU on the input: both sides from bounds()
                np.testing.assert_array_equal(got_low, low)
                np.testing.assert_array_equal(got_high, high)
            atol = _TOL[backend] * (1.0 + np.abs([low, high]).max())
            for got, want in ((got_low, low), (got_high, high)):
                np.testing.assert_allclose(
                    got[~settled], want[~settled], atol=atol
                )
            want = relaxation(low, high)
            relu = element.layers[-1]
            for have, expect in zip((relu.dl, relu.du, relu.bu), want):
                assert have.dtype == expect.dtype
                np.testing.assert_array_equal(have[settled], expect[settled])
            seen.append((low, high))
    return seen


def _verdicts_match(network, regions, labels, backend):
    with use_backend(backend):
        one = analyze_batch_multi(network, regions, labels, DEEPPOLY)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DeepPolyBatch, "relu", _two_sided_relu)
            two = analyze_batch_multi(network, regions, labels, DEEPPOLY)
    assert [r.verified for r in one] == [r.verified for r in two]
    for got, want in zip(one, two):
        assert got.margin_lower_bound == pytest.approx(
            want.margin_lower_bound, rel=_TOL[backend], abs=_TOL[backend]
        )


@st.composite
def _mlp_batches(draw):
    n_in = draw(st.integers(1, 8))
    hidden = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    count = draw(st.integers(1, 6))
    log_radii = draw(
        st.lists(st.floats(-6.0, 0.0), min_size=count, max_size=count)
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    regions = [
        Box.from_center_radius(rng.uniform(-1.0, 1.0, n_in), 10.0**r)
        for r in log_radii
    ]
    return mlp(n_in, hidden, 3, rng=seed), regions


@pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
@given(case=_mlp_batches())
@settings(max_examples=120, deadline=None)
def test_one_sided_relu_matches_two_sided(backend, case):
    network, regions = case
    _compare_relus(network, regions, backend)
    labels = [i % 3 for i in range(len(regions))]
    _verdicts_match(network, regions, labels, backend)


def _probe_network(zero_unit=False):
    """Input 2 → identity (stable on the positive quadrant) → three
    units, ``x0 - x1`` (zero on the diagonal), ``x0 + x1 - 1`` and
    ``-x0`` (all-zero weights and bias with ``zero_unit``) → 2 outputs.
    Every value is dyadic, so the bounds below are exact."""
    third = [0.0, 0.0] if zero_unit else [-1.0, 0.0]
    layers = [
        Dense(np.eye(2), np.zeros(2)),
        ReLU(),
        Dense(
            np.array([[1.0, -1.0], [1.0, 1.0], third]),
            np.array([0.0, -1.0, 0.0]),
        ),
        ReLU(),
        Dense(np.array([[1.0, 0.5, -1.0], [-1.0, 0.25, 1.0]]), np.zeros(2)),
    ]
    return Network(layers, input_shape=(2,))


def _second_relu(network, regions):
    element = DeepPolyBatch.from_boxes(regions)
    for op in network.ops_for(element.box_low.dtype)[:4]:
        if isinstance(op, AffineOp):
            element = element.affine(op.weight, op.bias)
        else:
            element = element.relu()
    return element.layers[-1]


@pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
def test_zero_unit_gets_the_identity(backend):
    """A unit with zero weights and bias has ``l = u = 0``.  Its center
    predicts the negative side, ``u = 0`` does not settle it, and the
    second pass's ``l = 0`` makes it stable, as ``bounds()`` does."""
    network = _probe_network(zero_unit=True)
    regions = [Box.from_center_radius(np.array([0.5, 0.25]), 0.125)]
    low, high = _compare_relus(network, regions, backend)[1]
    assert low[0, 2] == 0.0 and high[0, 2] == 0.0
    with use_backend(backend):
        relu = _second_relu(network, regions)
    assert (relu.dl[0, 2], relu.du[0, 2], relu.bu[0, 2]) == (1.0, 1.0, 0.0)
    if backend == "numpy64":
        # Unit 1 has u = 0 exactly: dead, after its second side.  (The
        # float32 slack widens it into a crossing unit.)
        assert high[0, 1] == 0.0 and low[0, 1] < 0.0
        assert (relu.dl[0, 1], relu.du[0, 1], relu.bu[0, 1]) == (0, 0, 0)
    _verdicts_match(network, regions, [0], backend)


@pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
def test_region_centred_on_a_hyperplane(backend):
    """The center sits on unit 0's hyperplane ``x0 = x1``: its
    pre-activation is 0, the prediction is the negative side, and the
    crossing unit gets its lower bound from the second pass."""
    network = _probe_network()
    regions = [Box.from_center_radius(np.array([0.5, 0.5]), 0.125)]
    low, high = _compare_relus(network, regions, backend)[1]
    assert low[0, 0] < 0.0 < high[0, 0]
    _verdicts_match(network, regions, [0], backend)


@pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
def test_batch_mixing_settled_and_crossing_regions(backend):
    """Two regions settle every unit from the first side; the one
    between them leaves many units crossing, so the second pass pads the
    settled regions' rows."""
    network = mlp(6, [24, 24, 24], 4, rng=11)
    rng = np.random.default_rng(5)
    regions = [
        Box.from_center_radius(rng.uniform(-1.0, 1.0, 6), radius)
        for radius in (1e-6, 0.8, 1e-6)
    ]
    seen = _compare_relus(network, regions, backend)
    for low, high in seen[1:]:  # the ReLUs that take the one-sided pass
        unsettled = (low < 0.0) & (high >= 0.0)
        assert not unsettled[0].any() and not unsettled[2].any()
        assert unsettled[1].sum() >= 5
    _verdicts_match(network, regions, [0, 1, 2], backend)
