"""Tests for the network-abstraction CEGAR layer (repro.abstract.netabs).

The load-bearing property is *containment*: the abstract network's output
abstraction must contain every concrete output over the region, at every
refinement level, in every domain — that is what lets the scheduler
accept abstract VERIFIED outcomes without re-running the concrete
network.  The fuzz tests here check it against sampled concrete forward
passes; the CEGAR tests check the refinement loop terminates and that
spurious counterexamples are never accepted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abstract.analyzer import analyze, propagate
from repro.abstract.domains import BASE_DOMAINS, DomainSpec
from repro.abstract.netabs import (
    NetworkAbstraction,
    _agglomerate,
    _farthest_pair,
    _gram_bound,
    abstraction_for,
)
from repro.backend import use_backend
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import linf_property
from repro.core.results import Falsified, Verified, VerificationStats
from repro.nn.builders import lenet_conv, mlp, redundant_mlp
from repro.nn.layers import ErrorPad
from repro.nn.serialize import load_network, network_digest, save_network
from repro.obs.metrics import registry as metrics_registry
from repro.sched import JobResult, Scheduler, VerificationJob, scheduler
from repro.utils.boxes import Box

#: Slack for comparing abstract bounds against concrete float64 forwards.
_TOL = 1e-9


def _concrete_margin(network, x, label):
    logits = network.forward(np.asarray(x, dtype=np.float64))
    return float(logits[label] - np.delete(logits, label).max())


def _sample(region, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(region.low, region.high, size=(count, region.ndim))


# ----------------------------------------------------------------------
# Containment fuzz
# ----------------------------------------------------------------------


@pytest.mark.parametrize("domain_name", BASE_DOMAINS)
@pytest.mark.parametrize("mode", ["syntactic", "semantic"])
def test_containment_every_level_every_domain(domain_name, mode):
    """Abstract margin bounds stay below sampled concrete margins at
    every refinement level, from the coarsest partition down to the
    concrete network, on two and five hidden layers."""
    domain = DomainSpec(domain_name)
    for widths, seed in ([6, 6], 0), ([6, 6], 1), ([6] * 5, 0):
        net = redundant_mlp(5, widths, 3, dup=3, noise=2e-3, rng=seed)
        rng = np.random.default_rng(seed + 10)
        region = Box.from_center_radius(rng.uniform(0.3, 0.7, 5), 0.02)
        label = net.classify((region.low + region.high) / 2.0)
        points = _sample(region, 16, seed)
        margins = [_concrete_margin(net, x, label) for x in points]
        abstraction = NetworkAbstraction(
            net, mode, level=2, regions=[region], seed=seed
        )
        for _ in range(200):
            abstract = abstraction.build()
            result = analyze(abstract, region, label, domain)
            assert result.margin_lower_bound <= min(margins) + _TOL, (
                f"{mode}/{domain_name} margin bound above a concrete "
                f"sample after {abstraction.splits} splits"
            )
            if abstract is net or not abstraction.refine():
                break
        else:
            pytest.fail("refinement did not terminate in 200 splits")


def test_interval_output_box_contains_concrete_outputs():
    """The interval output box of the abstract network contains every
    sampled concrete logit vector, at every refinement level."""
    net = redundant_mlp(4, [8, 8], 3, dup=2, noise=5e-3, rng=7)
    region = Box.from_center_radius(np.full(4, 0.5), 0.03)
    points = _sample(region, 32, 3)
    logits = np.stack([net.forward(x) for x in points])
    abstraction = NetworkAbstraction(
        net, "syntactic", level=1, regions=[region]
    )
    interval = DomainSpec("interval")
    while True:
        abstract = abstraction.build()
        output = propagate(abstract.ops(), interval.lift(region))
        low, high = output.bounds()
        assert (logits >= low - _TOL).all() and (logits <= high + _TOL).all()
        if abstract is net or not abstraction.refine():
            break


# ----------------------------------------------------------------------
# Refinement / CEGAR termination
# ----------------------------------------------------------------------


def test_refinement_terminates_at_concrete_network():
    """Splitting to singletons yields the original network by identity."""
    net = redundant_mlp(4, [6, 6], 3, dup=3, noise=1e-4, rng=1)
    abstraction = NetworkAbstraction(net, "syntactic", level=2)
    splits = 0
    while abstraction.refine():
        splits += 1
        assert splits <= net.num_relu_units()
    assert abstraction.build() is net
    assert abstraction.merged_ratio == 1.0


_REAL_DISPATCH = Scheduler._dispatch


def _stub_abstract_dispatch(monkeypatch, concrete, outcome_for):
    """Stub the scheduler's dispatch for *abstract* networks only.

    Abstract passes of the netabs pre-pass get ``outcome_for(job)`` as
    their verdict; a pass over the ``concrete`` network runs for real.
    Returns the list of dispatched network lists, one entry per pass.
    """
    passes = []

    def dispatch(self, report, indexed, executor):
        networks = [job.network for _, job in indexed]
        passes.append(networks)
        if all(network is concrete for network in networks):
            return _REAL_DISPATCH(self, report, indexed, executor)
        for index, job in indexed:
            report.results[index] = JobResult(
                index, job, outcome_for(job), cached=False, elapsed=0.0
            )

    monkeypatch.setattr(Scheduler, "_dispatch", dispatch)
    return passes


def test_cegar_spurious_counterexample_refines_then_falls_back(monkeypatch):
    """A persistently spurious abstract witness must never be accepted:
    the pre-pass refines, then the concrete run decides."""
    net = redundant_mlp(4, [8, 8], 3, dup=4, noise=1e-6, rng=2)
    center = np.full(4, 0.5)
    prop = linf_property(net, center, 0.01)
    # The center itself classifies as prop.label, so it is spurious as a
    # counterexample by construction.
    assert prop.margin_at(net, center) > 0.0
    job = VerificationJob(net, prop, config=VerifierConfig(timeout=10.0))
    concrete = Scheduler([job]).run().results[0].outcome

    passes = _stub_abstract_dispatch(
        monkeypatch, net,
        lambda _job: Falsified(center, -1.0, VerificationStats()),
    )
    monkeypatch.setattr(scheduler, "NETABS_MAX_ROUNDS", 3)
    report = Scheduler(
        [job], abstraction="syntactic", abstraction_level=2
    ).run()
    result = report.results[0]
    assert report.metrics["sched.netabs.spurious"] >= 1
    assert report.netabs_accepted == 0
    assert report.netabs_rounds >= 1  # at least one refinement round
    # The concrete run decided: same verdict and counters as a plain run.
    assert result.job is job
    assert result.outcome.kind == concrete.kind
    assert result.outcome.stats.pgd_calls == concrete.stats.pgd_calls
    assert passes[-1] == [net]
    for networks in passes[:-1]:
        assert networks[0] is not net  # earlier passes were abstract


def test_cegar_accepts_sound_abstract_verdicts(monkeypatch):
    """Abstract VERIFIED and concretely-validated FALSIFIED are accepted
    in round 0 without touching the concrete network."""
    net = redundant_mlp(4, [8, 8], 3, dup=4, noise=1e-9, rng=4)
    center = np.full(4, 0.5)
    prop = linf_property(net, center, 0.005)
    job = VerificationJob(net, prop, config=VerifierConfig(timeout=10.0))

    def run(outcome):
        passes = _stub_abstract_dispatch(monkeypatch, net, lambda _: outcome)
        report = Scheduler(
            [job], abstraction="syntactic", abstraction_level=2
        ).run()
        assert report.netabs_rounds == 0 and report.netabs_accepted == 1
        assert passes and all(nets[0] is not net for nets in passes)
        assert report.results[0].job is job
        return report

    report = run(Verified(VerificationStats()))
    assert report.results[0].outcome.kind == "verified"
    assert report.metrics["sched.netabs.verified"] == 1

    # A genuine concrete misclassification as the abstract witness: the
    # float64 check passes, so the falsification is accepted directly.
    rng = np.random.default_rng(0)
    witness = None
    for _ in range(2000):
        x = rng.uniform(0.0, 1.0, 4)
        if net.classify(x) != prop.label:
            witness = x
            break
    assert witness is not None, "workload never misclassifies"

    report = run(Falsified(witness, -1.0, VerificationStats()))
    outcome = report.results[0].outcome
    assert outcome.kind == "falsified"
    np.testing.assert_array_equal(outcome.counterexample, witness)
    assert report.metrics["sched.netabs.falsified"] == 1
    assert report.metrics.get("sched.netabs.spurious", 0) == 0


def test_abstraction_for_gates():
    """off / level 0 / non-MLP architectures opt out cleanly."""
    net = mlp(4, [8], 3, rng=0)
    assert abstraction_for(net, "off", 2) is None
    assert abstraction_for(net, None, 2) is None
    assert abstraction_for(net, "syntactic", 0) is None
    conv = lenet_conv()
    assert abstraction_for(conv, "syntactic", 2) is None


def test_overflowing_features_run_the_concrete_network(tmp_path):
    """Weights around 1e160 load fine, but every squared feature distance
    overflows float64, so no pair can be ranked: no abstraction, and a
    ``syntactic`` run ends as an ``off`` run does."""
    net = mlp(4, [8, 8], 3, rng=0)
    net.layers[0].weight[:] *= 1e160
    save_network(net, tmp_path / "big.npz")
    net = load_network(tmp_path / "big.npz")
    assert abstraction_for(net, "syntactic", 2) is None
    assert abstraction_for(net, "semantic", 2) is None
    job = VerificationJob(
        net,
        linf_property(net, np.full(4, 0.5), 0.01),
        config=VerifierConfig(timeout=10.0),
        policy=BisectionPolicy(domain=DomainSpec("deeppoly")),
    )
    off = Scheduler([job]).run()
    merged = Scheduler([job], abstraction="syntactic").run()
    assert merged.results[0].outcome.kind == off.results[0].outcome.kind
    assert merged.metrics["sched.netabs.unsupported"] == 1


# ----------------------------------------------------------------------
# Clustering: the O(n²)-memory agglomeration against the reference
# ----------------------------------------------------------------------


def _reference_partitions(features):
    """The original dense construction — an ``(n, n, d)`` difference
    tensor for the initial distances, active-row gathers per merge —
    kept as the oracle the production ``_agglomerate`` must match
    exactly.  One greedy run serves every target: yields ``(target,
    partition)`` for ``target = n, n - 1, ..., 1``."""
    n = features.shape[0]
    members = [[i] for i in range(n)]
    cents = np.array(features, dtype=np.float64)
    counts = np.ones(n)
    active = np.ones(n, dtype=bool)
    diff = cents[:, None, :] - cents[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    dist[np.tril_indices(n)] = np.inf
    remaining = n
    while True:
        yield remaining, [np.array(m) for m in members if m is not None]
        if remaining == 1:
            return
        i, j = divmod(int(np.argmin(dist)), n)
        members[i].extend(members[j])
        members[j] = None
        active[j] = False
        total = counts[i] + counts[j]
        cents[i] = (cents[i] * counts[i] + cents[j] * counts[j]) / total
        counts[i] = total
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        idx = np.flatnonzero(active)
        d = cents[idx] - cents[i]
        vals = np.einsum("ij,ij->i", d, d)
        lo = np.minimum(idx, i)
        hi = np.maximum(idx, i)
        dist[lo, hi] = vals
        dist[i, i] = np.inf
        remaining -= 1


def _fuzz_shapes():
    """Seeded ``(n, d)`` pairs over n in 2..120 and d in 1..300,
    log-uniform, with the four corners always included."""
    rng = np.random.default_rng(2024)
    shapes = [(2, 1), (2, 300), (120, 1), (120, 300)]
    for _ in range(20):
        n = int(np.exp(rng.uniform(np.log(2), np.log(121))))
        d = int(np.exp(rng.uniform(0.0, np.log(301))))
        shapes.append((n, d))
    return shapes


def _fragile_features():
    """Seeded feature matrices where the Gram-identity bound of
    ``_agglomerate`` is tight or fragile: groups of four near-duplicate
    rows (relative noise 1e-12, the regime of netabs-screen's
    ``noise=1e-12`` networks, and 1e-6), a per-case scale from 1e-6 to
    1e6, rows of mixed norms (per group and per row), and d up to 800."""
    rng = np.random.default_rng(20)
    shapes = [(40, 800), (33, 1), (36, 65), (40, 201), (17, 400), (9, 800)]
    for _ in range(10):
        shapes.append((int(rng.integers(5, 41)), int(rng.integers(1, 301))))
    for case, (n, d) in enumerate(shapes):
        groups = rng.standard_normal((-(-n // 4), d))
        if case % 3 == 1:
            groups *= 10.0 ** rng.uniform(-3.0, 3.0, size=(len(groups), 1))
        noise = (1e-12, 1e-6)[case % 2]
        features = np.repeat(groups, 4, axis=0)[:n]
        features = features * (1.0 + noise * rng.standard_normal((n, d)))
        if case % 3 == 2:
            features *= 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        yield features * 10.0 ** rng.uniform(-6.0, 6.0)


def test_agglomerate_matches_reference_fuzz():
    """Identical partitions — members and their order, which fixes the
    summation order of the merged columns and so the abstract network's
    bits — for every target over a seeded range of shapes.
    Integer-valued features make exact distance ties common, so the
    first-minimum tie-break is exercised; real-valued features check
    that the distances agree to the bit; near-duplicate, rescaled and
    mixed-norm features probe the distance bounds the clustering ranks
    pairs by, which must never exceed the exact distances."""
    rng = np.random.default_rng(7)
    for case, (n, d) in enumerate(_fuzz_shapes()):
        if case % 3 == 2:
            features = rng.standard_normal((n, d))
        else:
            features = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        if case % 4 == 1:
            # Exact duplicate rows: zero distances, ties everywhere.
            features[n // 2 :] = features[: n - n // 2]
        for target, want in _reference_partitions(features):
            got = _agglomerate(features, target)
            assert [g.tolist() for g in got] == [g.tolist() for g in want], (
                f"partition differs at n={n} d={d} target={target}"
            )
    for features in _fragile_features():
        n, d = features.shape
        sq = np.einsum("ij,ij->i", features, features)
        bound = _gram_bound(features @ features.T, sq[:, None], sq, d)
        diff = features[:, None, :] - features[None, :, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        assert (bound <= exact).all(), f"bound above exact at n={n} d={d}"
        for target, want in _reference_partitions(features):
            got = _agglomerate(features, target)
            assert [g.tolist() for g in got] == [g.tolist() for g in want], (
                f"partition differs at n={n} d={d} target={target}"
            )


def _reference_farthest_pair(features):
    """The original ``_refine`` split seed: argmax over an ``(g, g, d)``
    difference tensor, kept as the oracle for :func:`_farthest_pair`."""
    diff = features[:, None, :] - features[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    a, b = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return int(a), int(b)


def test_farthest_pair_matches_reference_fuzz():
    """The row-wise farthest pair is the tensor form's pair, tie-break
    included: integer features make exact ties common, duplicate rows
    make every distance zero, and a NaN feature wins as in argmax."""
    rng = np.random.default_rng(16)
    for case, (n, d) in enumerate(_fuzz_shapes() + [(1, 4), (3, 1)]):
        for variant in range(4):
            if variant == 0:
                features = rng.standard_normal((n, d)) * 10.0 ** (case % 9 - 4)
            else:
                features = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            if variant == 2:
                features[:] = features[0]
            if variant == 3:
                features[rng.integers(n), rng.integers(d)] = np.nan
            assert _farthest_pair(features) == _reference_farthest_pair(
                features
            ), f"pair differs at n={n} d={d} variant={variant}"


def test_agglomerate_edge_targets():
    features = np.arange(12.0).reshape(4, 3)
    singletons = _agglomerate(features, 10)
    assert [g.tolist() for g in singletons] == [[0], [1], [2], [3]]
    assert [g.tolist() for g in _agglomerate(features, 0)] == [[0, 1, 2, 3]]
    assert [g.tolist() for g in _agglomerate(features[:1], 1)] == [[0]]


def test_agglomerate_counts_exact_distances():
    """``cluster_pairs`` counts what an all-exact distance matrix
    evaluates (n(n-1)/2, plus n per merge) and ``cluster_exact`` the
    exact distances made: on ten groups of four near duplicates, the six
    pairs of each group up front, then the two and the one near
    duplicates left in a group's row after its first two merges."""
    rng = np.random.default_rng(5)
    features = np.repeat(rng.standard_normal((10, 7)), 4, axis=0)
    features *= 1.0 + 1e-12 * rng.standard_normal(features.shape)
    obs = metrics_registry()
    before = obs.counters_snapshot()
    groups = _agglomerate(features, 10)
    counted = obs.counters_since(before)
    assert [sorted(g.tolist()) for g in groups] == [
        list(range(k, k + 4)) for k in range(0, 40, 4)
    ]
    assert counted["sched.netabs.cluster_pairs"] == 40 * 39 // 2 + 40 * 30
    assert counted["sched.netabs.cluster_exact"] == 10 * (6 + 2 + 1)


def _pinned_abstraction(mode):
    net = redundant_mlp(6, [10, 10], 4, dup=3, noise=5e-2, rng=21)
    region = Box.from_center_radius(np.full(6, 0.5), 0.05)
    return NetworkAbstraction(net, mode, level=2, regions=[region], seed=3)


#: ``network_digest`` of :func:`_pinned_abstraction`'s abstract network:
#: the partition below, merged, with its error bounds taken over the
#: float64 DeepPoly hull.
_PINNED_ABSTRACT_DIGESTS = {
    "syntactic": (
        "5af9ee9e37278f4a56f540853e2b254831ac1089c9ff4869ec9fea1de2135339"
    ),
    "semantic": (
        "68e28ce9df791b2e874bb917627108c897ceccb4c276dc801ca476e380f4d05d"
    ),
}

#: The partition of :func:`_pinned_abstraction`, pinned apart from the
#: digests so that a change to the error bounds cannot hide a change to
#: the clustering.  Members and their order both count: the order fixes
#: the summation order of the merged columns.
_PINNED_GROUPS = {
    "syntactic": [
        [[0, 2, 1], [3, 4, 5, 15, 16, 17], [6, 7, 8],
         [9, 11, 10, 12, 13, 14], [18, 19, 20], [21, 22, 23], [24, 26, 25],
         [27, 29, 28]],
        [[0, 1, 2, 9, 10, 11], [3, 4, 5, 6, 7, 8], [12, 13, 14],
         [15, 16, 17], [18, 19, 20], [21, 22, 23], [24, 26, 25],
         [27, 28, 29]],
    ],
    "semantic": [
        [[0, 1, 2, 10, 20],
         [3, 4, 17, 21, 22, 23, 27, 28, 29, 15, 5, 16, 9, 11], [6, 8], [7],
         [12], [13, 14, 26], [18, 19], [24, 25]],
        [[0, 1, 2, 9, 10, 11, 12, 13, 14, 18, 19, 20, 21, 22, 23, 24, 25,
          26, 28, 3], [4], [5, 16, 17], [6, 7], [8], [15], [27], [29]],
    ],
}


@pytest.mark.parametrize("mode", sorted(_PINNED_GROUPS))
def test_abstract_partition_pinned(mode):
    abstraction = _pinned_abstraction(mode)
    assert [
        [g.tolist() for g in layer] for layer in abstraction.groups
    ] == _PINNED_GROUPS[mode]


@pytest.mark.parametrize("mode", sorted(_PINNED_ABSTRACT_DIGESTS))
def test_abstract_network_digest_pinned(mode):
    abstraction = _pinned_abstraction(mode)
    assert abstraction.hidden_abstract == 16
    assert network_digest(abstraction.build()) == (
        _PINNED_ABSTRACT_DIGESTS[mode]
    )


@pytest.mark.parametrize("mode", sorted(_PINNED_ABSTRACT_DIGESTS))
def test_abstract_network_ignores_active_backend(mode):
    """``repro schedule --backend numpy32`` builds the same abstract
    network, digest and cache keyspace as a float64 run."""
    abstraction = _pinned_abstraction(mode)
    with use_backend("numpy32"):
        abstract = abstraction.build()
    assert network_digest(abstract) == _PINNED_ABSTRACT_DIGESTS[mode]


#: Per-output-row pad radii of the six-hidden-layer net below as the
#: sequential case-split zonotope hull bounded them.  The DeepPoly hull
#: must give every row a pad no larger.
_ZONOTOPE_HULL_PADS = {
    "syntactic": [
        550.0528854842752, 549.9592117716185, 431.21955475137173,
        555.2514561362723,
    ],
    "semantic": [
        739.7570106532663, 731.247856993243, 576.021253457536,
        757.8652199489709,
    ],
}


@pytest.mark.parametrize("mode", sorted(_ZONOTOPE_HULL_PADS))
def test_deep_pads_no_larger_than_zonotope_hull(mode):
    net = redundant_mlp(6, [8] * 6, 4, dup=3, noise=5e-2, rng=21)
    region = Box.from_center_radius(np.full(6, 0.5), 0.2)
    abstraction = NetworkAbstraction(
        net, mode, level=2, regions=[region], seed=3
    )
    pad = abstraction.build().layers[-1]
    assert isinstance(pad, ErrorPad)
    assert (pad.radii <= np.array(_ZONOTOPE_HULL_PADS[mode])).all()


# ----------------------------------------------------------------------
# Determinism / builder
# ----------------------------------------------------------------------


def test_abstract_network_digest_deterministic():
    """Same (network, mode, level, region) -> bitwise-identical abstract
    network; refinement changes the digest (per-level cache keys)."""
    net = redundant_mlp(5, [8, 8], 3, dup=2, noise=1e-3, rng=3)
    region = Box.from_center_radius(np.full(5, 0.5), 0.02)
    a = NetworkAbstraction(net, "syntactic", level=1, regions=[region])
    b = NetworkAbstraction(net, "syntactic", level=1, regions=[region])
    first = network_digest(a.build())
    assert first == network_digest(b.build())
    assert a.refine()
    assert network_digest(a.build()) != first


def test_redundant_mlp_recovers_duplicate_groups():
    """At zero noise and the matching level, clustering recovers the
    exact duplicate groups: the abstract network computes the same
    function as the concrete one (up to the error pad, which is ~0)."""
    net = redundant_mlp(6, [12, 12], 4, dup=4, noise=0.0, rng=5)
    abstraction = NetworkAbstraction(net, "syntactic", level=2)
    assert abstraction.hidden_concrete == 96  # (12 base x 4 dup) x 2
    assert abstraction.hidden_abstract == 24  # 12 groups per layer
    abstract = abstraction.build()
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = rng.uniform(0.0, 1.0, 6)
        np.testing.assert_allclose(
            abstract.forward(x), net.forward(x), atol=1e-9
        )


# ----------------------------------------------------------------------
# Scheduler integration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["syntactic", "semantic"])
def test_scheduler_outcomes_match_concrete(mode):
    """The netabs pre-pass never changes a job outcome, and any accepted
    falsification carries a concretely-valid witness."""
    net = redundant_mlp(6, [12, 12], 4, dup=4, noise=1e-8, rng=8)
    rng = np.random.default_rng(9)
    config = VerifierConfig(timeout=10.0)
    jobs = []
    for i in range(5):
        x = rng.uniform(0.2, 0.8, 6)
        # Mix decidable-verified and decidable-falsified properties.
        eps = 0.005 if i % 2 == 0 else 0.6
        jobs.append(
            VerificationJob(
                net,
                linf_property(net, x, eps),
                config=config,
                seed=i,
                name=f"t{i}",
            )
        )
    reference = Scheduler(jobs).run()
    merged = Scheduler(jobs, abstraction=mode).run()
    assert [r.outcome.kind for r in merged.results] == [
        r.outcome.kind for r in reference.results
    ]
    for result in merged.results:
        assert result.job is jobs[result.index]
        if result.outcome.kind == "falsified":
            margin = result.job.prop.margin_at(
                net, result.outcome.counterexample
            )
            assert margin <= result.job.config.delta


def test_scheduler_netabs_report_fields():
    net = redundant_mlp(4, [8, 8], 3, dup=4, noise=1e-9, rng=12)
    rng = np.random.default_rng(13)
    jobs = [
        VerificationJob(
            net,
            linf_property(net, rng.uniform(0.3, 0.7, 4), 0.003),
            config=VerifierConfig(timeout=10.0),
            seed=i,
            name=f"r{i}",
        )
        for i in range(3)
    ]
    report = Scheduler(jobs, abstraction="syntactic").run()
    assert report.abstraction == "syntactic"
    assert report.abstraction_level >= 1
    assert 0 <= report.netabs_accepted <= len(jobs)
    off = Scheduler(jobs).run()
    assert off.abstraction == "off" and off.netabs_accepted == 0
