"""Network-abstraction CEGAR contract: merged networks must pay less.

Not a paper figure: this bench pins the perf contract of the
``repro.abstract.netabs`` pre-pass.  On a fig09-scale suite (the paper's
9x200 shape — nine hidden layers of width 200, built with reproducible
4-fold neuron redundancy) the scheduler with ``abstraction="syntactic"``
must

- reach **identical job outcomes** to the concrete run (any accepted
  FALSIFIED carries a float64-validated witness by construction — the
  scheduler only accepts falsifications after
  :func:`repro.abstract.netabs.witness_margin` confirms them);
- finish the suite at least **1.5x faster** end-to-end;
- spend a measurably smaller fraction of full-network kernel work,
  reported via ``kernel.analyze_rows`` weighted by network width (an
  abstract row sweeps ~1/dup of the concrete neurons);
- build the abstraction from few exact neuron distances: clustering
  ranks pairs by certified lower bounds and evaluates a distance exactly
  only where a merge can land, at most 5% of the pair distances an
  all-exact distance matrix evaluates (``sched.netabs.cluster_exact``
  against ``sched.netabs.cluster_pairs``; a count, so it cannot flake on
  a busy runner).

The workload mirrors how netabs wins in practice: a wide redundant
network whose duplicate groups cluster at tiny error bounds, properties
far enough from the decision boundary that the abstract margin check
verifies at the root.  ``perfbench``'s ``netabs-screen`` workload times
the end-to-end path.
"""

import time

import numpy as np
from conftest import one_shot

from repro.abstract.netabs import abstraction_for
from repro.core.config import VerifierConfig
from repro.core.property import linf_property
from repro.nn.builders import redundant_mlp
from repro.obs.metrics import registry
from repro.sched import Scheduler, VerificationJob

#: End-to-end speedup floor of the abstraction pre-pass (ISSUE 9).
FLOOR = 1.5

#: Ceiling on the share of pair distances clustering evaluates exactly.
EXACT_SHARE = 0.05


def netabs_workload(jobs=24, epsilon=0.0005, timeout=30.0):
    """A fig09-scale redundant suite: 9 hidden layers, width 200 = 50x4.

    Centers are screened by concrete point margin so every property is
    decidable at the root — the regime where the abstract network's
    cheaper sweeps dominate the wall clock (64-input L∞ splitting is
    all-or-nothing at this scale, so a splitting-heavy suite would only
    measure timeout behaviour).
    """
    net = redundant_mlp(64, [50] * 9, 10, dup=4, noise=1e-12, rng=3)
    rng = np.random.default_rng(11)
    centers = []
    while len(centers) < jobs:
        x = rng.uniform(0.2, 0.8, size=64)
        logits = net.forward(x)
        margin = logits.max() - np.partition(logits, -2)[-2]
        if margin > 0.15:
            centers.append(x)
    config = VerifierConfig(timeout=timeout)
    return net, [
        VerificationJob(
            net,
            linf_property(net, x, epsilon),
            config=config,
            seed=i,
            name=f"j{i}",
        )
        for i, x in enumerate(centers)
    ]


def run_suite(jobs, abstraction):
    """One scheduler run; returns (report, wall_s, counter delta)."""
    obs = registry()
    before = obs.counters_snapshot()
    start = time.perf_counter()
    report = Scheduler(jobs, abstraction=abstraction).run()
    wall = time.perf_counter() - start
    return report, wall, obs.counters_since(before)


def kernel_work(net, abstract, delta):
    """Width-weighted analyze-row work of one run's counter delta.

    ``kernel.analyze_rows`` counts rows regardless of network size; a
    row against the merged network sweeps ``hidden_abstract`` neurons
    instead of ``hidden_concrete``, so the work comparison weights each
    run's rows by the widest network it could have swept.
    """
    rows = delta.get("kernel.analyze_rows", 0)
    width = abstract.hidden_abstract if abstract is not None else None
    per_row = width if width is not None else net.num_relu_units()
    return rows, rows * per_row


def test_netabs_speedup(benchmark):
    """Syntactic abstraction: identical outcomes, >= 1.5x end-to-end."""
    net, jobs = netabs_workload()

    def measure():
        # Warm both paths once (BLAS thread spin-up, digest memoization,
        # suite caches), then time a clean run of each.
        run_suite(jobs, "off")
        run_suite(jobs, "syntactic")
        off = run_suite(jobs, "off")
        merged = run_suite(jobs, "syntactic")
        return off, merged

    (off_report, t_off, off_delta), (abs_report, t_abs, abs_delta) = one_shot(
        benchmark, measure
    )

    ratio = t_off / t_abs
    abstraction = abstraction_for(net, "syntactic", 2)
    rows_off, work_off = kernel_work(net, None, off_delta)
    rows_abs, work_abs = kernel_work(net, abstraction, abs_delta)
    print()
    print(
        f"netabs fig09-scale: off {t_off * 1e3:.0f}ms "
        f"({rows_off} rows, {work_off} row-neurons), "
        f"syntactic {t_abs * 1e3:.0f}ms "
        f"({rows_abs} rows, {work_abs} row-neurons) -> {ratio:.2f}x"
    )
    print(
        f"merged ratio {abstraction.merged_ratio:.3f} "
        f"({abstraction.hidden_abstract}/{abstraction.hidden_concrete} "
        f"hidden), accepted {abs_report.netabs_accepted}, "
        f"rounds {abs_report.netabs_rounds}"
    )
    pairs = abs_delta["sched.netabs.cluster_pairs"]
    exact = abs_delta["sched.netabs.cluster_exact"]
    print(
        f"clustering: {exact} of {pairs} pair distances exact "
        f"({exact / pairs:.1%})"
    )

    # Identical job outcomes — the soundness contract of the pre-pass.
    assert [r.outcome.kind for r in abs_report.results] == [
        r.outcome.kind for r in off_report.results
    ]
    # Every job rode the abstraction (none fell back to concrete).
    assert abs_report.netabs_accepted == len(jobs)
    assert abs_delta.get("sched.netabs.verified", 0) == len(jobs)
    # The merged network genuinely sweeps fewer neurons per row.
    assert work_abs < work_off
    assert exact <= EXACT_SHARE * pairs, (
        f"clustering evaluated {exact / pairs:.1%} of pair distances "
        f"exactly (ceiling {EXACT_SHARE:.0%})"
    )
    assert ratio >= FLOOR, (
        f"netabs only {ratio:.2f}x vs concrete (floor {FLOOR}x)"
    )
