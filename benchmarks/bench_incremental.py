"""Incremental re-verification contract: suffix runs must pay less.

Not a paper figure: this bench pins the perf contract of the prefix
checkpoint seam (``repro.abstract.checkpoint`` + ``--incremental``).  On
a fig09-scale suite (nine hidden layers of width 200) whose network is
fine-tuned in its **last two layers**, an incremental run seeded from a
previous run's checkpoints must

- reach **identical job outcomes** to a cold run of the fine-tuned
  network (the resumed analyzer is bitwise-identical to cold — pinned
  by ``tests/abstract/test_checkpoint.py`` — so this can never fail for
  soundness reasons, only for plumbing ones);
- finish the suite at least **2x faster** end-to-end, because DeepPoly
  back-substitution is triangular in depth and the unchanged 16-layer
  prefix is served from the cache;
- degrade gracefully on a **whole-network** change: zero prefix hits,
  and no overhead beyond digest chaining and checkpoint emission over
  a plain cold run.

``perfbench``'s ``finetune-reverify`` workload times the end-to-end path.
"""

import tempfile
import time

import numpy as np
from conftest import one_shot

from repro.abstract.domains import DEEPPOLY
from repro.attack.pgd import PGDConfig
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import linf_property
from repro.nn.builders import mlp
from repro.nn.serialize import common_prefix_layers, load_network, save_network
from repro.sched import Scheduler, VerificationJob
from repro.sched.cache import ResultCache

#: End-to-end speedup floor of the last-2-layer fine-tune scenario.
FLOOR = 2.0

#: Overhead ceiling of the zero-reuse (whole-network change) scenario:
#: an incremental run that hits nothing may pay digest chaining and
#: checkpoint writes, but must stay within this factor of plain cold.
DEGRADE_CEILING = 1.5


def workload(jobs=12, epsilon=5e-4, timeout=60.0):
    """A fig09-scale suite: 9 hidden layers of width 200, DeepPoly.

    Centers are screened by concrete point margin so every property is
    decidable at the root — the regime where the fused Analyze group is
    one whole-suite DeepPoly batch and the prefix either reuses or not.
    The domain is pinned (checkpoints need a single-disjunct base); the
    PGD budget is tiny so the analyzer dominates the wall clock, which
    is what this bench is measuring.
    """
    net = mlp(64, [200] * 9, 10, rng=3)
    rng = np.random.default_rng(11)
    centers = []
    while len(centers) < jobs:
        x = rng.uniform(0.2, 0.8, size=64)
        logits = net.forward(x)
        if logits.max() - np.partition(logits, -2)[-2] > 0.15:
            centers.append(x)
    return net, centers, epsilon, timeout


def suite(net, centers, epsilon, timeout):
    config = VerifierConfig(
        timeout=timeout, pgd=PGDConfig(steps=8, restarts=1)
    )
    policy = BisectionPolicy(domain=DEEPPOLY)
    return [
        VerificationJob(
            net,
            linf_property(net, x, epsilon),
            config=config,
            policy=policy,
            seed=i,
            name=f"j{i}",
        )
        for i, x in enumerate(centers)
    ]


def perturbed(net, tmpdir, layer_indices, scale=1e-6, rng=7):
    """A fine-tuned copy of ``net``: noise added to the given layers."""
    path = f"{tmpdir}/perturbed.npz"
    save_network(net, path)
    copy = load_network(path)
    copy.thaw_params()
    gen = np.random.default_rng(rng)
    for index in layer_indices:
        layer = copy.layers[index]
        layer.weight += gen.normal(0.0, scale, layer.weight.shape)
    copy.invalidate_ops()
    return copy


def timed_run(jobs, cache=None, incremental=False):
    start = time.perf_counter()
    report = Scheduler(jobs, cache=cache, incremental=incremental).run()
    return report, time.perf_counter() - start


def test_incremental_fine_tune_speedup(benchmark):
    """Last-2-of-9-layers fine-tune: identical outcomes, >= 2x."""
    net, centers, epsilon, timeout = workload()

    def measure():
        with tempfile.TemporaryDirectory() as tmpdir:
            # Dense layers sit at even indices ([D,R]*9,D); the last two
            # are the output layer and the ninth hidden layer.
            tuned = perturbed(net, tmpdir, [-1, -3])
            assert common_prefix_layers(net, tuned) == 16
            cache = ResultCache(f"{tmpdir}/cache")
            # Warm run on the original network records the checkpoints
            # (and spins up BLAS); an un-timed cold run on the tuned
            # network warms its op lowering.
            warm, _ = timed_run(
                suite(net, centers, epsilon, timeout),
                cache=cache, incremental=True,
            )
            timed_run(suite(tuned, centers, epsilon, timeout))
            cold, t_cold = timed_run(suite(tuned, centers, epsilon, timeout))
            inc, t_inc = timed_run(
                suite(tuned, centers, epsilon, timeout),
                cache=cache, incremental=True,
            )
            return warm, cold, t_cold, inc, t_inc

    warm, cold, t_cold, inc, t_inc = one_shot(benchmark, measure)
    ratio = t_cold / t_inc
    print()
    print(
        f"incremental fig09-scale: cold {t_cold * 1e3:.0f}ms, "
        f"resume {t_inc * 1e3:.0f}ms -> {ratio:.2f}x "
        f"({inc.prefix_hits} prefix hits, "
        f"{inc.prefix_layers_skipped} layers skipped)"
    )

    # Identical job outcomes — resume equals cold, decision for decision.
    assert [r.outcome.kind for r in inc.results] == [
        r.outcome.kind for r in cold.results
    ]
    # The run genuinely resumed (no job-level cache hit shortcuts: the
    # tuned network's digest differs, so every result record missed).
    assert inc.cache_hits == 0
    assert inc.prefix_hits > 0
    assert inc.prefix_layers_skipped >= 16
    assert warm.outcome_counts() == cold.outcome_counts()
    assert ratio >= FLOOR, (
        f"incremental only {ratio:.2f}x vs cold (floor {FLOOR}x)"
    )


def test_incremental_whole_network_change_degrades_gracefully(benchmark):
    """Every layer changed: zero hits, bounded overhead over cold."""
    net, centers, epsilon, timeout = workload(jobs=6)

    def measure():
        with tempfile.TemporaryDirectory() as tmpdir:
            changed = perturbed(
                net, tmpdir, [i for i in range(0, 19, 2)]
            )
            assert common_prefix_layers(net, changed) == 0
            cache = ResultCache(f"{tmpdir}/cache")
            timed_run(
                suite(net, centers, epsilon, timeout),
                cache=cache, incremental=True,
            )
            timed_run(suite(changed, centers, epsilon, timeout))
            cold, t_cold = timed_run(
                suite(changed, centers, epsilon, timeout)
            )
            inc, t_inc = timed_run(
                suite(changed, centers, epsilon, timeout),
                cache=cache, incremental=True,
            )
            return cold, t_cold, inc, t_inc

    cold, t_cold, inc, t_inc = one_shot(benchmark, measure)
    overhead = t_inc / t_cold
    print()
    print(
        f"zero-reuse: cold {t_cold * 1e3:.0f}ms, "
        f"incremental {t_inc * 1e3:.0f}ms ({overhead:.2f}x, "
        f"{inc.prefix_hits} hits)"
    )
    assert inc.prefix_hits == 0
    assert [r.outcome.kind for r in inc.results] == [
        r.outcome.kind for r in cold.results
    ]
    assert overhead <= DEGRADE_CEILING, (
        f"zero-reuse incremental run cost {overhead:.2f}x cold "
        f"(ceiling {DEGRADE_CEILING}x)"
    )
