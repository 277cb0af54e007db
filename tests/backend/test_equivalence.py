"""Backend equivalence matrix: job-level outcomes match across backends.

The mixed-precision contract is *outcome* equality, not bitwise bound
equality: a numpy32 scheduler run over the xor and scaled
fig06-style suites must decide every job the same way the numpy64
reference does, falsified witnesses must survive concrete float64
re-evaluation, and the two-phase escalation mode must reproduce the
reference outcomes while keying its cache traffic per backend.
"""

import numpy as np
import pytest

from repro.backend import active as active_backend, use_backend
from repro.bench.suites import SuiteScale, build_network, build_problems
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty, linf_property
from repro.nn.builders import mlp, xor_network
from repro.sched import ResultCache, Scheduler, VerificationJob
from repro.utils.boxes import Box

TINY = SuiteScale(
    width_factor=0.12, image_size=4, train_samples=500, train_epochs=8
)

BACKENDS = ("numpy64", "numpy32")


@pytest.fixture(scope="module")
def suite():
    """xor properties plus a scaled-down fig06 (mnist_3x100) slice."""
    config = VerifierConfig(timeout=10.0, batch_size=8, max_depth=6)
    jobs = [
        VerificationJob(
            xor_network(),
            RobustnessProperty(
                Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
            ),
            config=config,
            seed=0,
            name="xor-verified",
        ),
        VerificationJob(
            xor_network(),
            RobustnessProperty(
                Box(np.array([0.1, 0.1]), np.array([0.9, 0.9])), 1
            ),
            config=config,
            seed=1,
            name="xor-falsified",
        ),
    ]
    net = mlp(4, [10, 10], 3, rng=5)
    rng = np.random.default_rng(9)
    for i in range(4):
        center = rng.uniform(0.2, 0.8, 4)
        prop = linf_property(net, center, 0.05 + 0.1 * i, name=f"mlp-{i}")
        jobs.append(
            VerificationJob(net, prop, config=config, seed=i, name=prop.name)
        )
    bench_net = build_network("mnist_3x100", TINY, seed=0)
    fig06_config = VerifierConfig(timeout=5.0, batch_size=8, max_depth=5)
    for problem in build_problems(bench_net, count=3, rng=13):
        jobs.append(
            VerificationJob(
                bench_net.network,
                problem.prop,
                config=fig06_config,
                seed=0,
                name=problem.prop.name,
            )
        )
    return jobs


@pytest.fixture(scope="module")
def reference(suite):
    return Scheduler(suite).run()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_outcome_matrix(suite, reference, backend_name):
    report = Scheduler(suite, backend=backend_name).run()
    assert report.backend == backend_name
    kinds = [r.outcome.kind for r in report.results]
    assert kinds == [r.outcome.kind for r in reference.results]
    for result in report.results:
        if result.outcome.kind == "falsified":
            job = result.job
            margin = job.prop.margin_at(
                job.network, result.outcome.counterexample
            )
            assert margin <= job.config.delta


def test_escalation_matches_reference(suite, reference):
    report = Scheduler(suite, precision_escalation=True).run()
    assert report.escalation
    assert report.screen_backend == "numpy32"
    assert 0 <= report.escalated <= len(suite)
    assert [r.outcome.kind for r in report.results] == [
        r.outcome.kind for r in reference.results
    ]


def test_escalation_margin_rejects_nan(suite):
    with pytest.raises(ValueError, match="escalation_margin"):
        Scheduler(suite, escalation_margin=float("nan"))


def test_cache_isolation_between_backends(suite, tmp_path):
    """A numpy32 run never serves (or poisons) numpy64 entries."""
    cache = ResultCache(tmp_path / "cache")
    first = Scheduler(suite, cache=cache).run()
    assert first.cache_hits == 0
    crossed = Scheduler(suite, cache=cache, backend="numpy32").run()
    assert crossed.cache_hits == 0
    again64 = Scheduler(suite, cache=cache).run()
    assert again64.cache_hits == len(suite)
    again32 = Scheduler(suite, cache=cache, backend="numpy32").run()
    assert again32.cache_hits == len(suite)


def _kernel_backends(report) -> dict:
    return {
        name: value
        for name, value in report.metrics.items()
        if name.startswith("kernel.by_backend.")
    }


def test_per_backend_kernel_counters(suite):
    report = Scheduler(suite, backend="numpy32").run()
    by_backend = _kernel_backends(report)
    assert by_backend.get("kernel.by_backend.numpy32.analyze_batches", 0) > 0
    assert not any("numpy64" in name for name in by_backend)


@pytest.mark.parametrize(
    "callers, run", [("numpy32", "numpy64"), ("numpy64", "numpy32")]
)
def test_run_backend_wins_over_a_callers_scoped_switch(suite, callers, run):
    """A caller's ``use_backend`` cannot move a run off its own backend:
    the kernels run on the backend the report names and the cache keys
    carry."""
    with use_backend(callers):
        report = Scheduler(suite[:2], backend=run).run()
    assert report.backend == run
    by_backend = _kernel_backends(report)
    assert by_backend.get(f"kernel.by_backend.{run}.analyze_rows", 0) > 0
    assert not any(callers in name for name in by_backend)


def test_run_restores_the_callers_backend(suite):
    """Each phase's switch is scoped to the phase: once the run (both
    escalation phases included) returns, the caller's backend is active
    again."""
    default = active_backend().name
    with use_backend("numpy32"):
        Scheduler(suite[:2], backend="numpy64").run()
        assert active_backend().name == "numpy32"
        Scheduler(suite[:2], precision_escalation=True).run()
        assert active_backend().name == "numpy32"
    assert active_backend().name == default
