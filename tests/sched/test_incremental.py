"""Incremental re-verification through the scheduler (``--incremental``).

The scheduler contract on top of the checkpoint seam: a run with
``incremental=True`` and a cache probes the prefix family before every
fused Analyze dispatch, resumes from the deepest hit, and re-captures the
boundaries past it — while producing exactly the outcomes a cold run
would (the analyzer-level bitwise guarantee is pinned in
``tests/abstract/test_checkpoint.py``; these tests pin the plumbing:
probing, counters, report fields, executor transparency, and the
fallbacks when the cache is absent or the domain is not checkpointable).
"""

import numpy as np
import pytest

from repro.abstract.domains import DEEPPOLY
from repro.attack.pgd import PGDConfig
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import linf_property
from repro.exec import ProcessExecutor
from repro.nn.builders import mlp
from repro.sched import ResultCache, Scheduler, VerificationJob


def _network(rng=0):
    return mlp(6, [16, 12], 4, rng=rng)  # D R D R D: boundaries [2, 4]


def _jobs(net, count=4):
    config = VerifierConfig(timeout=30.0, pgd=PGDConfig(steps=4, restarts=1))
    policy = BisectionPolicy(domain=DEEPPOLY)
    rng = np.random.default_rng(3)
    jobs = []
    while len(jobs) < count:
        x = rng.uniform(0.2, 0.8, 6)
        logits = net.forward(x)
        if logits.max() - np.partition(logits, -2)[-2] > 0.2:
            jobs.append(
                VerificationJob(
                    net,
                    linf_property(net, x, 1e-3, name=f"j{len(jobs)}"),
                    config=config,
                    policy=policy,
                    seed=len(jobs),
                    name=f"j{len(jobs)}",
                )
            )
    return jobs


def _tuned(net, layer_indices, scale=1e-6):
    copy = mlp(6, [16, 12], 4, rng=0)
    copy.set_params([np.array(p) for p in net.params()])
    gen = np.random.default_rng(11)
    for index in layer_indices:
        layer = copy.layers[index]
        layer.weight += gen.normal(0.0, scale, layer.weight.shape)
    copy.invalidate_ops()
    return copy


def assert_outcomes_equal(a, b):
    assert len(a.results) == len(b.results)
    for ra, rb in zip(a.results, b.results):
        assert ra.outcome.kind == rb.outcome.kind, ra.job.name
        if ra.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                ra.outcome.counterexample, rb.outcome.counterexample
            )


class TestFineTuneScenario:
    def test_resume_hits_and_outcomes_match_cold(self, tmp_path):
        net = _network()
        cache = ResultCache(tmp_path / "cache")
        warm = Scheduler(_jobs(net), cache=cache, incremental=True).run()
        assert warm.incremental
        assert warm.prefix_hits == 0  # nothing stored yet
        assert warm.metrics.get("sched.prefix.puts", 0) > 0

        tuned = _tuned(net, [-1])  # output layer only
        cold = Scheduler(_jobs(tuned)).run()
        inc = Scheduler(_jobs(tuned), cache=cache, incremental=True).run()
        assert_outcomes_equal(cold, inc)
        assert inc.prefix_hits > 0
        # Deepest boundary of D R D R D is 4 -> at least 4 layers served
        # from the checkpoint on every hit.
        assert inc.prefix_layers_skipped >= 4
        assert inc.cache_hits == 0  # tuned digest misses every result key

    def test_second_identical_run_serves_results_not_prefixes(self, tmp_path):
        # Job-level result records shadow the prefix path entirely: a
        # re-run of the same jobs does zero analyze work.
        net = _network()
        cache = ResultCache(tmp_path / "cache")
        Scheduler(_jobs(net), cache=cache, incremental=True).run()
        again = Scheduler(_jobs(net), cache=cache, incremental=True).run()
        assert again.cache_hits == len(again.results)
        assert again.prefix_hits == 0

    def test_whole_network_change_degrades_gracefully(self, tmp_path):
        net = _network()
        cache = ResultCache(tmp_path / "cache")
        Scheduler(_jobs(net), cache=cache, incremental=True).run()
        changed = _tuned(net, [0, 2, 4])  # every Dense layer moved
        cold = Scheduler(_jobs(changed)).run()
        inc = Scheduler(_jobs(changed), cache=cache, incremental=True).run()
        assert_outcomes_equal(cold, inc)
        assert inc.prefix_hits == 0
        assert inc.metrics.get("sched.prefix.misses", 0) > 0

    def test_without_cache_runs_plain(self):
        report = Scheduler(_jobs(_network()), incremental=True).run()
        assert report.incremental
        assert report.prefix_hits == 0
        assert report.metrics.get("sched.prefix.puts", 0) == 0

    def test_unsupported_domain_falls_back_to_plain(self, tmp_path):
        # The default learned policy picks a 2-disjunct zonotope powerset
        # -- not checkpointable; incremental must be a silent no-op.
        net = _network()
        config = VerifierConfig(timeout=30.0, pgd=PGDConfig(steps=4, restarts=1))
        rng = np.random.default_rng(3)
        jobs = lambda: [
            VerificationJob(
                net,
                linf_property(net, x, 1e-3),
                config=config,
                seed=i,
            )
            for i, x in enumerate(rng.uniform(0.2, 0.8, (3, 6)))
        ]
        cache = ResultCache(tmp_path / "cache")
        plain = Scheduler(jobs()).run()
        inc = Scheduler(jobs(), cache=cache, incremental=True).run()
        assert_outcomes_equal(plain, inc)
        assert inc.prefix_hits == 0
        assert inc.metrics.get("sched.prefix.puts", 0) == 0

    def test_default_report_is_not_incremental(self):
        report = Scheduler(_jobs(_network())).run()
        assert not report.incremental
        assert report.prefix_hits == 0
        assert report.prefix_layers_skipped == 0


class TestExecutorTransparency:
    def test_process_executor_matches_serial(self, tmp_path):
        """The resume operand rides the process transport unchanged."""
        net = _network()
        tuned = _tuned(net, [-1])
        legs = {}
        executor = ProcessExecutor(2)
        try:
            for leg in ("serial", "process"):
                cache = ResultCache(tmp_path / f"cache-{leg}")
                Scheduler(_jobs(net), cache=cache, incremental=True).run()
                legs[leg] = Scheduler(
                    _jobs(tuned),
                    cache=cache,
                    incremental=True,
                    executor=executor if leg == "process" else None,
                ).run()
        finally:
            executor.shutdown()
        assert legs["serial"].prefix_hits > 0
        assert legs["process"].prefix_hits > 0
        assert_outcomes_equal(legs["serial"], legs["process"])
        assert (
            legs["process"].prefix_layers_skipped
            == legs["serial"].prefix_layers_skipped
        )
