"""Scheduler equivalence: fused cross-property runs must match solo runs.

The reproducibility contract (DESIGN.md §6): N properties through one
``Scheduler`` produce identical outcomes, witnesses, and statistics to N
independent ``BatchedVerifier`` runs under fixed seeds — for every
frontier policy, every round width, every Analyze call cap, and every job
mix.  These tests pin that contract on mixed-label multi-network job sets,
plus the scheduling machinery itself (policies, round width, call cap,
report).
"""

import numpy as np
import pytest

import repro.sched.scheduler as sched_mod
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty, linf_property
from repro.core.verifier import BatchedVerifier
from repro.nn.builders import mlp, xor_network
from repro.sched import (
    FixedBatchController,
    JobQueue,
    Scheduler,
    VerificationJob,
    make_frontier,
)
from repro.utils.boxes import Box

POLICIES = ("fifo", "dfs", "priority")


def _quick(**kwargs):
    defaults = {"timeout": 30.0, "batch_size": 8}
    defaults.update(kwargs)
    return VerifierConfig(**defaults)


@pytest.fixture(scope="module")
def job_mix():
    """Mixed-difficulty, mixed-label jobs over two networks."""
    net = mlp(4, [10], 3, rng=5)
    xor = xor_network()
    config = _quick()
    rng = np.random.default_rng(3)
    jobs = []
    for i in range(4):
        center = rng.uniform(0.25, 0.75, 4)
        prop = linf_property(net, center, 0.2, name=f"mlp-{i}")
        jobs.append(
            VerificationJob(net, prop, config=config, seed=i, name=prop.name)
        )
    jobs.append(
        VerificationJob(
            xor,
            RobustnessProperty(
                Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
            ),
            config=config,
            seed=0,
            name="xor-verified",
        )
    )
    jobs.append(
        VerificationJob(
            xor,
            RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0),
            config=config,
            seed=0,
            name="xor-falsified",
        )
    )
    return jobs


@pytest.fixture(scope="module")
def solo_outcomes(job_mix):
    return [
        BatchedVerifier(
            job.network, job.policy, job.config, rng=job.seed
        ).verify(job.prop)
        for job in job_mix
    ]


def assert_job_equivalent(result, solo):
    """One scheduled job must match its solo ``BatchedVerifier`` run."""
    assert result.outcome.kind == solo.kind, result.job.name
    if solo.kind == "falsified":
        np.testing.assert_array_equal(
            result.outcome.counterexample, solo.counterexample
        )
        assert result.outcome.margin == solo.margin
    scheduled, reference = result.outcome.stats, solo.stats
    assert scheduled.pgd_calls == reference.pgd_calls
    assert scheduled.analyze_calls == reference.analyze_calls
    assert scheduled.splits == reference.splits
    assert scheduled.max_depth_reached == reference.max_depth_reached
    assert scheduled.domains_used == reference.domains_used


class TestEquivalence:
    @pytest.mark.parametrize("frontier", POLICIES)
    def test_matches_solo_batched_verifier(
        self, frontier, job_mix, solo_outcomes
    ):
        report = Scheduler(job_mix, frontier=frontier).run()
        assert len(report.results) == len(job_mix)
        for result, solo in zip(report.results, solo_outcomes):
            assert_job_equivalent(result, solo)

    def test_batch_target_invariance(
        self, job_mix, solo_outcomes, monkeypatch
    ):
        """Fused sweep width and the Analyze call cap are pure
        performance knobs."""
        for cap in (1, 3, 8):
            monkeypatch.setattr(sched_mod, "ANALYZE_CALL_REGIONS", cap)
            for target in (1, 4, 64):
                report = Scheduler(
                    job_mix, controller=FixedBatchController(target)
                ).run()
                for result, solo in zip(report.results, solo_outcomes):
                    assert_job_equivalent(result, solo)

    def test_job_mix_invariance(self, job_mix, solo_outcomes):
        """Co-scheduled strangers never change a job's result."""
        subset = [job_mix[0], job_mix[-1]]
        report = Scheduler(subset, frontier="priority").run()
        assert_job_equivalent(report.results[0], solo_outcomes[0])
        assert_job_equivalent(report.results[1], solo_outcomes[-1])

    def test_submission_order_invariance(self, job_mix, solo_outcomes):
        reversed_jobs = list(reversed(job_mix))
        report = Scheduler(reversed_jobs, frontier="fifo").run()
        for result, solo in zip(report.results, reversed(solo_outcomes)):
            assert_job_equivalent(result, solo)


@pytest.fixture(scope="module")
def default_report(job_mix):
    return Scheduler(job_mix).run()


class TestReport:
    def test_counts_and_throughput(self, job_mix, default_report):
        report = default_report
        counts = report.outcome_counts()
        assert sum(counts.values()) == len(job_mix)
        assert counts["verified"] >= 1 and counts["falsified"] >= 1
        assert report.sweeps > 0
        assert report.swept_items > 0
        assert report.fresh_calls() > 0
        assert report.throughput() > 0
        assert report.frontier == "dfs"

    def test_elapsed_is_completion_latency(self, default_report):
        report = default_report
        for result in report.results:
            assert 0.0 <= result.elapsed <= report.wall_clock + 1e-6

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError, match="no jobs"):
            Scheduler([]).run()

    def test_timeout_jobs_report_timeout(self):
        net = mlp(8, [24, 24, 24], 5, rng=3)
        prop = linf_property(net, np.full(8, 0.5), 0.5)
        job = VerificationJob(
            net, prop, config=VerifierConfig(timeout=0.05), seed=0
        )
        report = Scheduler([job]).run()
        assert report.results[0].outcome.kind in ("timeout", "falsified")

    def test_aborted_analyze_is_never_verified(self, monkeypatch):
        """A mid-kernel TimeoutError must retire the job as Timeout even
        when its whole frontier was popped into the sweep — an empty
        frontier after an abort means 'analysis never completed', not
        'verified' (unsoundness regression guard)."""
        import repro.sched.scheduler as sched_mod

        def explode(*args, **kwargs):
            raise TimeoutError("deadline")

        monkeypatch.setattr(sched_mod, "analyze_batch_multi", explode)
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        job = VerificationJob(
            net, prop, config=VerifierConfig(timeout=30.0), seed=0
        )
        report = Scheduler([job]).run()
        assert report.results[0].outcome.kind == "timeout"


class TestQueueAndPolicies:
    def test_queue_submit_returns_indices(self, job_mix):
        queue = JobQueue()
        assert queue.submit(job_mix[0]) == 0
        assert queue.submit(job_mix[1]) == 1
        assert len(queue) == 2
        assert queue.jobs()[0] is job_mix[0]

    def test_queue_rejects_non_jobs(self):
        with pytest.raises(TypeError):
            JobQueue().submit("not a job")

    def test_make_frontier_rejects_unknown(self):
        with pytest.raises(ValueError, match="frontier"):
            make_frontier("bogus")

    def test_policy_orderings(self):
        class Stub:
            def __init__(self, index, last_round, depth, last_margin):
                self.index = index
                self.last_round = last_round
                self.depth = depth
                self.last_margin = last_margin

        states = [
            Stub(0, last_round=5, depth=1, last_margin=0.9),
            Stub(1, last_round=2, depth=7, last_margin=0.2),
            Stub(2, last_round=4, depth=3, last_margin=float("-inf")),
        ]
        assert [s.index for s in make_frontier("fifo").order(states)] == [1, 2, 0]
        assert [s.index for s in make_frontier("dfs").order(states)] == [1, 2, 0]
        assert [s.index for s in make_frontier("priority").order(states)] == [2, 1, 0]


#: Counters a run's shape decides.  No scheduling rule reads the clock,
#: so two runs of one manifest must agree on them.
SHAPE_COUNTERS = (
    "sched.rounds",
    "kernel.analyze_batches",
    "kernel.pgd_batches",
    "fused.calls",
)


class TestRoundShape:
    def test_default_round_width(self, job_mix):
        assert Scheduler(job_mix).controller.target == sched_mod.ROUND_ITEMS

    def test_fixed_controller_never_moves(self, job_mix):
        controller = FixedBatchController(4)
        narrow = Scheduler(job_mix, controller=controller).run()
        assert controller.target == 4
        assert narrow.sweeps > Scheduler(job_mix).run().sweeps

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedBatchController(0)

    def test_two_runs_make_the_same_calls(self, powerset_jobs):
        first, second = (Scheduler(powerset_jobs).run() for _ in range(2))
        shape = [
            {key: report.metrics.get(key, 0) for key in SHAPE_COUNTERS}
            for report in (first, second)
        ]
        assert shape[0] == shape[1]
        assert shape[0]["kernel.analyze_batches"] > shape[0]["sched.rounds"]

    def test_analyze_calls_respect_the_cap(self, powerset_jobs, monkeypatch):
        real = sched_mod.analyze_batch_multi
        heights: list[int] = []

        def recording(network, regions, *args):
            heights.append(len(regions))
            return real(network, regions, *args)

        monkeypatch.setattr(sched_mod, "analyze_batch_multi", recording)
        cap = sched_mod.ANALYZE_CALL_REGIONS
        capped = Scheduler(powerset_jobs).run()
        assert max(heights) == cap
        # Without the cap the same manifest sends taller calls, so the
        # cap is what split them.
        capped_heights, heights[:] = list(heights), []
        monkeypatch.setattr(sched_mod, "ANALYZE_CALL_REGIONS", 10**6)
        uncapped = Scheduler(powerset_jobs).run()
        assert max(heights) > cap
        assert sum(heights) == sum(capped_heights)
        for a, b in zip(capped.results, uncapped.results):
            assert_job_equivalent(a, b.outcome)
