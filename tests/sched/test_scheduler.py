"""Scheduler equivalence: fused cross-property runs must match solo runs.

The reproducibility contract (DESIGN.md §6): N properties through one
``Scheduler`` produce identical outcomes, witnesses, and statistics to N
independent ``Verifier`` runs (one-job runs) under fixed seeds — for every
round width, every Analyze call cap, every submission order, and every
job mix.  These tests pin that contract on mixed-label multi-network job
sets, plus the scheduling machinery itself (round order, round width,
call cap, intake, report).
"""

import numpy as np
import pytest

import repro.sched.scheduler as sched_mod
from repro.abstract.domains import INTERVAL, ZONOTOPE
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.core.verifier import Verifier, sequential_reference
from repro.nn.builders import mlp, xor_network
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.sched import Scheduler, VerificationJob
from repro.utils.boxes import Box


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
        Verifier(job.network, job.policy, job.config, rng=job.seed).verify(
            job.prop
        )
        for job in job_mix
    ]


def assert_job_equivalent(result, solo):
    """One scheduled job must match its solo ``Verifier`` run."""
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
    def test_matches_solo_batched_verifier(self, job_mix, solo_outcomes):
        report = Scheduler(job_mix).run()
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
                monkeypatch.setattr(sched_mod, "ROUND_ITEMS", target)
                report = Scheduler(job_mix).run()
                for result, solo in zip(report.results, solo_outcomes):
                    assert_job_equivalent(result, solo)

    def test_job_mix_invariance(self, job_mix, solo_outcomes):
        """Co-scheduled strangers never change a job's result."""
        subset = [job_mix[0], job_mix[-1]]
        report = Scheduler(subset).run()
        assert_job_equivalent(report.results[0], solo_outcomes[0])
        assert_job_equivalent(report.results[1], solo_outcomes[-1])

    def test_submission_order_invariance(self, job_mix, solo_outcomes):
        reversed_jobs = list(reversed(job_mix))
        report = Scheduler(reversed_jobs).run()
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


class TestIntakeAndOrder:
    def test_queue_rejects_non_jobs(self, job_mix):
        with pytest.raises(TypeError, match="VerificationJob"):
            Scheduler([job_mix[0], "not a job"])

    def test_round_order_is_deepest_frontier_first(self, monkeypatch):
        # A round too narrow for every job takes, chunk by chunk, the
        # waiting job whose frontier top is deepest, the earlier-submitted
        # one on a tie.  One-item chunks of four refining XOR jobs, two per
        # round: a job that backtracks gives way to a deeper later one.
        config = _quick(batch_size=1)
        policy = BisectionPolicy(domain=ZONOTOPE)
        jobs = [
            VerificationJob(
                xor_network(),
                RobustnessProperty(Box(np.full(2, low), np.full(2, high)), 1),
                config=config,
                policy=policy,
                seed=seed,
            )
            for seed, (low, high) in enumerate(
                [(0.3, 0.7), (0.35, 0.65), (0.32, 0.6), (0.4, 0.7)]
            )
        ]
        states, taken, picks = [], [], []
        init = sched_mod._JobState.__init__
        pop = sched_mod._JobState.pop_chunk
        sweep = sched_mod.Scheduler._fused_sweep

        def tracking_init(self, index, job):
            init(self, index, job)
            states.append(self)

        def checking_pop(self):
            waiting = [
                s for s in states
                if s.outcome is None and not any(s is t for t in taken)
            ]
            deepest = min(waiting, key=lambda s: (-s.depth, s.index))
            picks.append(deepest is self)
            taken.append(self)
            return pop(self)

        def next_round(self, plan, executor):
            taken.clear()
            return sweep(self, plan, executor)

        monkeypatch.setattr(sched_mod, "ROUND_ITEMS", 2)
        monkeypatch.setattr(sched_mod._JobState, "__init__", tracking_init)
        monkeypatch.setattr(sched_mod._JobState, "pop_chunk", checking_pop)
        monkeypatch.setattr(sched_mod.Scheduler, "_fused_sweep", next_round)
        report = Scheduler(jobs).run()
        assert report.outcome_counts()["verified"] == len(jobs)
        assert len(picks) > 2 * len(jobs)
        assert all(picks)


def _cancelling_network() -> Network:
    """Label 0's margin is ``relu(x) - relu(x) + 1 = 1`` everywhere, so no
    job on it falsifies, while the interval domain bounds it below by
    ``1 - (u - l)`` over the clipped input range ``[l, u]`` of a region:
    a region verifies exactly when its positive part is narrower than
    one."""
    return Network(
        [
            Dense(np.array([[1.0], [1.0]]), np.zeros(2)),
            ReLU(),
            Dense(np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([1.0, 0.0])),
        ],
        input_shape=(1,),
    )


class TestDepthCap:
    """A chunk whose first item sits at ``max_depth`` sends only that item
    to Analyze; the rest of the chunk follows only if it verifies."""

    @staticmethod
    def _run(low, high, max_depth):
        prop = RobustnessProperty(Box(np.array([low]), np.array([high])), 0)
        config = _quick(max_depth=max_depth)
        policy = BisectionPolicy(domain=INTERVAL)
        job = VerificationJob(
            _cancelling_network(), prop, config=config, policy=policy, seed=0
        )
        report = Scheduler([job]).run()
        reference = sequential_reference(
            job.network, prop, policy, config, rng=0
        )
        return report, report.results[0].outcome, reference

    def test_failing_first_item_ends_the_job_alone(self):
        # [0, 4] fails at the root and in both halves; the capped chunk
        # [0, 2], [2, 4] stops at its first item.
        report, outcome, reference = self._run(0.0, 4.0, max_depth=1)
        assert outcome.kind == "timeout" and outcome.reason == "split depth"
        assert outcome.stats.pgd_calls == 3
        # The root's row and the capped chunk's one row.
        assert outcome.stats.analyze_calls == 2
        assert report.metrics["kernel.analyze_rows"] == 2
        assert report.metrics["kernel.analyze_batches"] == 2
        assert outcome.stats.analyze_calls == reference.stats.analyze_calls

    def test_failing_sibling_runs_both_stages(self):
        # [-2, 0] verifies, [0, 2] does not: the second stage analyzes
        # the sibling, and refine stops at it.
        report, outcome, reference = self._run(-2.0, 2.0, max_depth=1)
        assert outcome.kind == "timeout" and outcome.reason == "split depth"
        assert outcome.stats.analyze_calls == 3
        assert report.metrics["kernel.analyze_rows"] == 3
        assert report.metrics["kernel.analyze_batches"] == 3
        assert reference.kind == "timeout"
        assert reference.reason == "split depth"
        assert_job_equivalent(report.results[0], reference)

    @pytest.mark.parametrize("high, max_depth", [(1.8, 1), (3.6, 2)])
    def test_verified_capped_chunk_matches_the_reference(
        self, high, max_depth
    ):
        # Every leaf at the cap is narrower than one: the chunk's first
        # item verifies, so the rest of it is analyzed and verifies too.
        report, outcome, reference = self._run(0.0, high, max_depth)
        assert outcome.kind == "verified" and reference.kind == "verified"
        assert outcome.stats.max_depth_reached == max_depth
        rows = report.metrics["kernel.analyze_rows"]
        assert rows == 2 ** (max_depth + 1) - 1
        assert_job_equivalent(report.results[0], reference)


#: Counters a run's shape decides.  No scheduling rule reads the clock,
#: so two runs of one manifest must agree on them.
SHAPE_COUNTERS = (
    "sched.rounds",
    "kernel.analyze_batches",
    "kernel.pgd_batches",
    "fused.calls",
)


class TestRoundShape:
    def test_round_width_is_read_at_run_time(self, job_mix, monkeypatch):
        wide = Scheduler(job_mix).run()
        scheduler = Scheduler(job_mix)
        monkeypatch.setattr(sched_mod, "ROUND_ITEMS", 4)
        narrow = scheduler.run()
        assert narrow.sweeps > wide.sweeps
        for a, b in zip(narrow.results, wide.results):
            assert_job_equivalent(a, b.outcome)

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
