"""Executor-equivalence matrix: execution placement is a pure knob.

The tentpole contract of the execution layer (DESIGN.md §8–§9):
marshalling a scheduler round's independent fused groups across a
process boundary changes *which core* runs a group, never what it
computes: group composition, within-group row order, and
result-consumption order are all fixed on the scheduler thread, and
process workers pin their BLAS pools to one thread so GEMM rounding
matches the serial run.  These tests pin bitwise-identical per-job
outcomes, witnesses, and statistics for whole manifests under
``SerialExecutor`` vs ``ProcessExecutor`` with workers ∈ {1, 2, 4},
across every frontier policy.
"""

import numpy as np
import pytest

from repro.abstract.domains import DomainSpec
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.exec import ProcessExecutor, SerialExecutor
from repro.nn.builders import mlp, xor_network
from repro.obs.trace import tracer
from repro.sched import Scheduler, VerificationJob
from repro.utils.boxes import Box

POLICIES = ("fifo", "dfs", "priority")
WORKER_COUNTS = (1, 2, 4)

#: Counters that must be executor-invariant: semantic work quantities a
#: run performs, independent of where kernels execute.  Excludes the
#: arena counters (thread-local arenas make alloc/reuse splits placement
#: dependent), phase timers, and exec.* bookkeeping (named per executor).
SEMANTIC_COUNTERS = (
    "kernel.pgd_batches",
    "kernel.pgd_rows",
    "kernel.analyze_batches",
    "kernel.analyze_rows",
    "fused.calls",
    "fused.compacted_rows",
    "cache.hits",
    "sched.rounds",
)


@pytest.fixture(scope="module", autouse=True)
def force_tracing():
    """The whole matrix runs with tracing ON.

    Tracing must never perturb outcomes; running the bitwise-equality
    matrix under an enabled tracer is the strongest form of that claim.
    """
    tracer().enable()
    yield
    tracer().disable()


def semantic_metrics(report) -> dict:
    return {
        key: report.metrics.get(key, 0)
        for key in SEMANTIC_COUNTERS
    }


@pytest.fixture(scope="module")
def manifest():
    """A multi-network manifest: three MLPs plus XOR, mixed outcomes.

    Multiple networks matter here — fused kernel groups are per network,
    so this is the shape where the pool actually receives several
    independent groups per round.
    """
    config = VerifierConfig(timeout=30.0, batch_size=8)
    rng = np.random.default_rng(7)
    jobs = []
    for net_seed in range(3):
        net = mlp(4, [10], 3, rng=net_seed)
        for i in range(2):
            center = rng.uniform(0.25, 0.75, 4)
            prop = linf_property(net, center, 0.2, name=f"n{net_seed}-p{i}")
            jobs.append(
                VerificationJob(
                    net, prop, config=config, seed=i, name=prop.name
                )
            )
    xor = xor_network()
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
def serial_reports(manifest):
    """Reference runs on the SerialExecutor, one per frontier policy."""
    return {
        policy: Scheduler(
            manifest, frontier=policy, executor=SerialExecutor()
        ).run()
        for policy in POLICIES
    }


@pytest.fixture(scope="module")
def process_executors():
    """One ProcessExecutor per worker width, shared across the matrix.

    Spawned workers each import numpy + repro once; reusing the pools
    keeps the process rows' cost at one spawn per width instead of one
    per (policy, width) cell.
    """
    executors = {}
    try:
        yield lambda workers: executors.setdefault(
            workers, ProcessExecutor(workers)
        )
    finally:
        for executor in executors.values():
            executor.shutdown()


def assert_reports_bitwise_equal(reference, candidate):
    assert len(reference.results) == len(candidate.results)
    for ref, cand in zip(reference.results, candidate.results):
        assert cand.outcome.kind == ref.outcome.kind, ref.job.name
        if ref.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                cand.outcome.counterexample, ref.outcome.counterexample
            )
            assert cand.outcome.margin == ref.outcome.margin
        ref_stats, cand_stats = ref.outcome.stats, cand.outcome.stats
        assert cand_stats.pgd_calls == ref_stats.pgd_calls, ref.job.name
        assert cand_stats.analyze_calls == ref_stats.analyze_calls
        assert cand_stats.splits == ref_stats.splits
        assert cand_stats.max_depth_reached == ref_stats.max_depth_reached
        assert cand_stats.domains_used == ref_stats.domains_used
    # The obs contract rides along: worker counter deltas merged back
    # through the envelopes must make every executor report the same
    # semantic work totals.
    assert semantic_metrics(candidate) == semantic_metrics(reference)


class TestBatchedEngineMatrix:
    def test_workers_argument_builds_the_pool(self, manifest, serial_reports):
        report = Scheduler(manifest, workers=2).run()
        assert report.executor == "process" and report.workers == 2
        assert_reports_bitwise_equal(serial_reports["dfs"], report)

    @pytest.mark.parametrize("frontier", POLICIES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_process_matches_serial(
        self, frontier, workers, manifest, serial_reports, process_executors
    ):
        # The hard row of the matrix: every fused group crosses a process
        # boundary as a picklable descriptor, runs under pinned BLAS, and
        # must still reproduce the serial run bit for bit.
        report = Scheduler(
            manifest, frontier=frontier, executor=process_executors(workers)
        ).run()
        assert report.executor == "process"
        assert report.workers == workers
        assert_reports_bitwise_equal(serial_reports[frontier], report)

    def test_executor_kind_argument_builds_the_process_pool(
        self, manifest, serial_reports
    ):
        report = Scheduler(
            manifest, workers=2, executor_kind="process"
        ).run()
        assert report.executor == "process" and report.workers == 2
        assert_reports_bitwise_equal(serial_reports["dfs"], report)


class TestSplitAnalyzeGroups:
    """Each round's (network, domain) Analyze group holds more regions than
    one call may carry, so the scheduler sends it as several calls; the
    split depends only on the round, so process runs make the serial
    run's calls."""

    @pytest.fixture(scope="class")
    def serial_powerset(self, powerset_jobs):
        report = Scheduler(powerset_jobs, executor=SerialExecutor()).run()
        # One network and one domain make one group per round, so more
        # Analyze calls than rounds means groups were split.
        assert (
            report.metrics["kernel.analyze_batches"]
            > report.metrics["sched.rounds"]
        )
        return report

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_matches_serial_on_split_groups(
        self, workers, powerset_jobs, serial_powerset, process_executors
    ):
        report = Scheduler(
            powerset_jobs, executor=process_executors(workers)
        ).run()
        assert report.workers == workers
        assert_reports_bitwise_equal(serial_powerset, report)


class TestMetricsAggregation:
    """A Process run's merged registry delta equals the Serial run's."""

    @pytest.fixture(scope="class")
    def zono_jobs(self):
        # Pinned zonotope powerset: Analyze crosses the process boundary
        # through the dedicated zonotope fast path (the one that bypasses
        # analyze_batch_multi), so this pins exactly-once counting on
        # both worker entry points.
        config = VerifierConfig(timeout=30.0, batch_size=4)
        policy = BisectionPolicy(domain=DomainSpec("zonotope", 2))
        rng = np.random.default_rng(3)
        net = mlp(3, [8], 3, rng=5)
        jobs = []
        for i in range(3):
            center = rng.uniform(0.3, 0.7, 3)
            # ε chosen so the mix survives the first Minimize: verified
            # and falsified jobs, several refinement rounds, and fused
            # zonotope kernel work — every counter family is non-zero.
            prop = linf_property(net, center, 0.05, name=f"z{i}")
            jobs.append(
                VerificationJob(
                    net, prop, config=config, policy=policy, seed=i,
                    name=prop.name,
                )
            )
        return jobs

    def test_process_merged_metrics_equal_serial(
        self, zono_jobs, process_executors
    ):
        serial = Scheduler(zono_jobs, executor=SerialExecutor()).run()
        process = Scheduler(
            zono_jobs, executor=process_executors(2)
        ).run()
        assert_reports_bitwise_equal(serial, process)
        # Guard against vacuous equality: the run must have done real
        # kernel work, and the process side can only know about it
        # through the envelope merge.
        assert serial.metrics.get("kernel.pgd_batches", 0) > 0
        assert serial.metrics.get("kernel.analyze_batches", 0) > 0
        assert serial.metrics.get("fused.calls", 0) > 0
        assert (
            process.metrics["kernel.pgd_rows"]
            == serial.metrics["kernel.pgd_rows"]
        )

    def test_worker_wait_time_is_observed(self, zono_jobs, process_executors):
        report = Scheduler(zono_jobs, executor=process_executors(2)).run()
        # Latency/wait histograms stay process-local but the parent
        # observes each call's queue wait on unwrap.
        from repro.obs.metrics import registry

        waits = registry().snapshot()["histograms"].get("exec.process.wait_s")
        assert waits is not None and waits["count"] > 0
        assert report.metrics.get("exec.process.submitted", 0) > 0


class TestValidation:
    def test_rejects_bad_worker_count(self, manifest):
        with pytest.raises(ValueError, match="workers"):
            Scheduler(manifest, workers=0)

    def test_rejects_unknown_executor_kind(self, manifest):
        with pytest.raises(ValueError, match="executor kind"):
            Scheduler(manifest, workers=2, executor_kind="gpu")

    def test_rejects_kind_alongside_ready_executor(self, manifest):
        with pytest.raises(ValueError, match="not both"):
            Scheduler(
                manifest, executor=SerialExecutor(), executor_kind="process"
            )
