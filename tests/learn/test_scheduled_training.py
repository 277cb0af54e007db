"""Scheduled policy training: the trainer rebuilt on the scheduler.

Pins the ISSUE-4 acceptance contract: batched candidate evaluation through
fused scheduler runs produces the same best-θ trace as the sequential
trainer at ``workers=1``; worker count never changes a trace under the
deterministic ``work`` cost model; and a cached re-run of the same
training command spawns zero fresh PGD/Analyze work.
"""

import numpy as np
import pytest

from repro.bayesopt.optimizer import BayesianOptimizer
from repro.core.config import VerifierConfig
from repro.core.policy import LinearPolicy
from repro.core.property import RobustnessProperty
from repro.learn import (
    PolicyCostObjective,
    PolicyTrainer,
    TrainingProblem,
    load_policy,
    pretrained_policy,
)
from repro.nn.builders import xor_network
from repro.sched import ResultCache
from repro.utils.boxes import Box


def tiny_suite():
    net = xor_network()
    props = [
        RobustnessProperty(Box(np.array([0.4, 0.4]), np.array([0.6, 0.6])), 1),
        RobustnessProperty(Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1),
    ]
    return [TrainingProblem(net, p) for p in props]


def work_trainer(**kwargs):
    defaults = dict(
        cost_model="work",
        base_config=VerifierConfig(max_depth=4),
        rng=0,
    )
    defaults.update(kwargs)
    return PolicyTrainer(tiny_suite(), **defaults)


def trace_of(trained):
    return [(tuple(obs.x), obs.y) for obs in trained.history.observations]


class TestWorkCostModel:
    def test_deterministic_across_runs_and_workers(self):
        theta = LinearPolicy.default().to_vector()
        scores = []
        for workers in (1, 1, 2, 4):
            objective = PolicyCostObjective(
                tiny_suite(),
                cost_model="work",
                base_config=VerifierConfig(max_depth=4),
                workers=workers,
            )
            try:
                scores.append(objective(theta))
            finally:
                objective.close()
        assert len(set(scores)) == 1

    def test_batch_evaluation_equals_individual_calls(self):
        rng = np.random.default_rng(11)
        thetas = [
            LinearPolicy.parameter_box(2.0).sample(rng) for _ in range(3)
        ]
        make = lambda: PolicyCostObjective(  # noqa: E731
            tiny_suite(),
            cost_model="work",
            base_config=VerifierConfig(max_depth=4),
        )
        batched = make().evaluate_many(thetas)
        individual = [make()(theta) for theta in thetas]
        assert batched == individual

    def test_cache_refused_for_time_model(self, tmp_path):
        with pytest.raises(ValueError, match="work"):
            PolicyCostObjective(
                tiny_suite(), cost_model="time", cache=ResultCache(tmp_path)
            )

    def test_pooled_workers_refused_for_time_model(self):
        # Concurrent jobs contend for the cores whose time the model
        # measures; scores would be contention artifacts, so it is a hard
        # error like the cache, not a footgun.
        with pytest.raises(ValueError, match="workers"):
            PolicyCostObjective(tiny_suite(), cost_model="time", workers=4)
        from repro.exec import ProcessExecutor, SerialExecutor

        with ProcessExecutor(2) as executor:
            with pytest.raises(ValueError, match="workers"):
                PolicyCostObjective(
                    tiny_suite(), cost_model="time", executor=executor
                )
        # A serial executor measures exactly what workers=1 measures.
        PolicyCostObjective(
            tiny_suite(), cost_model="time", executor=SerialExecutor()
        )

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError, match="cost_model"):
            PolicyCostObjective(tiny_suite(), cost_model="flops")


class TestTraceEquivalence:
    def test_batched_trainer_matches_sequential_at_q1(self):
        """The acceptance pin: scheduled candidate evaluation at q=1 /
        workers=1 reproduces the classic sequential suggest-evaluate-
        observe loop observation for observation."""
        trained = work_trainer(candidates=1, workers=1).train(iterations=4)

        # Reference: the pre-scheduler trainer loop, hand-rolled.
        objective = PolicyCostObjective(
            tiny_suite(),
            cost_model="work",
            base_config=VerifierConfig(max_depth=4),
        )
        optimizer = BayesianOptimizer(
            LinearPolicy.parameter_box(2.0), n_initial=5, rng=0
        )
        default_vec = LinearPolicy.default().to_vector()
        optimizer.observe(default_vec, objective(default_vec))
        reference = optimizer.maximize(objective, 4)

        assert trace_of(trained) == [
            (tuple(obs.x), obs.y)
            for obs in optimizer.history.observations
        ]
        assert trained.best_score == reference.y

    def test_workers_never_change_the_trace(self):
        # At two workers candidate evaluation crosses the process
        # boundary; the trace must not notice.  The objective builds ONE
        # pool and reuses it across rounds.
        serial = work_trainer(candidates=2, workers=1).train(iterations=4)
        trainer = work_trainer(candidates=2, workers=2)
        process = trainer.train(iterations=4)
        # train() closes the pool it built on the way out — no leaked
        # worker processes, no lingering BLAS env pins.
        assert trainer.objective._owned is None
        assert trace_of(serial) == trace_of(process)

    def test_iteration_budget_counts_evaluations_not_rounds(self):
        trained = work_trainer(candidates=3, workers=1).train(iterations=5)
        # Default-θ seed observation + exactly 5 evaluations.
        assert len(trained.history.observations) == 6

    def test_rejects_bad_candidates_and_iterations(self):
        with pytest.raises(ValueError, match="candidates"):
            work_trainer(candidates=0)
        with pytest.raises(ValueError, match="iterations"):
            work_trainer().train(iterations=0)


def work_objective(**kwargs):
    return PolicyCostObjective(
        tiny_suite(),
        cost_model="work",
        base_config=VerifierConfig(max_depth=4),
        **kwargs,
    )


class TestExecutorLifecycle:
    """The objective owns one executor, built from ``workers`` on first
    use and kept across rounds; a caller's executor wins and keeps its
    caller's lifecycle."""

    def test_builds_nothing_before_the_first_evaluation(self):
        objective = work_objective(workers=2)
        assert objective._owned is None
        objective.close()
        assert objective._owned is None

    @pytest.mark.parametrize(
        "workers, kind", [(1, "serial"), (2, "process")]
    )
    def test_one_executor_serves_every_round(self, workers, kind):
        theta = LinearPolicy.default().to_vector()
        objective = work_objective(workers=workers)
        try:
            first = objective.evaluate_many([theta])
            owned = objective._owned
            assert owned.name == kind and owned.workers == workers
            assert objective.evaluate_many([theta]) == first
            assert objective._owned is owned
        finally:
            objective.close()
        assert objective._owned is None

    def test_close_is_idempotent_and_a_later_round_rebuilds(self):
        theta = LinearPolicy.default().to_vector()
        objective = work_objective(workers=2)
        try:
            score = objective(theta)
            objective.close()
            objective.close()
            assert objective(theta) == score
            assert objective._owned is not None
        finally:
            objective.close()

    def test_callers_executor_wins_and_outlives_close(self):
        from repro.exec import ProcessExecutor

        theta = LinearPolicy.default().to_vector()
        reference = work_objective()
        try:
            expected = reference(theta)
        finally:
            reference.close()
        with ProcessExecutor(2) as executor:
            objective = work_objective(executor=executor)
            assert objective(theta) == expected
            assert objective._owned is None
            objective.close()
            # Still the caller's: close() left it running.
            assert executor.submit(pow, 2, 5).result() == 32
            assert objective(theta) == expected


class TestCachedRerun:
    def test_second_run_spawns_no_kernel_work(self, tmp_path):
        first = work_trainer(
            candidates=2, workers=2, cache=ResultCache(tmp_path)
        )
        first_trained = first.train(iterations=3)
        assert first.objective.fresh_calls > 0

        second = work_trainer(
            candidates=2, workers=2, cache=ResultCache(tmp_path)
        )
        second_trained = second.train(iterations=3)
        assert second.objective.fresh_calls == 0
        assert second.objective.cache_hits == second.objective.evaluations * 2
        assert trace_of(first_trained) == trace_of(second_trained)


class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        trained = work_trainer(n_initial=2).train(iterations=2)
        path = trained.save(tmp_path / "theta.json")
        loaded = load_policy(path)
        np.testing.assert_array_equal(
            loaded.to_vector(), trained.policy.to_vector()
        )
        np.testing.assert_array_equal(
            pretrained_policy(path).to_vector(), trained.policy.to_vector()
        )

    def test_pretrained_policy_without_path_is_the_shipped_theta(self):
        from repro.learn import PRETRAINED_THETA

        np.testing.assert_array_equal(
            pretrained_policy().to_vector(), np.array(PRETRAINED_THETA)
        )

    def test_malformed_artifact_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="artifact"):
            load_policy(bad)
        with pytest.raises(ValueError, match="artifact"):
            load_policy(tmp_path / "missing.json")
