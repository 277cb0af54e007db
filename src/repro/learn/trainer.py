"""The training phase: learn θ on a suite of problems (Figure 2, top).

The paper trains on 12 ACAS Xu properties with MPI-parallel evaluation
across the suite.  This trainer reproduces that structure on the scheduler
stack: candidate θs are proposed in batches (constant-liar q-EI,
:meth:`~repro.bayesopt.optimizer.BayesianOptimizer.suggest_batch`), every
candidate's training suite becomes one job manifest, and the whole batch
evaluates through a single cache-aware scheduler run whose independent
kernel groups ride the executor's worker pool
(:class:`~repro.learn.objective.PolicyCostObjective`).  With
``candidates=1`` the loop degenerates to the classic sequential
suggest/evaluate/observe trainer — same suggestions, same trace.

The hand-initialized default policy is always evaluated first so learning
can only improve on it.  A :class:`TrainedPolicy` can be saved as a JSON
θ artifact that :func:`repro.learn.pretrained.pretrained_policy` loads
back — the deployment-phase handoff of the paper's Figure 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bayesopt.optimizer import BayesianOptimizer, OptimizationHistory
from repro.core.config import VerifierConfig
from repro.core.policy import LinearPolicy
from repro.exec import KernelExecutor
from repro.learn.objective import PolicyCostObjective, TrainingProblem
from repro.sched import ResultCache, RunOptions
from repro.utils.rng import as_generator

#: Artifact format tag (bumped on incompatible schema changes).
ARTIFACT_FORMAT = "repro-policy/1"


@dataclass(frozen=True)
class TrainedPolicy:
    """The outcome of a training run.

    Attributes:
        policy: the best policy found.
        best_score: its objective value (negative total cost).
        history: the full Bayesian-optimization trace.
    """

    policy: LinearPolicy
    best_score: float
    history: OptimizationHistory

    def save(self, path: str | Path) -> Path:
        """Write the reusable θ artifact (JSON).

        Carries the learned vector, the score, and the full observation
        trace — enough to deploy the policy
        (:func:`~repro.learn.pretrained.pretrained_policy`), audit the
        run, or warm-start a later one.
        """
        path = Path(path)
        payload = {
            "format": ARTIFACT_FORMAT,
            "theta": [float(v) for v in self.policy.to_vector()],
            "best_score": float(self.best_score),
            "observations": [
                {"x": [float(v) for v in obs.x], "y": float(obs.y)}
                for obs in self.history.observations
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path


class PolicyTrainer:
    """Configurable wrapper around the Bayesian-optimization loop.

    Args:
        problems: the training suite.
        time_limit: per-problem budget in seconds (``"time"`` cost model).
        penalty: unsolved-problem multiplier ``p``.
        theta_scale: half-width of the θ search box.
        n_initial: random BO samples before the GP takes over.
        base_config: verifier knobs for every evaluation; under the
            ``"work"`` model its ``max_depth`` is the per-problem budget.
        rng: BO randomness (suite evaluation is seeded separately, per
            job, from ``rng_seed`` — keep them independent so reproducing
            a trace never depends on evaluation order).
        candidates: BO batch width ``q`` — how many θs each round
            proposes (constant-liar q-EI) and evaluates in one scheduler
            run.  ``1`` is the sequential trainer.
        options: the :class:`~repro.sched.RunOptions` of every
            evaluation's scheduler run; its ``workers`` size the executor
            built once for the whole training run (serial at one worker,
            a process pool above).
        cost_model: ``"time"`` (the paper's wall-clock cost, default) or
            ``"work"`` (deterministic kernel-call cost — reproducible
            traces, cacheable evaluations).
        cache: optional persistent result cache (``"work"`` model only):
            a re-run of the same training command spawns no kernel work.
        executor: ready executor to reuse across evaluation rounds.
        rng_seed: the seed every verification job runs under.
    """

    def __init__(
        self,
        problems: list[TrainingProblem],
        time_limit: float = 2.0,
        penalty: float = 2.0,
        theta_scale: float = 2.0,
        n_initial: int = 5,
        base_config: VerifierConfig | None = None,
        rng: int | np.random.Generator | None = None,
        candidates: int = 1,
        options: RunOptions | None = None,
        cost_model: str = "time",
        cache: ResultCache | None = None,
        executor: KernelExecutor | None = None,
        rng_seed: int = 0,
    ) -> None:
        if candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {candidates}")
        self.objective = PolicyCostObjective(
            problems,
            time_limit=time_limit,
            penalty=penalty,
            base_config=base_config,
            rng_seed=rng_seed,
            cost_model=cost_model,
            options=options,
            cache=cache,
            executor=executor,
        )
        self.bounds = LinearPolicy.parameter_box(theta_scale)
        self._rng = as_generator(rng)
        self.n_initial = n_initial
        self.candidates = candidates

    def close(self) -> None:
        """Release the evaluation executor built from ``options``.

        Idempotent, and a later :meth:`train` call builds a fresh pool;
        call it when a process-pool training session is done (the CLI
        does) so worker processes do not linger until interpreter exit.
        """
        self.objective.close()

    def train(self, iterations: int = 20, verbose: bool = False) -> TrainedPolicy:
        """Run Bayesian optimization for ``iterations`` evaluations.

        Evaluations happen in rounds of up to ``candidates`` θs; the
        iteration budget counts evaluations, not rounds, so ``iterations``
        is comparable across batch widths (a q=4 run spends its budget in
        one quarter the rounds).
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        optimizer = BayesianOptimizer(
            self.bounds, n_initial=self.n_initial, rng=self._rng
        )
        try:
            # Seed with the hand-initialized default so the learned policy
            # is never worse than the prior.
            default_vec = LinearPolicy.default().to_vector()
            optimizer.observe(
                default_vec, self.objective.evaluate_many([default_vec])[0]
            )

            done = 0
            while done < iterations:
                batch = optimizer.suggest_batch(
                    min(self.candidates, iterations - done)
                )
                scores = self.objective.evaluate_many(batch)
                for x, y in zip(batch, scores):
                    optimizer.observe(x, y)
                    done += 1
                    if verbose:
                        print(
                            f"  BO iter {done}/{iterations}: score={y:.3f} "
                            f"(best={optimizer.best().y:.3f})"
                        )
        finally:
            # The objective's own executor is reused across every round
            # above, but must not outlive the training run: leaked worker
            # processes and the exported BLAS pins would follow the
            # parent around.  (Caller-provided executors are untouched,
            # and a later train() call builds a fresh pool.)
            self.objective.close()
        best = optimizer.best()
        return TrainedPolicy(
            policy=LinearPolicy.from_vector(best.x),
            best_score=best.y,
            history=optimizer.history,
        )


def train_policy(
    problems: list[TrainingProblem],
    iterations: int = 20,
    time_limit: float = 2.0,
    penalty: float = 2.0,
    rng: int | np.random.Generator | None = None,
    verbose: bool = False,
    **kwargs,
) -> TrainedPolicy:
    """Convenience one-call training (the paper's full training phase).

    Keyword arguments pass through to :class:`PolicyTrainer`
    (``candidates``, ``options``, ``cost_model``, ``cache``, ...).
    """
    trainer = PolicyTrainer(
        problems, time_limit=time_limit, penalty=penalty, rng=rng, **kwargs
    )
    return trainer.train(iterations, verbose=verbose)
