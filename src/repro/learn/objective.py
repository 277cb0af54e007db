"""The policy-training objective ``F(θ) = -Σ_s cost_θ(s)`` from §4.2.

``cost_θ(s)`` is the price of running policy θ on benchmark ``s``.  The
paper's cost is verification *time* when ``s`` is solved within the
per-benchmark limit ``t`` and ``p · t`` otherwise (``p = 2``,
``t = 700 s``); our scaled-down default keeps the same penalty ratio with
second-scale limits.

Candidate evaluation is built on the multi-property scheduler
(:mod:`repro.sched`): each candidate θ's training suite becomes a job
manifest — one :class:`~repro.sched.VerificationJob` per (problem, θ) with
the candidate's :class:`~repro.core.policy.LinearPolicy` attached — and
:meth:`PolicyCostObjective.evaluate_many` drives *all* candidates' jobs
through one scheduler run.  Same-network jobs of different candidates fuse
into shared PGD/Analyze sweeps, independent kernel groups ride one
executor the objective keeps across rounds, and a persistent
:class:`~repro.sched.ResultCache` makes re-evaluations (re-runs of a
training command, or BO revisiting a θ) spawn zero fresh kernel work.

Two cost models:

- ``"work"`` (the scheduled default): per-problem budget is the refinement
  depth cap, the cost of a decided problem is its kernel-call count
  (PGD + Analyze — the quantity fused scheduling actually conserves), and
  an undecided problem pays ``penalty ×`` the work it burned.  Fully
  deterministic — a candidate's score is a pure function of (θ, suite,
  seed) regardless of workers, co-scheduled candidates, or cache state —
  which is what makes training traces reproducible and cacheable.
- ``"time"`` — the paper's wall-clock cost.  Each job runs alone, one
  ``Scheduler([job])`` run per problem, so each problem's clock is its
  own; scores are measurements, not pure functions, so the result cache
  and concurrent workers are both refused (a cached job reports zero
  seconds; concurrent jobs contend for the cores whose time is being
  measured).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import VerifierConfig
from repro.core.policy import LinearPolicy
from repro.core.property import RobustnessProperty
from repro.exec import KernelExecutor, make_executor
from repro.nn.network import Network
from repro.sched import ResultCache, RunOptions, Scheduler, VerificationJob

#: ``--cost-model`` menu of the ``train`` command.
COST_MODELS = ("work", "time")


@dataclass(frozen=True)
class TrainingProblem:
    """One benchmark of the training suite: a network plus a property."""

    network: Network
    prop: RobustnessProperty


class PolicyCostObjective:
    """Callable ``θ-vector -> score`` for Bayesian optimization.

    Higher is better (the optimizer maximizes).  Scores are negative total
    cost over the training suite, exactly the paper's ``F``.

    Args:
        problems: the training suite.
        time_limit: per-problem budget in seconds (``"time"`` model only).
        penalty: unsolved-problem multiplier ``p`` (both models).
        base_config: verifier knobs shared by every evaluation; the
            per-problem budget comes from the objective, not from here.
        rng_seed: every job's seed (the verifiers' ``rng``).
        cost_model: ``"work"`` or ``"time"`` — see the module docstring.
        options: the :class:`~repro.sched.RunOptions` every evaluation's
            scheduler run gets (backend, precision escalation, workers...).
            The objective builds ONE executor from ``options.workers``
            (serial at one worker, a process pool above) and reuses it
            across every evaluation round — a per-round process pool
            would pay worker start-up and network shipping on every
            round; release it with :meth:`close`.
        cache: optional persistent result cache; ``"work"`` model only.
        executor: ready :class:`~repro.exec.KernelExecutor` to use
            instead of building one from ``options`` (the caller keeps
            ownership of its lifecycle).
    """

    def __init__(
        self,
        problems: list[TrainingProblem],
        time_limit: float = 2.0,
        penalty: float = 2.0,
        base_config: VerifierConfig | None = None,
        rng_seed: int = 0,
        cost_model: str = "time",
        options: RunOptions | None = None,
        cache: ResultCache | None = None,
        executor: KernelExecutor | None = None,
    ) -> None:
        options = options or RunOptions()
        if not problems:
            raise ValueError("the training suite must be non-empty")
        if not time_limit > 0:
            raise ValueError("time_limit must be positive")
        if not penalty >= 1.0:
            raise ValueError(
                "penalty must be >= 1 (unsolved must cost at least the limit)"
            )
        if cost_model not in COST_MODELS:
            raise ValueError(
                f"unknown cost_model {cost_model!r}; choose from {COST_MODELS}"
            )
        if cache is not None and cost_model == "time":
            raise ValueError(
                "the result cache only composes with the 'work' cost model "
                "(a cached job reports zero seconds, which would corrupt "
                "time-based scores)"
            )
        concurrent = options.workers > 1 or (
            executor is not None and executor.workers > 1
        )
        if concurrent and cost_model == "time":
            raise ValueError(
                "concurrent workers only compose with the 'work' cost model "
                "(concurrent jobs contend for the cores whose time the "
                "'time' model is measuring, which would corrupt the scores)"
            )
        self.problems = list(problems)
        self.time_limit = time_limit
        self.penalty = penalty
        self.cost_model = cost_model
        self.options = options
        self.cache = cache
        self.executor = executor
        self._owned: KernelExecutor | None = None  # built from options
        base = base_config or VerifierConfig()
        # Per-problem budget comes from the objective, not the base config:
        # the wall clock for the time model, the depth cap (deterministic)
        # for the work model.
        self._config = VerifierConfig(
            delta=base.delta,
            timeout=time_limit if cost_model == "time" else None,
            max_depth=base.max_depth,
            min_split_fraction=base.min_split_fraction,
            batch_size=base.batch_size,
            pgd=base.pgd,
        )
        self.rng_seed = rng_seed
        self.evaluations = 0
        self.fresh_calls = 0
        self.cache_hits = 0

    @property
    def config(self) -> VerifierConfig:
        """The verifier config every evaluation job runs under."""
        return self._config

    def _run_executor(self) -> KernelExecutor:
        """The executor evaluations run on.

        A caller-provided executor wins; otherwise one is built from
        ``options`` on first use and kept for every later round —
        training is exactly the workload where per-round pool setup
        (worker start-up, per-worker network shipping) would dominate,
        so the pool's lifetime is the objective's.
        """
        if self.executor is not None:
            return self.executor
        if self._owned is None:
            self._owned, _ = make_executor(
                None, self.options.workers, kind=self.options.executor_kind
            )
        return self._owned

    def close(self) -> None:
        """Shut down the executor this objective built (if any).

        Idempotent; a later evaluation builds a fresh one.  A
        caller-provided ``executor`` keeps its caller's lifecycle.
        """
        owned, self._owned = self._owned, None
        if owned is not None:
            owned.shutdown(cancel_pending=True)

    def _jobs(self, theta_vecs: list[np.ndarray]) -> list[VerificationJob]:
        jobs = []
        for cand, theta_vec in enumerate(theta_vecs):
            policy = LinearPolicy.from_vector(theta_vec)
            for prob, problem in enumerate(self.problems):
                jobs.append(
                    VerificationJob(
                        problem.network,
                        problem.prop,
                        config=self._config,
                        policy=policy,
                        seed=self.rng_seed,
                        name=f"cand{cand}/prob{prob}",
                    )
                )
        return jobs

    def _problem_cost(self, outcome) -> float:
        if self.cost_model == "time":
            if outcome.kind == "timeout":
                return self.penalty * self.time_limit
            return min(outcome.stats.time_seconds, self.time_limit)
        work = float(outcome.stats.pgd_calls + outcome.stats.analyze_calls)
        if outcome.kind == "timeout":
            return self.penalty * work
        return work

    def evaluate_many(self, theta_vecs: list[np.ndarray]) -> list[float]:
        """Scores for a whole candidate batch through one scheduler run.

        The scheduler's reproducibility contract keeps each job's outcome
        a pure function of (θ, problem, seed) — co-scheduled candidates,
        frontier interleaving, and worker count change only wall clock —
        so batch evaluation returns exactly the scores ``q`` separate
        :meth:`__call__` evaluations would.
        """
        if not theta_vecs:
            return []
        jobs = self._jobs(theta_vecs)
        # The work model fuses every candidate's sub-regions into shared
        # sweeps; the time model needs each problem's clock to itself.
        batches = [jobs] if self.cost_model == "work" else [[j] for j in jobs]
        results = []
        # The ready executor stands in for the options' executor kind.
        options = replace(self.options, executor_kind=None)
        for batch in batches:
            report = Scheduler(
                batch,
                cache=self.cache,
                executor=self._run_executor(),
                options=options,
            ).run()
            results.extend(report.results)
            self.fresh_calls += report.fresh_calls()
            # The registry delta rather than the scheduler's own tally:
            # the merged ``cache.hits`` counter also covers probes made
            # outside the run loop (and is the quantity the obs layer
            # pins equal across executors), so the trainer's summary can
            # never drift from a trace dump of the same run.
            self.cache_hits += int(report.metrics.get("cache.hits", 0))
        self.evaluations += len(theta_vecs)
        count = len(self.problems)
        scores = []
        for cand in range(len(theta_vecs)):
            span = results[cand * count : (cand + 1) * count]
            scores.append(-sum(self._problem_cost(r.outcome) for r in span))
        return scores

    def cost(self, theta_vec: np.ndarray) -> float:
        """Total cost of running the policy over the suite (lower is better)."""
        return -self.evaluate_many([theta_vec])[0]

    def __call__(self, theta_vec: np.ndarray) -> float:
        return self.evaluate_many([theta_vec])[0]
