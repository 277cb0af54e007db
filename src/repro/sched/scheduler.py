"""The verification scheduler: Algorithm 1's one frontier engine.

Every verify path runs here — a one-property ``BatchedVerifier`` call and
``repro verify`` are one-job runs, ``repro schedule`` and policy training
are many-job runs.  A *single* property's frontier keeps GEMM batches
full only while it is at least ``batch_size`` wide — which it rarely is
near the root and near the leaves — so the :class:`Scheduler` accepts a
whole manifest of (network, property) jobs and drives them through fused
sweeps: each round takes every active job's next chunk of its own DFS
frontier, in frontier-policy order, until the round holds
:data:`ROUND_ITEMS` items; the union of chunks goes through **one**
batched PGD call per (network, PGD-config) group, and each (network,
domain) Analyze group goes out as contiguous calls of at most
:data:`ANALYZE_CALL_REGIONS` regions.  Properties disagree on the target
class, so the fused kernels use the per-region-label variants
(:class:`~repro.attack.objective.MultiLabelMarginObjective`,
:func:`~repro.abstract.analyzer.analyze_batch_multi`).

**Reproducibility contract.**  Fusing changes only which rows share a
GEMM, never the per-row semantics: work-item randomness is path-keyed
from each job's own seed, chunk composition and order within a job do
not depend on its batch mates, and each chunk's falsified/refine logic
is Algorithm 1's own code (:func:`~repro.core.verifier.first_falsified` /
:func:`~repro.core.verifier.choose_domains` /
:func:`~repro.core.verifier.refine_unverified`).  A job therefore produces
the same outcome, witness, and statistics under every frontier policy,
every round width, every Analyze call cap, and every co-scheduled job
mix as its one-job run (``BatchedVerifier(network, policy, config,
rng=seed).verify(prop)``), up to the §4 BLAS round-off caveat (fused
batches have different operand shapes) — pinned exact on the stock numpy
build by ``tests/sched/test_scheduler.py``.

**Execution layer.**  Every kernel call a round produces — one fused PGD
call per (network, PGD-config) group, one Analyze call per slice of a
(network, domain) group — is independent of its siblings: different calls
share no arrays (operands are built on the scheduler thread before
submission, results are consumed in submission order after).  The
scheduler therefore submits each round's calls through a
:class:`~repro.exec.KernelExecutor`: one worker runs them inline on a
:class:`~repro.exec.SerialExecutor`, more hand them to a
:class:`~repro.exec.ProcessExecutor`, where they cross into worker
processes as picklable descriptors (:mod:`repro.exec.calls` — the
GIL-free path for Python-loop-heavy zonotope/powerset sweeps).  The
reproducibility contract survives untouched because the calls a round
makes do not depend on the executor — only *which core* runs each one
(process workers pin BLAS to one thread so even GEMM rounding matches;
DESIGN.md §9).

Decided jobs are recorded in an optional persistent
:class:`~repro.sched.cache.ResultCache`; a later run with the same key
serves the recorded outcome without spawning any PGD or Analyze work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.abstract.analyzer import (
    analyze_batch_checkpointed,
    analyze_batch_multi,
)
from repro.abstract.checkpoint import (
    checkpoint_boundaries,
    region_batch_digest,
    supports_checkpoint,
)
from repro.abstract.netabs import abstraction_for, witness_margin
from repro.backend import active as _active_backend
from repro.backend import use_backend as _use_backend
from repro.attack.objective import MultiLabelMarginObjective
from repro.attack.pgd import pgd_minimize_batch
from repro.core.policy import default_policy
from repro.core.results import (
    Falsified,
    Timeout,
    VerificationStats,
    Verified,
)
from repro.core.verifier import (
    WorkItem,
    choose_domains,
    first_falsified,
    minimize_pgd_config,
    refine_unverified,
    root_item,
)
from repro.exec import KernelExecutor, make_executor, validate_executor_spec
from repro.nn.serialize import layer_digests, network_digest
from repro.obs.metrics import registry as metrics_registry
from repro.obs.trace import span
from repro.sched.cache import CacheRecord, ResultCache, cacheable, job_key
from repro.sched.frontier import FixedBatchController, make_frontier
from repro.sched.job import JobQueue, VerificationJob
from repro.sched.options import RunOptions
from repro.utils.rng import as_generator
from repro.utils.timing import Deadline, Stopwatch

#: Items one round takes by default: every active job's next chunk, in
#: frontier-policy order, until the round holds this many.
ROUND_ITEMS = 512

#: Most regions one Analyze call carries.  A (network, domain) group
#: larger than this goes out as several contiguous calls, all submitted
#: before any is consumed, so a process pool always has calls to run in
#: parallel.  PGD keeps one call per group: its rows are not reliably
#: batch-height-stable, while zonotope and powerset rows are (DESIGN §7).
ANALYZE_CALL_REGIONS = 8


class _JobState:
    """Mutable per-job scheduling state: one Algorithm-1 frontier."""

    __slots__ = (
        "index", "job", "policy", "config", "pgd_config", "frontier",
        "stats", "deadline", "watch", "outcome", "last_margin", "last_round",
    )

    def __init__(self, index: int, job: VerificationJob) -> None:
        self.index = index
        self.job = job
        self.policy = job.policy or default_policy()
        self.config = job.config
        self.pgd_config = minimize_pgd_config(job.config)
        self.frontier: list[WorkItem] = [
            root_item(job.prop.region, as_generator(job.seed))
        ]
        self.stats = VerificationStats()
        # The wall-clock budget starts when the job is first *scheduled*,
        # not when the run starts: queue wait behind other jobs must not
        # consume a job's own timeout.  Time spent in fused kernels
        # between a job's sweeps still counts — under a shared executor
        # the timeout bounds completion latency.
        self.deadline: Deadline | None = None
        self.watch = Stopwatch().start()
        self.outcome = None
        self.last_margin = float("-inf")
        self.last_round = -1

    @property
    def depth(self) -> int:
        """Depth of the frontier top (the DFS policy's sort key)."""
        return self.frontier[-1].depth if self.frontier else 0

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def pop_chunk(self) -> list[WorkItem]:
        """The next ``batch_size`` items off the top of the DFS frontier
        (``chunk[0]`` is the item Algorithm 1's stack would pop next)."""
        if self.deadline is None:
            self.deadline = Deadline(self.config.timeout)
        count = min(self.config.batch_size, len(self.frontier))
        return [self.frontier.pop() for _ in range(count)]

    def push_children(self, pairs: list[tuple[WorkItem, WorkItem]]) -> None:
        """Reverse push order keeps the DFS orientation (the first popped
        item's left child ends on top of the frontier)."""
        for left_item, right_item in reversed(pairs):
            self.frontier.append(right_item)
            self.frontier.append(left_item)

    def finish(self, outcome) -> None:
        self.stats.time_seconds = self.watch.stop()
        self.outcome = outcome


@dataclass(frozen=True)
class JobResult:
    """One job's outcome within a scheduler run.

    ``elapsed`` is completion latency — time from run start to the job's
    decision, which overlaps other jobs' kernel time in fused sweeps.
    """

    index: int
    job: VerificationJob
    outcome: object
    cached: bool
    elapsed: float


@dataclass
class ScheduleReport:
    """Everything a scheduler run did, per job and in aggregate.

    ``backend`` is the run's base backend; under precision escalation
    ``screen_backend`` is the backend the screen phase actually ran on
    (empty otherwise).

    ``metrics`` is the run's counter delta from the process-local
    :mod:`repro.obs.metrics` registry (dotted names — ``kernel.pgd_rows``,
    ``cache.hits``, ``fused.calls``, ``phase.pgd_s``...).  Worker-process
    counters are merged in by the executor layer before each future's
    result is consumed, so the delta is complete by the time the report
    exists and a Process run's totals equal a Serial run's.
    """

    results: list[JobResult]
    wall_clock: float = 0.0
    sweeps: int = 0
    swept_items: int = 0
    cache_hits: int = 0
    cache_errors: int = 0
    frontier: str = ""
    executor: str = ""
    workers: int = 1
    backend: str = "numpy64"
    escalation: bool = False
    screen_backend: str = ""
    escalated: int = 0
    abstraction: str = "off"
    abstraction_level: int = 0
    netabs_accepted: int = 0
    netabs_rounds: int = 0
    incremental: bool = False
    prefix_hits: int = 0
    prefix_layers_skipped: int = 0
    metrics: dict = field(default_factory=dict)

    def outcome_counts(self) -> dict[str, int]:
        """``{"verified": ..., "falsified": ..., "timeout": ...}``."""
        counts = {"verified": 0, "falsified": 0, "timeout": 0}
        for result in self.results:
            counts[result.outcome.kind] += 1
        return counts

    def fresh_calls(self) -> int:
        """PGD + Analyze calls actually executed (cache hits excluded)."""
        return sum(
            r.outcome.stats.pgd_calls + r.outcome.stats.analyze_calls
            for r in self.results
            if not r.cached
        )

    def throughput(self) -> float:
        """Freshly executed work items per second of wall clock."""
        if self.wall_clock <= 0.0:
            return 0.0
        return self.fresh_calls() / self.wall_clock


class Scheduler:
    """Runs a manifest of verification jobs through one shared frontier.

    Args:
        jobs: a :class:`JobQueue`, a list of jobs, or ``None`` (submit
            later via :meth:`submit`).
        cache: optional persistent :class:`ResultCache`; decided jobs are
            recorded, and later runs with identical keys are served
            without spawning any verification work.  Incremental runs
            also read and write prefix checkpoints here.
        controller: the round width; defaults to
            ``FixedBatchController(ROUND_ITEMS)``.
        executor: a ready :class:`~repro.exec.KernelExecutor` to use
            instead of building one from ``options.workers`` (the caller
            keeps ownership of its lifecycle).  Mutually exclusive with
            ``options.executor_kind``.
        options: the run's :class:`~repro.sched.options.RunOptions`.
        **fields: the same options as keywords
            (``Scheduler(jobs, workers=2)``); they build the record, so
            passing both forms is a ``TypeError``.
    """

    def __init__(
        self,
        jobs: JobQueue | list[VerificationJob] | None = None,
        cache: ResultCache | None = None,
        controller: FixedBatchController | None = None,
        executor: KernelExecutor | None = None,
        options: RunOptions | None = None,
        **fields,
    ) -> None:
        if options is None:
            options = RunOptions(**fields)
        elif fields:
            raise TypeError(
                "pass the run options as options= or as keywords, not both "
                f"(got options= and {sorted(fields)})"
            )
        if executor is not None:
            # A ready executor and an executor kind contradict each other.
            validate_executor_spec(executor, kind=options.executor_kind)
        if isinstance(jobs, JobQueue):
            self.queue = jobs
        else:
            self.queue = JobQueue(list(jobs) if jobs else None)
        self.options = options
        self.policy = make_frontier(options.frontier)
        self.cache = cache
        self.controller = controller or FixedBatchController(ROUND_ITEMS)
        self.executor = executor
        self.backend = options.backend or _active_backend().name

    def submit(self, job: VerificationJob) -> int:
        """Queue one more job; returns its index in the report."""
        return self.queue.submit(job)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _job_key(self, job: VerificationJob, backend: str | None = None) -> str:
        # network_digest memoizes on the Network instance itself, so
        # repeated keying of the same network (concrete or abstract) is a
        # dict-free attribute read — no scheduler-side id() table needed.
        return job_key(
            network_digest(job.network),
            job.prop,
            job.config,
            job.policy or default_policy(),
            job.seed,
            backend=self.backend if backend is None else backend,
        )

    def _record(
        self,
        report: ScheduleReport,
        job: VerificationJob,
        outcome,
        backend: str | None = None,
    ) -> None:
        if self.cache is None or not cacheable(outcome):
            return
        record = CacheRecord.from_outcome(
            outcome,
            network_digest(job.network),
            job.prop.label,
            job.metadata,
        )
        put_started = time.perf_counter()
        try:
            self.cache.put(self._job_key(job, backend), record)
        except OSError:
            # The cache is an optimization; a full disk must not turn a
            # decided job into a failure.
            report.cache_errors += 1
        finally:
            metrics_registry().add(
                "phase.cache_s", time.perf_counter() - put_started
            )

    # ------------------------------------------------------------------
    # Incremental re-verification (prefix checkpoints)
    # ------------------------------------------------------------------

    def _submit_checkpointed(
        self,
        executor: KernelExecutor,
        network,
        regions: list,
        labels: list[int],
        domain,
        deadline: Deadline | None,
    ):
        """Probe the prefix cache and submit one checkpointed group.

        The probe walks the group's checkpoint boundaries deepest-first
        under the *current* network's own digest chain: a checkpoint
        captured on the pre-fine-tune network shares the chain link of
        every unchanged prefix layer, so the old network never needs to
        be named.  A miss degrades to the exact cold call; either way
        the suffix run emits checkpoints at the boundaries deeper than
        the resume point for future runs.
        """
        obs = metrics_registry()
        boundaries = checkpoint_boundaries(network)
        resume = None
        with span(
            "prefix.resume", cat="sched",
            rows=len(regions), domain=domain.base,
        ):
            digest = region_batch_digest(regions)
            chain = layer_digests(network)
            backend = _active_backend().name
            for boundary in reversed(boundaries):
                resume = self.cache.get_prefix(
                    chain[boundary - 1], digest,
                    (domain.base, domain.disjuncts), backend,
                )
                if resume is not None:
                    break
        depth = len(network.layers)
        if resume is not None:
            obs.inc("sched.prefix.hits")
            obs.inc("sched.prefix.layers_skipped", resume.boundary)
            obs.inc("sched.prefix.suffix_layers_run", depth - resume.boundary)
        else:
            obs.inc("sched.prefix.misses")
            obs.inc("sched.prefix.suffix_layers_run", depth)
        capture = tuple(
            b for b in boundaries if resume is None or b > resume.boundary
        )
        return executor.submit(
            analyze_batch_checkpointed, network, regions, labels, domain,
            deadline, resume, capture,
        )

    def _store_prefixes(self, captured: list) -> None:
        """Persist a checkpointed group's captured prefixes (best effort)."""
        if not captured:
            return
        obs = metrics_registry()
        put_started = time.perf_counter()
        try:
            for record in captured:
                self.cache.put_prefix(record)
                obs.inc("sched.prefix.puts")
        except OSError:
            # Same policy as result records: the cache is an
            # optimization, a full disk must not fail the run.
            obs.inc("sched.prefix.put_errors")
        finally:
            obs.add("phase.cache_s", time.perf_counter() - put_started)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ScheduleReport:
        """Drive every queued job to an outcome; returns the report."""
        jobs = self.queue.jobs()
        if not jobs:
            raise ValueError("no jobs submitted")
        watch = Stopwatch().start()
        obs = metrics_registry()
        counters_before = obs.counters_snapshot()
        options = self.options
        executor, owned = make_executor(
            self.executor, options.workers, kind=options.executor_kind
        )
        screen = ""
        if options.precision_escalation:
            # The one place the screen rule lives: float32 in front of
            # the float64 reference; any other backend screens itself.
            screen = "numpy32" if self.backend == "numpy64" else self.backend
        report = ScheduleReport(
            results=[None] * len(jobs),
            frontier=self.policy.name,
            executor=executor.name,
            workers=executor.workers,
            backend=self.backend,
            escalation=options.precision_escalation,
            screen_backend=screen,
            abstraction=options.abstraction,
            abstraction_level=(
                options.abstraction_level if options.abstraction != "off" else 0
            ),
            incremental=options.incremental,
        )

        try:
            if options.abstraction != "off":
                self._run_netabs(report, jobs, executor)
            else:
                self._dispatch(report, list(enumerate(jobs)), executor)
        finally:
            if owned:
                executor.shutdown(cancel_pending=True)

        report.wall_clock = watch.stop()
        # Everything the run accumulated — worker deltas included, since
        # the executor merges them before result consumption.
        report.metrics = obs.counters_since(counters_before)
        report.prefix_hits = int(report.metrics.get("sched.prefix.hits", 0))
        report.prefix_layers_skipped = int(
            report.metrics.get("sched.prefix.layers_skipped", 0)
        )
        return report

    def _run_phase(
        self,
        report: ScheduleReport,
        indexed: list[tuple[int, VerificationJob]],
        executor: KernelExecutor,
        backend: str,
    ) -> dict[int, float]:
        """Probe the cache and drive ``indexed`` jobs on ``backend``.

        One precision phase: the plain run is a single phase on
        :attr:`backend`; escalation chains a float32 phase and a float64
        phase.  Cache probes and records use the phase backend's keys,
        so a mixed-precision phase can never serve (or poison) reference
        entries.  Returns the per-job final PGD margins — the escalation
        driver's near-margin signal.
        """
        obs = metrics_registry()
        with _use_backend(backend):
            pending: list[tuple[int, VerificationJob]] = []
            probe_started = time.perf_counter()
            for index, job in indexed:
                record = (
                    self.cache.get(self._job_key(job, backend))
                    if self.cache is not None
                    else None
                )
                if record is not None:
                    report.cache_hits += 1
                    report.results[index] = JobResult(
                        index, job, record.to_outcome(), cached=True, elapsed=0.0
                    )
                else:
                    pending.append((index, job))
            if self.cache is not None:
                obs.add("phase.cache_s", time.perf_counter() - probe_started)
            return self._run_batched(report, pending, executor, backend)

    def _dispatch(
        self,
        report: ScheduleReport,
        indexed: list[tuple[int, VerificationJob]],
        executor: KernelExecutor,
    ) -> None:
        """One precision pass over ``indexed`` — escalated or plain.

        The netabs pre-pass reuses this for both the abstract rounds and
        the concrete fallback, so abstraction composes with
        mixed-precision escalation for free.
        """
        if self.options.precision_escalation:
            self._run_escalated(report, indexed, executor)
        else:
            self._run_phase(report, indexed, executor, self.backend)

    def _run_netabs(
        self,
        report: ScheduleReport,
        jobs: list[VerificationJob],
        executor: KernelExecutor,
    ) -> None:
        """The network-abstraction pre-pass (CEGAR over the whole manifest).

        Jobs are grouped by network; each group gets one
        :class:`~repro.abstract.netabs.NetworkAbstraction` built over the
        hull of the group's property regions, so a single abstract
        network (one digest, one cache keyspace) serves every job and
        every retry.  Per round, the surviving jobs run against the
        current abstract network through the ordinary dispatch path:
        VERIFIED outcomes are sound by construction and accepted
        directly; FALSIFIED outcomes are accepted only when the witness
        reproduces on the *concrete* float64 network; everything else is
        spurious or undecided and triggers one refinement round (a
        quarter of the merged groups split) before the retry.  Jobs
        still undecided after
        ``netabs_max_rounds`` (or once refinement bottoms out at
        singletons) re-run on the concrete network, so job-level
        outcomes always match an ``--abstraction off`` run.
        """
        obs = metrics_registry()
        by_net: dict[int, list[tuple[int, VerificationJob]]] = {}
        for index, job in enumerate(jobs):
            by_net.setdefault(id(job.network), []).append((index, job))
        concrete: list[tuple[int, VerificationJob]] = []
        for pairs in by_net.values():
            network = pairs[0][1].network
            abstraction = abstraction_for(
                network,
                self.options.abstraction,
                self.options.abstraction_level,
                regions=[job.prop.region for _, job in pairs],
            )
            if abstraction is None:
                # Unsupported architecture or nothing to merge: these
                # jobs never pay an abstract round.
                obs.inc("sched.netabs.unsupported", len(pairs))
                concrete.extend(pairs)
                continue
            survivors = pairs
            rounds = 0
            while survivors:
                abstract = abstraction.build()
                if abstract is network:
                    # Refined all the way down: the "abstract" network IS
                    # the concrete one, so stop paying CEGAR bookkeeping.
                    concrete.extend(survivors)
                    survivors = []
                    break
                substitute = [
                    (
                        index,
                        VerificationJob(
                            abstract,
                            job.prop,
                            config=job.config,
                            policy=job.policy,
                            seed=job.seed,
                            name=job.name,
                            metadata=job.metadata,
                        ),
                    )
                    for index, job in survivors
                ]
                obs.inc("sched.netabs.jobs", len(substitute))
                self._dispatch(report, substitute, executor)
                undecided: list[tuple[int, VerificationJob]] = []
                for index, job in survivors:
                    result = report.results[index]
                    outcome = result.outcome
                    accept = False
                    if outcome.kind == "verified":
                        obs.inc("sched.netabs.verified")
                        accept = True
                    elif outcome.kind == "falsified":
                        margin = witness_margin(
                            job.network, job.prop.label, outcome.counterexample
                        )
                        if margin <= job.config.delta:
                            obs.inc("sched.netabs.falsified")
                            accept = True
                        else:
                            obs.inc("sched.netabs.spurious")
                    elif outcome.kind == "timeout":
                        # The abstract network is the *cheap* one; a job
                        # that timed out on it will not do better at a
                        # finer (wider) level — send it straight to the
                        # concrete run instead of burning more rounds.
                        obs.inc("sched.netabs.timeout")
                        concrete.append((index, job))
                        obs.inc("sched.netabs.fallback")
                        continue
                    if accept:
                        # Re-point the result at the original job: the
                        # abstract network was an implementation detail.
                        report.results[index] = JobResult(
                            index, job, outcome, result.cached, result.elapsed
                        )
                        report.netabs_accepted += 1
                        obs.observe("sched.netabs.rounds_to_accept", rounds)
                    else:
                        undecided.append((index, job))
                if not undecided:
                    survivors = []
                    break
                if (
                    rounds >= self.options.netabs_max_rounds
                    or not abstraction.refine_round()
                ):
                    concrete.extend(undecided)
                    obs.inc("sched.netabs.fallback", len(undecided))
                    survivors = []
                    break
                obs.inc("sched.netabs.refinements")
                report.netabs_rounds += 1
                rounds += 1
                survivors = undecided
        if concrete:
            concrete.sort(key=lambda pair: pair[0])
            self._dispatch(report, concrete, executor)

    def _run_escalated(
        self,
        report: ScheduleReport,
        indexed: list[tuple[int, VerificationJob]],
        executor: KernelExecutor,
    ) -> None:
        """Two-phase mixed precision: float32 screen, float64 decide.

        Phase 1 runs every job on the fast screen backend.  Falsified
        verdicts are accepted once their witness reproduces under a
        concrete float64 forward pass (PGD witnesses are concrete
        points, so validation is exact, not abstract).  Certified
        verdicts are sound by the outward-rounding construction, but
        near-margin ones are re-run so job-level outcomes match a pure
        float64 run; each job's final PGD margin is the comfort signal.
        Phase 2 re-runs the escalated jobs on the float64 reference
        backend, overwriting their screen results.
        """
        margins = self._run_phase(
            report, indexed, executor, report.screen_backend
        )
        escalate: list[tuple[int, VerificationJob]] = []
        for index, job in indexed:
            outcome = report.results[index].outcome
            if (
                outcome.kind == "falsified"
                and witness_margin(
                    job.network, job.prop.label, outcome.counterexample
                )
                <= job.config.delta
            ):
                continue
            if (
                outcome.kind == "verified"
                and margins.get(index, float("-inf"))
                > self.options.escalation_margin
            ):
                continue
            escalate.append((index, job))
        # Accumulate: the netabs pre-pass dispatches several escalated
        # passes per run (abstract rounds plus the concrete fallback).
        report.escalated += len(escalate)
        metrics_registry().inc("sched.escalated", len(escalate))
        if escalate:
            self._run_phase(report, escalate, executor, "numpy64")

    # ------------------------------------------------------------------
    # Fused engine
    # ------------------------------------------------------------------

    def _run_batched(
        self,
        report: ScheduleReport,
        pending: list[tuple[int, VerificationJob]],
        executor: KernelExecutor,
        backend: str,
    ) -> dict[int, float]:
        states = [_JobState(index, job) for index, job in pending]
        round_no = 0
        active = list(states)
        while active:
            still = []
            for state in active:
                if state.outcome is not None:
                    continue
                if state.expired():
                    state.finish(Timeout("wall clock", state.stats))
                    continue
                still.append(state)
            active = still
            if not active:
                break

            # The frontier policy picks which jobs' next chunks fill the
            # fused sweep up to the round width.
            plan: list[tuple[_JobState, list[WorkItem]]] = []
            total = 0
            for state in self.policy.order(active):
                if total >= self.controller.target and plan:
                    break
                chunk = state.pop_chunk()
                state.last_round = round_no
                plan.append((state, chunk))
                total += len(chunk)
            round_no += 1

            metrics_registry().inc("sched.rounds")
            with span(
                "sched.round", cat="sched",
                round=round_no - 1, jobs=len(plan), items=total,
                backend=backend, dtype=_active_backend().dtype.name,
            ):
                self._fused_sweep(plan, executor)
            report.sweeps += 1
            report.swept_items += total

            for state, _ in plan:
                if state.outcome is None and not state.frontier:
                    state.finish(Verified(state.stats))

        for state in states:
            outcome = state.outcome
            self._record(report, state.job, outcome, backend)
            report.results[state.index] = JobResult(
                state.index,
                state.job,
                outcome,
                cached=False,
                elapsed=outcome.stats.time_seconds,
            )
        return {state.index: state.last_margin for state in states}

    @staticmethod
    def _group_deadline(states: list[_JobState]) -> Deadline | None:
        """The *latest* deadline of a fused call's jobs.

        Fused kernels cannot abort one job without aborting its batch
        mates, so mid-kernel aborts only fire once every participant is
        over budget; individual jobs time out at round boundaries instead.
        """
        deadlines = [state.deadline for state in states]
        if any(d is None or d.limit is None for d in deadlines):
            return None
        return max(deadlines, key=lambda deadline: deadline.remaining)

    def _fused_sweep(
        self,
        plan: list[tuple[_JobState, list[WorkItem]]],
        executor: KernelExecutor,
    ) -> None:
        """One scheduler round: fused Minimize, fused Analyze, refine.

        Algorithm 1's three steps chunk by chunk; only the kernel-call
        grouping spans jobs.  Each stage's calls are pairwise
        independent — their operands (regions, labels, rngs) are built
        here on the scheduler thread before submission, and their results
        are consumed in submission order after — so the executor may run
        them on any cores without touching the reproducibility contract
        (only per-job deadline checks see the wall clock move).  How a
        stage splits into calls depends only on the round's plan, never
        on the executor.
        """
        obs = metrics_registry()

        # --- 1. Fused Minimize per (network, PGD-config) group -----------
        stage_started = time.perf_counter()
        pgd_groups: dict[tuple, list[tuple[_JobState, list[WorkItem]]]] = {}
        for state, chunk in plan:
            key = (id(state.job.network), state.pgd_config)
            pgd_groups.setdefault(key, []).append((state, chunk))

        pgd_submissions: list[tuple] = []
        for group in pgd_groups.values():
            network = group[0][0].job.network
            items = [item for _, chunk in group for item in chunk]
            labels = [
                state.job.prop.label for state, chunk in group for _ in chunk
            ]
            seeds = [item.derive_seeds() for item in items]
            future = executor.submit(
                pgd_minimize_batch,
                MultiLabelMarginObjective(network, labels),
                [item.region for item in items],
                group[0][0].pgd_config,
                [pgd_rng for pgd_rng, _, _ in seeds],
                self._group_deadline([state for state, _ in group]),
            )
            pgd_submissions.append((group, seeds, future))

        # Chunks that survive Minimize: (state, chunk, seeds, x*, f*).
        survivors: list[tuple] = []
        for group, seeds, future in pgd_submissions:
            with span(
                "sched.pgd_group", cat="sched",
                jobs=len(group), rows=len(seeds),
            ):
                x_stars, f_stars = future.result()
                offset = 0
                for state, chunk in group:
                    rows = slice(offset, offset + len(chunk))
                    offset += len(chunk)
                    xs, fs = x_stars[rows], f_stars[rows]
                    state.stats.pgd_calls += len(chunk)
                    state.stats.max_depth_reached = max(
                        state.stats.max_depth_reached,
                        max(item.depth for item in chunk),
                    )
                    state.last_margin = float(fs.min())
                    idx = first_falsified(fs, state.config.delta)
                    if idx is not None:
                        state.finish(
                            Falsified(xs[idx], float(fs[idx]), state.stats)
                        )
                        continue
                    survivors.append((state, chunk, seeds[rows], xs, fs))
        obs.add("phase.pgd_s", time.perf_counter() - stage_started)

        # --- 2. Fused Analyze per (network, domain) group ----------------
        stage_started = time.perf_counter()
        analyze_groups: dict[tuple, list[tuple[_JobState, int, WorkItem]]] = {}
        results_by_state: dict[int, list] = {}
        for state, chunk, seeds, xs, fs in survivors:
            domains = choose_domains(
                state.job.network, state.policy, state.job.prop,
                chunk, xs, fs, state.stats,
            )
            results_by_state[state.index] = [None] * len(chunk)
            for pos, (item, domain) in enumerate(zip(chunk, domains)):
                key = (id(state.job.network), domain)
                analyze_groups.setdefault(key, []).append((state, pos, item))

        # Each group goes out as contiguous calls of at most
        # ANALYZE_CALL_REGIONS regions, every one submitted before any is
        # consumed: one large group no longer runs alone while the other
        # workers wait.
        analyze_submissions: list[tuple] = []
        for (_, domain), group in analyze_groups.items():
            network = group[0][0].job.network
            # Incremental mode swaps the fused Analyze kernel for its
            # checkpoint-aware twin (cold behaviour bitwise-identical);
            # unsupported domains keep the plain call.
            checkpointed = (
                self.options.incremental
                and self.cache is not None
                and supports_checkpoint(domain)
            )
            for start in range(0, len(group), ANALYZE_CALL_REGIONS):
                entries = group[start : start + ANALYZE_CALL_REGIONS]
                call_states = list(
                    {id(state): state for state, _, _ in entries}.values()
                )
                regions = [item.region for _, _, item in entries]
                labels = [state.job.prop.label for state, _, _ in entries]
                deadline = self._group_deadline(call_states)
                if checkpointed:
                    future = self._submit_checkpointed(
                        executor, network, regions, labels, domain, deadline
                    )
                else:
                    future = executor.submit(
                        analyze_batch_multi, network, regions, labels,
                        domain, deadline,
                    )
                analyze_submissions.append(
                    (entries, call_states, future, checkpointed)
                )

        for entries, call_states, future, checkpointed in analyze_submissions:
            with span(
                "sched.analyze_group", cat="sched",
                jobs=len(call_states), rows=len(entries),
            ):
                try:
                    analyses = future.result()
                except TimeoutError:
                    # The call's deadline is the latest of its jobs', so
                    # every one of them is over budget.  They must retire
                    # *now*: their chunks never completed analysis, so an
                    # empty frontier here means "aborted", not "verified".
                    for state in call_states:
                        if state.outcome is None:
                            state.finish(Timeout("wall clock", state.stats))
                    continue
                if checkpointed:
                    analyses, captured = analyses
                    self._store_prefixes(captured)
                for (state, pos, _), analysis in zip(entries, analyses):
                    results_by_state[state.index][pos] = analysis
        obs.add("phase.analyze_s", time.perf_counter() - stage_started)

        # --- 3. Refine per chunk (Algorithm 1's step 3) ------------------
        stage_started = time.perf_counter()
        for state, chunk, seeds, xs, fs in survivors:
            if state.outcome is not None:
                continue
            terminal, pairs = refine_unverified(
                state.job.network, state.policy, state.config,
                state.job.prop, chunk, seeds, xs, fs,
                results_by_state[state.index], state.stats,
            )
            if terminal is not None:
                state.finish(Timeout(terminal[1], state.stats))
                continue
            state.push_children(pairs)
        obs.add("phase.split_join_s", time.perf_counter() - stage_started)
