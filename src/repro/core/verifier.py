"""Algorithm 1: the sound and δ-complete decision procedure.

Work items are (region, depth, seed) triples on an explicit stack
(equivalent to the paper's recursion, but immune to Python's recursion
limit).  Per item:

1. **Minimize** — PGD searches the region for a counterexample; if
   ``F(x*) <= δ`` the property is falsified with witness ``x*`` (Eq. 4,
   which buys termination, Theorem 5.2).
2. **Analyze** — the domain policy picks an abstract domain; if abstract
   interpretation proves the margin positive, the region is verified.
3. **Refine** — otherwise the partition policy picks a splitting plane and
   both halves are pushed.  Splits are forced strictly interior
   (Assumption 1) via :meth:`Box.split_interior`.

The property is verified when the stack drains.  δ-completeness: if the
outcome is not Verified (and budgets have not run out), the returned point
satisfies ``F(x*) <= δ`` — Theorem 5.4's guarantee, checked by our tests.

Randomness is attached to the *work item*, not the verifier: every item
carries a :class:`numpy.random.SeedSequence` and spawns child sequences for
its PGD call and its two split halves.  A sub-region's random stream is
therefore a pure function of its path from the root, which is what lets the
frontier engine (:class:`~repro.sched.scheduler.Scheduler`) process items
in any order — or many at once, across many properties — and still
reproduce the stack loop's per-region results.

:class:`Verifier` (and :func:`verify`) is a one-job
:class:`~repro.sched.scheduler.Scheduler` run: the job's frontier pops up
to ``config.batch_size`` items per sweep and runs one batched Minimize and
one batched Analyze per domain group over all of them (§6's "independent
sub-region analyses").  Every domain the policy menu commonly selects —
intervals, DeepPoly, zonotopes, and bounded zonotope powersets — has a
batched kernel behind
:meth:`~repro.abstract.domains.DomainSpec.lift_batch`, so the Analyze step
stays GEMM-shaped regardless of the domain policy's choices.  The three
per-chunk steps live here as hooks
(:func:`first_falsified`, :func:`choose_domains`,
:func:`refine_unverified`) so the scheduler's fused sweeps cannot drift
from Algorithm 1's per-chunk semantics.

:func:`sequential_reference` is the paper-faithful stack loop, one item
at a time (its Analyze is a one-region call of the same batched
kernels).  No entry point runs it: it is what the engine-equivalence
tests and the engine-throughput contracts compare :class:`Verifier`
against.  Soundness, δ-completeness, budgets, and statistics semantics
are identical; differences are traversal order and the BLAS round-off
of different batch heights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abstract.analyzer import analyze
from repro.abstract.domains import INTERVAL, DomainSpec
from repro.attack.objective import MarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize
from repro.core.config import VerifierConfig
from repro.core.policy import VerificationPolicy, default_policy
from repro.core.property import RobustnessProperty
from repro.core.results import Falsified, Timeout, Verified, VerificationStats
from repro.nn.network import Network
from repro.utils.boxes import Box
from repro.utils.rng import as_generator
from repro.utils.timing import Deadline, Stopwatch


@dataclass(frozen=True)
class WorkItem:
    """One sub-problem of the refinement recursion.

    The seed sequence is spawned exactly once (see :meth:`derive_seeds`)
    into the PGD stream and the two child sequences, making every
    sub-region's randomness a pure function of its path from the root.
    """

    region: Box
    depth: int
    seed: np.random.SeedSequence

    def derive_seeds(
        self,
    ) -> tuple[
        np.random.SeedSequence, np.random.SeedSequence, np.random.SeedSequence
    ]:
        """``(pgd_seed, left_seed, right_seed)`` for this item.

        PGD gets its sequence, not a generator: it builds
        ``default_rng(pgd_seed)``, the same stream, where it runs, so a
        process call pickles each region's seed state, not a generator.
        """
        return tuple(self.seed.spawn(3))


def root_item(
    region: Box, rng: np.random.Generator
) -> WorkItem:
    """The root work item, seeded deterministically from ``rng``."""
    entropy = int(rng.integers(0, 2**63 - 1))
    return WorkItem(region, 0, np.random.SeedSequence(entropy))


def first_falsified(f_stars, delta: float) -> int | None:
    """Index of the first item whose PGD minimum is a δ-counterexample.

    "First" is frontier order — ``items[0]`` is what the stack loop would
    pop next — which is what makes the engine's witness deterministic for
    a fixed chunking.
    """
    for idx, f_star in enumerate(f_stars):
        if f_star <= delta:
            return idx
    return None


def choose_domains(
    network: Network,
    policy: VerificationPolicy,
    prop: RobustnessProperty,
    items: list[WorkItem],
    x_stars: np.ndarray,
    f_stars: np.ndarray,
    stats: VerificationStats,
) -> list[DomainSpec]:
    """The policy half of step 2: one domain choice per frontier item.

    Counts every choice in ``stats`` (analyze calls + domain histogram);
    the caller runs the actual abstract interpretation, grouping items
    however its batching shape prefers.
    """
    domains: list[DomainSpec] = []
    for idx, item in enumerate(items):
        domain = policy.choose_domain(
            network, prop.with_region(item.region), x_stars[idx], float(f_stars[idx])
        )
        if item.region.is_degenerate():
            # A point region: the interval domain is exact on it, so this
            # branch always resolves (F(x*) > δ implies the margin at the
            # point is positive).
            domain = INTERVAL
        domains.append(domain)
        stats.analyze_calls += 1
        stats.record_domain(domain.short_name)
    return domains


def refine_unverified(
    network: Network,
    policy: VerificationPolicy,
    config: VerifierConfig,
    prop: RobustnessProperty,
    items: list[WorkItem],
    seeds: list,
    x_stars: np.ndarray,
    f_stars: np.ndarray,
    results: list,
    stats: VerificationStats,
) -> tuple["tuple | None", list[tuple[WorkItem, WorkItem]]]:
    """Step 3 of a sweep: split every unverified item into child work items.

    Returns ``(terminal, child_pairs)``; a non-``None`` terminal is a
    ``("timeout", reason)`` tuple raised by the depth cap or a region too
    narrow to split.  Children inherit the seeds spawned for their parent,
    keeping sub-region randomness a pure function of the refinement path.
    """
    pairs: list[tuple[WorkItem, WorkItem]] = []
    for idx, item in enumerate(items):
        if results[idx].verified:
            continue
        if item.depth >= config.max_depth:
            return ("timeout", "split depth"), []
        choice = policy.choose_split(
            network, prop.with_region(item.region), x_stars[idx], float(f_stars[idx])
        )
        try:
            left, right = item.region.split_interior(
                choice.dim, choice.value, config.min_split_fraction
            )
        except ValueError:
            # Region width below float resolution yet analysis still
            # fails: no further refinement is possible.
            return ("timeout", "degenerate region"), []
        stats.splits += 1
        _, left_seq, right_seq = seeds[idx]
        pairs.append(
            (
                WorkItem(left, item.depth + 1, left_seq),
                WorkItem(right, item.depth + 1, right_seq),
            )
        )
    return None, pairs


def minimize_pgd_config(config: VerifierConfig) -> PGDConfig:
    """The PGD settings every engine's Minimize step must share.

    PGD exits early once it drops to δ: anything at or below δ is already
    a δ-counterexample.  Centralized so the sequential reference and the
    scheduler can never drift on the early-exit threshold (the
    reference/frontier equivalence contract depends on identical PGD
    configs).
    """
    pgd = config.pgd
    return PGDConfig(
        steps=pgd.steps,
        restarts=pgd.restarts,
        step_fraction=pgd.step_fraction,
        stop_below=config.delta,
    )


class Verifier:
    """A reusable Charon instance bound to a network and a policy.

    Each :meth:`verify` is a one-job
    :class:`~repro.sched.scheduler.Scheduler` run with default run
    options: the job's frontier pops up to ``config.batch_size`` items per
    sweep, runs **one** batched PGD minimization and **one** batched
    abstract interpretation per domain group over all of them, then
    pushes every resulting split.  Children are pushed so the frontier
    keeps the stack loop's depth-first orientation (the first popped
    item's left child ends on top), making the traversal a DFS with a
    ``batch_size``-wide lookahead.

    Because work-item randomness is path-keyed (see :class:`WorkItem`),
    each sub-region's PGD search matches :func:`sequential_reference`'s
    per-region arithmetic; outcomes and witnesses agree up to BLAS kernel
    round-off.  Terminal sweeps may have minimized a few frontier
    companions the stack loop would never have reached — order-only,
    speculative work that the statistics count honestly.  Analyze skips
    them at the depth cap: a chunk whose first item sits at
    ``config.max_depth`` analyzes the rest only once that item verifies.

    The run hands the job this instance's generator as its seed, so a
    reused instance draws successive root seeds exactly like the
    reference does from a shared generator.
    """

    def __init__(
        self,
        network: Network,
        policy: VerificationPolicy | None = None,
        config: VerifierConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.network = network
        self.policy = policy or default_policy()
        self.config = config or VerifierConfig()
        self._rng = as_generator(rng)

    def verify(self, prop: RobustnessProperty):
        """Decide the robustness property; see the module docstring."""
        # Imported here: the scheduler builds on this module's hooks.
        from repro.sched.job import VerificationJob
        from repro.sched.scheduler import Scheduler

        job = VerificationJob(
            self.network,
            prop,
            config=self.config,
            policy=self.policy,
            seed=self._rng,
        )
        return Scheduler([job]).run().results[0].outcome


def verify(
    network: Network,
    prop: RobustnessProperty,
    policy: VerificationPolicy | None = None,
    config: VerifierConfig | None = None,
    rng: int | np.random.Generator | None = None,
):
    """One-shot convenience wrapper around :class:`Verifier`."""
    return Verifier(network, policy, config, rng).verify(prop)


def sequential_reference(
    network: Network,
    prop: RobustnessProperty,
    policy: VerificationPolicy | None = None,
    config: VerifierConfig | None = None,
    rng: int | np.random.Generator | None = None,
):
    """Algorithm 1 as the paper's stack loop, one work item at a time.

    The reference the engine-equivalence tests compare :class:`Verifier`
    against; no entry point runs it.  ``config.batch_size`` plays no part
    here.  Passing one generator to successive calls draws successive
    root seeds, like a reused :class:`Verifier`.
    """
    policy = policy or default_policy()
    config = config or VerifierConfig()
    stats = VerificationStats()
    deadline = Deadline(config.timeout)
    watch = Stopwatch().start()
    objective = MarginObjective(network, prop.label)
    pgd_config = minimize_pgd_config(config)

    stack: list[WorkItem] = [root_item(prop.region, as_generator(rng))]
    try:
        while stack:
            if deadline.expired():
                stats.time_seconds = watch.stop()
                return Timeout("wall clock", stats)
            item = stack.pop()
            region, depth = item.region, item.depth
            stats.max_depth_reached = max(stats.max_depth_reached, depth)
            sub_prop = prop.with_region(region)
            pgd_seq, left_seq, right_seq = item.derive_seeds()

            # --- 1. Minimize ---------------------------------------------
            x_star, f_star = pgd_minimize(
                objective, region, pgd_config, pgd_seq, deadline
            )
            stats.pgd_calls += 1
            if f_star <= config.delta:
                stats.time_seconds = watch.stop()
                return Falsified(x_star, f_star, stats)

            # --- 2. Analyze ----------------------------------------------
            domain = policy.choose_domain(network, sub_prop, x_star, f_star)
            if region.is_degenerate():
                # A point region: the interval domain is exact on it, so
                # this branch always resolves (F(x*) > δ implies the
                # margin at the point is positive).
                domain = INTERVAL
            stats.analyze_calls += 1
            stats.record_domain(domain.short_name)
            result = analyze(network, region, prop.label, domain, deadline)
            if result.verified:
                continue

            # --- 3. Refine -----------------------------------------------
            if depth >= config.max_depth:
                stats.time_seconds = watch.stop()
                return Timeout("split depth", stats)
            choice = policy.choose_split(network, sub_prop, x_star, f_star)
            try:
                left, right = region.split_interior(
                    choice.dim, choice.value, config.min_split_fraction
                )
            except ValueError:
                # Region width is below float resolution yet analysis
                # still fails: no further refinement is possible.
                stats.time_seconds = watch.stop()
                return Timeout("degenerate region", stats)
            stats.splits += 1
            stack.append(WorkItem(right, depth + 1, right_seq))
            stack.append(WorkItem(left, depth + 1, left_seq))
    except TimeoutError:
        stats.time_seconds = watch.stop()
        return Timeout("wall clock", stats)

    stats.time_seconds = watch.stop()
    return Verified(stats)
