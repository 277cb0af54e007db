"""Multi-property scheduler vs per-property one-job scheduler runs.

Not a paper figure: this bench pins the performance contract of the
cross-property scheduler (``repro.sched``; end-to-end timings of the
fixed suites come from ``perfbench/``).  Shape checked here:

- every job's outcome and witness is identical between per-property
  one-job runs (``Scheduler([job]).run()`` per job, what
  ``BatchedVerifier`` runs) and one fused scheduler run (the
  reproducibility contract);
- cross-property scheduling beats the per-property loop by >= 1.5x work
  throughput at equal ``batch_size`` — the fused sweeps keep GEMM batch
  slots full where solo frontiers run half-empty;
- a warm persistent cache serves every decided job without spawning any
  PGD/Analyze work (zero fused sweeps, zero fresh kernel calls).

The workload is deterministic on purpose: no wall-clock timeout, bounded
by the split depth cap, whose timeouts are scheduling-independent — so
the total work is fixed and the ratio is pure batching benefit.  It uses
many properties of *one* network, the regime the scheduler targets (fused
kernel groups are per network, so a mixed-network manifest fuses less —
each network's slice of it behaves like this bench).
"""

import os

import numpy as np
from conftest import load_problems, one_shot

from repro.abstract.domains import DEEPPOLY, bounded_zonotopes
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.exec import ProcessExecutor
from repro.sched import ResultCache, Scheduler, VerificationJob

NETWORKS = ("mnist_3x100",)


def _build_jobs(config):
    networks, problems = load_problems(NETWORKS, count=24)
    policy = BisectionPolicy(domain=DEEPPOLY)
    return [
        VerificationJob(
            networks[problem.network_name],
            problem.prop,
            config=config,
            policy=policy,
            seed=0,
            name=problem.prop.name,
        )
        for problem in problems
    ]


def _per_property(jobs):
    """The per-property baseline: one ``Scheduler([job]).run()`` per job."""
    return [Scheduler([job]).run() for job in jobs]


def test_cross_property_scheduling_throughput(benchmark):
    config = VerifierConfig(timeout=None, max_depth=10, batch_size=16)
    jobs = _build_jobs(config)

    # Warm caches (lazy network op lowering, BLAS threads) outside the
    # measured comparison so neither side pays them.
    _per_property(jobs[:4])
    Scheduler(jobs[:4], frontier="priority").run()

    def run():
        seq = _per_property(jobs)
        bat = Scheduler(jobs, frontier="priority").run()
        return seq, bat

    seq, bat = one_shot(benchmark, run)
    seq_wall = sum(report.wall_clock for report in seq)
    seq_throughput = sum(report.fresh_calls() for report in seq) / seq_wall

    # Identical outcomes, witnesses, and counters per job.
    for solo, fused in zip(
        (report.results[0] for report in seq), bat.results
    ):
        assert solo.outcome.kind == fused.outcome.kind
        if solo.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                solo.outcome.counterexample, fused.outcome.counterexample
            )
        assert solo.outcome.stats.pgd_calls == fused.outcome.stats.pgd_calls
        assert (
            solo.outcome.stats.analyze_calls
            == fused.outcome.stats.analyze_calls
        )

    ratio = bat.throughput() / seq_throughput
    print()
    print(
        f"throughput: per-property {seq_throughput:.0f}/s "
        f"({seq_wall:.2f}s), cross-property {bat.throughput():.0f}/s "
        f"({bat.wall_clock:.2f}s) -> {ratio:.2f}x"
    )
    # The contract: fused cross-property sweeps must beat per-property
    # loops at equal batch_size (full baseline shows ~1.7-1.9x).
    assert ratio >= 1.5


def test_cache_hits_spawn_no_work(benchmark, tmp_path):
    config = VerifierConfig(timeout=None, max_depth=10, batch_size=16)
    jobs = _build_jobs(config)
    cache = ResultCache(tmp_path / "cache")

    def run():
        first = Scheduler(jobs, cache=cache).run()
        second = Scheduler(jobs, cache=cache).run()
        return first, second

    first, second = one_shot(benchmark, run)

    decided = [
        r for r in first.results if r.outcome.kind in ("verified", "falsified")
    ]
    assert decided, "workload must decide something for the cache to serve"
    # The workload is deterministic (no wall clock, depth-capped), so
    # every outcome is cacheable — depth-cap timeouts included — and the
    # second run must be served entirely from the cache.
    assert second.cache_hits == len(jobs)
    assert second.sweeps == 0
    assert second.fresh_calls() == 0
    for a, b in zip(first.results, second.results):
        assert a.outcome.kind == b.outcome.kind
        if a.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                a.outcome.counterexample, b.outcome.counterexample
            )
        if b.cached:
            assert b.elapsed == 0.0
    print()
    print(
        f"cache: {second.cache_hits}/{len(jobs)} served, "
        f"{second.sweeps} fused sweeps on the second run"
    )


def _granted_cores() -> int:
    """Cores actually granted to this run (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _assert_outcomes_bitwise_equal(serial, candidate):
    for a, b in zip(serial.results, candidate.results):
        assert a.outcome.kind == b.outcome.kind
        if a.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                a.outcome.counterexample, b.outcome.counterexample
            )
        assert a.outcome.stats.pgd_calls == b.outcome.stats.pgd_calls
        assert a.outcome.stats.analyze_calls == b.outcome.stats.analyze_calls
        assert a.outcome.stats.splits == b.outcome.stats.splits


def test_process_executor_contract(benchmark):
    """Process-pool fused-group execution on the powerset-heavy suite,
    with operands crossing by pickle as in production: bitwise-equal
    always, >= 1.3x over serial at 4 workers when the host grants >= 4
    cores.

    This is the workload the process pool exists for.  The zonotope
    powerset split+join contraction is Python-loop-heavy, so threads
    would serialize it on the GIL; process workers sidestep the GIL, and
    the floor asserts they actually do whenever the physics allows
    (>= 4 granted cores).  Startup
    costs stay out of the measurement: the pool is spawned and warmed
    before the clock starts, matching how the scheduler amortizes one
    pool across a long manifest.
    """
    config = VerifierConfig(timeout=None, max_depth=6, batch_size=16)
    networks, problems = load_problems(
        ("mnist_3x100", "mnist_6x100", "cifar_3x100", "cifar_6x100"),
        count=4,
    )
    policy = BisectionPolicy(domain=bounded_zonotopes(2))
    jobs = [
        VerificationJob(
            networks[p.network_name], p.prop, config=config,
            policy=policy, seed=0, name=p.prop.name,
        )
        for p in problems
    ]

    # One warm-up job per network: jobs are grouped per network, so a
    # head slice would warm only the first network's deserialization and
    # op lowering, leaving the rest inside the measured region.
    warm_jobs = []
    seen_networks: set[int] = set()
    for job in jobs:
        if id(job.network) not in seen_networks:
            seen_networks.add(id(job.network))
            warm_jobs.append(job)
    assert len(warm_jobs) == 4

    with ProcessExecutor(4) as executor:
        # Warm the pool (spawn + numpy import + per-worker network
        # deserialization) and the lazy per-network op lowering.
        Scheduler(warm_jobs, executor=executor).run()
        Scheduler(warm_jobs, workers=1).run()

        def run():
            serial = Scheduler(jobs, workers=1).run()
            process = Scheduler(jobs, executor=executor).run()
            return serial, process

        serial, process = one_shot(benchmark, run)

    assert serial.executor == "serial" and process.executor == "process"
    _assert_outcomes_bitwise_equal(serial, process)

    cores = _granted_cores()
    ratio = serial.wall_clock / max(process.wall_clock, 1e-9)
    print()
    print(
        f"process x4 vs serial (powerset suite): {serial.wall_clock:.2f}s "
        f"-> {process.wall_clock:.2f}s ({ratio:.2f}x) on {cores} cores "
        f"[executors: {serial.executor} -> {process.executor}]"
    )
    if cores >= 4:
        assert ratio >= 1.3
