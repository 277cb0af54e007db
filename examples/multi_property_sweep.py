"""Verify all 8 fig06 properties of one MLP in a single scheduler run.

The bench harness's classic route decides one property at a time, leaving
the batched engine's GEMM slots mostly empty.  This example builds the
mnist_3x100 suite network, derives its 8 brightening-attack properties,
and drives them through the multi-property scheduler's shared frontier —
then re-runs them per property to show (a) identical outcomes and
(b) the cross-property throughput gain, and finally replays the manifest
against the persistent result cache, which serves every decided job
without spawning any PGD/Analyze work.

Run with ``PYTHONPATH=src python examples/multi_property_sweep.py``.
"""

import tempfile

from repro.abstract.domains import DEEPPOLY
from repro.bench.suites import SuiteScale, build_network, build_problems
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.sched import ResultCache, Scheduler, VerificationJob


def main() -> None:
    print("training mnist_3x100 (scaled) ...")
    bench_net = build_network("mnist_3x100", SuiteScale(), seed=0)
    problems = build_problems(bench_net, count=8, rng=13)

    # Deterministic workload: no wall-clock timeout, bounded by the split
    # depth cap (whose timeouts are scheduling-independent), so the two
    # runs below do identical work and the comparison is pure batching.
    config = VerifierConfig(timeout=None, max_depth=10, batch_size=16)
    policy = BisectionPolicy(domain=DEEPPOLY)
    jobs = [
        VerificationJob(
            bench_net.network,
            problem.prop,
            config=config,
            policy=policy,
            seed=0,
            name=problem.prop.name,
        )
        for problem in problems
    ]

    print(f"\n--- one property at a time ({len(jobs)} one-job runs) ---")
    solo = [Scheduler([job]).run() for job in jobs]
    solo_results = [report.results[0] for report in solo]
    solo_wall = sum(report.wall_clock for report in solo)
    solo_throughput = sum(report.fresh_calls() for report in solo) / solo_wall
    for result in solo_results:
        print(f"  {result.job.name:<16} {result.outcome.kind}")
    print(f"  wall clock {solo_wall:.2f}s, "
          f"{solo_throughput:.0f} work items/s")

    print("\n--- one shared frontier ---")
    fused = Scheduler(jobs).run()
    for result, ref in zip(fused.results, solo_results):
        marker = "==" if result.outcome.kind == ref.outcome.kind else "!!"
        print(f"  {result.job.name:<16} {result.outcome.kind} {marker}")
    print(f"  wall clock {fused.wall_clock:.2f}s, "
          f"{fused.throughput():.0f} work items/s, "
          f"{fused.sweeps} fused sweeps")
    print(f"  cross-property speedup: "
          f"{fused.throughput() / solo_throughput:.2f}x")

    print("\n--- replay against a persistent cache ---")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        Scheduler(jobs, cache=cache).run()
        replay = Scheduler(jobs, cache=cache).run()
        print(f"  {replay.cache_hits}/{len(jobs)} jobs served from cache, "
              f"{replay.sweeps} fused sweeps, "
              f"{replay.wall_clock:.3f}s wall clock")


if __name__ == "__main__":
    main()
