"""Perf baseline for the multi-property scheduler -> BENCH_sched.json.

Measures what the scheduler exists for: the throughput ratio between
**single-property** execution (each fig06 property through its own
one-job ``Scheduler([job])`` run — what ``BatchedVerifier`` runs) and
**cross-property** execution (all properties of the suite through one
shared frontier) at the *same* ``batch_size`` —
so the ratio isolates batch-slot filling, not kernel changes.  Outcomes
are asserted identical per job (the scheduler's reproducibility contract).

The workload is deterministic: no wall-clock timeout, bounded by the split
depth cap instead.  Depth-cap timeouts are scheduling-independent, so the
total work is *fixed* — the ratio is a pure wall-clock comparison and the
trajectory stays comparable across machines and PRs.

Also records the cache round-trip (a second scheduler run against a warm
persistent cache must serve every cacheable job with zero fused sweeps)
and the **worker-scaling suites**: the multi-network manifest through
``PooledExecutor`` *and* ``ProcessExecutor`` runs at workers ∈ {1, 2, 4}
against the ``SerialExecutor`` baseline, plus the powerset-heavy (Z, 2)
suite — whose Python-loop split+join contraction the GIL serializes
under threads (~1.0x) and the spawn-based process pool exists for.
Every row carries its executor kind and the host's core count —
pool speedups are physically bounded by available cores, so a ratio of
~1.0 on a 1-core container and ~2x on a 4-core runner are the *same*
result; record the denominators or the trajectory is gibberish across
machines.  Outcomes are asserted bitwise-identical to serial at every
width for both pool kinds.

Like ``perf_baseline.py``, runs append to a trajectory list in the output
file, accumulating the perf history across PRs.

``--fused-bench`` is a separate fast mode -> ``BENCH_fused.json``: it
measures the fused split+join contraction (``repro.abstract.fused``)
against the pre-fusion kernel structure kept verbatim in
``repro.bench.fusedref`` — bitwise-asserted, on the powerset-frontier
workload — and records the throughput ratio alongside the executor kind
and host core counts, like every other BENCH row.

Usage::

    PYTHONPATH=src python scripts/sched_baseline.py [--quick] [--out PATH]
    PYTHONPATH=src python scripts/sched_baseline.py --fused-bench
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from perf_baseline import (
    append_trajectory,
    apply_backend_flag,
    backend_info,
    host_info,
)
from repro.abstract.domains import DEEPPOLY, bounded_zonotopes
from repro.backend import BACKEND_CHOICES
from repro.bench.suites import SuiteScale, build_network, build_problems
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.exec import PooledExecutor, ProcessExecutor
from repro.learn.pretrained import pretrained_policy
from repro.sched import ResultCache, ScheduleReport, Scheduler, VerificationJob

EXECUTOR_POOLS = {"pooled": PooledExecutor, "process": ProcessExecutor}

MLP_NETWORKS = (
    "mnist_3x100",
    "mnist_6x100",
    "mnist_9x200",
    "cifar_3x100",
    "cifar_6x100",
    "cifar_9x100",
)


def build_jobs(problems, networks, policy, config, seed=0):
    """One scheduler job per benchmark problem."""
    return [
        VerificationJob(
            networks[problem.network_name],
            problem.prop,
            config=config,
            policy=policy,
            seed=seed,
            name=problem.prop.name,
        )
        for problem in problems
    ]


#: Phase-timer counters the obs layer accumulates per run, mapped to the
#: BENCH row keys of ``phase_shares``.
PHASES = ("pgd", "analyze", "split_join", "cache")


def phase_shares(report):
    """Per-phase wall-clock shares of one run, from its metrics delta.

    The scheduler times its three sweep stages plus cache traffic into
    ``phase.*_s`` counters (:mod:`repro.obs.metrics`); normalizing by the
    run's wall clock turns them into a where-does-the-time-go breakdown
    each BENCH row carries.  Shares need not sum to 1.0: submission-side
    work and report assembly fall outside the timed phases, and pooled
    stages overlap the wall clock.
    """
    wall = max(report.wall_clock, 1e-9)
    return {
        phase: round(report.metrics.get(f"phase.{phase}_s", 0.0) / wall, 3)
        for phase in PHASES
    }


def summarize(report):
    counts = report.outcome_counts()
    return {
        "backend": report.backend,
        "escalated": report.escalated if report.escalation else None,
        "wall_clock_s": round(report.wall_clock, 3),
        "outcomes": counts,
        "fresh_calls": report.fresh_calls(),
        "throughput_per_s": round(report.throughput(), 1),
        "sweeps": report.sweeps,
        "swept_items": report.swept_items,
        "final_batch_target": report.final_batch_target,
        "executor": report.executor,
        "workers": report.workers,
        "phase_shares": phase_shares(report),
    }


def run_pool_scaling(jobs, serial, widths, label):
    """One suite through both pool kinds at the given worker widths.

    Returns ``{kind: {workers_N: summary}}``; every summary row carries
    the executor kind, the bitwise-agreement flag against ``serial``,
    and the wall-clock ratio.  A small warm-up run per executor keeps
    one-time pool costs (process spawn, per-worker numpy import and
    network deserialization) out of the measured ratio — the scheduler
    amortizes one pool across a long manifest.
    """
    scaling = {kind: {} for kind in EXECUTOR_POOLS}
    for kind, pool_cls in EXECUTOR_POOLS.items():
        for workers in widths:
            print(f"[{label}] {kind} x{workers} ...", flush=True)
            with pool_cls(workers) as executor:
                Scheduler(jobs[:2], executor=executor).run()
                run = Scheduler(jobs, executor=executor).run()
            summary = summarize(run)
            summary["outcomes_agree"] = outcomes_agree(serial, run)
            summary["wall_clock_ratio_vs_serial"] = round(
                serial.wall_clock / max(run.wall_clock, 1e-9), 2
            )
            scaling[kind][f"workers_{workers}"] = summary
            print(
                f"  x{workers}: {summary['wall_clock_ratio_vs_serial']}x vs "
                f"serial, agree={summary['outcomes_agree']}", flush=True,
            )
    return scaling


def per_property(jobs) -> ScheduleReport:
    """The single-property baseline: one ``Scheduler([job]).run()`` per
    job, folded into one report (results in job order, summed wall clock,
    sweeps, and metric counters) so it summarizes like any other run."""
    reports = [Scheduler([job]).run() for job in jobs]
    metrics: dict = {}
    for report in reports:
        for name, value in report.metrics.items():
            metrics[name] = metrics.get(name, 0) + value
    return ScheduleReport(
        results=[report.results[0] for report in reports],
        wall_clock=sum(report.wall_clock for report in reports),
        sweeps=sum(report.sweeps for report in reports),
        swept_items=sum(report.swept_items for report in reports),
        frontier=reports[0].frontier,
        executor=reports[0].executor,
        final_batch_target=max(r.final_batch_target for r in reports),
        metrics=metrics,
    )


def outcomes_agree(a, b) -> bool:
    """Bitwise per-job agreement: outcome kind, witness, and counters."""
    for ra, rb in zip(a.results, b.results):
        if ra.outcome.kind != rb.outcome.kind:
            return False
        if ra.outcome.kind == "falsified" and not np.array_equal(
            ra.outcome.counterexample, rb.outcome.counterexample
        ):
            return False
        sa, sb = ra.outcome.stats, rb.outcome.stats
        if (sa.pgd_calls, sa.analyze_calls, sa.splits) != (
            sb.pgd_calls, sb.analyze_calls, sb.splits
        ):
            return False
    return True


def run_fused_bench(out_path: Path) -> int:
    """The ``--fused-bench`` fast mode -> one ``BENCH_fused.json`` row."""
    import time

    from repro.abstract import fused
    from repro.bench.fusedref import prefused_stacked_relu, promotion_stack

    workload = dict(seed=11, rows=48, k=160, n=96, dead_rows=0.45)
    operands = promotion_stack(**workload)

    fused.reset_counters()
    got = fused.stacked_relu(*operands)
    want = prefused_stacked_relu(*operands)
    bitwise_equal = all(np.array_equal(g, w) for g, w in zip(got, want))
    counters = dict(fused.FUSED_COUNTERS)

    def best_of(fn, rounds=3):
        fn(*operands)  # warm (arena allocation, first-touch paging)
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn(*operands)
            best = min(best, time.perf_counter() - start)
        return best

    prefused_s = best_of(prefused_stacked_relu)
    fused_s = best_of(fused.stacked_relu)
    ratio = prefused_s / max(fused_s, 1e-9)
    report = {
        "bench": "fused_kernel",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": host_info(),
        **backend_info(),
        "workload": workload,
        "kernel": {
            # The kernel runs in-process on the caller's thread; the row
            # still carries the executor kind and core counts so it stays
            # schema-comparable with the worker-scaling rows.
            "executor": "serial",
            "cpu_count": os.cpu_count(),
            "prefused_ms": round(prefused_s * 1e3, 1),
            "fused_ms": round(fused_s * 1e3, 1),
            "throughput_ratio": round(ratio, 2),
            "bitwise_equal": bitwise_equal,
            "compacted_rows": counters["compacted_rows"],
        },
    }
    print(
        f"fused kernel: pre-fusion {report['kernel']['prefused_ms']}ms, "
        f"fused {report['kernel']['fused_ms']}ms -> {ratio:.2f}x, "
        f"bitwise_equal={bitwise_equal}", flush=True,
    )
    assert bitwise_equal, "fused kernel diverged from the reference path"
    append_trajectory(out_path, "fused_kernel", report)
    print(f"wrote {out_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="one network, fewer problems (smoke run; not the baseline)",
    )
    parser.add_argument(
        "--fused-bench", action="store_true",
        help="fast mode: fused vs pre-fused kernel throughput row only "
        "(defaults --out to BENCH_fused.json)",
    )
    parser.add_argument(
        "--out", default=None, help="output JSON path"
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="array backend for every kernel in the run (default: active)",
    )
    args = parser.parse_args(argv)
    apply_backend_flag(args)
    if args.fused_bench:
        return run_fused_bench(Path(args.out or "BENCH_fused.json"))
    args.out = args.out or "BENCH_sched.json"

    scale = SuiteScale()
    names = MLP_NETWORKS[:1] if args.quick else MLP_NETWORKS
    count = 4 if args.quick else 8
    config = VerifierConfig(timeout=None, max_depth=10, batch_size=16)
    # The learned policy mostly selects bounded zonotope powersets — now
    # batched (ZonotopeBatch/PowersetBatch) but still far heavier per
    # region than DeepPoly; a lower depth cap keeps its deterministic
    # workload baseline-sized without reintroducing wall-clock
    # nondeterminism.  The explicit (Z, 2) row shares that cap.
    learned_config = VerifierConfig(timeout=None, max_depth=6, batch_size=16)

    print(f"training {len(names)} networks ...", flush=True)
    networks = {}
    problems = []
    for name in names:
        bench_net = build_network(name, scale, seed=0)
        networks[name] = bench_net.network
        problems.extend(build_problems(bench_net, count=count, rng=13))
    print(f"{len(problems)} problems", flush=True)

    report = {
        "bench": "sched_baseline",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": host_info(),
        **backend_info(),
        # Every scheduler row in this file runs the concrete networks;
        # recorded so rows stay interpretable next to BENCH_netabs.json's
        # abstraction trajectory.
        "abstraction": "off",
        "suite": {
            "networks": list(names),
            "problems": len(problems),
            "max_depth": config.max_depth,
            "batch_size": config.batch_size,
        },
        "engines": {},
    }

    # The learned-policy and (Z, 2) legs run on one network: powerset
    # analyses dominate their wall clock, and single-network manifests
    # are the regime where cross-property fusion fills batch slots.
    learned_problems = [p for p in problems if p.network_name == names[0]]
    policies = {
        "deeppoly_policy": (BisectionPolicy(domain=DEEPPOLY), config, problems),
        "learned_policy": (
            pretrained_policy(), learned_config, learned_problems,
        ),
        # Named to match perf_baseline's (Z, 2) leg so the two trajectory
        # files stay comparable key-by-key.
        "powerset_policy": (
            BisectionPolicy(domain=bounded_zonotopes(2)),
            learned_config,
            learned_problems,
        ),
    }
    for policy_name, (policy, policy_config, policy_problems) in policies.items():
        jobs = build_jobs(policy_problems, networks, policy, policy_config)
        print(f"[{policy_name}] per-property (one-job runs) ...", flush=True)
        seq = per_property(jobs)
        entry = {
            "problems": len(jobs),
            "max_depth": policy_config.max_depth,
            "single_property": summarize(seq),
            "cross_property": {},
        }
        for frontier in ("dfs", "priority", "fifo"):
            print(f"[{policy_name}] batched ({frontier}) ...", flush=True)
            bat = Scheduler(jobs, frontier=frontier).run()
            summary = summarize(bat)
            summary["outcomes_agree"] = outcomes_agree(seq, bat)
            summary["throughput_ratio"] = round(
                bat.throughput() / max(seq.throughput(), 1e-9), 2
            )
            entry["cross_property"][frontier] = summary
            print(
                f"  ratio {summary['throughput_ratio']}x, "
                f"agree={summary['outcomes_agree']}", flush=True,
            )
        report["engines"][policy_name] = entry

    # Worker scaling: the multi-network deeppoly manifest (one fused PGD
    # and one fused Analyze group per network each round — the shape with
    # genuinely independent kernel groups) through both pool kinds.
    # The workload is the deterministic depth-capped one, so pooled and
    # process runs must agree with serial bitwise at every width.  Every
    # row records its executor kind; together with the host core count
    # that is what makes ratios comparable across machines.
    jobs = build_jobs(problems, networks, policies["deeppoly_policy"][0], config)
    print("[workers] serial baseline ...", flush=True)
    serial = Scheduler(jobs, workers=1).run()
    # workers=1 through a real pool measures pure hop overhead (thread
    # hand-off, or pickling + IPC for processes); run_pool_scaling builds
    # the executor explicitly since Scheduler(workers=1) would default to
    # the serial executor.
    scaling = {
        "manifest_networks": len(names),
        "problems": len(jobs),
        "serial": summarize(serial),
        **run_pool_scaling(jobs, serial, (1, 2, 4), "workers"),
    }
    report["worker_scaling"] = scaling

    # The powerset-heavy worker-scaling suite: the (Z, 2) split+join
    # contraction is Python-loop-heavy, so threads measured ~1.0x here at
    # any width — this is the suite the process pool exists for, and the
    # one bench_sched_engine.py::test_process_executor_contract floors at
    # >= 1.3x @ 4 workers on >= 4-core hosts.
    # NOTE: a distinct variable — the cache round-trip below must keep
    # measuring the deeppoly manifest (`jobs`) for trajectory continuity.
    # Problems are grouped per network, so slice 4 *per network* (a head
    # slice of the concatenation would cover only the first networks).
    powerset_names = names[: min(4, len(names))]
    by_network: dict[str, list] = {}
    for problem in problems:
        by_network.setdefault(problem.network_name, []).append(problem)
    powerset_problems = [
        problem
        for name in powerset_names
        for problem in by_network[name][:4]
    ]
    powerset_jobs = build_jobs(
        powerset_problems,
        networks,
        BisectionPolicy(domain=bounded_zonotopes(2)),
        learned_config,
    )
    print("[powerset workers] serial baseline ...", flush=True)
    serial = Scheduler(powerset_jobs, workers=1).run()
    powerset_scaling = {
        "manifest_networks": len(powerset_names),
        "problems": len(powerset_jobs),
        "max_depth": learned_config.max_depth,
        "serial": summarize(serial),
        **run_pool_scaling(powerset_jobs, serial, (2, 4), "powerset workers"),
    }
    report["powerset_worker_scaling"] = powerset_scaling

    # Cache round-trip: the second run must spawn zero fresh work.  On
    # this deterministic workload every job is cacheable (depth-cap
    # timeouts included), so every job must be served.
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        first = Scheduler(jobs, cache=cache).run()
        second = Scheduler(jobs, cache=cache).run()
        report["cache"] = {
            "jobs": len(first.results),
            "second_run_hits": second.cache_hits,
            "second_run_sweeps": second.sweeps,
            "second_run_wall_clock_s": round(second.wall_clock, 3),
            "all_served": second.cache_hits == len(first.results),
        }
    print(f"cache: {report['cache']}", flush=True)

    ratios = [
        entry["cross_property"]["dfs"]["throughput_ratio"]
        for entry in report["engines"].values()
    ]
    report["headline"] = {
        "cross_property_throughput_ratio_dfs": ratios,
        "pooled_wall_clock_ratio_workers_4": scaling["pooled"]["workers_4"][
            "wall_clock_ratio_vs_serial"
        ],
        "process_wall_clock_ratio_workers_4": scaling["process"][
            "workers_4"
        ]["wall_clock_ratio_vs_serial"],
        "powerset_process_wall_clock_ratio_workers_4": powerset_scaling[
            "process"
        ]["workers_4"]["wall_clock_ratio_vs_serial"],
        "cpu_count": os.cpu_count(),
    }

    append_trajectory(Path(args.out), "sched_baseline", report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
