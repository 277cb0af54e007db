"""Observability overhead guard: tracing off must cost (almost) nothing.

Not a paper figure: this bench pins the zero-cost-when-disabled contract
of ``repro.obs`` (DESIGN.md §11).  Two claims:

- **Disabled-path budget.**  The instrumentation a scheduler run touches
  with tracing off — ``span()`` fast-path checks, counter-group dict
  increments, locked registry ops at executor submission — must cost
  under 2% of the sched engine suite's wall clock.  Wall-clock A/B of
  on-vs-off runs is hopelessly noisy at this magnitude, so the guard is
  computed: microbench each primitive's per-call cost, count how often a
  real run invokes each (from the run's own counter delta), and bound
  the product.  A regression that puts an allocation or a lock on the
  disabled ``span()`` path inflates the per-call cost ~10-100x and trips
  the 2% line immediately.
- **Tracing must not perturb outcomes.**  The same manifest re-run with
  the tracer enabled must produce bitwise-identical outcomes, and the
  dump it writes must pass ``validate_trace``.
"""

import time

from conftest import load_problems, one_shot

from repro.abstract.domains import DEEPPOLY
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.obs.metrics import registry
from repro.obs.stats import validate_trace
from repro.obs.trace import span, tracer
from repro.sched import Scheduler, VerificationJob

#: The disabled-path budget: instrumentation cost / suite wall clock.
OVERHEAD_BUDGET = 0.02

#: Registry ops per executor submission with tracing off: submitted inc,
#: queue-depth adjust up/down, completed inc, latency observe, wait
#: observe (the serial path; the process path adds a merge, counted
#: separately below via its own delta keys).
_OPS_PER_SUBMISSION = 6


def _build_jobs():
    config = VerifierConfig(timeout=None, max_depth=8, batch_size=16)
    networks, problems = load_problems(("mnist_3x100",), count=8)
    policy = BisectionPolicy(domain=DEEPPOLY)
    return [
        VerificationJob(
            networks[p.network_name], p.prop, config=config,
            policy=policy, seed=0, name=p.prop.name,
        )
        for p in problems
    ]


def _per_call(func, calls=200_000):
    started = time.perf_counter()
    for _ in range(calls):
        func()
    return (time.perf_counter() - started) / calls


def test_disabled_span_is_shared_noop():
    # The structural half of the zero-cost story: with tracing off the
    # module-level span() returns one shared stateless singleton — no
    # allocation, no tracer touch.
    assert not tracer().enabled
    assert span("a", cat="sched", rows=4) is span("b")


def test_disabled_overhead_under_budget(benchmark):
    assert not tracer().enabled
    jobs = _build_jobs()
    Scheduler(jobs[:2]).run()  # warm lazy op lowering + BLAS pools

    obs = registry()
    before = obs.counters_snapshot()
    started = time.perf_counter()
    report = one_shot(benchmark, lambda: Scheduler(jobs).run())
    wall = time.perf_counter() - started
    delta = obs.counters_since(before)

    # Microbench each primitive the disabled path actually executes.
    group = obs.group("bench_overhead", ("calls",))
    cost_span = _per_call(lambda: span("sched.round", cat="sched"))
    cost_inc = _per_call(lambda: obs.inc("bench_overhead.scalar"))
    cost_group = _per_call(lambda: group.__setitem__(
        "calls", group["calls"] + 1
    ))

    # How often a real run hits each primitive, from its own delta.
    submissions = sum(
        value for name, value in delta.items()
        if name.startswith("exec.") and name.endswith(".submitted")
    )
    kernel_batches = delta.get("kernel.pgd_batches", 0) + delta.get(
        "kernel.analyze_batches", 0
    )
    cache_ops = sum(
        value for name, value in delta.items() if name.startswith("cache.")
    )
    rounds = delta.get("sched.rounds", 0)
    # span() fast-path checks: one per round, one per fused group result
    # consumption, one per cache touch.
    span_calls = rounds + kernel_batches + cache_ops
    # Locked registry ops: executor submission bookkeeping plus the
    # per-round counter and three phase-timer adds.
    inc_calls = _OPS_PER_SUBMISSION * submissions + 4 * rounds
    # Lock-free group increments: two per kernel batch (batches + rows)
    # plus the fused kernels' own counters.
    group_calls = 2 * kernel_batches + 2 * delta.get("fused.calls", 0)

    estimated = (
        cost_span * span_calls
        + cost_inc * inc_calls
        + cost_group * group_calls
    )
    fraction = estimated / wall
    print()
    print(
        f"disabled-path overhead: span {cost_span * 1e9:.0f}ns x"
        f"{span_calls:.0f}, inc {cost_inc * 1e9:.0f}ns x{inc_calls:.0f}, "
        f"group {cost_group * 1e9:.0f}ns x{group_calls:.0f} -> "
        f"{estimated * 1e3:.3f}ms of {wall:.2f}s wall "
        f"({fraction * 100:.4f}%)"
    )
    assert report.sweeps > 0 and submissions > 0, "workload did no work"
    assert fraction < OVERHEAD_BUDGET


def test_tracing_does_not_perturb_outcomes(benchmark, tmp_path):
    jobs = _build_jobs()
    Scheduler(jobs[:2]).run()  # warm outside the comparison

    def run():
        baseline = Scheduler(jobs).run()
        tracer().enable()
        try:
            traced = Scheduler(jobs).run()
        finally:
            path = tmp_path / "trace.json"
            tracer().write(str(path), metrics=registry().snapshot())
            tracer().disable()
        return baseline, traced, path

    baseline, traced, path = one_shot(benchmark, run)

    import json

    import numpy as np

    for a, b in zip(baseline.results, traced.results):
        assert a.outcome.kind == b.outcome.kind
        if a.outcome.kind == "falsified":
            np.testing.assert_array_equal(
                a.outcome.counterexample, b.outcome.counterexample
            )
            assert a.outcome.margin == b.outcome.margin
        assert a.outcome.stats.pgd_calls == b.outcome.stats.pgd_calls
        assert a.outcome.stats.analyze_calls == b.outcome.stats.analyze_calls
        assert a.outcome.stats.splits == b.outcome.stats.splits

    dump = json.loads(path.read_text())
    assert validate_trace(dump) == []
    names = {event["name"] for event in dump["traceEvents"]}
    assert "sched.round" in names and "sched.pgd_group" in names
    print()
    print(
        f"traced run: {len(dump['traceEvents'])} events, outcomes bitwise "
        f"equal across {len(jobs)} jobs"
    )
