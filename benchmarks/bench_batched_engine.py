"""Batched engine vs sequential Algorithm 1 on the fig06 MLP workload.

Not a paper figure: this bench pins the performance contract of the
batched verification engine (this repo's first perf deliverable;
end-to-end timings of the fixed suites come from ``perfbench/``).  Shape
checked here:

- the engines agree on every problem both decide;
- the batched engine's work-item throughput (PGD + analyze calls per
  second) beats the sequential engine's on the same budget — the honest
  ratio on budget-bounded runs, since timed-out problems burn identical
  wall-clock in both engines by construction;
- the fixed-workload batched kernels beat their per-region loops outright;
- DeepPoly back-substitution over each region's live ReLU units beats the
  dense rewrite it replaced by >= 1.5x on a deep MLP, at margins within
  1e-9 and identical verdicts.
"""

import time

import numpy as np
from conftest import TIMEOUT, load_problems, one_shot

from repro.abstract.analyzer import analyze, analyze_batch
from repro.abstract.deeppoly import DeepPolyBatch, _DiagBounds, _split_signs
from repro.abstract.domains import DEEPPOLY
from repro.attack.objective import MarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize, pgd_minimize_batch
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.verifier import BatchedVerifier, Verifier
from repro.nn.builders import mlp
from repro.utils.boxes import Box

NETWORKS = ("mnist_3x100", "mnist_6x100")


def _run_engine(engine_cls, problems, networks, policy, config):
    outcomes = []
    calls = 0
    start = time.perf_counter()
    for problem in problems:
        outcome = engine_cls(
            networks[problem.network_name], policy, config, rng=0
        ).verify(problem.prop)
        outcomes.append(outcome.kind)
        calls += outcome.stats.pgd_calls + outcome.stats.analyze_calls
    return outcomes, calls, time.perf_counter() - start


def test_batched_engine_throughput(benchmark):
    networks, problems = load_problems(NETWORKS)
    policy = BisectionPolicy(domain=DEEPPOLY)
    config = VerifierConfig(timeout=TIMEOUT)

    def run():
        seq = _run_engine(Verifier, problems, networks, policy, config)
        bat = _run_engine(BatchedVerifier, problems, networks, policy, config)
        return seq, bat

    (seq_kinds, seq_calls, seq_s), (bat_kinds, bat_calls, bat_s) = one_shot(
        benchmark, run
    )

    decided_agree = sum(
        a == b
        for a, b in zip(seq_kinds, bat_kinds)
        if "timeout" not in (a, b)
    )
    decided = sum(
        1 for a, b in zip(seq_kinds, bat_kinds) if "timeout" not in (a, b)
    )
    print()
    print(f"decided in both engines: {decided}/{len(problems)}, agree: {decided_agree}")
    seq_rate = seq_calls / seq_s
    bat_rate = bat_calls / bat_s
    print(f"throughput: sequential {seq_rate:.0f}/s, batched {bat_rate:.0f}/s "
          f"({bat_rate / seq_rate:.1f}x)")

    # The engines are the same decision procedure: decided problems agree.
    assert decided_agree == decided
    # The batched frontier must process work strictly faster than the
    # one-region-at-a-time loop (full baseline shows ~4.5x; the floor here
    # is conservative for noisy CI boxes).
    assert bat_rate >= 1.5 * seq_rate


def test_batched_kernels_beat_loops(benchmark):
    networks, problems = load_problems(NETWORKS, count=4)
    # A fixed frontier workload: every root region bisected to 16 pieces.
    workload = []
    for problem in problems:
        regions = [problem.prop.region]
        while len(regions) < 16:
            regions = [half for r in regions for half in r.bisect()]
        workload.append(
            (networks[problem.network_name], problem.prop.label, regions)
        )

    def run():
        config = PGDConfig(steps=40, restarts=2, stop_below=-np.inf)
        t0 = time.perf_counter()
        for network, label, regions in workload:
            objective = MarginObjective(network, label)
            for i, region in enumerate(regions):
                pgd_minimize(objective, region, config, np.random.default_rng(i))
            for region in regions:
                analyze(network, region, label, DEEPPOLY)
        loop_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for network, label, regions in workload:
            objective = MarginObjective(network, label)
            pgd_minimize_batch(
                objective,
                regions,
                config,
                [np.random.default_rng(i) for i in range(len(regions))],
            )
            analyze_batch(network, regions, label, DEEPPOLY)
        batch_s = time.perf_counter() - t0
        return loop_s, batch_s

    loop_s, batch_s = one_shot(benchmark, run)
    print()
    print(f"fixed workload: loop {loop_s:.2f}s, batched {batch_s:.2f}s "
          f"({loop_s / batch_s:.1f}x)")
    assert batch_s < loop_s  # batching must never lose on a full frontier


def _dense_bound_expr(self, a, lower):
    """The dense rewrite the live-unit one replaced, for ReLU/affine
    chains: every unit of every layer, five temporaries per ReLU.  Kept
    as the reference the live-unit contract is measured against."""
    batch = self.batch_size
    a = np.atleast_2d(a)
    b = 0.0

    def _promote(arr):
        if arr.ndim == 2:
            return np.broadcast_to(arr, (batch, *arr.shape))
        return arr

    def _dot_rows(arr, vec):
        return (arr @ vec[:, :, None])[:, :, 0]

    for layer in reversed(self.layers):
        if isinstance(layer, _DiagBounds):
            a = _promote(a)
            pos, neg = _split_signs(a)
            b = b + _dot_rows(neg if lower else pos, layer.bu)
            if lower:
                a = pos * layer.dl[:, None, :] + neg * layer.du[:, None, :]
            else:
                a = pos * layer.du[:, None, :] + neg * layer.dl[:, None, :]
        else:
            b = b + a @ layer.bl
            if a.ndim == 3:
                rows = a.shape[1]
                a = (a.reshape(batch * rows, -1) @ layer.al).reshape(
                    batch, rows, -1
                )
            else:
                a = a @ layer.al
    a = _promote(a)
    pos, neg = _split_signs(a)
    if lower:
        return _dot_rows(pos, self.box_low) + _dot_rows(neg, self.box_high) + b
    return _dot_rows(pos, self.box_high) + _dot_rows(neg, self.box_low) + b


def test_deeppoly_live_units_contract(benchmark):
    """Back-substitution over each region's live ReLU units: >= 1.5x the
    dense rewrite on a 9x200 MLP (about half of each layer is dead per
    region at this radius), margins within 1e-9, identical verdicts."""
    net = mlp(64, [200] * 9, 10, rng=0)
    rng = np.random.default_rng(7)
    regions = [
        Box.from_center_radius(rng.uniform(0.3, 0.7, 64), 5e-4)
        for _ in range(8)
    ]
    live_impl = DeepPolyBatch._bound_expr

    def timed():
        start = time.perf_counter()
        results = analyze_batch(net, regions, 1, DEEPPOLY)
        return results, time.perf_counter() - start

    def run():
        timed()  # warm caches outside the comparison
        live_s, dense_s = float("inf"), float("inf")
        for _ in range(3):
            live, seconds = timed()
            live_s = min(live_s, seconds)
            DeepPolyBatch._bound_expr = _dense_bound_expr
            try:
                dense, seconds = timed()
                dense_s = min(dense_s, seconds)
            finally:
                DeepPolyBatch._bound_expr = live_impl
        return live, dense, live_s, dense_s

    live, dense, live_s, dense_s = one_shot(benchmark, run)
    print()
    print(
        f"deeppoly live-unit rewrite: dense {dense_s * 1e3:.0f}ms, "
        f"live {live_s * 1e3:.0f}ms ({dense_s / live_s:.2f}x)"
    )
    assert [r.verified for r in live] == [r.verified for r in dense]
    for got, want in zip(live, dense):
        assert abs(got.margin_lower_bound - want.margin_lower_bound) < 1e-9
    assert dense_s >= 1.5 * live_s
