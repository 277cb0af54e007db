"""The engine vs sequential Algorithm 1 on the fig06 MLP workload.

Not a paper figure: this bench pins the performance contract of the
batched verification engine (this repo's first perf deliverable;
end-to-end timings of the fixed suites come from ``perfbench/``).  Shape
checked here:

- ``verify`` (a one-job scheduler run) and ``sequential_reference`` (the
  paper's stack loop) agree on every problem both decide;
- the engine's work-item throughput (PGD + analyze calls per second)
  beats the reference's on the same budget — the honest
  ratio on budget-bounded runs, since timed-out problems burn identical
  wall-clock in both engines by construction;
- the fixed-workload batched kernels beat their per-region loops outright;
- DeepPoly back-substitution over each region's live ReLU units beats the
  dense rewrite it replaced by >= 1.5x on a deep MLP, at margins within
  1e-9 and identical verdicts;
- DeepPoly's one-sided ReLU pass beats bounding every unit from both
  sides by >= 1.3x on the same MLP, at margins within 1e-9 and identical
  verdicts.
"""

import time

import numpy as np
from conftest import TIMEOUT, load_problems, one_shot

from repro.abstract.analyzer import analyze, analyze_batch_multi
from repro.abstract.deeppoly import (
    DeepPolyBatch,
    _DiagBounds,
    _relu_relaxation,
    _split_signs,
)
from repro.abstract.domains import DEEPPOLY
from repro.attack.objective import MarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize, pgd_minimize_batch
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.verifier import sequential_reference, verify
from repro.nn.builders import mlp
from repro.utils.boxes import Box

NETWORKS = ("mnist_3x100", "mnist_6x100")


def _run_engine(decide, problems, networks, policy, config):
    outcomes = []
    calls = 0
    start = time.perf_counter()
    for problem in problems:
        outcome = decide(
            networks[problem.network_name], problem.prop, policy, config,
            rng=0,
        )
        outcomes.append(outcome.kind)
        calls += outcome.stats.pgd_calls + outcome.stats.analyze_calls
    return outcomes, calls, time.perf_counter() - start


def test_batched_engine_throughput(benchmark):
    networks, problems = load_problems(NETWORKS)
    policy = BisectionPolicy(domain=DEEPPOLY)
    config = VerifierConfig(timeout=TIMEOUT)

    def run():
        seq = _run_engine(
            sequential_reference, problems, networks, policy, config
        )
        bat = _run_engine(verify, problems, networks, policy, config)
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
            analyze_batch_multi(
                network, regions, [label] * len(regions), DEEPPOLY
            )
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


def _two_sided_relu(self):
    """Every unit bounded from both sides: the ReLU transformer the
    one-sided pass replaced."""
    low, high = self.bounds()
    return self._extended(_DiagBounds(*_relu_relaxation(low, high)))


def _live_units_case():
    net = mlp(64, [200] * 9, 10, rng=0)
    rng = np.random.default_rng(7)
    regions = [
        Box.from_center_radius(rng.uniform(0.3, 0.7, 64), 5e-4)
        for _ in range(8)
    ]
    return net, regions


def _race(benchmark, net, regions, name, slow_impl):
    """Best of three alternating timings of ``analyze_batch_multi`` as is
    and with ``DeepPolyBatch.<name>`` replaced by ``slow_impl``; the two
    legs must agree on verdicts and on margins within 1e-9."""
    labels = [1] * len(regions)

    def timed():
        start = time.perf_counter()
        results = analyze_batch_multi(net, regions, labels, DEEPPOLY)
        return results, time.perf_counter() - start

    def run():
        timed()  # warm caches outside the comparison
        fast_s, slow_s = float("inf"), float("inf")
        for _ in range(3):
            fast, seconds = timed()
            fast_s = min(fast_s, seconds)
            saved = getattr(DeepPolyBatch, name)
            setattr(DeepPolyBatch, name, slow_impl)
            try:
                slow, seconds = timed()
            finally:
                setattr(DeepPolyBatch, name, saved)
            slow_s = min(slow_s, seconds)
        return fast, slow, fast_s, slow_s

    fast, slow, fast_s, slow_s = one_shot(benchmark, run)
    assert [r.verified for r in fast] == [r.verified for r in slow]
    for got, want in zip(fast, slow):
        assert abs(got.margin_lower_bound - want.margin_lower_bound) < 1e-9
    return fast_s, slow_s


def test_deeppoly_live_units_contract(benchmark, monkeypatch):
    """Back-substitution over each region's live ReLU units: >= 1.5x the
    dense rewrite on a 9x200 MLP (about half of each layer is dead per
    region at this radius), margins within 1e-9, identical verdicts.
    Both legs bound every ReLU unit from both sides, so the ratio is the
    live-unit rewrite's alone."""
    net, regions = _live_units_case()
    monkeypatch.setattr(DeepPolyBatch, "relu", _two_sided_relu)
    live_s, dense_s = _race(
        benchmark, net, regions, "_bound_expr", _dense_bound_expr
    )
    print()
    print(
        f"deeppoly live-unit rewrite: dense {dense_s * 1e3:.0f}ms, "
        f"live {live_s * 1e3:.0f}ms ({dense_s / live_s:.2f}x)"
    )
    assert dense_s >= 1.5 * live_s


def test_deeppoly_one_sided_contract(benchmark):
    """The one-sided ReLU pass: >= 1.3x bounding every unit from both
    sides on the live-unit contract's MLP, where almost every unit is
    settled by the side its region center predicts; margins within
    1e-9, identical verdicts."""
    net, regions = _live_units_case()
    one_s, two_s = _race(benchmark, net, regions, "relu", _two_sided_relu)
    print()
    print(
        f"deeppoly one-sided relu: two-sided {two_s * 1e3:.0f}ms, "
        f"one-sided {one_s * 1e3:.0f}ms ({two_s / one_s:.2f}x)"
    )
    assert two_s >= 1.3 * one_s
