"""Batched zonotope/powerset engine contract on the fig06 workload.

Not a paper figure: this bench pins the performance and exactness
contract of the ``ZonotopeBatch`` / ``PowersetBatch`` kernels — the
paper's headline domain made a first-class batched engine (see
``repro.abstract.zonotope_batch``).  Shape checked here:

- the batched kernels are **bitwise identical** to the per-region
  sequential elements on a fixed frontier workload, and strictly faster;
- the engine (``verify``, a one-job scheduler run) beats
  ``sequential_reference``'s work-item throughput by >= 1.5x on the
  fig06 powerset workload (the learned policy, which
  mostly selects bounded zonotope powersets — the ROADMAP's "part 2"
  gap this PR closes);
- the fused sign-split dense rewrite in `DeepPolyBatch` (one
  (B, rows, 2n) GEMM against a relation stack built at layer
  construction) never loses to the unfused two-GEMM rewrite it replaced
  on a wider-input maxpool workload;
- the fused split+join contraction (``repro.abstract.fused``) beats the
  pre-fusion kernel structure by >= 1.4x on a powerset-frontier-shaped
  workload at bitwise-equal results, and its steady state neither
  allocates scratch nor re-introduces per-branch ``(S, k, n)``
  temporaries (the structural pass-counting guard).
"""

import time
import tracemalloc

import numpy as np
from conftest import TIMEOUT, load_problems, one_shot

from repro.abstract import fused
from repro.abstract.analyzer import analyze_batch_multi, propagate
from repro.abstract.deeppoly import DeepPolyBatch, _DiagBounds, _split_signs
from repro.abstract.domains import DEEPPOLY, ZONOTOPE, bounded_zonotopes
from repro.bench.fusedref import prefused_stacked_relu, promotion_stack
from repro.core.config import VerifierConfig
from repro.core.verifier import sequential_reference, verify
from repro.learn.pretrained import pretrained_policy
from repro.nn.builders import lenet_conv
from repro.utils.boxes import Box

NETWORKS = ("mnist_3x100",)


def test_powerset_workload_throughput(benchmark):
    """The acceptance contract: >= 1.5x engine throughput with the
    pretrained (powerset-heavy) policy on a fig06 network."""
    networks, problems = load_problems(NETWORKS)
    policy = pretrained_policy()
    config = VerifierConfig(timeout=TIMEOUT)

    def run_engine(decide):
        kinds = []
        calls = 0
        start = time.perf_counter()
        for problem in problems:
            outcome = decide(
                networks[problem.network_name], problem.prop, policy, config,
                rng=0,
            )
            kinds.append(outcome.kind)
            calls += outcome.stats.pgd_calls + outcome.stats.analyze_calls
        return kinds, calls, time.perf_counter() - start

    (seq_kinds, seq_calls, seq_s), (bat_kinds, bat_calls, bat_s) = one_shot(
        benchmark,
        lambda: (run_engine(sequential_reference), run_engine(verify)),
    )

    decided = [
        (a, b) for a, b in zip(seq_kinds, bat_kinds) if "timeout" not in (a, b)
    ]
    ratio = (bat_calls / bat_s) / (seq_calls / seq_s)
    print()
    print(
        f"powerset workload: sequential {seq_calls / seq_s:.0f}/s, "
        f"batched {bat_calls / bat_s:.0f}/s -> {ratio:.2f}x "
        f"({len(decided)}/{len(problems)} decided in both)"
    )
    # Decided problems agree (same decision procedure, batched shape).
    assert all(a == b for a, b in decided)
    # The contract floor (full baseline shows ~2x; conservative for CI).
    assert ratio >= 1.5


def test_batched_kernels_exact_and_faster(benchmark):
    """Fixed frontier workload: bitwise equality and an outright win."""
    networks, problems = load_problems(NETWORKS, count=4)
    workload = []
    for problem in problems:
        regions = [problem.prop.region]
        while len(regions) < 16:
            regions = [half for r in regions for half in r.bisect()]
        workload.append(
            (networks[problem.network_name], problem.prop.label, regions)
        )

    def run():
        times = {}
        for domain_name, domain in (
            ("zonotope", ZONOTOPE),
            ("powerset", bounded_zonotopes(2)),
        ):
            start = time.perf_counter()
            # The loop side is each region's sequential twin.
            singles = [
                [
                    propagate(net.ops(), domain.lift(region)).min_margin(label)
                    for region in regions
                ]
                for net, label, regions in workload
            ]
            loop_s = time.perf_counter() - start
            start = time.perf_counter()
            batches = [
                analyze_batch_multi(
                    net, regions, [label] * len(regions), domain
                )
                for net, label, regions in workload
            ]
            batch_s = time.perf_counter() - start
            times[domain_name] = (loop_s, batch_s, singles, batches)
        return times

    times = one_shot(benchmark, run)
    print()
    for domain_name, (loop_s, batch_s, singles, batches) in times.items():
        print(
            f"{domain_name} kernel: loop {loop_s:.2f}s, batched {batch_s:.2f}s "
            f"({loop_s / batch_s:.1f}x)"
        )
        for per_loop, per_batch in zip(singles, batches):
            for single, batched in zip(per_loop, per_batch):
                # Bitwise: the kernels are batch-height-stable.
                assert batched.margin_lower_bound == single
        assert batch_s < loop_s  # batching must never lose on a frontier


def _unfused_bound_expr(self, a, lower):
    """The pre-fusion dense rewrite (two half-width GEMMs plus adds),
    kept verbatim as the reference the fused path is measured against."""
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
        elif layer.al.ndim == 3:
            a = _promote(a)
            pos, neg = _split_signs(a)
            if lower:
                b = b + _dot_rows(pos, layer.bl) + _dot_rows(neg, layer.bu)
                a = pos @ layer.al + neg @ layer.au
            else:
                b = b + _dot_rows(pos, layer.bu) + _dot_rows(neg, layer.bl)
                a = pos @ layer.au + neg @ layer.al
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


def test_fused_dense_backsub_wider_inputs(benchmark):
    """The DeepPoly sign-split fusion satellite: rewrites through dense
    maxpool relations run as one (B, rows, 2n) GEMM against a relation
    stack built once at layer construction."""
    net = lenet_conv(input_shape=(1, 12, 12), num_classes=10, rng=1)
    rng = np.random.default_rng(0)
    regions = [
        Box.from_center_radius(rng.uniform(0.3, 0.7, net.input_size), 0.03)
        for _ in range(6)
    ]
    fused_impl = DeepPolyBatch._bound_expr

    def run_once():
        return analyze_batch_multi(
            net, regions, [1] * len(regions), DEEPPOLY
        )

    def run():
        run_once()  # warm caches outside the comparison
        fused_s, unfused_s = 9e9, 9e9
        for _ in range(2):
            start = time.perf_counter()
            fused_results = run_once()
            fused_s = min(fused_s, time.perf_counter() - start)
            DeepPolyBatch._bound_expr = _unfused_bound_expr
            try:
                start = time.perf_counter()
                unfused_results = run_once()
                unfused_s = min(unfused_s, time.perf_counter() - start)
            finally:
                DeepPolyBatch._bound_expr = fused_impl
        return fused_results, unfused_results, fused_s, unfused_s

    fused_results, unfused_results, fused_s, unfused_s = one_shot(
        benchmark, run
    )
    for got, want in zip(fused_results, unfused_results):
        # Same bound up to the reassociated reduction's round-off.
        assert abs(got.margin_lower_bound - want.margin_lower_bound) < 1e-9
    print()
    print(
        f"wider-input dense back-substitution: unfused {unfused_s:.3f}s, "
        f"fused {fused_s:.3f}s ({unfused_s / fused_s:.2f}x)"
    )
    # Fusing must not lose (the GEMM flops are identical; the win is the
    # saved add pass and kernel launches).  The expected edge is a few
    # percent, so the guard is deliberately loose: it exists to catch a
    # structural regression (e.g. re-stacking relations per rewrite,
    # which measured ~2x slower), not to flake on noisy shared runners.
    assert fused_s <= unfused_s * 1.35


# One powerset-frontier-sized stacked-ReLU workload shared by the fused
# throughput floor and the structural guard: 48 disjunct rows, 160 noise
# symbols of which ~45% are promotion-dead (see promotion_stack), 96
# dims.  Measured locally: the pre-fusion kernel runs ~1.16x slower on a
# fully dense stack (pure fusion win) and ~2x slower here, where
# compaction also skips the dead rows every round.
_FUSED_WORKLOAD = dict(seed=11, rows=48, k=160, n=96, dead_rows=0.45)


def test_fused_relu_kernel_throughput(benchmark):
    """The tentpole contract: the fused split+join contraction is
    >= 1.4x the pre-fusion kernel at **bitwise-equal** results on the
    powerset-heavy workload."""
    args = promotion_stack(**_FUSED_WORKLOAD)

    # Bitwise pin first: identical (center, gens, err) triples.  The
    # reference runs without compaction (it has none); equality across
    # that divide is exactly the compaction invariant.
    fused.reset_counters()
    got = fused.stacked_relu(*args)
    want = prefused_stacked_relu(*args)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert fused.FUSED_COUNTERS["compacted_rows"] > 0, (
        "workload must engage compaction for the measured ratio to "
        "reflect the shipped configuration"
    )

    def best_of(fn, rounds=3):
        fn(*args)  # warm (arena allocation, first-touch paging)
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        return best_of(prefused_stacked_relu), best_of(fused.stacked_relu)

    prefused_s, fused_s = one_shot(benchmark, run)
    ratio = prefused_s / fused_s
    print()
    print(
        f"fused split+join contraction: pre-fusion {prefused_s * 1e3:.0f}ms, "
        f"fused {fused_s * 1e3:.0f}ms ({ratio:.2f}x)"
    )
    assert ratio >= 1.4


def test_fused_kernel_structural_guard(benchmark):
    """Pass-counting guard: a future edit that re-introduces per-branch
    temporaries (or per-round scratch allocation) fails structurally,
    not just slowly.

    Two instruments: the arena counters must show zero allocations in
    the steady state (every scratch request served by reuse), and
    tracemalloc must see less than one ``(S, k, n)`` tensor of fresh
    allocation inside a steady-state fused round — a single rematerialized
    branch tensor (let alone the pre-fusion dozen) trips the bound.
    """
    centers, gens, errs, skips = promotion_stack(**_FUSED_WORKLOAD)
    rows = np.arange(centers.shape[0])
    # One representative contraction round: every row splits on its
    # widest crossing dim (promotion_stack centers straddle zero).
    radius = np.abs(gens).sum(axis=1) + errs
    dims = np.argmax(
        np.where((centers - radius < 0) & (centers + radius > 0), radius, -1),
        axis=1,
    )

    def steady_state_round():
        return fused.fused_split_join(centers, gens, errs, rows, dims)

    def run():
        steady_state_round()  # warm the thread's arena
        fused.reset_counters()
        steady_state_round()
        counters = dict(fused.FUSED_COUNTERS)
        tracemalloc.start()
        steady_state_round()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return counters, peak

    counters, peak = one_shot(benchmark, run)
    print()
    print(f"steady-state fused round: {counters}, tracemalloc peak {peak}B")
    assert counters["calls"] == 1
    assert counters["arena_allocs"] == 0, (
        "steady-state fused rounds must serve every scratch request from "
        "the arena; an allocation here means a buffer was dropped"
    )
    assert counters["arena_reuses"] > 0
    branch_tensor_bytes = rows.size * gens.shape[1] * gens.shape[2] * 8
    assert peak < branch_tensor_bytes, (
        f"a steady-state fused round allocated {peak}B (>= one "
        f"{rows.size}x{gens.shape[1]}x{gens.shape[2]} branch tensor of "
        f"{branch_tensor_bytes}B): per-branch temporaries are back"
    )
