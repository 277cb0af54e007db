"""Mixed-precision backend contract: numpy32 makes the hot kernels pay
GEMM/bandwidth prices, not promotion prices.

Not a paper figure: this bench pins the perf contract of the pluggable
array-backend layer (``repro.backend``).  The float32 backend exists to
screen jobs cheaply under precision escalation, so it must actually be
fast where the work is:

- the batched zonotope propagation (``ZonotopeBatch`` + the fused
  split+join contraction) runs >= 1.6x faster under ``numpy32`` than the
  ``numpy64`` reference on a refinement-frontier-shaped workload;
- DeepPoly back-substitution (the stacked-GEMM rewrite chain in
  ``DeepPolyBatch``) runs >= 1.6x faster under ``numpy32``;
- both at **identical per-region decisions**; the DeepPoly leg also
  asserts every float32 margin bound stays below its float64 reference
  (the outward-rounding containment the backend's soundness argument
  rests on — the zonotope leg's split heuristic makes discrete choices
  from float32 bounds, so only its decisions are comparable).

The workloads are sized so the measured ratio reflects the shipped
regime: wide-enough layers that BLAS dominates, small-enough radii that
the generator stacks stay frontier-shaped.  ``perfbench``'s
``netabs-screen`` workload times the float32 screen end to end.
"""

import time

import numpy as np
from conftest import one_shot

from repro.abstract.analyzer import analyze_batch
from repro.abstract.domains import DEEPPOLY, ZONOTOPE
from repro.backend import use_backend
from repro.nn.builders import mlp
from repro.utils.boxes import Box

#: Containment tolerance for comparing float32 margins against float64.
_TOL = 1e-9


def _workload(n_in, hidden, batch, radius, seed=3):
    net = mlp(n_in, hidden, 10, rng=seed)
    rng = np.random.default_rng(7)
    regions = [
        Box.from_center_radius(rng.uniform(0.3, 0.7, n_in), radius)
        for _ in range(batch)
    ]
    return net, regions


def _run_backends(net, regions, domain, rounds):
    """Best-of-``rounds`` wall clock plus the decisions, per backend."""
    measured = {}
    for name in ("numpy64", "numpy32"):
        with use_backend(name):
            results = analyze_batch(net, regions, 1, domain)  # warm + decide
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                analyze_batch(net, regions, 1, domain)
                best = min(best, time.perf_counter() - start)
        measured[name] = (results, best)
    return measured


def _check_contract(measured, label, floor=1.6, containment=True):
    """``containment=False`` for domains whose refinement heuristics make
    discrete choices from the float32 bounds (the zonotope split+join
    picks crossing dims per round): a divergent split yields a different
    — still sound, sometimes tighter — abstraction, so only the
    per-region decisions are comparable there.  DeepPoly's relaxation is
    elementwise, so its float32 bounds stay below the float64 reference.
    """
    (ref, t64), (scr, t32) = measured["numpy64"], measured["numpy32"]
    ratio = t64 / t32
    print()
    print(
        f"{label}: numpy64 {t64 * 1e3:.0f}ms, numpy32 {t32 * 1e3:.0f}ms "
        f"-> {ratio:.2f}x"
    )
    # Identical per-region decisions: the screen never flips an outcome
    # on this workload (margins sit far from zero by construction).
    assert [r.verified for r in scr] == [r.verified for r in ref]
    if containment:
        for r32, r64 in zip(scr, ref):
            assert r32.margin_lower_bound <= r64.margin_lower_bound + _TOL
    assert ratio >= floor, (
        f"{label}: numpy32 only {ratio:.2f}x vs numpy64 (floor {floor}x)"
    )


def test_zonotope_batch_numpy32_speedup(benchmark):
    """Batched zonotope propagation: >= 1.6x under numpy32."""
    net, regions = _workload(128, [256, 256], batch=48, radius=0.005)
    measured = one_shot(
        benchmark, lambda: _run_backends(net, regions, ZONOTOPE, rounds=1)
    )
    _check_contract(measured, "zonotope batch", containment=False)


def test_deeppoly_backsub_numpy32_speedup(benchmark):
    """DeepPoly back-substitution: >= 1.6x under numpy32."""
    net, regions = _workload(128, [256] * 4, batch=48, radius=0.01)
    measured = one_shot(
        benchmark, lambda: _run_backends(net, regions, DEEPPOLY, rounds=2)
    )
    _check_contract(measured, "deeppoly backsub")
