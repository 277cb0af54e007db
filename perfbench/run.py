"""The repository benchmark: four verification workloads, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig06-deeppoly --seed 1 --seconds 12 --trace 0

One invocation generates the workload's inputs from ``--seed`` (networks
and a job list, see ``inputs.py``), computes the reference verdicts on the
plain path, times set-up in fresh interpreters, then measures the workload
in a fresh interpreter for ``--seconds`` seconds, checking every verdict.
It prints each metric with its unit and, as the last line, one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a separate traced run with ``--trace 1``.  It exits 1 when any verdict
or witness is wrong.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread before numpy loads anywhere:
#: default threading on a busy core more than doubles the DeepPoly leg.
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up probes per invocation.  With the measuring child's own set-up
#: they give the samples whose median is ``setup_s``.
SETUP_PROBES = 3

#: Longest a measuring child may take before the run is abandoned.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
}


def code_digest() -> str:
    """Content digest of the program, so a reference is never reused
    across versions of it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def measure(workload, directory, seconds, trace, reference, env) -> dict:
    out = directory / f"measure-{int(trace)}.json"
    child(
        ["measure", str(directory), workload, str(seconds), str(int(trace)),
         str(reference), str(out)],
        env,
    )
    return json.loads(out.read_text())


def host_info(workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = "numpy64"
    if workload == "netabs-screen":
        backend = "numpy32 screen, numpy64 escalation"
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in PINS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": backend,
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few small jobs (self-tests)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import inputs

    if args.workload not in inputs.GENERATORS:
        parser.error(f"unknown workload; choose from {sorted(inputs.GENERATORS)}")
    # Temporary files (the process executor's network spill directory)
    # stay inside the checkout too.
    scratch = HERE / "work" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))
    for var in ("REPRO_BACKEND", "REPRO_PRECISION_ESCALATION", "REPRO_SHM_THRESHOLD"):
        env.pop(var, None)
        os.environ.pop(var, None)

    directory = HERE / "work" / args.workload / (
        f"tiny-s{args.seed}" if args.tiny else f"s{args.seed}"
    )
    inputs.generate(args.workload, args.seed, directory, tiny=args.tiny)
    # Computed by the first measuring child, once per program version.
    reference = directory / f"reference-{code_digest()}.json"
    setups = [
        json.loads(child(["setup", str(directory)], env).stdout.splitlines()[-1])[
            "setup_s"
        ]
        for _ in range(SETUP_PROBES)
    ]
    plain = measure(args.workload, directory, args.seconds, False, reference, env)
    runs = [plain]
    setups.append(plain["setup_s"])
    if args.trace:
        traced = measure(args.workload, directory, args.seconds, True, reference, env)
        runs.append(traced)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    solved = plain["solved"]
    wall = median(plain["walls"])
    print(f"host: {json.dumps(host_info(args.workload))}")
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{len(plain['walls'])} timed runs, {attempted} job attempts"
    )
    end_to_end = {
        "wall_s": wall,
        "setup_s": median(setups),
        "peak_rss_mb": median(plain["peaks"]),
        "solved_frac": solved / plain["attempted"],
    }
    notes = {
        "wall_s": f"median, {spread(plain['walls'])}",
        "setup_s": f"median, {spread(setups)}",
        "peak_rss_mb": f"median, {spread(plain['peaks'])}, workers included",
        "solved_frac": f"{solved}/{plain['attempted']} verified or falsified",
    }
    for name, value in end_to_end.items():
        unit = END_TO_END_UNITS[name]
        print(f"  {name:12s} {value:10.4f} {unit:5s}  {notes[name]}")
    print(
        f"  failed_frac  {failed / attempted:10.4f} ratio  "
        f"{failed}/{attempted} wrong, crashed or out of budget"
    )
    if args.trace:
        from tracing import median_metrics, unit_of

        metrics = median_metrics(traced["layers"])
        traced_wall = median(traced["walls"])
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
        print(f"  spans: {directory / 'spans.json'}")
        result = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        }
    else:
        result = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
