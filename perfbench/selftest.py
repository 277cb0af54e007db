"""Self-tests of the benchmark, on tiny versions of the four workloads.

Not collected by the repository's test run (the file name does not match
``test_*.py``); run them by path from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Per-layer values that are counts of work, not timings: the same seed
#: must reproduce them exactly.
EXACT = (
    "abstract.analyze_rows",
    "abstract.verified_row_ratio",
    "attack.pgd_rows",
    "sched.swept_rows",
    "sched.cache.hit_ratio",
    "sched.cache.prefix_hit_ratio",
    "sched.cache.layers_skipped",
    "abstract.netabs.accept_ratio",
    "backend.screen_rows",
)


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def units(metrics: list[dict]) -> dict:
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, result = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == units(BENCHMARK["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "solved_frac", "failed_frac"):
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    proc, first = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    got = {name: value["unit"] for name, value in first["metrics"].items()}
    assert got == units(BENCHMARK["per_layer"])
    spans = json.loads(
        (HERE / "work" / workload / "tiny-s1" / "spans.json").read_text()
    )
    assert spans and any(span["name"] == "sched.run" for span in spans[0])
    _, second = bench(workload, trace=1)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_flipped_reference_verdict_fails_the_run():
    bench("fig06-deeppoly", trace=0)
    (reference,) = (HERE / "work" / "fig06-deeppoly" / "tiny-s1").glob(
        "reference-*.json"
    )
    original = reference.read_text()
    verdicts = json.loads(original)["verdicts"]
    verdicts[0] = "falsified" if verdicts[0] != "falsified" else "verified"
    reference.write_text(json.dumps({"verdicts": verdicts}))
    try:
        proc, result = bench("fig06-deeppoly", trace=0)
    finally:
        reference.write_text(original)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work")
    )
    proc, result = bench("fig06-deeppoly", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
