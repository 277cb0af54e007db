"""One child process of the benchmark: a set-up probe or a measured run.

Each runs in a fresh interpreter so that set-up pays the real import cost
and peak memory covers this run's processes only.  ``run.py`` starts them;
by hand::

    python3 perfbench/child.py setup DIR
    python3 perfbench/child.py measure DIR WORKLOAD SECONDS TRACE REFERENCE OUT

Spawned executor workers re-import this module as ``__mp_main__``, so
nothing below runs at import time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import workloads

#: Timed runs per measurement at the least, however long they take.
MIN_RUNS = 3


def _setup(directory: Path) -> float:
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    workloads.load(directory)
    return time.perf_counter() - start


class Checker:
    """Checks every verdict of a run against the reference, and every
    FALSIFIED witness against the benchmark's own float64 model."""

    def __init__(self, directory: Path, reference: list[str]):
        import numpy as np

        from inputs import Mlp

        listing = json.loads((directory / "jobs.json").read_text())
        self.reference = reference
        self.networks = [spec["network"] for spec in listing["jobs"]]
        self.models = {
            name: Mlp.load(directory / path)
            for name, path in listing["networks"].items()
        }
        with np.load(directory / "regions.npz") as regions:
            self.boxes = [
                (regions[f"low_{i}"], regions[f"high_{i}"])
                for i in range(len(listing["jobs"]))
            ]

    def witness_ok(self, index: int, result) -> bool:
        import numpy as np

        x = np.asarray(result.outcome.counterexample, dtype=np.float64)
        low, high = self.boxes[index]
        if x.shape != low.shape or np.any(x < low) or np.any(x > high):
            return False
        margin = self.models[self.networks[index]].margins(
            x[None], np.array([result.job.prop.label])
        )[0]
        return margin <= result.job.config.delta

    def failures(self, attempts) -> int:
        failed = 0
        for position, (index, result) in enumerate(attempts):
            kind = result.outcome.kind
            if kind != self.reference[position]:
                failed += 1
            elif kind == "timeout" and result.outcome.reason == "wall clock":
                failed += 1
            elif kind == "falsified" and not self.witness_ok(index, result):
                failed += 1
        return failed


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_kb(pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0  # a kernel thread or a process already gone


def _children_peak_rss_kb() -> int:
    """Summed peak RSS of this process's live children (executor workers)."""
    own = str(os.getpid())
    total = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, ...
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]
            if ppid == own:
                total += _peak_rss_kb(stat.parent.name)
        except (OSError, IndexError):
            continue  # exited while scanning
    return total


class WorkerPeaks:
    """Samples the workers' peak RSS as each process executor shuts down
    (the workers exit with it)."""

    def __init__(self) -> None:
        self.kb = 0

    def install(self) -> None:
        from repro.exec.executor import ProcessExecutor

        shutdown = ProcessExecutor.shutdown
        peaks = self

        @functools.wraps(shutdown)
        def sampled(executor, *args, **kwargs):
            peaks.kb = max(peaks.kb, _children_peak_rss_kb())
            return shutdown(executor, *args, **kwargs)

        ProcessExecutor.shutdown = sampled


def _reference(directory: Path, path: Path) -> list[str]:
    """The plain path's verdict per job attempt, computed once per program
    version.  Computing it also warms BLAS, lazy imports and allocators
    before the timed runs."""
    if not path.exists():
        loaded = workloads.load(directory)
        attempts, _ = workloads.run(loaded, workloads.PLAIN, directory / "cache")
        path.write_text(json.dumps({"verdicts": workloads.verdicts(attempts)}))
    return json.loads(path.read_text())["verdicts"]


def _measure(args: list[str]) -> dict:
    directory, workload = Path(args[0]), args[1]
    seconds, trace = float(args[2]), args[3] == "1"
    setup_s = _setup(directory)
    reference = _reference(directory, Path(args[4]))

    from tracing import Recorder, children_cpu_s, layer_metrics

    checker = Checker(directory, reference)
    options = workloads.OPTIONS[workload]
    recorder = Recorder() if trace else None
    loader = None
    if recorder is not None:
        from repro.nn.serialize import load_network

        recorder.install()
        loader = recorder.timed("nn.load", load_network)

    totals = {"attempted": 0, "failed": 0, "solved": 0}
    walls, peaks, layers, spans = [], [], [], []
    workers = WorkerPeaks()
    workers.install()
    runs, measured = 0, 0.0
    while runs < MIN_RUNS or measured < seconds:
        runs += 1
        loaded = workloads.load(directory, load_network=loader)
        cpu = children_cpu_s()
        _reset_peak_rss()
        workers.kb = 0
        start = time.perf_counter()
        try:
            attempts, reports = workloads.run(
                loaded, options, directory / "cache"
            )
        except Exception:  # noqa: BLE001 - a crashing run fails its jobs
            traceback.print_exc()
            jobs = sum(len(phase) for phase in loaded.phases)
            totals["attempted"] += jobs
            totals["failed"] += jobs
            measured += time.perf_counter() - start
            continue
        finally:
            run_spans = recorder.take() if recorder is not None else []
        wall = time.perf_counter() - start
        worker_cpu = children_cpu_s() - cpu
        peaks.append((_peak_rss_kb() + workers.kb) / 1024.0)
        totals["attempted"] += len(attempts)
        totals["failed"] += checker.failures(attempts)
        totals["solved"] += sum(
            result.outcome.kind != "timeout" for _, result in attempts
        )
        walls.append(wall)
        measured += wall
        if recorder is not None:
            spans.append(run_spans)
            layers.append(layer_metrics(run_spans, reports, worker_cpu))
    if recorder is not None:
        recorder.uninstall()
        (directory / "spans.json").write_text(
            json.dumps(
                [
                    [
                        {"name": n, "start": s, "end": e, "sync": y,
                         "rows": r, "extra": x}
                        for n, s, e, y, r, x in run
                    ]
                    for run in spans
                ]
            )
        )
    return {
        "setup_s": setup_s,
        "walls": walls,
        "peaks": peaks,
        "layers": layers,
        **totals,
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[1], argv[2:]
    if mode == "setup":
        result = {"setup_s": _setup(Path(rest[0]))}
        print(json.dumps(result))
        return 0
    result = _measure(rest[:5])
    Path(rest[5]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
