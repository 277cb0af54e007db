"""The traced run: spans around calls into each layer, and the per-layer
metrics derived from them.

:func:`install` swaps timed wrappers in for the public functions the
scheduler calls.  Every wrapper is built with ``functools.wraps``: the
process executor's ``marshal_call`` finds kernels by ``__module__`` and
``__qualname__``, so a wrapper must keep the original's names for a
submitted kernel still to cross into a worker as a descriptor.  Under the
process executor the worker runs the original, so kernel time is taken at
the executor boundary, from submit to result.

Spans stay in memory as tuples ``(name, start, end, sync, rows, extra)``
and are written out once, after the run.  ``sync`` spans ran on the
scheduler thread; they are the children subtracted from ``Scheduler.run``
to get the scheduler's self time.  Asynchronous spans (process-executor
calls) overlap the scheduler's own work and are not subtracted.
"""

from __future__ import annotations

import functools
import resource
import time
from statistics import median

# (owner module, attribute, span name) of the kernels the scheduler holds.
_KERNELS = (
    ("repro.sched.scheduler", "pgd_minimize_batch", "attack.pgd"),
    ("repro.sched.scheduler", "analyze_batch_multi", "abstract.analyze"),
    ("repro.sched.scheduler", "analyze_batch_checkpointed", "abstract.analyze"),
)
_REFINE = (
    ("repro.sched.scheduler", "choose_domains"),
    ("repro.sched.scheduler", "refine_unverified"),
)
_DIGESTS = (
    ("repro.sched.scheduler", "network_digest"),
    ("repro.sched.scheduler", "layer_digests"),
    ("repro.sched.cache", "network_digest"),
    ("repro.exec.calls", "network_digest"),
    ("repro.nn.serialize", "layer_digests"),
)


def _verified_rows(name: str, value) -> int:
    if name != "abstract.analyze":
        return 0
    if isinstance(value, tuple):  # checkpointed: (analyses, captured)
        value = value[0]
    return sum(1 for result in value if result.verified)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._patches: list[tuple] = []
        self._digest_depth = 0

    def add(self, name, start, end, sync=True, rows=0, extra=0) -> None:
        self.spans.append((name, start, end, sync, rows, extra))

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, fn, rows=None, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            self.add(
                name,
                start,
                time.perf_counter(),
                rows=rows(args) if rows else 0,
                extra=extra(value) if extra else 0,
            )
            return value

        return wrapper

    def kernel(self, name: str, fn):
        wrapper = self.timed(
            name,
            fn,
            rows=lambda args: len(args[1]),
            extra=lambda value: _verified_rows(name, value),
        )
        wrapper._perfbench_kernel = name
        return wrapper

    def digest(self, fn):
        """Digest calls nest (a chain computes the whole-network link), so
        only the outermost one is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._digest_depth:
                return fn(*args, **kwargs)
            self._digest_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._digest_depth -= 1
                self.add("nn.digest", start, time.perf_counter())

        return wrapper

    def process_submit(self, submit):
        """``ProcessExecutor.submit``: submit time, the call's extent to
        completion, and the scheduler's wait in ``result()``."""
        recorder = self

        @functools.wraps(submit)
        def wrapper(executor, fn, *args, **kwargs):
            start = time.perf_counter()
            future = submit(executor, fn, *args, **kwargs)
            recorder.add("exec.submit", start, time.perf_counter())
            name = getattr(fn, "_perfbench_kernel", "exec.call")
            rows = len(args[1]) if name != "exec.call" else 0
            result = future.result

            def done(finished):
                end = time.perf_counter()
                verified = 0
                if not finished.cancelled() and finished.exception() is None:
                    verified = _verified_rows(name, result())
                recorder.add(name, start, end, False, rows, verified)

            future.add_done_callback(done)

            def timed_result(timeout=None):
                waited = time.perf_counter()
                try:
                    return result(timeout)
                finally:
                    recorder.add("exec.blocked", waited, time.perf_counter())

            future.result = timed_result
            return future

        return wrapper

    # -- install --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        from repro.abstract.netabs import NetworkAbstraction
        from repro.exec.executor import ProcessExecutor
        from repro.sched.cache import ResultCache
        from repro.sched.scheduler import Scheduler

        for module, attr, name in _KERNELS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.kernel(name, getattr(owner, attr)))
        for module, attr in _REFINE:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.timed("core.refine", getattr(owner, attr)))
        for module, attr in _DIGESTS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.digest(getattr(owner, attr)))
        scheduler = importlib.import_module("repro.sched.scheduler")
        self._patch(
            scheduler,
            "abstraction_for",
            self.timed("abstract.netabs.construct", scheduler.abstraction_for),
        )
        hit = lambda value: int(value is not None)  # noqa: E731
        for attr, name, extra in (
            ("get", "sched.cache.get", hit),
            ("put", "sched.cache.put", None),
            ("get_prefix", "sched.cache.prefix_get", hit),
            ("put_prefix", "sched.cache.prefix_put", None),
        ):
            self._patch(
                ResultCache, attr,
                self.timed(name, getattr(ResultCache, attr), extra=extra),
            )
        self._patch(
            NetworkAbstraction,
            "build",
            self.timed("abstract.netabs.build", NetworkAbstraction.build),
        )
        self._patch(Scheduler, "run", self.timed("sched.run", Scheduler.run))
        self._patch(
            ProcessExecutor, "submit", self.process_submit(ProcessExecutor.submit)
        )
        self._patch(
            ProcessExecutor,
            "shutdown",
            self.timed("exec.shutdown", ProcessExecutor.shutdown),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def children_cpu_s() -> float:
    """CPU seconds of every ended child process (executor workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list[tuple], reports: list, worker_cpu_s: float) -> dict:
    """Per-layer metrics of one run from its spans and phase reports.

    ``reports`` are the run's ``ScheduleReport``s; their ``metrics`` carry
    the program's exact counters (rows, hits, layers skipped...).
    """
    def total(name):
        return sum(end - start for n, start, end, *_ in spans if n == name)

    def calls(name):
        return sum(1 for n, *_ in spans if n == name)

    def summed(name, field):
        return sum(span[field] for span in spans if span[0] == name)

    def counter(name):
        return sum(report.metrics.get(name, 0) for report in reports)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    self_s, first_result = 0.0, 0.0
    for name, start, end, *_ in spans:
        if name != "sched.run":
            continue
        inside = [
            (s, e) for n, s, e, sync, *_ in spans
            if sync and n != "sched.run" and start <= s and e <= end
        ]
        self_s += (end - start) - _covered(inside)
    runs = sorted(s for n, s, *_ in spans if n == "sched.run")
    if runs:
        ends = [e for _, s, e, sync, *_ in spans if not sync and runs[0] <= s]
        first_result = min(ends) - runs[0] if ends else 0.0
    async_calls = [span for span in spans if not span[3]]
    prefix_probes = counter("sched.prefix.hits") + counter("sched.prefix.misses")
    netabs_jobs = sum(
        len(report.results) for report in reports if report.abstraction != "off"
    )
    escalation_jobs = sum(
        len(report.results) for report in reports if report.escalation
    )
    return {
        "abstract.analyze_s": total("abstract.analyze"),
        "abstract.analyze_calls": calls("abstract.analyze"),
        "abstract.analyze_rows": summed("abstract.analyze", 4),
        "abstract.verified_row_ratio": ratio(
            summed("abstract.analyze", 5), summed("abstract.analyze", 4)
        ),
        "attack.pgd_s": total("attack.pgd"),
        "attack.pgd_calls": calls("attack.pgd"),
        "attack.pgd_rows": summed("attack.pgd", 4),
        "core.refine_s": total("core.refine"),
        "sched.self_s": self_s,
        "sched.rounds": counter("sched.rounds"),
        "sched.swept_rows": sum(report.swept_items for report in reports),
        "exec.submit_s": total("exec.submit"),
        "exec.call_s": sum(end - start for _, start, end, *_ in async_calls),
        "exec.blocked_s": total("exec.blocked"),
        "exec.first_result_s": first_result,
        "exec.shutdown_s": total("exec.shutdown"),
        "exec.worker_cpu_s": worker_cpu_s,
        "sched.cache.get_s": total("sched.cache.get"),
        "sched.cache.put_s": total("sched.cache.put"),
        "sched.cache.hit_ratio": ratio(
            summed("sched.cache.get", 5), calls("sched.cache.get")
        ),
        "sched.cache.prefix_get_s": total("sched.cache.prefix_get"),
        "sched.cache.prefix_put_s": total("sched.cache.prefix_put"),
        "sched.cache.prefix_hit_ratio": ratio(
            counter("sched.prefix.hits"), prefix_probes
        ),
        "sched.cache.read_bytes": counter("cache.read_bytes"),
        "sched.cache.write_bytes": counter("cache.write_bytes"),
        "sched.cache.layers_skipped": counter("sched.prefix.layers_skipped"),
        "abstract.netabs.construct_s": total("abstract.netabs.construct"),
        "abstract.netabs.build_s": total("abstract.netabs.build"),
        "abstract.netabs.accept_ratio": ratio(
            sum(report.netabs_accepted for report in reports), netabs_jobs
        ),
        "abstract.netabs.refinements": sum(
            report.netabs_rounds for report in reports
        ),
        "backend.screen_rows": counter("kernel.by_backend.numpy32.analyze_rows"),
        "backend.escalated_ratio": ratio(
            sum(report.escalated for report in reports), escalation_jobs
        ),
        "nn.load_s": total("nn.load"),
        "nn.digest_s": total("nn.digest"),
    }


#: Units of :func:`layer_metrics`' keys, by suffix.
def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def median_metrics(runs: list[dict]) -> dict:
    """Each metric's median over the timed runs."""
    return {name: median(run[name] for run in runs) for name in runs[0]}
