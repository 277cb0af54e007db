"""Process-local metrics registry: counters, gauges, histograms.

One registry per process (:func:`registry`), absorbing the ad-hoc
counters that used to live scattered across the codebase — the fused
zonotope kernels' ``FUSED_COUNTERS``, the scheduler's cache-hit tallies,
the executors' nothing-at-all.  Three instrument kinds:

- **Counters** are monotonically accumulated numbers (int or float —
  phase timers accumulate seconds).  Two access shapes:
  :meth:`MetricsRegistry.inc` for occasional call sites, and **counter
  groups** (:meth:`MetricsRegistry.group`) for hot paths: a group is a
  plain registry-owned dict whose values the owning module increments
  directly (``COUNTERS["calls"] += 1``) with zero locking or call
  overhead — exactly the idiom ``FUSED_COUNTERS`` always used, now
  visible to snapshots under dotted names (``fused.calls``).
- **Gauges** are set/adjusted levels (executor queue depth).
- **Histograms** are count/total/min/max summaries of observed values
  (submit→done latency); no buckets — the trace view carries the
  per-event detail when somebody needs a distribution.

**Cross-process aggregation contract.**  Only *counters* merge across
process boundaries: they are commutative sums, so worker-side deltas
(captured by :func:`repro.exec.calls.run_kernel_call`) can fold into the
parent registry in any completion order and still produce the serial
run's totals — the property the scheduler's serial-vs-process metrics
equality test pins.  Gauges and histograms are process-local by design:
a worker's queue depth or latency histogram describes *that* process and
summing it into the parent would mean nothing.

Thread safety: registry methods lock; group dicts deliberately do not
(single-writer hot paths; Python dict increments of int values are
atomic enough for the read-side snapshot, which only ever feeds
reporting, never control flow).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Histogram", "MetricsRegistry", "registry"]


@dataclass
class Histogram:
    """Streaming count/total/min/max summary of observed values."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class MetricsRegistry:
    """The process-local instrument store.  See the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._groups: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the scalar counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # ``add`` reads better when the value is a measured quantity
    # (seconds, bytes) rather than an event count.
    add = inc

    def group(self, prefix: str, keys: tuple[str, ...]) -> dict[str, float]:
        """The counter-group dict registered under ``prefix``.

        Returns the *same* dict object on every call (module-level
        aliases stay valid forever); missing ``keys`` are added at zero.
        Group values appear in snapshots as ``{prefix}.{key}``.
        """
        with self._lock:
            counters = self._groups.setdefault(prefix, {})
            for key in keys:
                counters.setdefault(key, 0)
            return counters

    def counter_value(self, name: str) -> float:
        """Current value of a counter, dotted group entries included."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            prefix, _, key = name.rpartition(".")
            return self._groups.get(prefix, {}).get(key, 0)

    def counters_snapshot(self) -> dict[str, float]:
        """Every counter (scalar and group) flattened to dotted names."""
        with self._lock:
            flat = dict(self._counters)
            for prefix, counters in self._groups.items():
                for key, value in counters.items():
                    flat[f"{prefix}.{key}"] = value
            return flat

    def counters_since(self, before: dict[str, float]) -> dict[str, float]:
        """Non-zero counter deltas accumulated since ``before``.

        ``before`` is a previous :meth:`counters_snapshot`; the result is
        the picklable delta dict that rides :class:`~repro.exec.calls.`
        envelopes back from worker processes and that
        :class:`~repro.sched.scheduler.ScheduleReport` exposes per run.
        """
        deltas = {}
        for name, value in self.counters_snapshot().items():
            delta = value - before.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    def merge_counters(self, deltas: dict[str, float]) -> None:
        """Fold a counter-delta dict into this registry.

        Dotted names matching a registered group land in the group dict
        (so module-level aliases like ``FUSED_COUNTERS`` observe worker
        work); everything else accumulates as a scalar counter.  Counter
        addition is commutative, so merge order never changes totals.
        """
        with self._lock:
            for name, value in deltas.items():
                prefix, _, key = name.rpartition(".")
                group = self._groups.get(prefix)
                if group is not None:
                    group[key] = group.get(key, 0) + value
                else:
                    self._counters[name] = self._counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # Gauges and histograms
    # ------------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def adjust_gauge(self, name: str, delta: float) -> float:
        """Add ``delta`` to a gauge; returns the new level."""
        with self._lock:
            value = self._gauges.get(name, 0) + delta
            self._gauges[name] = value
            return value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.record(value)

    # ------------------------------------------------------------------
    # Snapshots and lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The full registry state as plain JSON-serializable dicts."""
        with self._lock:
            return {
                "counters": self.counters_snapshot(),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Zero everything, preserving group dict identities.

        Group dicts are zeroed in place — module-level aliases keep
        working — while scalar counters, gauges, and histograms drop.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            for counters in self._groups.values():
                for key in counters:
                    counters[key] = 0


#: The process-local registry.  One per process: parent and workers each
#: get their own at import, and worker deltas merge back explicitly
#: with each call's result (:mod:`repro.exec.calls`).
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local :class:`MetricsRegistry`."""
    return _REGISTRY
