"""Hierarchical tracing spans, emitted as Chrome trace-event JSON.

The span taxonomy mirrors the scheduler's execution shape (DESIGN.md
§11): a ``sched.round`` span per fused sweep, ``sched.pgd_group`` /
``sched.analyze_group`` spans per fused kernel call, ``exec.*.call``
spans per executor submission (emitted at completion with the submit
timestamp, so pool calls show their true extent), and ``cache.probe`` /
``cache.put`` spans per cache touch.  Load the output in
``chrome://tracing`` / Perfetto, or summarize it with ``repro stats``.

**Zero cost when disabled.**  Tracing is off by default.  The
:func:`span` fast path is one attribute check returning a shared no-op
singleton context manager — no allocation, no timestamps, no lock — and
every other emission hook guards on :attr:`Tracer.enabled` before doing
any work.  ``benchmarks/bench_obs_overhead.py`` pins the budget: the
instrumentation's disabled-path cost must stay under 2% of the sched
engine suite's wall clock.

**Per-process.**  Spans are recorded in the process that executes the
code; worker processes do not ship spans back (only counter deltas ride
back, in each call's envelope — see :mod:`repro.obs.metrics`).  A traced
process-executor run therefore shows the parent's view: submit→done
extents of every kernel call, which is what scheduling analysis needs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

__all__ = ["Tracer", "tracer", "span", "tracing_enabled"]

#: Trace-event timestamps are integer microseconds.
_US = 1_000_000


class _NullSpan:
    """The disabled-path span: a shared, stateless no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An enabled span: times its ``with`` body, emits one "X" event."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, owner: "Tracer", name: str, cat: str, args: dict):
        self._tracer = owner
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        owner = self._tracer
        owner.add_complete(
            self._name,
            self._cat,
            self._start,
            time.perf_counter() - self._start,
            args=self._args,
        )


class Tracer:
    """Accumulates Chrome trace events while enabled.

    Timestamps are microseconds relative to :meth:`enable` (perf_counter
    based, so spans nest consistently across threads of one process).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._origin = 0.0

    def enable(self) -> None:
        """Start recording (clears any previous events)."""
        with self._lock:
            self._events = []
            self._origin = time.perf_counter()
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Stop recording and drop every recorded event (a forked
        executor worker starts from here, as a spawned one does)."""
        with self._lock:
            self.enabled = False
            self._events = []

    def span(self, name: str, cat: str = "", **args: Any):
        """A context manager timing its body; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def add_complete(
        self,
        name: str,
        cat: str,
        start: float,
        duration: float,
        tid: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Record one complete ("X") event from perf_counter readings.

        ``start`` is an absolute ``time.perf_counter()`` value; events
        whose span began before :meth:`enable` clamp to the origin.
        Callers that already hold a submit-time timestamp (executor done
        callbacks) pass it here with the submitting thread's ``tid`` so
        the call renders on the lane that issued it.
        """
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat or "repro",
            "ph": "X",
            "ts": max(0, int((start - self._origin) * _US)),
            "dur": max(0, int(duration * _US)),
            "pid": os.getpid(),
            "tid": tid if tid is not None else threading.get_ident(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record one instant ("i") event (a point-in-time marker)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat or "repro",
            "ph": "i",
            "s": "t",
            "ts": max(0, int((time.perf_counter() - self._origin) * _US)),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def to_payload(self, metrics: dict | None = None) -> dict:
        """The Chrome trace JSON object (plus metrics in ``otherData``)."""
        other: dict = {"tool": "repro.obs"}
        if metrics is not None:
            other["metrics"] = metrics
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def write(self, path: str, metrics: dict | None = None) -> None:
        """Write the trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_payload(metrics), handle)


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-local :class:`Tracer`."""
    return _TRACER


def tracing_enabled() -> bool:
    """Whether the process-local tracer is currently recording."""
    return _TRACER.enabled


def span(name: str, cat: str = "", **args: Any):
    """Module-level convenience for ``tracer().span(...)``.

    The disabled fast path — one attribute check, shared singleton — is
    the whole zero-overhead story; instrumented hot paths call this
    unconditionally.
    """
    if not _TRACER.enabled:
        return _NULL_SPAN
    return _Span(_TRACER, name, cat, args)
