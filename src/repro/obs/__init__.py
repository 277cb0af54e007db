"""Structured observability: metrics registry, tracing spans, dump tools.

- :mod:`repro.obs.metrics` — the process-local counter/gauge/histogram
  registry every subsystem reports into (and the counter-group idiom hot
  paths increment lock-free).
- :mod:`repro.obs.trace` — hierarchical spans emitted as Chrome
  trace-event JSON (``--trace out.json`` on verify/schedule/train);
  zero-cost no-ops while disabled.
- :mod:`repro.obs.stats` — summarize/diff/validate those dumps
  (``repro stats``).

Worker-process counters merge back into the parent registry with each
call's result (:mod:`repro.exec.calls`), so process-executor runs report
the same totals as serial ones.
"""

from repro.obs.metrics import Histogram, MetricsRegistry, registry
from repro.obs.trace import Tracer, span, tracer, tracing_enabled

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "registry",
    "Tracer",
    "span",
    "tracer",
    "tracing_enabled",
]
