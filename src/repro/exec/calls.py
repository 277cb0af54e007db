"""Picklable kernel-call descriptors: how kernel calls cross processes.

A :class:`~repro.exec.executor.ProcessExecutor` cannot ship closures, and
naively pickling a kernel call would serialize the whole network — hundreds
of kilobytes of weights — into every submission.  This module is the
boundary layer that makes process execution cheap and faithful:

- **Descriptors.**  :func:`marshal_call` recognizes the kernel calls the
  scheduler actually submits (fused PGD, fused multi-label Analyze, and
  its prefix-checkpointed twin) and rewrites each
  into a :class:`KernelCall`: the name of a module-level entry point plus
  a payload of plain arrays, config dicts, and small picklable objects.
  Unknown calls return ``None`` and the executor falls back to plain
  pickling, so any module-level function with picklable arguments still
  works.

- **Ship the network once per worker.**  The parent-side
  :class:`NetworkStore` writes each distinct network to a spill file at
  most once (named by its :func:`~repro.nn.serialize.network_digest`
  content address) and descriptors carry only the tiny
  :class:`NetworkHandle`.  Worker-side, :func:`resolve_network` keeps a
  per-process deserialization cache keyed on the digest, so each worker
  pays one ``load_network`` per distinct network per lifetime — not one
  per call.

- **Large operands ride shared memory.**  The executor's
  :class:`~repro.exec.shm.ShmArena` swaps big ndarray payload values for
  :class:`~repro.exec.shm.ShmHandle` descriptors after marshalling;
  :func:`run_kernel_call` materializes them before dispatch, so entry
  points only ever see plain arrays.

- **Entry points return caller-visible values.**  A descriptor's entry
  point produces exactly what the original function would have returned
  (bitwise — ``.npz`` round-trips and pickle both preserve float64 bit
  patterns), with one deliberate exception: analyze entries drop the
  per-row abstract output elements (``AnalysisResult.output is None``),
  because no engine consumes them and a powerset output is a ``(T, k, n)``
  stack whose pickling would dwarf the kernel it rode in on.
"""

from __future__ import annotations

import atexit
import importlib
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backend import active as _active_backend
from repro.backend import use_backend as _use_backend
from repro.exec.shm import ShmHandle, resolve_payload
from repro.nn.serialize import load_network, network_digest, save_network
from repro.obs.metrics import registry


@dataclass(frozen=True)
class NetworkHandle:
    """A network's content address plus where a worker can load it."""

    digest: str
    path: str


class NetworkStore:
    """Parent-side spill directory: each distinct network written once.

    Owned by the :class:`~repro.exec.executor.ProcessExecutor`; closed
    (and its directory removed) on executor shutdown.  Keyed by content
    digest — :func:`~repro.nn.serialize.network_digest` memoizes on the
    Network instance itself, so repeat lookups cost a dict probe and
    aliased copies of one network share a single spill file.
    """

    def __init__(self) -> None:
        self._dir = Path(tempfile.mkdtemp(prefix="repro-exec-nets-"))
        self._handles: dict[str, NetworkHandle] = {}
        # Backstop for parents that never shut their executor down: a
        # long-running training loop churning pools must not accumulate
        # one spill directory per pool on disk past process exit.
        atexit.register(self.close)

    def handle(self, network) -> NetworkHandle:
        digest = network_digest(network)
        handle = self._handles.get(digest)
        if handle is None:
            path = self._dir / f"{digest}.npz"
            if not path.exists():
                save_network(network, path)
            handle = NetworkHandle(digest, str(path))
            self._handles[digest] = handle
        return handle

    def close(self) -> None:
        self._handles.clear()
        shutil.rmtree(self._dir, ignore_errors=True)
        atexit.unregister(self.close)


#: Worker-side cache: one deserialized network per digest per process.
_NETWORK_CACHE: dict[str, object] = {}


def resolve_network(handle: NetworkHandle):
    """The handle's network, loaded at most once per worker process."""
    network = _NETWORK_CACHE.get(handle.digest)
    if network is None:
        network = load_network(handle.path)
        _NETWORK_CACHE[handle.digest] = network
    return network


@dataclass(frozen=True)
class KernelCall:
    """One marshalled kernel call: entry-point name plus plain payload.

    ``submitted_unix`` is the parent's wall-clock submit time
    (``time.time()`` — comparable across processes on one host, unlike
    ``perf_counter``); the worker reports the call's queue wait from it.

    ``backend`` is the array backend active when the call was
    marshalled; :func:`run_kernel_call` re-enters it on the worker so a
    call's precision crosses the process boundary with the call, not via
    ambient worker state.
    """

    entry: str  # "module.path:function"
    payload: dict
    submitted_unix: float | None = None
    backend: str = "numpy64"


@dataclass(frozen=True)
class ObsEnvelope:
    """A descriptor call's result plus its worker-side observability.

    ``counters`` is the worker registry's counter delta across the entry
    point (kernel batches, fused-kernel work, shm attaches — everything
    a worker accumulates); the parent's
    :class:`~repro.exec.executor._EnvelopeFuture` merges it on
    completion, which is what makes a Process run's merged totals equal
    a Serial run's.  ``wait_s`` is the submit→start queue wait measured
    against :attr:`KernelCall.submitted_unix`.
    """

    value: object
    counters: dict
    wait_s: float | None = None


_ENTRY_CACHE: dict[str, Callable] = {}


def clear_worker_caches() -> None:
    """Empty the worker-side network and entry-point caches.

    A forked worker calls this first: it must not start with its
    parent's entries, so that it loads each network once itself, as a
    spawned worker does.
    """
    _NETWORK_CACHE.clear()
    _ENTRY_CACHE.clear()


def run_kernel_call(call: KernelCall) -> ObsEnvelope:
    """Worker-side dispatcher: resolve the entry point and run it.

    Shared-memory operands (:class:`~repro.exec.shm.ShmHandle` payload
    values) are materialized here, before the entry point runs, so entry
    points only ever see plain arrays.  The result rides back inside an
    :class:`ObsEnvelope` carrying the worker's counter delta across the
    call (snapshot taken before operand resolution, so shm-transport
    counters ride too); the executor unwraps it before callers see the
    future's value.
    """
    fn = _ENTRY_CACHE.get(call.entry)
    if fn is None:
        module_name, _, attr = call.entry.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        _ENTRY_CACHE[call.entry] = fn
    wait_s = None
    if call.submitted_unix is not None:
        wait_s = max(0.0, time.time() - call.submitted_unix)
    obs = registry()
    before = obs.counters_snapshot()
    payload = call.payload
    if any(isinstance(value, ShmHandle) for value in payload.values()):
        payload = resolve_payload(payload)
    with _use_backend(call.backend):
        value = fn(payload)
    return ObsEnvelope(value, obs.counters_since(before), wait_s)


# ----------------------------------------------------------------------
# Parent-side marshalling
# ----------------------------------------------------------------------


def _stack_boxes(regions) -> tuple[np.ndarray, np.ndarray]:
    """Region boxes as two dense ``(R, n)`` arrays (the plain-array form)."""
    return (
        np.stack([region.low for region in regions]),
        np.stack([region.high for region in regions]),
    )


def _marshal_pgd(args, kwargs, store: NetworkStore) -> KernelCall | None:
    """``pgd_minimize_batch(objective, regions, config, rngs, deadline)``."""
    from repro.attack.objective import (
        MarginObjective,
        MultiLabelMarginObjective,
    )

    if kwargs or len(args) != 5:
        return None
    objective, regions, config, rngs, deadline = args
    if isinstance(objective, MultiLabelMarginObjective):
        labels, multi = np.asarray(objective.labels), True
    elif isinstance(objective, MarginObjective):
        labels, multi = int(objective.label), False
    else:
        return None
    if not isinstance(rngs, (list, tuple)):
        return None  # shared-generator spawning must happen caller-side
    lows, highs = _stack_boxes(regions)
    return KernelCall(
        "repro.attack.pgd:pgd_minimize_entry",
        {
            "network": store.handle(objective.network),
            "labels": labels,
            "multi": multi,
            "lows": lows,
            "highs": highs,
            # The whole frozen dataclass, not a field-by-field copy: a
            # future PGDConfig knob must never silently reset to its
            # default on the process path only.
            "config": config,
            "rngs": list(rngs),
            "deadline": deadline,
        },
    )


def _marshal_analyze_multi(args, kwargs, store: NetworkStore) -> KernelCall | None:
    """``analyze_batch_multi(network, regions, labels, domain, deadline)``."""
    if kwargs or len(args) not in (4, 5):
        return None
    network, regions, labels, domain = args[:4]
    deadline = args[4] if len(args) == 5 else None
    lows, highs = _stack_boxes(regions)
    return KernelCall(
        "repro.abstract.analyzer:analyze_multi_entry",
        {
            "network": store.handle(network),
            "lows": lows,
            "highs": highs,
            "labels": np.asarray(labels, dtype=np.int64),
            "domain": (domain.base, domain.disjuncts),
            "deadline": deadline,
        },
    )


def _marshal_analyze_checkpointed(
    args, kwargs, store: NetworkStore
) -> KernelCall | None:
    """``analyze_batch_checkpointed(network, regions, labels, domain,
    deadline, resume, capture_boundaries)``.

    The resume record's arrays are flattened into top-level
    ``prefix_state_<name>`` payload values so the executor's
    shared-memory arena can swap them for handles (handles are resolved
    only at payload top level); the small descriptor fields travel as a
    ``resume_meta`` dict.  :func:`analyze_checkpointed_entry` reassembles
    the :class:`~repro.abstract.checkpoint.PrefixBounds` worker-side.
    """
    if kwargs or len(args) != 7:
        return None
    network, regions, labels, domain, deadline, resume, boundaries = args
    lows, highs = _stack_boxes(regions)
    payload = {
        "network": store.handle(network),
        "lows": lows,
        "highs": highs,
        "labels": np.asarray(labels, dtype=np.int64),
        "domain": (domain.base, domain.disjuncts),
        "deadline": deadline,
        "capture_boundaries": list(boundaries),
        "resume_meta": None,
    }
    if resume is not None:
        payload["resume_meta"] = {
            "boundary": resume.boundary,
            "op_count": resume.op_count,
            "prefix_digest": resume.prefix_digest,
            "regions_digest": resume.regions_digest,
            "domain": tuple(resume.domain),
            "backend": resume.backend,
            "kind": resume.kind,
            "meta": resume.meta,
        }
        for name, array in resume.arrays.items():
            payload[f"prefix_state_{name}"] = array
    return KernelCall(
        "repro.abstract.analyzer:analyze_checkpointed_entry", payload
    )


#: Known kernel calls, keyed by (module, qualname) so registration never
#: imports the heavy engine modules (workers import only what they run).
_MARSHALLERS: dict[tuple[str, str], Callable] = {
    ("repro.attack.pgd", "pgd_minimize_batch"): _marshal_pgd,
    ("repro.abstract.analyzer", "analyze_batch_multi"): _marshal_analyze_multi,
    (
        "repro.abstract.analyzer",
        "analyze_batch_checkpointed",
    ): _marshal_analyze_checkpointed,
}


def marshal_call(
    fn: Callable, args: tuple, kwargs: dict, store: NetworkStore
) -> KernelCall | None:
    """Rewrite a known kernel call into a :class:`KernelCall` descriptor.

    Returns ``None`` for calls this layer does not recognize (including
    known functions invoked with an unexpected shape); the executor then
    falls back to plain pickling.
    """
    key = (getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""))
    marshaller = _MARSHALLERS.get(key)
    if marshaller is None:
        return None
    call = marshaller(args, kwargs, store)
    if call is None:
        return None
    # Stamp the marshalling thread's active backend so the worker runs
    # the call at the precision the caller chose, not its own default.
    name = _active_backend().name
    return call if call.backend == name else replace(call, backend=name)
