"""How a call crosses into a process worker: its name plus pickled arguments.

A :class:`~repro.exec.executor.ProcessExecutor` sends every call the same
way.  :func:`marshal_call` turns ``fn(*args, **kwargs)`` into a
:class:`KernelCall`: the function's ``module:qualname`` (a worker imports
it by that name, so a ``functools.wraps`` wrapper resolves to the
function it wraps) plus ``(args, kwargs)`` pickled on the submitting
thread.  The pickler's dispatch table rewrites two kinds of operand:

- **Networks cross as handles.**  A network would otherwise pickle its
  weights — hundreds of kilobytes — into every call.  Wherever a
  :class:`~repro.nn.network.Network` sits in the arguments (a kernel's
  first argument, or inside a PGD objective), it is written as
  ``resolve_network(handle)``: the parent-side :class:`NetworkStore`
  writes each distinct network to a spill file at most once (named by its
  :func:`~repro.nn.serialize.network_digest` content address), and
  :func:`resolve_network` keeps a per-worker deserialization cache keyed
  on the digest, so each worker pays one ``load_network`` per distinct
  network per lifetime.
- **Region lists cross as two arrays.**  Each top-level argument that is
  a list of boxes of one dimension is written as its stacked lower and
  upper bounds, which pickle far faster than one ``Box`` at a time.

Pickle and ``.npz`` round-trips keep float64 bit patterns, so a worker
computes exactly what the caller would have.  Results come back by plain
pickle; an Analyze call returns only margins
(:class:`~repro.abstract.analyzer.AnalysisResult`), so no abstract output
element ever crosses the wire.
"""

from __future__ import annotations

import atexit
import copyreg
import importlib
import inspect
import io
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backend import active as _active_backend
from repro.backend import use_backend as _use_backend
from repro.nn.network import Network
from repro.nn.serialize import load_network, network_digest, save_network
from repro.obs.metrics import registry
from repro.utils.boxes import Box


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
    """One call on its way to a worker: a function name plus its pickled
    ``(args, kwargs)``.

    ``submitted_unix`` is the parent's wall-clock submit time
    (``time.time()`` — comparable across processes on one host, unlike
    ``perf_counter``); the worker reports the call's queue wait from it.

    ``backend`` is the array backend active when the call was
    marshalled; :func:`run_kernel_call` re-enters it on the worker so a
    call's precision crosses the process boundary with the call, not via
    ambient worker state.
    """

    entry: str  # "module.path:qualname"
    payload: bytes
    submitted_unix: float | None = None
    backend: str = "numpy64"


@dataclass(frozen=True)
class ObsEnvelope:
    """A call's result plus its worker-side observability.

    ``counters`` is the worker registry's counter delta across the call
    (kernel batches, fused-kernel work — everything a worker
    accumulates); the parent's
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


def _resolve(entry: str) -> Callable:
    """The function ``module:qualname`` names, imported once per process."""
    fn = _ENTRY_CACHE.get(entry)
    if fn is None:
        module_name, _, qualname = entry.partition(":")
        fn = importlib.import_module(module_name)
        for attr in qualname.split("."):
            fn = getattr(fn, attr)
        _ENTRY_CACHE[entry] = fn
    return fn


def run_kernel_call(call: KernelCall) -> ObsEnvelope:
    """Worker-side dispatcher: unpickle the arguments and run the call.

    The result rides back inside an :class:`ObsEnvelope` carrying the
    worker's counter delta across the call; the executor unwraps it
    before callers see the future's value.
    """
    fn = _resolve(call.entry)
    wait_s = None
    if call.submitted_unix is not None:
        wait_s = max(0.0, time.time() - call.submitted_unix)
    obs = registry()
    before = obs.counters_snapshot()
    with _use_backend(call.backend):
        args, kwargs = pickle.loads(call.payload)
        value = fn(*args, **kwargs)
    return ObsEnvelope(value, obs.counters_since(before), wait_s)


# ----------------------------------------------------------------------
# Parent-side marshalling
# ----------------------------------------------------------------------


class _Boxes(list):
    """A top-level argument that is a list of boxes of one dimension."""


def _stacked_boxes(boxes: _Boxes):
    return _unstack_boxes, (
        np.stack([box.low for box in boxes]),
        np.stack([box.high for box in boxes]),
    )


def _unstack_boxes(lows: np.ndarray, highs: np.ndarray) -> list[Box]:
    return [Box(low, high) for low, high in zip(lows, highs)]


def _top_level(arg):
    """``arg``, marked as :class:`_Boxes` when it is such a list."""
    if (
        isinstance(arg, list)
        and arg
        and all(type(box) is Box for box in arg)
        and len({box.ndim for box in arg}) == 1
    ):
        return _Boxes(arg)
    return arg


def marshal_call(
    fn: Callable, args: tuple, kwargs: dict, store: NetworkStore
) -> KernelCall:
    """``fn(*args, **kwargs)`` as a :class:`KernelCall` for a worker.

    ``fn`` must be importable by its ``module:qualname`` (a module-level
    function, or a ``functools.wraps`` wrapper of one); anything else
    raises ``TypeError``.  The call is stamped with the submitting
    thread's active backend, so the worker runs it at the precision the
    caller chose, not its own default.
    """
    entry = f"{getattr(fn, '__module__', '')}:{getattr(fn, '__qualname__', '')}"
    try:
        named = _resolve(entry)
    except (ImportError, AttributeError, ValueError):
        named = None
    if named is not inspect.unwrap(fn):
        raise TypeError(f"a process worker cannot import {fn!r} by name")
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    # A pickler's own table replaces copyreg's, so it starts from it.
    pickler.dispatch_table = {
        **copyreg.dispatch_table,
        Network: lambda net: (resolve_network, (store.handle(net),)),
        _Boxes: _stacked_boxes,
    }
    pickler.dump((
        tuple(_top_level(arg) for arg in args),
        {name: _top_level(arg) for name, arg in kwargs.items()},
    ))
    return KernelCall(
        entry, buffer.getvalue(), time.time(), _active_backend().name
    )
