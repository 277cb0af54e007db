"""The kernel execution layer: where batched kernel calls actually run.

The paper's §6 observes that "different calls to the abstract interpreter
can be run on different threads".  The scheduler reduces every round to
*independent kernel calls* — a fused PGD sweep here, a batched Analyze
group there — that share no arrays and may therefore run on any core.
This module is the one place that decides *where* such calls run:

- :class:`SerialExecutor` runs each call inline at submission, on the
  caller's thread.  Submission order is execution order, making it the
  reference for every executor-equivalence test.
- :class:`ProcessExecutor` hands calls to a process pool whose workers
  are forked where that is safe and spawned elsewhere.
  Processes sidestep the GIL, which serializes the Python-loop-heavy
  zonotope/powerset split+join contraction under threads.  Every call
  crosses the boundary the same way (:mod:`repro.exec.calls`): the
  function's name plus its pickled arguments, with each network sent as
  a handle that a worker loads once.  Each worker pins its BLAS pools to
  one thread so pooled runs neither oversubscribe the host nor perturb
  GEMM rounding.

The worker count alone picks between them (:func:`make_executor`): one
worker runs serially, more run on a process pool.

**Reproducibility contract.**  An executor never changes *what* a call
computes — only which core computes it.  Callers keep every semantic
decision on their own thread: they build the call's operands (including
all randomness) before submitting, and they consume results in
deterministic (submission) order.  Under that discipline a process-pool
run is bitwise identical to a serial run; the scheduler's
executor-equivalence matrix pins this.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import sys
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable

from repro.obs.metrics import registry
from repro.obs.trace import tracer

#: The executor kinds :func:`make_executor` builds.
EXECUTOR_KINDS = ("serial", "process")

#: Environment knobs that size the BLAS/OpenMP thread pools.  Process
#: workers pin all of them to one thread: ``workers`` single-threaded
#: processes use exactly the cores they are given (no oversubscription),
#: and every GEMM a worker runs has the same reduction order a serial
#: single-threaded run would use (no rounding perturbation).
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_worker_blas() -> None:
    """Spawned-worker initializer: force single-threaded BLAS pools.

    Runs in the worker before any kernel call.  The authoritative pinning
    actually happens through environment *inheritance* — the parent sets
    the variables before the child is spawned, so numpy's BLAS reads them
    at load — but re-asserting them here keeps workers correct even if a
    library re-reads the environment lazily.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


#: OpenBLAS's runtime thread-count entry points as ``(setter, getter)``:
#: the ``scipy_``-prefixed copies numpy and scipy wheels bundle, with and
#: without the 64-bit-integer suffix, then plain builds.
_OPENBLAS_THREAD_API = tuple(
    (
        f"{prefix}openblas_set_num_threads{suffix}",
        f"{prefix}openblas_get_num_threads{suffix}",
    )
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)

#: Shared-object names that are a BLAS build (OpenBLAS, reference BLAS,
#: BLIS, MKL, FlexiBLAS...).
_BLAS_LIBRARY = re.compile(r"lib.*(blas|blis|mkl)", re.IGNORECASE)


def _blas_thread_api() -> list[tuple[Callable, Callable]] | None:
    """``(set_num_threads, get_num_threads)`` of every loaded BLAS.

    ``None`` when no BLAS is loaded, or when one of them has no known
    runtime entry point (MKL and BLIS are not probed, so they count as
    unknown).  Reads the process's mappings from ``/proc/self/maps``, so
    it answers on Linux only.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].rstrip("\n")
                for fields in (line.split(None, 5) for line in maps)
                if len(fields) == 6
            }
    except OSError:
        return None
    api = []
    for path in sorted(paths):
        if not _BLAS_LIBRARY.match(os.path.basename(path)):
            continue
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            return None
        for setter, getter in _OPENBLAS_THREAD_API:
            if hasattr(library, setter) and hasattr(library, getter):
                set_threads = getattr(library, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(library, getter)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                api.append((set_threads, get_threads))
                break
        else:
            return None
    return api or None


def _start_method() -> str:
    """How a new pool starts its workers: ``"fork"`` where safe, else
    ``"spawn"``.

    A forked worker costs one ``fork()``; a spawned one starts an
    interpreter and imports numpy and ``repro`` before its first call.
    Fork is taken only when all of these hold:

    - the platform is Linux;
    - no other Python thread is alive, so no lock can be held across the
      fork (a live pool's manager and queue threads count, so an
      executor built while another pool runs spawns);
    - every loaded BLAS exposes a runtime thread-count entry point, which
      the forked worker uses to pin itself to one thread
      (:func:`_init_forked_worker`).
    """
    if sys.platform != "linux" or threading.active_count() != 1:
        return "spawn"
    return "fork" if _blas_thread_api() else "spawn"


def _init_forked_worker() -> None:
    """Forked-worker initializer: the state a spawned worker starts in.

    The environment pins arrive by inheritance, but OpenBLAS re-creates
    its thread pool with the parent's thread count at the child's first
    GEMM, so the runtime count is set to one through the library itself.
    The parent's per-process state is dropped: the network and
    entry-point caches, the tracer's events (and its enabled flag), and
    the forking thread's fused scratch arena.  Parent-only ``atexit``
    cleanup (the network store) never runs here: multiprocessing ends
    its workers with ``os._exit``.
    """
    from repro.abstract.fused import drop_thread_arena
    from repro.exec.calls import clear_worker_caches

    _pin_worker_blas()
    for set_threads, _ in _blas_thread_api() or ():
        set_threads(1)
    clear_worker_caches()
    tracer().reset()
    drop_thread_arena()


# Parent-side BLAS pinning is refcounted across executors: spawning pools
# start workers lazily on demand, so the variables must stay exported as
# long as *any* ProcessExecutor lives, and the pre-existing values are
# restored only when the last one shuts down.  Forked workers inherit
# them too.
_PIN_LOCK = threading.Lock()
_PIN_DEPTH = 0
_PIN_SAVED: dict[str, str | None] = {}


def _push_blas_pins() -> None:
    global _PIN_DEPTH
    with _PIN_LOCK:
        if _PIN_DEPTH == 0:
            for var in _BLAS_THREAD_VARS:
                _PIN_SAVED[var] = os.environ.get(var)
                os.environ[var] = "1"
        _PIN_DEPTH += 1


def _pop_blas_pins() -> None:
    global _PIN_DEPTH
    with _PIN_LOCK:
        _PIN_DEPTH -= 1
        if _PIN_DEPTH == 0:
            for var, value in _PIN_SAVED.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
            _PIN_SAVED.clear()


class KernelExecutor(ABC):
    """Where kernel calls run.  See the module docstring for the contract.

    Futures returned by :meth:`submit` follow the
    :class:`concurrent.futures.Future` surface used here: ``result()``,
    ``cancel()``, ``cancelled()``, ``done()``.
    """

    #: Report / bench identifier (``"serial"`` or ``"process"``).
    name: str = ""
    #: Worker count the executor was built with (1 for serial).
    workers: int = 1

    @abstractmethod
    def submit(self, fn: Callable, /, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)``; returns a future."""

    def _observe_submit(self, future, label: str):
        """Meter one submission: queue depth, submit→done latency, spans.

        Every executor kind routes its futures through here.  The gauge
        ``exec.{name}.queue_depth`` tracks submitted-but-unfinished
        calls, the ``exec.{name}.latency_s`` histogram records each
        call's submit→done extent, and — when tracing is on — the done
        callback emits an ``exec.{name}.call`` complete event stamped
        with the submit time and the *submitting* thread id, so pool
        calls render on the lane that issued them.  Metric bookkeeping
        runs on whatever thread completes the future; counters and
        gauges are lock-guarded, and nothing here feeds control flow.
        """
        obs = registry()
        obs.inc(f"exec.{self.name}.submitted")
        obs.adjust_gauge(f"exec.{self.name}.queue_depth", 1)
        submitted_at = time.perf_counter()
        submit_tid = threading.get_ident()

        def _done(_future):
            duration = time.perf_counter() - submitted_at
            obs.adjust_gauge(f"exec.{self.name}.queue_depth", -1)
            obs.inc(f"exec.{self.name}.completed")
            obs.observe(f"exec.{self.name}.latency_s", duration)
            active = tracer()
            if active.enabled:
                active.add_complete(
                    f"exec.{self.name}.call",
                    "exec",
                    submitted_at,
                    duration,
                    tid=submit_tid,
                    args={"fn": label},
                )

        future.add_done_callback(_done)
        return future

    def shutdown(self, cancel_pending: bool = False) -> None:
        """Release the executor's resources (idempotent)."""

    def __enter__(self) -> "KernelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _call_label(fn: Callable) -> str:
    """A short human-readable name for a submitted callable."""
    return (
        getattr(fn, "__qualname__", "")
        or getattr(fn, "__name__", "")
        or repr(fn)
    )


class SerialExecutor(KernelExecutor):
    """Runs every call inline at submission, on the caller's thread."""

    name = "serial"
    workers = 1

    def submit(self, fn: Callable, /, *args, **kwargs):
        future: Future = Future()
        # Observe before running: inline execution completes the future
        # inside submit, and the done callback must already be attached
        # for the latency histogram to see the call's true extent.
        self._observe_submit(future, _call_label(fn))
        # Inline calls never queue; the zero keeps the wait histogram's
        # schema uniform across executor kinds.
        registry().observe(f"exec.{self.name}.wait_s", 0.0)
        # Mirror Future semantics exactly (result() re-raises) so callers
        # cannot tell serial and process-pool futures apart.
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - stored, not swallowed
            future.set_exception(exc)
        return future


class _EnvelopeFuture(Future):
    """A real Future chained onto a process-pool future, unwrapping
    :class:`~repro.exec.calls.ObsEnvelope` results.

    Every worker call returns an envelope — the call's value plus the
    worker-side counter delta — and the parent must (a) merge the delta
    into its registry and (b) hand callers the bare value.
    Callers use it wherever a pool future would go (``result()``,
    ``add_done_callback``, ``cancel()``), so the unwrapper *is* a Future.
    Chaining via ``add_done_callback`` keeps every transition synchronous
    with the inner future's own completion: the merge happens before any
    ``result()`` on this future returns, which is what makes a run's
    metrics delta complete by the time its report is assembled.
    ``cancel()`` forwards to the inner future, and an inner future
    cancelled by ``shutdown(cancel_pending=True)`` cancels this one.
    """

    def __init__(self, inner: Future, executor_name: str) -> None:
        super().__init__()
        self._inner = inner
        self._executor_name = executor_name
        inner.add_done_callback(self._chain)

    def cancel(self) -> bool:
        return self._inner.cancel()

    def _chain(self, inner: Future) -> None:
        if inner.cancelled():
            # Mirror the cancellation onto this future so waiters wake
            # and result() raises CancelledError, exactly as the inner
            # future would have.
            super().cancel()
            self.set_running_or_notify_cancel()
            return
        exc = inner.exception()
        if exc is not None:
            self.set_exception(exc)
            return
        envelope = inner.result()
        obs = registry()
        if envelope.counters:
            obs.merge_counters(envelope.counters)
        if envelope.wait_s is not None:
            obs.observe(f"exec.{self._executor_name}.wait_s", envelope.wait_s)
        self.set_result(envelope.value)


class ProcessExecutor(KernelExecutor):
    """Runs calls on a process pool (GIL-free parallelism).

    The zonotope/powerset split+join contraction spends its time in
    Python loops, which threads would serialize on the GIL; process
    workers run those calls truly concurrently.  Three mechanisms make
    the boundary cheap and faithful:

    - **Forked workers where safe** (:func:`_start_method`): on Linux,
      with no other thread alive and a BLAS whose thread count can be
      set at run time, the pool forks its workers — one ``fork()`` each
      instead of an interpreter start plus the numpy and ``repro``
      imports — and each forked worker resets what it inherited to the
      state a spawned worker starts in.  Anywhere else it spawns.
      :attr:`start_method` records the choice once the pool exists.
    - **One transport** (:mod:`repro.exec.calls`): every call crosses
      as its function's ``module:qualname`` plus its arguments, pickled
      in :meth:`submit`.  Each network in them is replaced by a handle
      to a spill file written once per pool and loaded once per worker;
      each top-level list of regions crosses as two stacked arrays.  So
      any module-level function with picklable arguments runs here.
    - **BLAS pinning**: the parent exports ``OMP_NUM_THREADS=1`` (and
      friends) for the pool's lifetime, which spawned workers read when
      numpy loads and forked workers inherit; a forked worker also sets
      its BLAS runtime to one thread.  So every worker's BLAS is
      single-threaded — ``workers`` processes use ``workers`` cores, and
      GEMM reduction order matches a serial run bitwise.

    The pool is created lazily on first submit and torn down by
    :meth:`shutdown`; submits after shutdown raise.  A worker that dies
    mid-call (OOM-killed, crashed extension) surfaces as
    ``BrokenProcessPool`` on its futures rather than hanging the run.
    """

    name = "process"

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._store = None  # parent-side network spill (repro.exec.calls)
        self._closed = False
        self._pinned = False
        self._lock = threading.Lock()
        #: ``"fork"`` or ``"spawn"`` once the pool exists, else ``None``.
        self.start_method: str | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Create the pool (and the network store) under the lock.

        BLAS pinning must be in the environment *before* a worker starts
        (spawned children read it when numpy loads, forked ones inherit
        it), and spawned workers may start lazily on any later submit —
        so the variables stay exported (refcounted across executors)
        until :meth:`shutdown`.  The start method is chosen here, from
        what the process looks like now; a forking pool forks all its
        workers at the first submit, before it starts its own threads.
        """
        if self._pool is None:
            from repro.exec.calls import NetworkStore

            _push_blas_pins()
            self._pinned = True
            self.start_method = _start_method()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=(
                    _init_forked_worker
                    if self.start_method == "fork"
                    else _pin_worker_blas
                ),
            )
            self._store = NetworkStore()
        return self._pool

    def submit(self, fn: Callable, /, *args, **kwargs):
        from repro.exec.calls import marshal_call, run_kernel_call

        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot submit to a ProcessExecutor after shutdown()"
                )
            pool = self._ensure_pool()
            call = marshal_call(fn, args, kwargs, self._store)
        # Callers get the unwrapping future: the worker's counter delta
        # merges into the parent registry on completion, and result()
        # yields the call's bare value.
        return self._observe_submit(
            _EnvelopeFuture(pool.submit(run_kernel_call, call), self.name),
            call.entry,
        )

    def shutdown(self, cancel_pending: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            store, self._store = self._store, None
            pinned, self._pinned = self._pinned, False
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_pending)
        if store is not None:
            store.close()
        if pinned:
            _pop_blas_pins()


def make_executor(
    executor: KernelExecutor | None = None,
    workers: int = 1,
    kind: str | None = None,
) -> tuple[KernelExecutor, bool]:
    """Normalize an (executor, workers, kind) triple into ``(executor, owned)``.

    Engines accept either a ready executor (caller owns its lifecycle) or
    a plain ``workers`` count plus an optional ``kind`` from
    :data:`EXECUTOR_KINDS`; in the latter case the engine builds one and
    must shut it down after the run (``owned=True``).  With no ``kind``
    the worker count decides: serial for ``workers=1``, a process pool
    otherwise.
    """
    if executor is not None:
        if kind is not None:
            raise ValueError(
                "pass either a ready executor or an executor kind, not both"
            )
        return executor, False
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if kind is None:
        kind = "serial" if workers == 1 else "process"
    if kind == "serial":
        if workers != 1:
            raise ValueError(
                f"the serial executor runs on one worker, got workers={workers}"
            )
        return SerialExecutor(), True
    if kind == "process":
        return ProcessExecutor(workers), True
    raise ValueError(
        f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}"
    )


def validate_executor_spec(
    executor: KernelExecutor | None = None,
    workers: int = 1,
    kind: str | None = None,
) -> None:
    """Raise the error :func:`make_executor` would, keeping nothing.

    Lets engines fail fast at construction on a bad (executor, workers,
    kind) combination — a bad CLI flag should not surface rounds into a
    run.  Safe because every executor constructor is side-effect-free
    until first submit (pools and spill dirs are lazy), so the probe
    costs nothing to build and discard.
    """
    built, owned = make_executor(executor, workers, kind=kind)
    if owned:
        built.shutdown()
