"""Tests for process-pool kernel execution.

Covers the :class:`~repro.exec.ProcessExecutor` contract the scheduler
relies on — ordered results, a clear error (not a hang) when a worker is
killed mid-call — plus the one transport (:mod:`repro.exec.calls`):
every call crosses as its function's name plus its pickled arguments,
kernel calls come back bitwise identical to their in-process results,
each network crosses as a handle and ships once per worker, and workers
run with pinned single-threaded BLAS.  The start-method tests pin when a
pool forks its workers rather than spawning them, and that a forked
worker starts as a spawned one does.

Helpers are module-level on purpose: spawned workers import this module
to unpickle them.  ``test_executor_process_spawn.py`` runs these tests
again with every pool forced to spawn.
"""

import functools
import os
import pickle
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.abstract.analyzer import analyze_batch_multi
from repro.abstract.domains import DomainSpec
from repro.attack.objective import MultiLabelMarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize_batch
from repro.exec import ProcessExecutor
from repro.exec import executor as executor_module
from repro.exec.calls import NetworkStore, marshal_call, run_kernel_call
from repro.exec.executor import _blas_thread_api
from repro.nn.builders import mlp
from repro.nn.serialize import network_digest
from repro.obs.metrics import registry
from repro.utils.boxes import Box


def _numpy_blas() -> str:
    """The name of the BLAS numpy was built against (``""`` if unknown)."""
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


#: Pools fork on Linux when numpy carries its bundled OpenBLAS, whose
#: runtime thread count a forked worker sets.
needs_fork = pytest.mark.skipif(
    sys.platform != "linux" or _numpy_blas() != "scipy-openblas",
    reason="workers fork only on Linux with numpy's bundled OpenBLAS",
)


@pytest.fixture(scope="module")
def executor():
    """One two-worker pool for the whole module (worker start-up costs)."""
    with ProcessExecutor(2) as ex:
        yield ex


def _ok(value):
    return value


def _crash(code):
    os._exit(code)


def _network_cache_digests(_):
    from repro.exec.calls import _NETWORK_CACHE

    return sorted(_NETWORK_CACHE)


def _worker_state(_):
    """What a worker holds before its first kernel call."""
    from repro.abstract import fused
    from repro.exec.calls import _ENTRY_CACHE, _NETWORK_CACHE
    from repro.obs.trace import tracer

    return {
        "networks": sorted(_NETWORK_CACHE),
        "entries": sorted(_ENTRY_CACHE),
        "tracing": tracer().enabled,
        "events": len(tracer().events()),
        "arena": getattr(fused._TLS, "arena", None) is not None,
        "blas_threads": [get() for _, get in _blas_thread_api() or ()],
    }


class TestStartMethod:
    """Which way a new pool starts its workers, and what a forked worker
    inherits.

    These run before the module's shared pool exists: a live pool's
    manager and queue threads make every new executor spawn.
    """

    @needs_fork
    def test_forks_with_one_thread_and_bundled_openblas(self):
        assert threading.active_count() == 1
        assert _blas_thread_api()
        with ProcessExecutor(1) as executor:
            assert executor.start_method is None  # the pool is lazy
            assert executor.submit(_ok, 1).result() == 1
            assert executor.start_method == "fork"

    def test_spawns_while_another_thread_is_alive(self):
        release = threading.Event()
        idle = threading.Thread(target=release.wait)
        idle.start()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a multi-threaded process forks.
                warnings.filterwarnings(
                    "error", "This process", DeprecationWarning
                )
                with ProcessExecutor(1) as executor:
                    assert executor.submit(_ok, 2).result() == 2
                    assert executor.start_method == "spawn"
        finally:
            release.set()
            idle.join()

    def test_spawns_without_a_blas_thread_entry_point(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_blas_thread_api", lambda: None)
        with ProcessExecutor(1) as executor:
            assert executor.submit(_ok, 3).result() == 3
            assert executor.start_method == "spawn"

    @needs_fork
    def test_forked_worker_sets_one_blas_thread(self):
        # The environment pins cannot reach a forked child's BLAS: it
        # rebuilds its thread pool with the parent's runtime count.  So
        # run the parent at two threads, and expect one in the worker.
        api = _blas_thread_api()
        previous = [get() for _, get in api]
        try:
            for set_threads, _ in api:
                set_threads(2)
            with ProcessExecutor(1) as executor:
                state = executor.submit(_worker_state, None).result()
                assert executor.start_method == "fork"
            assert state["blas_threads"] == [1] * len(api)
            assert [get() for _, get in api] == [2] * len(api)
        finally:
            for (set_threads, _), count in zip(api, previous):
                set_threads(count)

    @needs_fork
    def test_forked_worker_starts_clean(self, kernel_case):
        from repro.abstract.fused import _thread_arena
        from repro.exec.calls import _NETWORK_CACHE, clear_worker_caches
        from repro.obs.trace import span, tracer

        network, regions, labels = kernel_case
        store = NetworkStore()
        try:
            # Fill every piece of parent state a fork would copy: both
            # worker caches (an in-process worker call), the tracer, and
            # this thread's scratch arena.
            call = marshal_call(
                analyze_batch_multi,
                (network, regions, labels, DomainSpec("zonotope", 2), None),
                {},
                store,
            )
            run_kernel_call(call)
            tracer().enable()
            with span("parent.work"):
                _thread_arena().request(1, 2, 3, 4)
            assert _NETWORK_CACHE and tracer().events()
            with ProcessExecutor(1) as executor:
                state = executor.submit(_worker_state, None).result()
                assert executor.start_method == "fork"
            del state["blas_threads"]  # pinned by its own test
            # The probe's own call is the one entry the worker resolved.
            assert state == {
                "networks": [],
                "entries": [
                    f"{_worker_state.__module__}:{_worker_state.__qualname__}"
                ],
                "tracing": False,
                "events": 0,
                "arena": False,
            }
            # The parent keeps its own state.
            assert tracer().enabled and _NETWORK_CACHE
        finally:
            tracer().reset()
            clear_worker_caches()
            store.close()


class TestProcessExecutorBasics:
    def test_validates_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessExecutor(0)

    def test_runs_submissions(self, executor):
        futures = [executor.submit(pow, 3, i) for i in range(5)]
        assert [f.result() for f in futures] == [3**i for i in range(5)]

    def test_workers_pin_blas_threads(self, executor):
        # The serial-equivalence contract depends on worker GEMMs seeing
        # single-threaded BLAS (and pooled runs must not oversubscribe).
        assert executor.submit(os.getenv, "OMP_NUM_THREADS").result() == "1"
        assert (
            executor.submit(os.getenv, "OPENBLAS_NUM_THREADS").result() == "1"
        )

    def test_parent_env_pins_are_refcounted(self, executor):
        # The pins stay exported while ANY process executor lives (pools
        # spawn workers lazily, and spawned children read the env at
        # numpy load), then the pre-existing values are restored.
        before = os.environ.get("OMP_NUM_THREADS")
        executor.submit(_ok, 0).result()  # fixture pool exists -> pinned
        inner = ProcessExecutor(1)
        inner.submit(_ok, 1).result()  # pool exists -> pins exported
        assert os.environ["OMP_NUM_THREADS"] == "1"
        inner.shutdown()
        # The module fixture's executor is still alive: pins must hold.
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert before in (None, "1")

    def test_submit_after_shutdown_raises(self):
        executor = ProcessExecutor(1)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(_ok, 1)


class TestWorkerCrash:
    def test_killed_worker_surfaces_broken_pool_not_a_hang(self):
        # A worker that dies mid-call (OOM killer, crashing extension)
        # must fail its futures promptly with a clear error.
        executor = ProcessExecutor(1)
        try:
            future = executor.submit(_crash, 11)
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=60)
            # The pool is broken: later submissions fail loudly too.
            with pytest.raises(BrokenProcessPool):
                executor.submit(_ok, 1)
        finally:
            executor.shutdown()


@pytest.fixture(scope="module")
def kernel_case():
    """A small network plus regions/labels shared by the kernel tests."""
    network = mlp(4, [12], 3, rng=5)
    rng = np.random.default_rng(11)
    regions = [
        Box.from_center_radius(rng.uniform(0.3, 0.7, 4), 0.08)
        for _ in range(4)
    ]
    labels = [int(network.classify(region.center)) for region in regions]
    return network, regions, labels


class TestKernelDescriptors:
    def test_pgd_call_is_bitwise_identical(self, executor, kernel_case):
        network, regions, labels = kernel_case
        objective = MultiLabelMarginObjective(network, labels)
        config = PGDConfig(steps=12, restarts=2)

        def rngs():
            return [np.random.default_rng(100 + i) for i in range(len(regions))]

        ref_x, ref_f = pgd_minimize_batch(
            objective, regions, config, rngs(), None
        )
        got_x, got_f = executor.submit(
            pgd_minimize_batch, objective, regions, config, rngs(), None
        ).result()
        np.testing.assert_array_equal(got_x, ref_x)
        np.testing.assert_array_equal(got_f, ref_f)

    @pytest.mark.parametrize(
        "domain",
        [
            DomainSpec("interval", 1),
            DomainSpec("deeppoly", 1),
            DomainSpec("zonotope", 1),
            DomainSpec("zonotope", 2),
        ],
        ids=str,
    )
    def test_analyze_call_matches_inline_margins(
        self, executor, kernel_case, domain
    ):
        network, regions, labels = kernel_case
        reference = analyze_batch_multi(network, regions, labels, domain, None)
        results = executor.submit(
            analyze_batch_multi, network, regions, labels, domain, None
        ).result()
        assert len(results) == len(reference)
        for got, ref in zip(results, reference):
            assert got.verified == ref.verified
            assert got.margin_lower_bound == ref.margin_lower_bound

    @pytest.mark.parametrize(
        "domain",
        [
            DomainSpec("interval", 1),
            DomainSpec("deeppoly", 1),
            DomainSpec("zonotope", 1),
        ],
        ids=str,
    )
    def test_checkpointed_call_resumes_bitwise_across_the_boundary(
        self, executor, kernel_case, domain
    ):
        from repro.abstract.analyzer import analyze_batch_checkpointed
        from repro.abstract.checkpoint import checkpoint_boundaries

        network, regions, labels = kernel_case
        boundaries = checkpoint_boundaries(network)
        reference, captured = analyze_batch_checkpointed(
            network, regions, labels, domain, None,
            capture_boundaries=boundaries,
        )
        # Cold capture through the pool: results match inline,
        # checkpoints come back whole.
        results, shipped = executor.submit(
            analyze_batch_checkpointed, network, regions, labels, domain,
            None, None, tuple(boundaries),
        ).result()
        assert [r.margin_lower_bound for r in results] == [
            r.margin_lower_bound for r in reference
        ]
        assert [c.boundary for c in shipped] == boundaries
        for got, ref in zip(shipped, captured):
            assert got.prefix_digest == ref.prefix_digest
            for name, arr in ref.arrays.items():
                np.testing.assert_array_equal(got.arrays[name], arr)
        # The resume record crosses the boundary whole too and
        # reproduces the cold margins.
        resumed, _ = executor.submit(
            analyze_batch_checkpointed, network, regions, labels, domain,
            None, captured[-1], (),
        ).result()
        assert [r.margin_lower_bound for r in resumed] == [
            r.margin_lower_bound for r in reference
        ]

    def test_network_ships_once_per_worker(self, kernel_case):
        network, regions, labels = kernel_case
        objective = MultiLabelMarginObjective(network, labels)
        domain = DomainSpec("interval", 1)
        with ProcessExecutor(1) as solo:
            # PGD carries the network inside its objective: it still
            # crosses as a handle, so the worker's cache holds it.
            for seed in range(3):
                rngs = [
                    np.random.default_rng(seed + i) for i in range(len(regions))
                ]
                solo.submit(
                    pgd_minimize_batch, objective, regions,
                    PGDConfig(steps=2), rngs, None,
                ).result()
            after_pgd = solo.submit(_network_cache_digests, None).result()
            for _ in range(3):
                solo.submit(
                    analyze_batch_multi, network, regions, labels, domain, None
                ).result()
            digests = solo.submit(_network_cache_digests, None).result()
        # Six calls, one cached deserialization.
        assert after_pgd == digests == [network_digest(network)]

    def test_keyword_call_crosses_like_a_positional_one(self, executor):
        network = mlp(64, [200] * 3, 10, rng=0)
        regions = [Box.from_center_radius(np.full(64, 0.5), 0.01)] * 2
        labels = [int(network.classify(regions[0].center))] * 2
        domain = DomainSpec("zonotope", 1)
        store = NetworkStore()
        try:
            call = marshal_call(
                analyze_batch_multi, (network, regions, labels, domain),
                {"deadline": None}, store,
            )
        finally:
            store.close()
        # The network crossed as a handle, not as its weights.
        assert 50 * len(call.payload) < len(pickle.dumps(network))
        before = registry().counters_snapshot()
        executor.submit(
            analyze_batch_multi, network, regions, labels, domain,
            deadline=None,
        ).result()
        delta = registry().counters_since(before)
        assert delta["kernel.analyze_batches"] == 1
        assert delta["kernel.analyze_rows"] == 2

    def test_every_call_crosses_as_its_name(self, executor, kernel_case):
        network, regions, labels = kernel_case
        objective = MultiLabelMarginObjective(network, labels)
        config = PGDConfig(steps=3)
        store = NetworkStore()
        try:
            rngs = [np.random.default_rng(i) for i in range(len(regions))]
            call = marshal_call(
                pgd_minimize_batch, (objective, regions, config, rngs, None),
                {}, store,
            )
            assert call.entry == "repro.attack.pgd:pgd_minimize_batch"
            # Any module-level function crosses the same way; a function
            # a worker cannot import by name is refused at submission.
            assert marshal_call(pow, (2, 3), {}, store).entry == "builtins:pow"
            with pytest.raises(TypeError, match="by name"):
                marshal_call(lambda: 0, (), {}, store)
        finally:
            store.close()
        # A functools.wraps wrapper (perfbench's traced run wraps the
        # scheduler's kernels) crosses as the function it wraps.
        parent_calls = []

        @functools.wraps(pgd_minimize_batch)
        def traced(*args, **kwargs):
            parent_calls.append(args)
            return pgd_minimize_batch(*args, **kwargs)

        def rngs():
            return [np.random.default_rng(i) for i in range(len(regions))]

        reference = pgd_minimize_batch(objective, regions, config, rngs())
        before = registry().counters_snapshot()
        got = executor.submit(
            traced, objective, regions, config, rngs=rngs()
        ).result()
        delta = registry().counters_since(before)
        assert not parent_calls
        assert delta["kernel.pgd_rows"] == len(regions)
        for got_part, ref_part in zip(got, reference):
            np.testing.assert_array_equal(got_part, ref_part)

    def test_network_store_writes_each_digest_once(self, kernel_case):
        network, _, _ = kernel_case
        store = NetworkStore()
        try:
            first = store.handle(network)
            second = store.handle(network)
            assert first == second
            spill = os.listdir(os.path.dirname(first.path))
            assert spill == [f"{first.digest}.npz"]
        finally:
            store.close()
        assert not os.path.exists(first.path)

