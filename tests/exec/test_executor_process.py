"""Tests for spawn-based process-pool kernel execution.

Covers the :class:`~repro.exec.ProcessExecutor` contract the scheduler
relies on — ordered results, a clear error (not a hang) when a worker is
killed mid-call — plus the descriptor layer
(:mod:`repro.exec.calls`): known kernel calls must come back bitwise
identical to their in-process results, with the network shipped once per
worker, and workers must run with pinned single-threaded BLAS.

Helpers are module-level on purpose: spawn workers import this module to
unpickle them.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.abstract.analyzer import analyze_batch_multi
from repro.abstract.domains import DomainSpec
from repro.attack.objective import MultiLabelMarginObjective
from repro.attack.pgd import PGDConfig, pgd_minimize_batch
from repro.exec import ProcessExecutor
from repro.exec.calls import NetworkStore, marshal_call, run_kernel_call
from repro.nn.builders import mlp
from repro.utils.boxes import Box


@pytest.fixture(scope="module")
def executor():
    """One two-worker pool for the whole module (spawn startup is slow)."""
    with ProcessExecutor(2) as ex:
        yield ex


def _ok(value):
    return value


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _crash(code):
    os._exit(code)


def _network_cache_digests(_):
    from repro.exec.calls import _NETWORK_CACHE

    return sorted(_NETWORK_CACHE)


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
            # The process boundary deliberately strips output elements.
            assert got.output is None

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
        # Cold capture through the pool: results match inline (outputs
        # stripped), checkpoints come back whole.
        results, shipped = executor.submit(
            analyze_batch_checkpointed, network, regions, labels, domain,
            None, None, tuple(boundaries),
        ).result()
        assert [r.margin_lower_bound for r in results] == [
            r.margin_lower_bound for r in reference
        ]
        assert all(r.output is None for r in results)
        assert [c.boundary for c in shipped] == boundaries
        for got, ref in zip(shipped, captured):
            assert got.prefix_digest == ref.prefix_digest
            for name, arr in ref.arrays.items():
                np.testing.assert_array_equal(got.arrays[name], arr)
        # Resume operand crosses the boundary too (flattened into
        # prefix_state_* payload keys) and reproduces the cold margins.
        resumed, _ = executor.submit(
            analyze_batch_checkpointed, network, regions, labels, domain,
            None, captured[-1], (),
        ).result()
        assert [r.margin_lower_bound for r in resumed] == [
            r.margin_lower_bound for r in reference
        ]

    def test_network_ships_once_per_worker(self, kernel_case):
        network, regions, labels = kernel_case
        domain = DomainSpec("interval", 1)
        with ProcessExecutor(1) as solo:
            for _ in range(3):
                solo.submit(
                    analyze_batch_multi, network, regions, labels, domain, None
                ).result()
            digests = solo.submit(_network_cache_digests, None).result()
        # Three calls, one cached deserialization.
        assert len(digests) == 1

    def test_marshaller_recognizes_known_kernels(self, kernel_case):
        network, regions, labels = kernel_case
        store = NetworkStore()
        try:
            objective = MultiLabelMarginObjective(network, labels)
            rngs = [np.random.default_rng(i) for i in range(len(regions))]
            call = marshal_call(
                pgd_minimize_batch,
                (objective, regions, PGDConfig(steps=3), rngs, None),
                {},
                store,
            )
            assert call is not None and "pgd_minimize_entry" in call.entry
            # Descriptors round-trip through the worker-side dispatcher
            # even in-process (entry points are plain functions).  The
            # dispatcher wraps the value in an ObsEnvelope carrying the
            # run's counter delta; the executor unwraps it for callers.
            envelope = run_kernel_call(call)
            x_stars, f_stars = envelope.value
            assert envelope.counters.get("kernel.pgd_rows", 0) == len(regions)
            assert x_stars.shape == (len(regions), 4)
            assert f_stars.shape == (len(regions),)
            # Unknown calls fall back to plain pickling.
            assert marshal_call(pow, (2, 3), {}, store) is None
        finally:
            store.close()

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


def _psm_segments():
    """Names of POSIX shared-memory segments currently in /dev/shm.

    ``multiprocessing.shared_memory`` names its segments ``psm_*``; the
    prefix filter keeps pool semaphores (``sem.*``) out of the diff.
    """
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("psm_")}
    except OSError:  # non-Linux: fall back to the arena's own accounting
        return set()


def _wait_drained(arena, timeout=5.0):
    """Poll until the arena holds no live segments (done callbacks may
    fire a beat after ``result()`` returns); return the final count."""
    deadline = time.monotonic() + timeout
    while arena.live_segments() and time.monotonic() < deadline:
        time.sleep(0.01)
    return arena.live_segments()


class TestShmTransport:
    """No shared-memory segment outlives its call — or the executor.

    Segments are parent-owned (workers only ever attach), so the two
    leak paths are the parent forgetting to release after a completed
    call and the parent never reaching release because the worker died.
    Both are pinned here against /dev/shm itself, not just the arena's
    bookkeeping.
    """

    def test_segments_drain_and_unlink_on_shutdown(self, kernel_case):
        network, regions, labels = kernel_case
        domain = DomainSpec("zonotope", 2)
        reference = analyze_batch_multi(network, regions, labels, domain, None)
        before = _psm_segments()
        executor = ProcessExecutor(2, shm_threshold=0)
        try:
            # Park both workers so the kernel calls queue: their operand
            # segments (created synchronously at submit) must be live
            # until each call completes — proof the transport engaged.
            blockers = [executor.submit(_sleep_then, 0.4, i) for i in range(2)]
            futures = [
                executor.submit(
                    analyze_batch_multi, network, regions, labels, domain, None
                )
                for _ in range(3)
            ]
            arena = executor._shm
            assert arena is not None and arena.enabled
            assert arena.live_segments() > 0
            for blocker in blockers:
                blocker.result(timeout=60)
            for future in futures:
                results = future.result(timeout=60)
                for got, ref in zip(results, reference):
                    assert got.verified == ref.verified
                    assert got.margin_lower_bound == ref.margin_lower_bound
            assert _wait_drained(arena) == 0
        finally:
            executor.shutdown()
        assert arena.live_segments() == 0
        assert _psm_segments() - before == set()

    def test_killed_worker_leaks_no_segments(self, kernel_case):
        network, regions, labels = kernel_case
        domain = DomainSpec("zonotope", 2)
        before = _psm_segments()
        executor = ProcessExecutor(2, shm_threshold=0)
        try:
            # Queue shm-backed kernel calls behind a worker kill: the
            # pool breaks, the queued futures complete with
            # BrokenProcessPool, and their done callbacks must still
            # release every segment — no worker ever attached them.
            blockers = [executor.submit(_sleep_then, 0.3, i) for i in range(2)]
            executor.submit(_crash, 11)
            futures = [
                executor.submit(
                    analyze_batch_multi, network, regions, labels, domain, None
                )
                for _ in range(3)
            ]
            arena = executor._shm
            assert arena is not None
            assert arena.live_segments() > 0
            for future in blockers + futures:
                try:
                    future.result(timeout=60)
                except BrokenProcessPool:
                    pass
            assert _wait_drained(arena) == 0
        finally:
            executor.shutdown()
        assert arena.live_segments() == 0
        assert _psm_segments() - before == set()
