"""The executor matrix's process rows under each worker start method.

``test_executor_matrix.py`` keeps one pool per width alive for the whole
module, so only the first pool it builds can fork: the others see that
pool's threads and spawn.  Here the same rows run twice, with the start
method selector patched in a fixture:

- forked: each test builds its own pools, and every pool must fork;
- spawned: every pool spawns, whatever the platform allows.

The spawned rows also check that the run's backend reaches every
worker: no environment variable carries it there.
"""

import pytest

from repro.exec import ProcessExecutor
from repro.exec import executor as executor_module
from repro.sched import Scheduler
from tests.exec.test_executor_process import needs_fork
from tests.sched import test_executor_matrix as matrix
from tests.sched.test_executor_matrix import (  # noqa: F401 - fixtures
    force_tracing,
    manifest,
    process_executors,
    serial_reports,
)


class _ProcessRows:
    """Every row of the matrix that crosses a process boundary."""

    rows = matrix.TestBatchedEngineMatrix
    test_workers_argument_builds_the_pool = (
        rows.test_workers_argument_builds_the_pool
    )
    test_process_matches_serial = rows.test_process_matches_serial
    test_executor_kind_argument_builds_the_process_pool = (
        rows.test_executor_kind_argument_builds_the_process_pool
    )
    metrics = matrix.TestMetricsAggregation
    zono_jobs = metrics.zono_jobs
    test_process_merged_metrics_equal_serial = (
        metrics.test_process_merged_metrics_equal_serial
    )
    test_worker_wait_time_is_observed = metrics.test_worker_wait_time_is_observed
    del rows, metrics


@needs_fork
class TestForkedWorkers(_ProcessRows):
    @pytest.fixture(autouse=True)
    def fork_only(self, monkeypatch):
        select = executor_module._start_method

        def must_fork():
            method = select()
            assert method == "fork", "another thread is alive: it would spawn"
            return method

        monkeypatch.setattr(executor_module, "_start_method", must_fork)

    @pytest.fixture()
    def process_executors(self):
        """Pools of this test only, so none sees another pool's threads."""
        executors = {}
        try:
            yield lambda workers: executors.setdefault(
                workers, ProcessExecutor(workers)
            )
        finally:
            for executor in executors.values():
                executor.shutdown()


class TestSpawnedWorkers(_ProcessRows):
    @pytest.fixture(autouse=True)
    def spawn_only(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_start_method", lambda: "spawn")

    def test_backend_reaches_spawned_workers(self, manifest):
        # A spawned worker starts on the module default backend; the
        # run's own backend reaches it in every kernel call descriptor.
        serial = Scheduler(manifest, backend="numpy32").run()
        report = Scheduler(manifest, backend="numpy32", workers=2).run()
        assert report.executor == "process"
        rows = [
            name for name in report.metrics
            if name.startswith("kernel.by_backend.")
        ]
        assert rows
        assert all(name.startswith("kernel.by_backend.numpy32.")
                   for name in rows)
        assert [r.outcome.kind for r in report.results] == [
            r.outcome.kind for r in serial.results
        ]
