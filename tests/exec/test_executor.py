"""Tests for the kernel execution layer (repro.exec)."""

import threading

import pytest

from repro.exec import (
    PooledExecutor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)


class TestSerialExecutor:
    def test_runs_inline_in_submission_order(self):
        executor = SerialExecutor()
        trace = []
        futures = [executor.submit(trace.append, i) for i in range(5)]
        # Inline execution: everything already happened, in order.
        assert trace == list(range(5))
        assert all(f.done() for f in futures)

    def test_result_and_exception_mirror_future_semantics(self):
        executor = SerialExecutor()
        assert executor.submit(lambda: 42).result() == 42
        failing = executor.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()



class TestPooledExecutor:
    def test_validates_workers(self):
        with pytest.raises(ValueError, match="workers"):
            PooledExecutor(0)

    def test_runs_submissions(self):
        with PooledExecutor(2) as executor:
            futures = [executor.submit(pow, 3, i) for i in range(5)]
            assert [f.result() for f in futures] == [3**i for i in range(5)]

    def test_shutdown_cancels_backlog(self):
        release = threading.Event()
        ran = []
        executor = PooledExecutor(1)
        executor.submit(lambda: release.wait(5.0))
        queued = executor.submit(ran.append, 1)
        release.set()
        executor.shutdown(cancel_pending=True)
        assert queued.cancelled() or ran == [1]

    def test_shutdown_is_idempotent(self):
        executor = PooledExecutor(2)
        executor.submit(lambda: 1).result()
        executor.shutdown()
        executor.shutdown()

    def test_submit_after_shutdown_raises(self):
        # Silently resurrecting the pool here used to leak one thread
        # pool per stray submit in long-lived runs (nobody owned the new
        # pool's shutdown); a dead executor must stay dead.
        executor = PooledExecutor(2)
        executor.submit(lambda: 1).result()
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(lambda: 2)

    def test_submit_after_shutdown_raises_even_if_never_used(self):
        executor = PooledExecutor(2)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(lambda: 1)


class TestMakeExecutor:
    def test_workers_one_is_serial(self):
        executor, owned = make_executor(workers=1)
        assert isinstance(executor, SerialExecutor) and owned

    def test_many_workers_is_pooled(self):
        executor, owned = make_executor(workers=3)
        assert isinstance(executor, PooledExecutor) and owned
        assert executor.workers == 3
        executor.shutdown()

    def test_explicit_executor_is_not_owned(self):
        mine = SerialExecutor()
        executor, owned = make_executor(mine, workers=8)
        assert executor is mine and not owned

    def test_validates_workers(self):
        with pytest.raises(ValueError, match="workers"):
            make_executor(workers=0)

    def test_explicit_kinds(self):
        executor, owned = make_executor(workers=1, kind="serial")
        assert isinstance(executor, SerialExecutor) and owned
        executor, owned = make_executor(workers=1, kind="pooled")
        assert isinstance(executor, PooledExecutor) and owned
        assert executor.workers == 1
        executor.shutdown()
        executor, owned = make_executor(workers=2, kind="process")
        assert isinstance(executor, ProcessExecutor) and owned
        assert executor.workers == 2 and executor.name == "process"
        executor.shutdown()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="executor kind"):
            make_executor(workers=2, kind="gpu")

    def test_rejects_serial_with_many_workers(self):
        with pytest.raises(ValueError, match="serial"):
            make_executor(workers=4, kind="serial")

    def test_rejects_kind_alongside_ready_executor(self):
        mine = SerialExecutor()
        with pytest.raises(ValueError, match="not both"):
            make_executor(mine, kind="pooled")

