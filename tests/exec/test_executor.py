"""Tests for the kernel execution layer (repro.exec)."""

import multiprocessing

import pytest

from repro.exec import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    validate_executor_spec,
)
from repro.obs.metrics import registry


@pytest.fixture(params=[1, 2], ids=["serial", "process"])
def executor(request):
    """The executor each worker count picks: inline at one worker, a
    process pool above."""
    built, _ = make_executor(workers=request.param)
    yield built
    built.shutdown()


class TestExecutorContract:
    """What engines rely on from either executor: futures with
    ``concurrent.futures`` semantics, an idempotent shutdown that keeps
    finished results, and metering under the executor's own name."""

    def test_runs_submissions(self, executor):
        futures = [executor.submit(pow, 3, i) for i in range(5)]
        assert [f.result() for f in futures] == [3**i for i in range(5)]

    def test_exceptions_surface_from_result(self, executor):
        failing = executor.submit(divmod, 1, 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()
        # A failed call leaves the executor usable.
        assert executor.submit(divmod, 7, 2).result() == (3, 1)

    def test_shutdown_is_idempotent(self, executor):
        executor.submit(pow, 2, 3).result()
        executor.shutdown()
        executor.shutdown()

    def test_cancelling_shutdown_keeps_finished_results(self, executor):
        finished = executor.submit(pow, 2, 10)
        assert finished.result() == 1024
        executor.shutdown(cancel_pending=True)
        assert finished.done() and not finished.cancelled()
        assert finished.result() == 1024

    def test_context_exit_waits_for_submissions(self, executor):
        with executor:
            futures = [executor.submit(pow, 2, i) for i in range(4)]
        assert all(f.done() for f in futures)
        assert [f.result() for f in futures] == [1, 2, 4, 8]

    def test_meters_every_call_under_its_name(self, executor):
        obs = registry()
        prefix = f"exec.{executor.name}"
        depth = obs.snapshot()["gauges"].get(f"{prefix}.queue_depth", 0)
        before = obs.counters_snapshot()
        for i in range(3):
            executor.submit(pow, 2, i)
        # Shutdown waits for the pool, so every done callback has run.
        executor.shutdown()
        delta = obs.counters_since(before)
        assert delta[f"{prefix}.submitted"] == 3
        assert delta[f"{prefix}.completed"] == 3
        assert obs.snapshot()["gauges"][f"{prefix}.queue_depth"] == depth


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


class TestMakeExecutor:
    def test_workers_one_is_serial(self):
        executor, owned = make_executor(workers=1)
        assert isinstance(executor, SerialExecutor) and owned

    def test_many_workers_is_pooled(self):
        executor, owned = make_executor(workers=3)
        assert isinstance(executor, ProcessExecutor) and owned
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
            make_executor(mine, kind="process")

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_each_kind_reports_under_its_own_name(self, kind):
        # Reports and metric names print ``executor.name``; it must be
        # the kind that selected the executor.
        executor, owned = make_executor(workers=1, kind=kind)
        try:
            assert owned and executor.name == kind and executor.workers == 1
        finally:
            executor.shutdown()


class TestValidateExecutorSpec:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"workers": 0}, "workers"),
            ({"workers": 4, "kind": "serial"}, "serial"),
            ({"workers": 2, "kind": "gpu"}, "executor kind"),
            ({"executor": SerialExecutor(), "kind": "process"}, "not both"),
        ],
        ids=["zero-workers", "serial-many", "unknown-kind", "ready-and-kind"],
    )
    def test_raises_what_make_executor_would(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            validate_executor_spec(**kwargs)

    def test_good_spec_starts_no_worker(self):
        # Engines probe their spec at construction; the probe must not
        # fork or spawn a pool that nobody will use.
        before = set(multiprocessing.active_children())
        validate_executor_spec(workers=4)
        validate_executor_spec(workers=2, kind="process")
        assert set(multiprocessing.active_children()) <= before

