"""The process-executor tests again, with every pool forced to spawn.

On Linux a pool forks its workers whenever it can
(:func:`repro.exec.executor._start_method`), so the spawn path would go
untested there.  Here the selector is patched to spawn, and the contract
tests of ``test_executor_process.py`` run unchanged against it.
"""

import pytest

from repro.exec import executor as executor_module
from tests.exec.test_executor_process import (  # noqa: F401 - fixtures
    TestKernelDescriptors,
    TestProcessExecutorBasics,
    TestShmTransport,
    TestWorkerCrash,
    executor,
    kernel_case,
)


@pytest.fixture(autouse=True)
def spawn_only(monkeypatch):
    monkeypatch.setattr(executor_module, "_start_method", lambda: "spawn")


def test_pools_spawn(executor):
    executor.submit(pow, 2, 3).result()
    assert executor.start_method == "spawn"
