"""Kernel execution layer: serial and process-pooled execution of
independent kernel calls (§6's "different threads"), shared by the
scheduler and scheduled policy training; the worker count picks one.
Every process submission crosses one way (:mod:`repro.exec.calls`): the
function's name plus its pickled arguments, with each network sent as a
handle that a worker loads once."""

from repro.exec.executor import (
    EXECUTOR_KINDS,
    KernelExecutor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    validate_executor_spec,
)

__all__ = [
    "KernelExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_KINDS",
    "make_executor",
    "validate_executor_spec",
]
