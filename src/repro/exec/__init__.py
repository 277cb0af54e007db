"""Kernel execution layer: serial and process-pooled execution of
independent kernel calls (§6's "different threads"), shared by the
scheduler and scheduled policy training; the worker count picks one.
Process submissions cross as picklable descriptors (:mod:`repro.exec.calls`)
that ship each network once per worker; operands travel by pickle."""

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
