"""Run options: the one record that carries a run's options to the Scheduler.

Every entry point that runs Algorithm 1 — ``repro verify``, ``schedule``,
``diff-verify`` and ``train``, :class:`~repro.learn.PolicyTrainer`,
:class:`~repro.learn.PolicyCostObjective` and a direct
:class:`~repro.sched.Scheduler` call — hands the scheduler one frozen
:class:`RunOptions`; :class:`~repro.core.Verifier` runs with the
default record.  Nothing else sets a run option: no environment
variable is read, and no process-wide switch is flipped, so a run's
options are exactly the record's fields and each option is checked in
one place, :meth:`RunOptions.__post_init__`.  The order in which a
round takes jobs is not an option: it is fixed (deepest frontier
first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.abstract.netabs import ABSTRACTION_MODES, DEFAULT_LEVEL
from repro.backend import BACKEND_CHOICES
from repro.exec import EXECUTOR_KINDS, validate_executor_spec


class RunOptionError(ValueError):
    """A bad :class:`RunOptions` value; ``field`` names the field at fault."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class RunOptions:
    """How a scheduler run executes its jobs (the jobs carry what to verify).

    Attributes:
        workers: cores for independent kernel groups; ``1`` runs
            everything inline on a :class:`~repro.exec.SerialExecutor`,
            more run them on a :class:`~repro.exec.ProcessExecutor`.
        executor_kind: ``"serial"`` or ``"process"``, naming the kind
            ``workers`` already picks.  ``perfbench``'s
            ``learned-process`` workload passes ``"process"``, so the
            field stays until that workload drops it.
        backend: array backend for the run's kernels (``numpy64`` /
            ``numpy32``); ``None`` runs on the caller's active backend.
            Each precision phase runs inside ``use_backend`` of its own
            backend, and every kernel call carries it into a worker.
        precision_escalation: the two-phase mixed-precision mode —
            screen every job on the fast float32 backend, accept
            falsifications whose witness survives a concrete float64
            forward pass, accept comfortable certifications, and re-run
            only the near-margin or undecided jobs on float64.
        escalation_margin: PGD-margin comfort threshold: a screen-phase
            certification whose attack never got within it of the
            decision boundary keeps its float32 verdict.
        abstraction: the network-abstraction CEGAR pre-pass: ``"off"``,
            ``"syntactic"`` or ``"semantic"``.
        abstraction_level: merge aggressiveness; each hidden layer keeps
            ~``width / 2**level`` groups (``>= 1`` when abstraction is on).
        incremental: prefix-checkpoint reuse for the fused Analyze
            groups: each resumes from the deepest cached checkpoint whose
            digest-chain link its network still shares (bitwise the cold
            result) and records checkpoints at the deeper boundaries.
            Needs the scheduler's ``cache``; inert for domains without
            checkpoint support.
    """

    workers: int = 1
    executor_kind: str | None = None
    backend: str | None = None
    precision_escalation: bool = False
    escalation_margin: float = 1e-2
    abstraction: str = "off"
    abstraction_level: int = DEFAULT_LEVEL
    incremental: bool = False

    def __post_init__(self) -> None:
        try:
            validate_executor_spec(None, self.workers, kind=self.executor_kind)
        except ValueError as exc:
            known = self.executor_kind in (None, *EXECUTOR_KINDS)
            field = "workers" if known else "executor_kind"
            raise RunOptionError(field, str(exc)) from None
        checks = (
            (
                "backend",
                self.backend is None or self.backend in BACKEND_CHOICES,
                f"unknown backend {self.backend!r}; "
                f"available: {BACKEND_CHOICES}",
            ),
            (
                "escalation_margin",
                not math.isnan(self.escalation_margin),
                "escalation_margin must be a number, got nan",
            ),
            (
                "abstraction",
                self.abstraction in ABSTRACTION_MODES,
                f"unknown abstraction mode {self.abstraction!r}; "
                f"choose from {ABSTRACTION_MODES}",
            ),
            (
                # A level below 1 would run the concrete network under an
                # ``abstraction: <mode> level <N>`` report line.
                "abstraction_level",
                self.abstraction == "off" or self.abstraction_level >= 1,
                f"abstraction_level must be >= 1 with abstraction "
                f"{self.abstraction!r}, got {self.abstraction_level}",
            ),
        )
        for field, ok, message in checks:
            if not ok:
                raise RunOptionError(field, message)
