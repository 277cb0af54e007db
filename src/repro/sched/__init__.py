"""Multi-property verification scheduling (the §6 parallelism, cross-property).

The paper treats every sub-region as an independent work item; PR 1's
batched engine exploited that *within* one property.  This package widens
the scope to whole job manifests: many (network, property) pairs drive one
shared frontier so fused PGD/Analyze sweeps mix sub-regions from different
properties of the same network and keep every ``batch_size`` slot full.
Each round takes every active job's next chunk (up to 512 items) and
sends its Analyze groups as calls of at most 8 regions, so a process
pool has several independent calls to run at once.

- :mod:`repro.sched.job` — :class:`VerificationJob` / :class:`JobQueue`.
- :mod:`repro.sched.frontier` — FIFO / DFS / hardest-first frontier
  policies plus the fixed fused-sweep width tests pass in.
- :mod:`repro.sched.cache` — the persistent content-addressed result
  cache (network/property/config digests, certified-radius queries).
- :mod:`repro.sched.options` — :class:`RunOptions`, the one record that
  carries a run's options (backend, escalation, abstraction, executor...)
  to the scheduler.
- :mod:`repro.sched.scheduler` — the :class:`Scheduler` engine and its
  :class:`ScheduleReport`.  It is the only frontier engine: a one-job run
  is the single-property case (``BatchedVerifier``, ``repro verify``).

Per-job results are independent of scheduling — identical to the job's
one-job run up to the BLAS-kernel round-off budget of the batched kernels
(fusing changes GEMM operand shapes, nothing else; the equivalence tests
pin exact-equal witnesses and counters on the stock numpy build); see
DESIGN.md §6.
"""

from repro.sched.cache import (
    CacheRecord,
    PruneResult,
    ResultCache,
    cacheable,
    config_digest,
    job_key,
    point_digest,
    policy_digest,
    property_digest,
)
from repro.sched.frontier import (
    FRONTIER_POLICIES,
    DfsFrontier,
    FifoFrontier,
    FixedBatchController,
    FrontierPolicy,
    PriorityFrontier,
    make_frontier,
)
from repro.sched.job import JobQueue, VerificationJob
from repro.sched.options import RunOptionError, RunOptions
from repro.sched.scheduler import (
    JobResult,
    ScheduleReport,
    Scheduler,
)

__all__ = [
    "VerificationJob",
    "JobQueue",
    "Scheduler",
    "RunOptions",
    "RunOptionError",
    "ScheduleReport",
    "JobResult",
    "FrontierPolicy",
    "FifoFrontier",
    "DfsFrontier",
    "PriorityFrontier",
    "FRONTIER_POLICIES",
    "make_frontier",
    "FixedBatchController",
    "PruneResult",
    "ResultCache",
    "CacheRecord",
    "cacheable",
    "job_key",
    "property_digest",
    "policy_digest",
    "config_digest",
    "point_digest",
]
