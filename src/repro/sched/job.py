"""Verification jobs: the unit of work the multi-property scheduler runs.

A :class:`VerificationJob` is one ``(network, property)`` pair plus the
knobs of one Algorithm-1 run — config, policy, and a seed.  The seed
matters: each job derives its own ``SeedSequence`` root from it exactly
the way :func:`~repro.core.verifier.sequential_reference` does, so a
job's refinement tree, witnesses, and statistics are a pure function of
the job itself, never of which other jobs share the scheduler run or how
rounds interleave them (the reproducibility contract, DESIGN.md §6).
A :class:`~repro.sched.scheduler.Scheduler` takes its jobs as a list;
list order is the report's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import VerifierConfig
from repro.core.policy import VerificationPolicy
from repro.core.property import RobustnessProperty
from repro.nn.network import Network


@dataclass(frozen=True, eq=False)
class VerificationJob:
    """One (network, property) pair under a config/policy/seed triple.

    Attributes:
        network: the network under analysis.
        prop: the robustness property to decide.
        config: Algorithm-1 knobs; ``config.batch_size`` is the width of
            this job's frontier chunks inside fused sweeps.
        policy: domain/partition policy; ``None`` selects the default.
        seed: root of the job's ``SeedSequence`` tree (the verifiers'
            ``rng`` argument).  An integer, or a ``numpy`` Generator the
            root seed is drawn from — what :class:`~repro.core.Verifier`
            passes so a reused instance keeps its rng stream.  Cached runs
            need an integer: it is part of the cache key.
        name: identifier used in reports and manifests.
        metadata: free-form caller data carried into cache records — e.g.
            ``{"epsilon": 0.05, "center_digest": ...}`` for L∞ jobs, which
            is what lets the cache answer certified-radius queries later.
    """

    network: Network
    prop: RobustnessProperty
    config: VerifierConfig = field(default_factory=VerifierConfig)
    policy: VerificationPolicy | None = None
    seed: int | np.random.Generator = 0
    name: str = ""
    metadata: dict = field(default_factory=dict)
