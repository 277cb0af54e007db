"""Configuration for the Charon verifier."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.pgd import PGDConfig


@dataclass(frozen=True)
class VerifierConfig:
    """Knobs for Algorithm 1.

    Attributes:
        delta: the δ of the δ-complete variant (Eq. 4).  Must be positive
            for the termination guarantee (Theorem 5.2); values near zero
            make the analysis as precise as desired (§5).
        timeout: wall-clock budget in seconds (``None`` = unlimited).  The
            paper uses 1000 s per benchmark; scaled-down benchmarks use a
            few seconds.
        max_depth: cap on the split recursion depth.  The paper's algorithm
            needs no cap in theory; in practice a cap turns pathological
            cases into explicit ``Timeout`` results instead of unbounded
            memory growth.
        min_split_fraction: splits keep at least this fraction of the width
            on each side (enforces Assumption 1 / the paper's §6 boundary
            offset).
        pgd: counterexample-search settings used at every node.
        batch_size: how many frontier sub-regions a job contributes to
            each sweep of the frontier engine
            (:class:`~repro.sched.scheduler.Scheduler`, and
            :class:`~repro.core.verifier.Verifier` on top of it).
    """

    delta: float = 1e-6
    timeout: float | None = None
    max_depth: int = 200
    min_split_fraction: float = 0.02
    pgd: PGDConfig = field(default_factory=PGDConfig)
    batch_size: int = 16

    def __post_init__(self) -> None:
        # Phrased so that NaN fails: a NaN delta would drop
        # δ-completeness, a NaN timeout the deadline.
        if not self.delta > 0:
            raise ValueError(
                "delta must be positive (Theorem 5.2 needs a strictly "
                "positive slack to terminate)"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be positive or None")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.min_split_fraction < 0.5:
            raise ValueError("min_split_fraction must lie in (0, 0.5)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
