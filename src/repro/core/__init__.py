"""Charon's core: robustness properties, verification policies, Algorithm 1.

Public surface:

- :class:`repro.core.property.RobustnessProperty` — the pair ``(I, K)``.
- :class:`repro.core.config.VerifierConfig` — δ, budgets, PGD settings.
- :class:`repro.core.policy.LinearPolicy` — the learned policy
  ``φ(θ · ρ(N, I, K, x*))`` with its domain/partition selection functions.
- :func:`repro.core.verifier.verify` — the sound, δ-complete decision
  procedure (Algorithm 1).
"""

from repro.core.property import RobustnessProperty, brightening_property, linf_property
from repro.core.config import VerifierConfig
from repro.core.results import Falsified, Timeout, Verified, VerificationStats
from repro.core.features import featurize, FEATURE_NAMES
from repro.core.policy import (
    BisectionPolicy,
    DomainChoice,
    LinearPolicy,
    SplitChoice,
    VerificationPolicy,
    default_policy,
)
from repro.core.verifier import Verifier, WorkItem, verify
from repro.core.radius import RadiusResult, certified_accuracy, certified_radius

__all__ = [
    "RadiusResult",
    "certified_radius",
    "certified_accuracy",
    "RobustnessProperty",
    "linf_property",
    "brightening_property",
    "VerifierConfig",
    "Verified",
    "Falsified",
    "Timeout",
    "VerificationStats",
    "featurize",
    "FEATURE_NAMES",
    "DomainChoice",
    "SplitChoice",
    "VerificationPolicy",
    "LinearPolicy",
    "BisectionPolicy",
    "default_policy",
    "Verifier",
    "verify",
    "WorkItem",
]
