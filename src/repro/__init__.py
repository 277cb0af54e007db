"""repro — a from-scratch reproduction of Charon (PLDI 2019).

    Anderson, Pailoor, Dillig, Chaudhuri.
    "Optimization and Abstraction: A Synergistic Approach for Analyzing
    Neural Network Robustness."

The library couples gradient-based counterexample search (PGD) with
abstract interpretation (intervals, zonotopes, bounded powersets) through a
learned verification policy, yielding a sound and δ-complete robustness
decision procedure.  See README.md for a tour and DESIGN.md for the system
inventory.

Quickstart::

    import numpy as np
    from repro import Box, RobustnessProperty, verify
    from repro.nn import xor_network

    net = xor_network()
    prop = RobustnessProperty(Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1)
    outcome = verify(net, prop)
    assert outcome.kind == "verified"
"""

from repro.utils.boxes import Box
from repro.core.property import (
    RobustnessProperty,
    brightening_property,
    linf_property,
)
from repro.core.config import VerifierConfig
from repro.core.results import Falsified, Timeout, Verified
from repro.core.policy import (
    BisectionPolicy,
    LinearPolicy,
    VerificationPolicy,
    default_policy,
)
from repro.core.verifier import Verifier, verify
from repro.abstract.domains import DomainSpec, INTERVAL, ZONOTOPE
from repro.abstract.analyzer import analyze

__version__ = "1.0.0"

__all__ = [
    "Box",
    "RobustnessProperty",
    "linf_property",
    "brightening_property",
    "VerifierConfig",
    "Verified",
    "Falsified",
    "Timeout",
    "VerificationPolicy",
    "LinearPolicy",
    "BisectionPolicy",
    "default_policy",
    "Verifier",
    "verify",
    "DomainSpec",
    "INTERVAL",
    "ZONOTOPE",
    "analyze",
    "__version__",
]
