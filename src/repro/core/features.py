"""Featurization ρ of a verification sub-problem (§4.1, §6).

The paper deliberately uses a *small* feature vector — Bayesian optimization
only scales to tens of dimensions, and few features regularize the learned
policy.  We implement exactly the four features listed in §6:

1. distance between the center of the input region ``I`` and the PGD
   solution ``x*``;
2. the value of the objective ``F`` at ``x*``;
3. the magnitude of the network's gradient at ``x*``;
4. the average side length of the input region.
"""

from __future__ import annotations

import numpy as np

from repro.attack.objective import MarginObjective
from repro.core.property import RobustnessProperty
from repro.nn.network import Network

FEATURE_NAMES = (
    "center_to_xstar_distance",
    "objective_at_xstar",
    "gradient_magnitude_at_xstar",
    "mean_region_width",
)

NUM_FEATURES = len(FEATURE_NAMES)


def featurize(
    network: Network,
    prop: RobustnessProperty,
    x_star: np.ndarray,
    f_star: float,
) -> np.ndarray:
    """The feature vector ``ρ(N, I, K, x*)``: shape ``(4,)``.

    Feature 1 captures how far the hardest-found point sits from the region
    center (informing where to split); feature 2 how close the problem is to
    falsification (informing how precise a domain is needed); feature 3 the
    local steepness of the network; feature 4 the scale of the region.
    """
    x_star = np.asarray(x_star, dtype=np.float64).reshape(-1)
    if x_star.size != prop.region.ndim:
        raise ValueError(
            f"x* has {x_star.size} dims, region has {prop.region.ndim}"
        )
    objective = MarginObjective(network, prop.label)
    grad = objective.gradient(x_star)
    # Huge finite weights can overflow a norm to inf; the policy's squash
    # maps inf to its limit, so the overflow is expected, not an error.
    with np.errstate(over="ignore"):
        distance = float(np.linalg.norm(x_star - prop.region.center))
        steepness = float(np.linalg.norm(grad))
    return np.array(
        [distance, float(f_star), steepness, prop.region.mean_width()]
    )
