"""Policy learning: Bayesian optimization of the verification policy (§4.2),
rebuilt on the multi-property scheduler — candidate θs evaluate as job
manifests through fused, cache-aware, worker-pooled scheduler runs.

The trainer (and with it the scipy-backed Bayesian optimizer) loads on
first use, so deploying a policy — ``pretrained_policy``, ``load_policy``,
or ``python -m repro verify`` — does not pay for the training stack."""

from repro.learn.objective import (
    COST_MODELS,
    PolicyCostObjective,
    TrainingProblem,
)
from repro.learn.pretrained import (
    PRETRAINED_THETA,
    load_policy,
    pretrained_policy,
)

_TRAINER_EXPORTS = ("PolicyTrainer", "TrainedPolicy", "train_policy")


def __getattr__(name: str):
    if name in _TRAINER_EXPORTS:
        from repro.learn import trainer

        return getattr(trainer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "COST_MODELS",
    "PolicyCostObjective",
    "TrainingProblem",
    *_TRAINER_EXPORTS,
    "PRETRAINED_THETA",
    "load_policy",
    "pretrained_policy",
]
