"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import mnist_like
from repro.nn.builders import mlp
from repro.nn.training import TrainConfig, train_classifier
from repro.utils.boxes import Box


@pytest.fixture(scope="session")
def trained_tiny_net():
    """A small trained classifier on the synthetic MNIST-like data.

    Session-scoped: training runs once for the whole suite.
    """
    dataset = mnist_like(num_samples=600, image_size=6, rng=0)
    flat = dataset.inputs.reshape(len(dataset), -1)
    network = mlp(flat.shape[1], [16, 16], dataset.num_classes, rng=0)
    train_classifier(
        network,
        flat,
        dataset.labels,
        TrainConfig(epochs=6, batch_size=64, learning_rate=0.01),
        rng=0,
    )
    return network, dataset


@pytest.fixture(scope="module")
def powerset_jobs():
    """Six (Z, 2) jobs on one network: verified jobs and depth-cap
    timeouts over seven rounds, and every round's Analyze group holds
    more regions than one scheduler call may carry."""
    from repro.abstract.domains import DomainSpec
    from repro.core.config import VerifierConfig
    from repro.core.policy import BisectionPolicy
    from repro.core.property import linf_property
    from repro.sched import VerificationJob

    net = mlp(4, [12], 3, rng=2)
    config = VerifierConfig(timeout=30.0, batch_size=8, max_depth=6)
    policy = BisectionPolicy(domain=DomainSpec("zonotope", 2))
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(6):
        prop = linf_property(
            net, rng.uniform(0.3, 0.7, 4), 0.25, name=f"z{i}"
        )
        jobs.append(
            VerificationJob(
                net, prop, config=config, policy=policy, seed=i,
                name=prop.name,
            )
        )
    return jobs


def random_mlp(seed: int, n_in: int = 4, hidden: tuple[int, ...] = (10, 10), n_out: int = 3):
    """A deterministic random MLP for fuzz-style tests."""
    return mlp(n_in, list(hidden), n_out, rng=seed)


def random_box(seed: int, n: int = 4, max_radius: float = 0.8) -> Box:
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, size=n)
    radius = rng.uniform(0.05, max_radius, size=n)
    return Box(center - radius, center + radius)
