"""The four workloads: how each is set up and run through the scheduler.

Set-up mirrors what ``repro schedule`` pays before verifying: importing
``repro``, ``load_network`` on every network of the job list, and building
one ``VerificationJob`` per job.  A run is every phase of the workload in
order, each phase one ``Scheduler(...).run()``.

This module imports ``repro`` lazily so that a set-up probe can time the
import itself.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

#: Scheduler options per workload (the measured configuration).
OPTIONS = {
    "fig06-deeppoly": {},
    "learned-process": {"executor_kind": "process", "workers": 2},
    "finetune-reverify": {"cache": True, "incremental": True},
    "netabs-screen": {"abstraction": "syntactic", "precision_escalation": True},
}

#: The plain path every reference verdict comes from: serial executor,
#: float64, abstraction off, no cache, no incremental.
PLAIN = {}


@dataclass
class Loaded:
    """A workload's job list, loaded and built (the set-up product)."""

    jobs: list
    phases: list[list[int]]


def load(directory: Path, load_network=None) -> Loaded:
    """``load_network`` every network and build every job.

    ``load_network`` defaults to ``repro.nn.serialize.load_network``; the
    traced run passes its timed wrapper.
    """
    import numpy as np

    from repro.abstract.domains import DEEPPOLY
    from repro.attack.pgd import PGDConfig
    from repro.core.config import VerifierConfig
    from repro.core.policy import BisectionPolicy
    from repro.core.property import RobustnessProperty
    from repro.learn.pretrained import pretrained_policy
    from repro.sched import VerificationJob
    from repro.utils.boxes import Box

    if load_network is None:
        from repro.nn.serialize import load_network

    listing = json.loads((directory / "jobs.json").read_text())
    networks = {
        name: load_network(directory / path)
        for name, path in listing["networks"].items()
    }
    settings = listing["settings"]
    policy = {
        "deeppoly": lambda: BisectionPolicy(domain=DEEPPOLY),
        "learned": pretrained_policy,
    }[settings["policy"]]()
    pgd = PGDConfig()
    if "pgd_steps" in settings:
        pgd = PGDConfig(
            steps=settings["pgd_steps"], restarts=settings["pgd_restarts"]
        )
    config = VerifierConfig(
        timeout=None, max_depth=settings["max_depth"], pgd=pgd
    )
    jobs = []
    with np.load(directory / "regions.npz") as regions:
        for index, spec in enumerate(listing["jobs"]):
            box = Box(regions[f"low_{index}"], regions[f"high_{index}"])
            jobs.append(
                VerificationJob(
                    networks[spec["network"]],
                    RobustnessProperty(box, spec["label"], name=spec["name"]),
                    config=config,
                    policy=policy,
                    seed=spec["seed"],
                    name=spec["name"],
                )
            )
    phases = [phase["jobs"] for phase in listing["phases"]]
    return Loaded(jobs, phases)


def run(loaded: Loaded, options: dict, cache_dir: Path):
    """Every phase in order, each one ``Scheduler(...).run()``.

    Returns ``(attempts, reports)``: ``(job_index, JobResult)`` per job
    attempt in phase order, and the phases' ``ScheduleReport``s.  A cache,
    when the options ask for one, starts empty in ``cache_dir``.
    """
    from repro.sched import ResultCache, Scheduler

    options = dict(options)
    cache = None
    if options.pop("cache", False):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(cache_dir)
    options.setdefault("backend", "numpy64")
    options.setdefault("precision_escalation", False)
    attempts, reports = [], []
    for phase in loaded.phases:
        report = Scheduler(
            [loaded.jobs[index] for index in phase], cache=cache, **options
        ).run()
        reports.append(report)
        attempts.extend(zip(phase, report.results))
    return attempts, reports


def verdicts(attempts) -> list[str]:
    return [result.outcome.kind for _, result in attempts]
