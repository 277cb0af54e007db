"""The benchmark runner: tools × problems under a common timeout.

Each tool is wrapped in a :class:`ToolAdapter` that normalizes outcomes to
four kinds — ``verified``, ``falsified``, ``timeout``, ``unknown`` —
matching the four bars of the paper's Figure 6.  ``solved`` means verified
or falsified (how the paper counts).

:func:`run_suite` runs every (tool, problem) pair one at a time — the
paper's setup.  The Charon adapter's
:class:`~repro.core.verifier.Verifier` is a one-job scheduler run
(:mod:`repro.sched`), so each problem's outcome is the one a many-job
scheduler run would report for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.ai2 import AI2, AI2_BOUNDED64, AI2_ZONOTOPE
from repro.baselines.reluplex import Reluplex, ReluplexConfig
from repro.baselines.reluval import ReluVal, ReluValConfig
from repro.bench.suites import BenchmarkProblem
from repro.core.config import VerifierConfig
from repro.core.policy import VerificationPolicy
from repro.core.property import RobustnessProperty
from repro.core.verifier import Verifier
from repro.nn.network import Network
from repro.utils.timing import Stopwatch

KINDS = ("verified", "falsified", "timeout", "unknown")


@dataclass(frozen=True)
class BenchRecord:
    """One (tool, benchmark) measurement."""

    kind: str
    time_seconds: float

    @property
    def solved(self) -> bool:
        return self.kind in ("verified", "falsified")


@dataclass(frozen=True)
class ToolAdapter:
    """A named callable ``(network, property) -> BenchRecord``."""

    name: str
    run: Callable[[Network, RobustnessProperty], BenchRecord]


def charon_adapter(
    timeout: float,
    policy: VerificationPolicy | None = None,
    name: str = "Charon",
    rng_seed: int = 0,
) -> ToolAdapter:
    """Our verifier (Algorithm 1) under the shared timeout."""

    def run(network: Network, prop: RobustnessProperty) -> BenchRecord:
        config = VerifierConfig(timeout=timeout)
        outcome = Verifier(network, policy, config, rng=rng_seed).verify(prop)
        return BenchRecord(outcome.kind, outcome.stats.time_seconds)

    return ToolAdapter(name, run)


def ai2_adapter(timeout: float, bounded: bool = True) -> ToolAdapter:
    """AI2 with zonotopes (``bounded=False``) or 64-zonotope powersets."""
    domain = AI2_BOUNDED64 if bounded else AI2_ZONOTOPE
    tool_name = "AI2-Bounded64" if bounded else "AI2-Zonotope"
    ai2 = AI2(domain, timeout=timeout)

    def run(network: Network, prop: RobustnessProperty) -> BenchRecord:
        result = ai2.verify(network, prop)
        return BenchRecord(result.kind, result.time_seconds)

    return ToolAdapter(tool_name, run)


def reluval_adapter(timeout: float, max_depth: int = 200) -> ToolAdapter:
    """ReluVal: symbolic intervals + smear bisection, shared timeout."""
    tool = ReluVal(ReluValConfig(timeout=timeout, max_depth=max_depth))

    def run(network: Network, prop: RobustnessProperty) -> BenchRecord:
        outcome = tool.verify(network, prop)
        return BenchRecord(outcome.kind, outcome.stats.time_seconds)

    return ToolAdapter("ReluVal", run)


def reluplex_adapter(timeout: float, node_limit: int = 20_000) -> ToolAdapter:
    """Reluplex stand-in: LP branch-and-bound, shared timeout."""
    tool = Reluplex(ReluplexConfig(timeout=timeout, node_limit=node_limit))

    def run(network: Network, prop: RobustnessProperty) -> BenchRecord:
        watch = Stopwatch().start()
        try:
            outcome = tool.verify(network, prop)
        except TypeError:
            # Unsupported architecture (max pooling): report as unknown,
            # mirroring how the paper excludes such nets from Figure 14.
            return BenchRecord("unknown", watch.stop())
        return BenchRecord(outcome.kind, outcome.stats.time_seconds)

    return ToolAdapter("Reluplex", run)


@dataclass
class ResultTable:
    """All measurements of one harness run.

    ``records[tool_name]`` aligns index-by-index with ``problems``.
    """

    problems: list[BenchmarkProblem]
    records: dict[str, list[BenchRecord]] = field(default_factory=dict)

    def add(self, tool_name: str, record: BenchRecord) -> None:
        self.records.setdefault(tool_name, []).append(record)

    def tools(self) -> list[str]:
        return list(self.records)

    def of(self, tool_name: str) -> list[BenchRecord]:
        return self.records[tool_name]


def run_suite(
    tools: list[ToolAdapter],
    problems: list[BenchmarkProblem],
    networks: dict[str, Network],
) -> ResultTable:
    """Run every tool on every problem; returns the aligned result table."""
    if not tools:
        raise ValueError("need at least one tool")
    table = ResultTable(problems=list(problems))
    for problem in problems:
        network = networks[problem.network_name]
        for tool in tools:
            record = tool.run(network, problem.prop)
            if record.kind not in KINDS:
                raise ValueError(
                    f"tool {tool.name} returned unknown kind {record.kind!r}"
                )
            table.add(tool.name, record)
    return table
