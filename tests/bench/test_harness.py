"""Tests for the benchmark runner and tool adapters."""

import numpy as np
import pytest

from repro.bench.harness import (
    BenchRecord,
    ResultTable,
    ToolAdapter,
    ai2_adapter,
    charon_adapter,
    reluplex_adapter,
    reluval_adapter,
    run_suite,
)
from repro.bench.suites import BenchmarkProblem
from repro.core.property import RobustnessProperty
from repro.nn.builders import lenet_conv, xor_network
from repro.utils.boxes import Box


def xor_problems():
    robust = RobustnessProperty(
        Box(np.array([0.4, 0.4]), np.array([0.6, 0.6])), 1, name="robust"
    )
    broken = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0, name="broken")
    return [
        BenchmarkProblem("xor", robust),
        BenchmarkProblem("xor", broken),
    ]


class TestRecords:
    def test_solved_semantics(self):
        assert BenchRecord("verified", 0.1).solved
        assert BenchRecord("falsified", 0.1).solved
        assert not BenchRecord("timeout", 0.1).solved
        assert not BenchRecord("unknown", 0.1).solved


class TestAdapters:
    def test_charon_adapter(self):
        adapter = charon_adapter(timeout=10.0)
        record = adapter.run(xor_network(), xor_problems()[0].prop)
        assert record.kind == "verified"

    def test_ai2_adapter_names(self):
        assert ai2_adapter(1.0, bounded=True).name == "AI2-Bounded64"
        assert ai2_adapter(1.0, bounded=False).name == "AI2-Zonotope"

    def test_ai2_cannot_falsify(self):
        adapter = ai2_adapter(timeout=10.0, bounded=False)
        record = adapter.run(xor_network(), xor_problems()[1].prop)
        assert record.kind == "unknown"

    def test_reluval_adapter(self):
        adapter = reluval_adapter(timeout=10.0)
        record = adapter.run(xor_network(), xor_problems()[0].prop)
        assert record.kind == "verified"

    def test_reluplex_adapter(self):
        adapter = reluplex_adapter(timeout=10.0)
        record = adapter.run(xor_network(), xor_problems()[0].prop)
        assert record.kind == "verified"

    def test_reluplex_adapter_conv_is_unknown(self):
        # Architecture limitation surfaces as "unknown" instead of a crash.
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        prop = RobustnessProperty(
            Box.linf_ball(np.full(16, 0.5), 0.01), 0
        )
        record = reluplex_adapter(timeout=5.0).run(net, prop)
        assert record.kind == "unknown"


class TestRunSuite:
    def test_table_alignment(self):
        problems = xor_problems()
        networks = {"xor": xor_network()}
        tools = [charon_adapter(10.0), ai2_adapter(10.0, bounded=False)]
        table = run_suite(tools, problems, networks)
        assert set(table.tools()) == {"Charon", "AI2-Zonotope"}
        assert len(table.of("Charon")) == len(problems)

    def test_charon_falsifies_where_ai2_cannot(self):
        problems = xor_problems()
        networks = {"xor": xor_network()}
        table = run_suite(
            [charon_adapter(10.0), ai2_adapter(10.0, bounded=False)],
            problems,
            networks,
        )
        assert table.of("Charon")[1].kind == "falsified"
        assert table.of("AI2-Zonotope")[1].kind == "unknown"

    def test_rejects_empty_tools(self):
        with pytest.raises(ValueError, match="at least one tool"):
            run_suite([], xor_problems(), {"xor": xor_network()})

    def test_rejects_unknown_kind(self):
        bad = ToolAdapter("Bad", lambda n, p: BenchRecord("maybe", 0.0))
        with pytest.raises(ValueError, match="unknown kind"):
            run_suite([bad], xor_problems()[:1], {"xor": xor_network()})
