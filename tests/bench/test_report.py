"""Tests for report generation."""

import pytest

from repro.bench.harness import BenchRecord, ResultTable
from repro.bench.report import (
    cactus_series,
    falsification_counts,
    format_cactus,
    format_counts,
    format_summary,
    solved_counts,
    speedup_on_common,
    summary_percentages,
    verified_subset_solved,
)


def synthetic_table() -> ResultTable:
    """Two tools over four benchmarks with known outcomes."""
    table = ResultTable(problems=[None] * 4)
    table.records["A"] = [
        BenchRecord("verified", 1.0),
        BenchRecord("verified", 2.0),
        BenchRecord("falsified", 0.5),
        BenchRecord("timeout", 10.0),
    ]
    table.records["B"] = [
        BenchRecord("verified", 4.0),
        BenchRecord("unknown", 0.1),
        BenchRecord("unknown", 0.1),
        BenchRecord("verified", 8.0),
    ]
    return table


class TestSummaries:
    def test_percentages(self):
        summary = summary_percentages(synthetic_table())
        assert summary["A"]["verified"] == pytest.approx(50.0)
        assert summary["A"]["falsified"] == pytest.approx(25.0)
        assert summary["A"]["timeout"] == pytest.approx(25.0)
        assert summary["B"]["unknown"] == pytest.approx(50.0)

    def test_solved_counts(self):
        counts = solved_counts(synthetic_table())
        assert counts == {"A": 3, "B": 2}

    def test_falsification_counts(self):
        counts = falsification_counts(synthetic_table())
        assert counts == {"A": 1, "B": 0}


class TestCactus:
    def test_series_sorted_cumulative(self):
        series = cactus_series(synthetic_table(), "A")
        assert series == [(1, 0.5), (2, 1.5), (3, 3.5)]

    def test_empty_when_nothing_solved(self):
        table = ResultTable(problems=[None])
        table.records["X"] = [BenchRecord("timeout", 1.0)]
        assert cactus_series(table, "X") == []


class TestComparisons:
    def test_speedup_on_common(self):
        # Common solved: benchmark 0 only (A: 1.0s, B: 4.0s).
        ratio = speedup_on_common(synthetic_table(), "A", "B")
        assert ratio == pytest.approx(4.0)

    def test_speedup_none_when_disjoint(self):
        table = ResultTable(problems=[None])
        table.records["A"] = [BenchRecord("verified", 1.0)]
        table.records["B"] = [BenchRecord("timeout", 1.0)]
        assert speedup_on_common(table, "A", "B") is None

    def test_verified_subset_solved(self):
        solved, total = verified_subset_solved(synthetic_table(), "A", "B")
        # A verified benchmarks 0 and 1; B solved only 0 of those.
        assert (solved, total) == (1, 2)


class TestFormatting:
    def test_format_summary_contains_tools(self):
        text = format_summary(synthetic_table(), title="Fig 6")
        assert "Fig 6" in text
        assert "A" in text and "B" in text
        assert "%" in text

    def test_format_cactus(self):
        text = format_cactus(synthetic_table())
        assert "solved=  3" in text or "solved=" in text

    def test_format_counts(self):
        text = format_counts({"A": 3}, "Solved")
        assert "Solved" in text and "A" in text
