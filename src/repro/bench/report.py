"""Report generation: the rows/series behind each figure of §7.

Every helper consumes a :class:`~repro.bench.harness.ResultTable` and emits
plain data (dicts/lists) plus an ASCII rendering, so benches can both assert
on shapes and print paper-style tables.
"""

from __future__ import annotations

from repro.bench.harness import KINDS, ResultTable


def summary_percentages(table: ResultTable) -> dict[str, dict[str, float]]:
    """Figure 6's bars: per tool, the percentage of each outcome kind."""
    summary: dict[str, dict[str, float]] = {}
    for tool in table.tools():
        records = table.of(tool)
        total = len(records)
        summary[tool] = {
            kind: 100.0 * sum(r.kind == kind for r in records) / total
            for kind in KINDS
        }
    return summary


def solved_counts(table: ResultTable) -> dict[str, int]:
    """Per tool, how many benchmarks were verified or falsified."""
    return {
        tool: sum(r.solved for r in table.of(tool)) for tool in table.tools()
    }


def cactus_series(table: ResultTable, tool: str) -> list[tuple[int, float]]:
    """Figures 7–13's series: (#solved, cumulative seconds), sorted by time.

    Only solved benchmarks contribute, as in the paper ("results for each
    tool include only those benchmarks that the tool could solve").
    """
    times = sorted(r.time_seconds for r in table.of(tool) if r.solved)
    series: list[tuple[int, float]] = []
    total = 0.0
    for i, t in enumerate(times, start=1):
        total += t
        series.append((i, total))
    return series


def speedup_on_common(
    table: ResultTable, tool_a: str, tool_b: str
) -> float | None:
    """Total-time ratio ``tool_b / tool_a`` on commonly-solved benchmarks.

    The paper reports e.g. "6.15x faster than AI2-Bounded64 among benchmarks
    solved by both tools".  ``None`` when the common set is empty.
    """
    common = [
        (ra.time_seconds, rb.time_seconds)
        for ra, rb in zip(table.of(tool_a), table.of(tool_b))
        if ra.solved and rb.solved
    ]
    if not common:
        return None
    time_a = sum(t for t, _ in common)
    time_b = sum(t for _, t in common)
    if time_a <= 0:
        return None
    return time_b / time_a


def falsification_counts(table: ResultTable) -> dict[str, int]:
    """§7.3's comparison: falsified benchmarks per tool."""
    return {
        tool: sum(r.kind == "falsified" for r in table.of(tool))
        for tool in table.tools()
    }


def verified_subset_solved(
    table: ResultTable, reference: str, other: str
) -> tuple[int, int]:
    """Figure 15's measurement: on the benchmarks the reference tool
    *verified*, how many does the other tool solve?

    Returns ``(other_solved, reference_verified)``.
    """
    ref_records = table.of(reference)
    other_records = table.of(other)
    verified_idx = [i for i, r in enumerate(ref_records) if r.kind == "verified"]
    solved = sum(other_records[i].solved for i in verified_idx)
    return solved, len(verified_idx)


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------


def format_summary(table: ResultTable, title: str = "Summary") -> str:
    """Figure-6-style table: one row per tool, one column per outcome."""
    summary = summary_percentages(table)
    lines = [title, f"{'tool':<16} " + " ".join(f"{k:>10}" for k in KINDS)]
    for tool, row in summary.items():
        cells = " ".join(f"{row[k]:>9.1f}%" for k in KINDS)
        lines.append(f"{tool:<16} {cells}")
    return "\n".join(lines)


def format_cactus(table: ResultTable, title: str = "Cactus") -> str:
    """Figures-7-13-style series: cumulative time vs. benchmarks solved."""
    lines = [title]
    for tool in table.tools():
        series = cactus_series(table, tool)
        if series:
            points = " ".join(f"({n},{t:.2f}s)" for n, t in series)
            lines.append(f"{tool:<16} solved={series[-1][0]:>3}  {points}")
        else:
            lines.append(f"{tool:<16} solved=  0")
    return "\n".join(lines)


def format_counts(counts: dict[str, int], title: str) -> str:
    lines = [title]
    for tool, count in counts.items():
        lines.append(f"  {tool:<16} {count}")
    return "\n".join(lines)
