"""Plain-text tables, CSV output and cycle summaries for the experiments.

Every experiment bench renders its results through :class:`Table`, so
``pytest benchmarks/ --benchmark-only`` prints the same rows the paper's
tables would hold, and EXPERIMENTS.md quotes them verbatim;
:func:`summarize_cycles` turns a run's cycle reports into the numbers
those tables and ``parulel profile`` print.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Union

from repro.obs.metrics import percentile

if TYPE_CHECKING:  # avoid a runtime cycle: the engine imports repro.obs
    from repro.core.engine import CycleReport

__all__ = ["Table", "fault_table", "format_table", "summarize_cycles", "write_csv"]

Cell = Union[str, int, float, None]


def _render(cell: Cell, precision: int) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    precision: int = 2,
) -> str:
    """Render a fixed-width table with a rule under the header.

    Numeric columns are right-aligned; floats use ``precision`` decimals.
    """
    rendered: List[List[str]] = [[_render(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def align(cells: Sequence[str], is_header: bool) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if is_header:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(align(list(headers), True))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(align(row, False))
    return "\n".join(lines)


@dataclass
class Table:
    """Accumulates rows, prints itself, and can persist to CSV."""

    title: str
    headers: Sequence[str]
    rows: List[List[Cell]] = field(default_factory=list)
    precision: int = 2

    def add(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def __str__(self) -> str:
        return format_table(self.headers, self.rows, self.title, self.precision)

    def show(self) -> None:
        """Print with surrounding blank lines (pytest -s friendly)."""
        print()
        print(str(self))
        print()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def write_csv(path: str, headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> None:
    """One-shot CSV dump."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def fault_table(events: Iterable, title: str = "fault/recovery events") -> Table:
    """A :class:`Table` over :class:`~repro.resilience.FaultEvent` records —
    one row per event, chronological. Used by the fault benchmark and
    handy from the REPL/tests."""
    table = Table(title, ("cycle", "kind", "site", "detail"))
    for ev in events:
        table.add(ev.cycle, ev.kind, ev.site if ev.site is not None else "-", ev.detail)
    return table


def summarize_cycles(reports: "Sequence[CycleReport]") -> Dict[str, Union[int, float]]:
    """Aggregate a run's cycle reports into the quantities the experiment
    tables and the profiler print: firing-set statistics (including
    p50/p95 percentiles), redaction load, delta volume and write
    counts. Counts are ints, ratios/percentiles floats — the return type
    says so honestly instead of claiming all-float."""
    if not reports:
        return {
            "cycles": 0,
            "firings": 0,
            "mean_firing_set": 0.0,
            "max_firing_set": 0,
            "p50_firing_set": 0.0,
            "p95_firing_set": 0.0,
            "total_redacted": 0,
            "redacted_per_cycle": 0.0,
            "meta_cycles": 0,
            "wm_changes": 0,
            "writes": 0,
        }
    fired = [r.fired for r in reports]
    redacted = [r.redaction.redacted for r in reports]
    firing = [f for f in fired if f]
    return {
        "cycles": len(reports),
        "firings": sum(fired),
        "mean_firing_set": (sum(firing) / len(firing)) if firing else 0.0,
        "max_firing_set": max(fired),
        "p50_firing_set": percentile(firing, 50),
        "p95_firing_set": percentile(firing, 95),
        "total_redacted": sum(redacted),
        "redacted_per_cycle": sum(redacted) / len(reports),
        "meta_cycles": sum(r.redaction.meta_cycles for r in reports),
        "wm_changes": sum(r.delta_removes + r.delta_makes for r in reports),
        "writes": sum(len(r.writes) for r in reports),
    }
