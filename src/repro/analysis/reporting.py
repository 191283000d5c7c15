"""Plain-text tables and CSV output (no external dependencies).

Every experiment returns a :class:`Table`; benchmarks print it, the CLI
shows it, and the benchmark harness persists CSV snapshots
(``docs/EXPERIMENTS.md`` catalogs how to regenerate each table).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, List, Sequence


def format_value(value: Any, precision: int = 6) -> str:
    """Human-friendly cell formatting (engineering-ish floats)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.{precision - 2}e}"
        return f"{value:.{precision}g}"
    return str(value)


@dataclass
class Table:
    """A titled, column-ordered result table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self, precision: int = 6) -> str:
        """ASCII rendering with aligned columns."""
        header = [str(c) for c in self.columns]
        body = [
            [format_value(cell, precision) for cell in row]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body))
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
