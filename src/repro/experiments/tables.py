"""Plain-text and Markdown table rendering for experiment results.

The experiment modules produce lists of flat dictionaries ("rows"); these
helpers render them the way ``repro report`` and the example scripts print
them.  No third-party dependency, deterministic column order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any


def _stringify(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _column_order(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None) -> list[str]:
    if columns is not None:
        return list(columns)
    ordered: list[str] = []
    for row in rows:
        for key in row:
            if key not in ordered:
                ordered.append(key)
    return ordered


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = _column_order(rows, columns)
    cells = [[_stringify(row.get(col)) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[index]) for line in cells))
        for index, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(widths[index]) for index, col in enumerate(cols))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(cols)))
        for line in cells
    ]
    lines = []
    if title:
        lines.append(title)
    lines.extend([header, separator, *body])
    return "\n".join(lines)


def format_markdown_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(no rows)"
    cols = _column_order(rows, columns)
    header = "| " + " | ".join(cols) + " |"
    separator = "| " + " | ".join("---" for _ in cols) + " |"
    body = [
        "| " + " | ".join(_stringify(row.get(col)) for col in cols) + " |"
        for row in rows
    ]
    return "\n".join([header, separator, *body])


def rows_to_csv(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render rows as CSV text (simple quoting, for spreadsheets)."""
    if not rows:
        return ""
    cols = _column_order(rows, columns)

    def escape(value: Any) -> str:
        text = _stringify(value)
        if "," in text or '"' in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cols)]
    lines.extend(",".join(escape(row.get(col)) for col in cols) for row in rows)
    return "\n".join(lines)


def summarise_numeric(rows: Iterable[Mapping[str, Any]], key: str) -> dict[str, float]:
    """Min / max / mean of a numeric column (for prose around a ``repro report`` table)."""
    values = [float(row[key]) for row in rows if row.get(key) is not None]
    if not values:
        return {"min": float("nan"), "max": float("nan"), "mean": float("nan")}
    return {
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
    }
