"""Plain-text and Markdown table rendering for experiment results.

The experiment modules produce lists of flat dictionaries ("rows"); these
helpers render them the way ``repro report`` and the example scripts print
them.  No third-party dependency, deterministic column order.  The EXP-C1
case row and the summaries the CLI and the report state under the EXP-C1
and EXP-L1 tables live here too.
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


def case_row(outcome) -> dict[str, object]:
    """An EXP-C1 case's table row, from its sweep outcome and the labels its
    document was built with (a churn case has ``joins``/``recoveries``/
    ``epochs`` where a static one has ``domains``)."""
    labels = outcome.labels
    shape = ("joins", "recoveries", "epochs") if "epochs" in labels else ("domains",)
    return {
        "seed": outcome.seed,
        "topology": labels["topology"],
        "nodes": outcome.nodes,
        "crashed": labels["crashed"],
        **{key: labels[key] for key in shape},
        "decisions": outcome.decisions,
        "views": outcome.decided_views,
        "messages": outcome.messages,
        "quiescent": outcome.quiescent,
        "spec_holds": outcome.spec_holds,
    }


def sweep_summary(cases: Sequence) -> dict[str, object]:
    """Aggregate view of an EXP-C1 sweep's outcomes (``repro report``'s
    EXP-C1 claims)."""
    return {
        "cases": len(cases),
        "all_hold": all(case.spec_holds for case in cases),
        "all_quiescent": all(case.quiescent for case in cases),
        "total_decisions": sum(case.decisions for case in cases),
        "total_messages": sum(case.messages for case in cases),
        "violating_seeds": [case.seed for case in cases if not case.spec_holds],
    }


def locality_is_flat(rows: Sequence[Mapping[str, Any]], tolerance: float = 0.10) -> bool:
    """True when the ``messages`` of locality rows vary by at most ``tolerance``.

    The EXP-L1 conclusion: with a fixed crashed region, the cost of the
    protocol does not grow with the system size.  (Identical seeds give
    identical runs, so in practice the spread is zero; the tolerance guards
    against jitter when callers vary seeds per point.)
    """
    if not rows:
        return True
    messages = [row["messages"] for row in rows]
    low, high = min(messages), max(messages)
    if low == 0:
        return high == 0
    return (high - low) / low <= tolerance
