"""Result analyzer & reporter rendering (Execution Layer, Figure 2).

One facade, :func:`render_results`, renders analysis results in every
style the framework emits: aligned ASCII tables (what the benchmarks
print), markdown tables (what EXPERIMENTS.md embeds), and JSON (for
machine consumption).

Trace rendering lives here too: :func:`render_trace` draws the span
tree a traced run produced (see :mod:`repro.observability`) as an ASCII
flame/summary tree with durations, percentages, attributes, and
counters.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import ExecutionError
from repro.core.results import RunResult, TaskFailure
from repro.observability import Span

#: The styles :func:`render_results` accepts.
RESULT_STYLES = ("ascii", "markdown", "json", "history")

#: Unicode blocks the history sparklines are drawn with.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def format_value(value: Any) -> str:
    """Compact human-readable formatting for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        if abs(value) >= 0.001:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)


def _resolve_columns(
    rows: list[dict[str, Any]], columns: list[str] | None
) -> list[str]:
    """Explicit column order, or first-appearance order over all rows."""
    if columns is not None:
        return list(columns)
    resolved: list[str] = []
    for row in rows:
        for key in row:
            if key not in resolved:
                resolved.append(key)
    return resolved


def ascii_table(rows: list[dict[str, Any]], columns: list[str] | None = None) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    columns = _resolve_columns(rows, columns)
    rendered = [
        {column: format_value(row.get(column, "")) for column in columns}
        for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rendered:
        lines.append(
            " | ".join(row[column].ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def markdown_table(
    rows: list[dict[str, Any]], columns: list[str] | None = None
) -> str:
    """Render dict rows as a GitHub-flavoured markdown table."""
    if not rows:
        return "(no rows)"
    columns = _resolve_columns(rows, columns)
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| "
            + " | ".join(format_value(row.get(column, "")) for column in columns)
            + " |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The unified reporting facade
# ---------------------------------------------------------------------------


def render_results(
    results: list[RunResult | TaskFailure],
    style: str = "ascii",
    metrics: list[str] | None = None,
    store: Any = None,
    baseline: str | None = None,
) -> str:
    """Render run results in one of the supported styles.

    ``metrics`` selects which metric means the table styles show; when
    omitted, every metric any result carries is shown (in first-
    appearance order).  The JSON style always serializes all metric
    statistics and ignores ``metrics``.

    The ``history`` style needs a ``store``
    (:class:`~repro.analysis.store.RunStore`): each metric row grows a
    sparkline of that configuration's recorded trajectory and — when
    ``baseline`` names a promoted baseline — a delta column against it.

    Outcome lists from a fault-tolerant run render in place: a captured
    :class:`TaskFailure` keeps its submission-order row with ``status``
    and ``error`` columns, and ``status``/``attempts`` columns appear
    whenever any outcome failed or was retried — batches that never saw
    a failure render exactly as before.
    """
    if style not in RESULT_STYLES:
        raise ExecutionError(
            f"unknown result style {style!r}; "
            f"available: {', '.join(RESULT_STYLES)}"
        )
    if style == "json":
        return _render_results_json(results)
    if metrics is None:
        metrics = []
        for result in results:
            if isinstance(result, RunResult):
                for name in result.metrics:
                    if name not in metrics:
                        metrics.append(name)
    if style == "history":
        return _render_history(results, metrics, store, baseline)
    rows = _outcome_rows(results, metrics)
    if style == "markdown":
        return markdown_table(rows)
    return ascii_table(rows)


def _outcome_rows(
    results: list[RunResult | TaskFailure], metrics: list[str]
) -> list[dict[str, Any]]:
    """Flat table rows, one per outcome, in submission order.

    Failure/retry columns appear only when the batch carries that
    metadata, keeping clean runs' tables identical to the historical
    output.
    """
    failures = [r for r in results if isinstance(r, TaskFailure)]
    retried = any(
        isinstance(r, RunResult) and r.extra.get("attempts", 1) > 1
        for r in results
    ) or any(failure.attempts > 1 for failure in failures)
    show_status = bool(failures) or retried
    rows: list[dict[str, Any]] = []
    for result in results:
        row: dict[str, Any] = {
            "test": result.test_name,
            "workload": result.workload,
            "engine": result.engine,
        }
        if show_status:
            row["status"] = result.status
        if isinstance(result, TaskFailure):
            if retried or result.attempts > 1:
                row["attempts"] = result.attempts
            row["error"] = result.error
        else:
            row["repeats"] = result.repeats
            if retried and "attempts" in result.extra:
                row["attempts"] = result.extra["attempts"]
            for name in metrics:
                if name in result.metrics:
                    row[name] = result.mean(name)
        rows.append(row)
    return rows


def _render_results_json(results: list[RunResult | TaskFailure]) -> str:
    payload = []
    for result in results:
        if isinstance(result, TaskFailure):
            payload.append(result.as_dict())
            continue
        entry = {
            "test": result.test_name,
            "workload": result.workload,
            "engine": result.engine,
            "repeats": result.repeats,
            "metrics": {
                name: {
                    "mean": stats.mean,
                    "min": stats.minimum,
                    "max": stats.maximum,
                    "stdev": stats.stdev,
                    "p50": stats.p50,
                    "p95": stats.p95,
                    "p99": stats.p99,
                }
                for name, stats in result.metrics.items()
            },
        }
        if result.extra:
            entry["extra"] = result.extra
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# History rendering (per-metric sparklines and baseline deltas)
# ---------------------------------------------------------------------------


def sparkline(values: list[float], width: int = 12) -> str:
    """Draw a value trajectory as unicode block characters.

    The last ``width`` values are scaled to the block range; a constant
    series renders flat mid-height, which reads as "no movement".
    """
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return SPARK_BLOCKS[3] * len(values)
    scale = (len(SPARK_BLOCKS) - 1) / (high - low)
    return "".join(
        SPARK_BLOCKS[int(round((value - low) * scale))] for value in values
    )


def _render_history(
    results: list[RunResult | TaskFailure],
    metrics: list[str],
    store: Any,
    baseline: str | None,
) -> str:
    """One row per (result, metric): stats, trajectory, baseline delta.

    Stored history is matched by (test name, engine) — the display-side
    approximation of the store's fingerprint series, good enough to
    chart "this test on this engine over time" without replumbing spec
    context into the renderer.
    """
    if store is None:
        raise ExecutionError(
            "the history style needs a run store "
            "(render_results(..., store=RunStore(...)))"
        )
    baseline_record = None
    if baseline is not None:
        from repro.analysis.baselines import BaselineManager

        baseline_record = BaselineManager(store).resolve(baseline)
    records = store.records()
    rows: list[dict[str, Any]] = []
    for result in results:
        if isinstance(result, TaskFailure):
            rows.append(
                {
                    "test": result.test_name,
                    "engine": result.engine,
                    "metric": "-",
                    "status": result.status,
                    "error": result.error,
                }
            )
            continue
        history = [
            record
            for record in records
            if record.test_name == result.test_name
            and record.engine == result.engine
            and record.ok
        ]
        for name in metrics:
            if name not in result.metrics:
                continue
            stats = result.metrics[name]
            trajectory = [
                record.mean(name)
                for record in history
                if name in record.metrics
            ]
            row: dict[str, Any] = {
                "test": result.test_name,
                "engine": result.engine,
                "metric": name,
                "mean": stats.mean,
                "p50": stats.p50,
                "p95": stats.p95,
                "history": sparkline(trajectory) or "(none)",
            }
            if baseline_record is not None:
                row["vs baseline"] = _baseline_delta(
                    stats.mean, baseline_record, name
                )
            rows.append(row)
    return ascii_table(rows)


def _baseline_delta(mean: float, baseline_record: Any, metric: str) -> str:
    if metric not in baseline_record.metrics:
        return "n/a"
    reference = baseline_record.mean(metric)
    if reference == 0:
        return "n/a"
    return f"{(mean - reference) / abs(reference):+.1%}"


# ---------------------------------------------------------------------------
# Trace rendering
# ---------------------------------------------------------------------------


def _span_details(span: Span) -> str:
    parts = [f"{key}={format_value(value)}" for key, value in span.attrs.items()]
    parts.extend(
        f"{key}={format_value(value)}" for key, value in span.counters.items()
    )
    return f"  [{' '.join(parts)}]" if parts else ""


def render_trace(spans: list[Span], max_depth: int | None = None) -> str:
    """Draw span trees as an ASCII flame/summary tree.

    Each line shows the span name (indented by depth), its duration,
    its share of the enclosing root span, and its attributes/counters.
    """
    if not spans:
        return "(no spans)"
    lines: list[str] = []

    def walk(span: Span, depth: int, root_seconds: float) -> None:
        if max_depth is not None and depth > max_depth:
            return
        share = (
            f" {100 * span.duration_seconds / root_seconds:5.1f}%"
            if root_seconds > 0
            else ""
        )
        label = "  " * depth + span.name
        lines.append(
            f"{label:<40s} {span.duration_seconds * 1e3:10.3f} ms"
            f"{share}{_span_details(span)}"
        )
        for child in span.children:
            walk(child, depth + 1, root_seconds)

    for root in spans:
        walk(root, 0, root.duration_seconds)
    return "\n".join(lines)
