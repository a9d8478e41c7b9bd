"""Rendering benchmark results as CSV or markdown tables.

Row order is exactly the order the runner produced (encoding-major, config
order), values are emitted with full float precision so a rendered CSV
reparses to the same numbers, and undefined metrics print as NA.  The
`converged` column echoes the cell's solver flag (NA for a failed cell).
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict

from ..errors import EmptyResults
from .runner import RunResult

COLUMNS = (
    "encoding",
    "model",
    "accuracy",
    "precision",
    "recall",
    "f1",
    "roc_auc",
    "kappa",
    "encode_ms",
    "fit_ms",
    "predict_ms",
    "converged",
    "error",
)

FORMATS = ("csv", "markdown")

_EXTENSIONS = {"csv": "csv", "markdown": "md"}


def _as_dict(result) -> dict:
    if isinstance(result, RunResult):
        return asdict(result)
    return result


def _cell(value) -> str:
    if value is None:
        return "NA"
    return str(value)


def _row_cells(result: dict) -> list[str]:
    """Each column read off the cell, a metric off its report (NA when the
    cell has none), and an empty error column when the cell succeeded."""
    values = {**result, **(result.get("report") or {}), "error": result.get("error") or ""}
    return [_cell(values.get(name)) for name in COLUMNS]


def emit_report(results, fmt: str = "csv") -> str:
    """Render the result rows; raises EmptyResults when there are none."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [_row_cells(_as_dict(r)) for r in results]
    if not rows:
        raise EmptyResults("no results to report")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    lines = [
        "| " + " | ".join(COLUMNS) + " |",
        "| " + " | ".join("---" for _ in COLUMNS) + " |",
    ]
    for cells in rows:
        lines.append("| " + " | ".join(cells) + " |")
    if any(r[1] == "gbt" for r in rows):
        lines.append("")
        lines.append("gbt stands in for the boosted-tree family (LightGBM, CatBoost).")
    return "\n".join(lines) + "\n"


def write_report(results, fmt: str, out_dir: str) -> str:
    """Render and save report.<ext> under out_dir; returns the path."""
    text = emit_report(results, fmt)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"report.{_EXTENSIONS[fmt]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
