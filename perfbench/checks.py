"""Output checks on what `qembed bench` persisted, and the metrics digest."""
from __future__ import annotations

import hashlib
import json

# Only the metric reports enter the digest: timestamps, `created`, timings
# and any later per-cell diagnostics stay out, so two commits that compute
# the same metrics give the same digest.
DIGEST_FIELDS = ("encoding", "model", "error", "report")
UNIT_RATES = ("accuracy", "precision", "recall", "f1", "roc_auc")


def metrics_sha256(results: list[dict]) -> str:
    canonical = [{k: cell.get(k) for k in DIGEST_FIELDS} for cell in results]
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def output_problems(payload: dict, expected_cells: list[tuple[str, str]],
                    csv_rows: int, report_lines: int) -> list[str]:
    """Everything wrong with one persisted run; empty when it is correct."""
    problems = []
    manifest, results = payload["manifest"], payload["results"]
    cells = [(c["encoding"], c["model"]) for c in results]
    if cells != expected_cells:
        problems.append(f"cells {cells} differ from the config's {expected_cells}")
    if manifest["rows"]["dataset"] != csv_rows:
        problems.append(f"{manifest['rows']['dataset']} rows loaded, {csv_rows} written")
    checksums = {c["split_checksum"] for c in results} | {manifest["split_checksum"]}
    if len(checksums) != 1:
        problems.append(f"cells span {len(checksums)} split checksums")
    for c in results:
        label = f"{c['encoding']}/{c['model']}"
        report = c["report"]
        if (report is None) == (c["error"] is None):
            problems.append(f"{label}: needs exactly one of report and error")
            continue
        if report is None:
            continue
        for name in UNIT_RATES:
            value = report[name]
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"{label}: {name} {value} outside [0, 1]")
        if report["kappa"] is not None and not -1.0 <= report["kappa"] <= 1.0:
            problems.append(f"{label}: kappa {report['kappa']} outside [-1, 1]")
    if report_lines != len(results) + 1:
        problems.append(f"report.csv has {report_lines} lines for {len(results)} cells")
    return problems


def digest_problems(digests: dict[str, str]) -> list[str]:
    """Runs of one seed must agree on metrics_sha256; keys name the runs."""
    if len(set(digests.values())) <= 1:
        return []
    return ["metrics_sha256 differs between runs of one seed: "
            + ", ".join(f"{k}={v[:12]}" for k, v in digests.items())]


def auc_mean(results: list[dict]) -> float | None:
    aucs = [c["report"]["roc_auc"] for c in results
            if c["report"] is not None and c["report"]["roc_auc"] is not None]
    return sum(aucs) / len(aucs) if aucs else None
