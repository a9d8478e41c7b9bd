"""Benchmark runner: one preprocessing pass feeding an encoding x model grid.

Every cell sees the identical train/test split (checksummed into each
result), quantizers and normalizers are fitted on the train split only,
and a failing cell is recorded without aborting the rest of the matrix.
The classical baseline bypasses encoding entirely, so its encode time is
exactly zero by construction.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from ..encoding import BASIS, LINEAR_PI, Quantizer, embed_matrix
from ..errors import QembedError
from ..metrics import MetricReport, compute_report
from ..models import fit
from ..pipeline import (
    Dataset,
    FeatureMatrix,
    PreprocessResult,
    load_csv,
    run_preprocess,
)
from .config import BenchConfig, EncodingEntry, config_to_dict
from .data import synthetic_telco

ENV_OUTPUT_DIR = "QEMBED_OUT"
DEFAULT_OUTPUT_DIR = "qembed_out"


@dataclass
class RunResult:
    """Outcome of one (encoding, model) cell."""

    encoding: str
    model: str
    report: MetricReport | None
    error: str | None
    encode_ms: float
    fit_ms: float
    predict_ms: float
    dim_in: int
    dim_out: int
    seed: int
    split_checksum: str
    timestamp: str
    iterations: int = 0
    converged: bool | None = None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["report"] = self.report.to_dict() if self.report is not None else None
        return out


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def config_hash(config: BenchConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def split_checksum(train: FeatureMatrix, test: FeatureMatrix) -> str:
    """Digest of both split matrices; identical data gives identical hex."""
    h = hashlib.sha256()
    for part in (train, test):
        h.update(repr(part.data.shape).encode())
        h.update(part.data.tobytes())
        h.update(part.labels.tobytes())
    return h.hexdigest()


def load_dataset(config: BenchConfig) -> Dataset:
    """CSV when a path is configured, the bundled synthetic table otherwise."""
    if config.dataset_path is not None:
        return load_csv(config.dataset_path, config.schema)
    return synthetic_telco(config.synthetic_rows, config.seed)


def encode_split(
    entry: EncodingEntry, train: FeatureMatrix, test: FeatureMatrix
) -> tuple[FeatureMatrix, FeatureMatrix, float]:
    """Embed both splits under one scheme; fit any scaler on train only.

    Returns (encoded train, encoded test, encode milliseconds); the
    classical passthrough reports exactly 0.0 ms.
    """
    scheme = entry.scheme
    if scheme is None:
        return train, test, 0.0
    t0 = time.perf_counter()
    quantizer = None
    if scheme.kind == BASIS or scheme.angle_map == LINEAR_PI:
        quantizer = Quantizer(scheme.bits_per_feature or 1).fit(train.data)
    if scheme.angle_map == LINEAR_PI:  # angles of features scaled to [0, 1]
        train, test = (
            FeatureMatrix(quantizer.normalize(p.data), p.column_names, p.labels)
            for p in (train, test)
        )
    enc_train, enc_test = (embed_matrix(p, scheme, quantizer) for p in (train, test))
    return enc_train, enc_test, (time.perf_counter() - t0) * 1e3


def _failed_cell(entry, spec, message, dim_in, seed, checksum) -> RunResult:
    return RunResult(
        encoding=entry.name,
        model=spec.kind,
        report=None,
        error=message,
        encode_ms=0.0,
        fit_ms=0.0,
        predict_ms=0.0,
        dim_in=dim_in,
        dim_out=0,
        seed=seed,
        split_checksum=checksum,
        timestamp=_now(),
    )


def _run_once(config: BenchConfig, pre: PreprocessResult, checksum: str) -> list[RunResult]:
    train, test = pre.train, pre.test
    results: list[RunResult] = []
    for entry in config.encodings:
        try:
            enc_train, enc_test, encode_ms = encode_split(entry, train, test)
        except QembedError as exc:
            for spec in config.models:
                results.append(
                    _failed_cell(
                        entry, spec, f"encode: {exc}", train.n_cols, config.seed, checksum
                    )
                )
            continue
        for spec in config.models:
            try:
                t0 = time.perf_counter()
                model = fit(spec, enc_train)
                fit_ms = (time.perf_counter() - t0) * 1e3
                t0 = time.perf_counter()
                scores = model.predict_proba(enc_test)
                predict_ms = (time.perf_counter() - t0) * 1e3
                report = compute_report(enc_test.labels, scores)
            except QembedError as exc:
                results.append(
                    _failed_cell(
                        entry, spec, f"fit: {exc}", train.n_cols, config.seed, checksum
                    )
                )
                continue
            results.append(
                RunResult(
                    encoding=entry.name,
                    model=spec.kind,
                    report=report,
                    error=None,
                    encode_ms=encode_ms,
                    fit_ms=fit_ms,
                    predict_ms=predict_ms,
                    dim_in=train.n_cols,
                    dim_out=enc_train.n_cols,
                    seed=config.seed,
                    split_checksum=checksum,
                    timestamp=_now(),
                    iterations=int(model.meta.iterations),
                    converged=bool(model.meta.converged),
                )
            )
    return results


@dataclass
class BenchRun:
    """Everything one bench invocation produced: manifest plus all cells."""

    manifest: dict
    results: list[RunResult]

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest,
            "results": [r.to_dict() for r in self.results],
        }


def run_matrix(config: BenchConfig, repeat: int = 1) -> BenchRun:
    """Run the full grid; with repeat > 1 timings are per-cell medians.

    Metric reports come from the first pass; determinism makes later
    passes byte-identical anyway, which the manifest re-run check relies on.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    dataset = load_dataset(config)
    pre = run_preprocess(dataset, config.preprocess)
    checksum = split_checksum(pre.train, pre.test)

    passes = [_run_once(config, pre, checksum) for _ in range(repeat)]
    results = passes[0]
    if repeat > 1:
        for i, cell in enumerate(results):
            cell.encode_ms = statistics.median(p[i].encode_ms for p in passes)
            cell.fit_ms = statistics.median(p[i].fit_ms for p in passes)
            cell.predict_ms = statistics.median(p[i].predict_ms for p in passes)

    manifest = {
        "config": config_to_dict(config),
        "config_sha256": config_hash(config),
        "seed": config.seed,
        "repeat": repeat,
        "split_checksum": checksum,
        "created": _now(),
        "rows": {
            "dataset": dataset.n_rows,
            "train": pre.train.n_rows,
            "test": pre.test.n_rows,
        },
        "n_components": pre.report.n_components,
        "preprocess_report": pre.report.to_dict(),
    }
    return BenchRun(manifest, results)


def resolve_output_dir(config: BenchConfig, cli_out: str | None = None) -> str:
    """Priority: --out flag, then config, then QEMBED_OUT, then ./qembed_out."""
    if cli_out:
        return cli_out
    if config.output_dir:
        return config.output_dir
    return os.environ.get(ENV_OUTPUT_DIR) or DEFAULT_OUTPUT_DIR


def persist_run(run: BenchRun, out_dir: str) -> str:
    """Write results.json, manifest.json and one JSON file per cell.

    Returns the path of the combined results file.
    """
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    combined = os.path.join(out_dir, "results.json")
    with open(combined, "w", encoding="utf-8") as fh:
        json.dump(run.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(run.manifest, fh, indent=2)
        fh.write("\n")
    for i, cell in enumerate(run.results):
        name = f"{i:03d}_{cell.encoding}_{cell.model}.json"
        with open(os.path.join(runs_dir, name), "w", encoding="utf-8") as fh:
            json.dump(cell.to_dict(), fh, indent=2)
            fh.write("\n")
    return combined


def load_results(path) -> list[dict]:
    """Read back the combined results file for re-rendering."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["results"]
