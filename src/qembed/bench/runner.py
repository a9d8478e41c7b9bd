"""Benchmark runner: one preprocessing pass feeding an encoding x model grid.

Every cell sees the identical train/test split (checksummed into each
result), the [0, 1] scaling of basis and linear_pi inputs is fitted on
the train split only, and a failing cell is recorded without aborting the
rest of the matrix.  The classical baseline bypasses encoding entirely,
so its encode time is exactly zero by construction.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from ..encoding import embed_matrix
from ..errors import EmptyInput, QembedError, ZeroVariance
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

RESULTS_FILE = "results.json"


@dataclass
class RunResult:
    """Outcome of one (encoding, model) cell, each named by its entry's
    `name` (which defaults to the entry's kind).

    A failed cell sets `error` and keeps the defaults of every scored
    field: no report, zero timings, `dim_out` 0, no solver iterations and
    `converged` None.
    """

    encoding: str
    model: str
    report: MetricReport | None = None
    error: str | None = None
    encode_ms: float = 0.0
    fit_ms: float = 0.0
    predict_ms: float = 0.0
    dim_in: int = 0
    dim_out: int = 0
    seed: int = 0
    split_checksum: str = ""
    iterations: int = 0
    converged: bool | None = None


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
    """Embed both splits under one scheme.

    Basis and linear_pi angle encoding take features in [0, 1]: both splits
    are min-max scaled by the train split's minimum and range, test values
    outside it clip, and a constant train column maps to 0.  Returns
    (encoded train, encoded test, encode milliseconds); the classical
    passthrough reports exactly 0.0 ms.  Naming the entry, an empty train split
    raises EmptyInput, and an encoded one in which no column varies (the classical
    one included) ZeroVariance: a model trained on it could only learn the class balance.
    """
    if not train.n_rows:
        raise EmptyInput(f"encoding {entry.name!r}: the train split has no row")
    scheme, t0, encode_ms = entry.scheme, time.perf_counter(), 0.0
    if scheme is not None:
        if scheme.unit_inputs:
            lo = train.data.min(axis=0)
            span = train.data.max(axis=0) - lo
            span = np.where(span == 0, 1.0, span)
            train, test = (
                FeatureMatrix(np.clip((p.data - lo) / span, 0.0, 1.0), p.column_names, p.labels)
                for p in (train, test)
            )
        train, test = (embed_matrix(p, scheme) for p in (train, test))
        encode_ms = (time.perf_counter() - t0) * 1e3
    if not np.ptp(train.data, axis=0).any():
        raise ZeroVariance(f"encoding {entry.name!r}: no column of the encoded train split varies")
    return train, test, encode_ms


def _run_once(config: BenchConfig, pre: PreprocessResult, checksum: str) -> list[RunResult]:
    train, test = pre.train, pre.test
    results: list[RunResult] = []
    for entry in config.encodings:
        encode_error = None
        try:
            enc_train, enc_test, encode_ms = encode_split(entry, train, test)
        except (QembedError, MemoryError) as exc:
            encode_error = f"encode: {exc}"
        for spec in config.models:
            error, scored = encode_error, {}
            if error is None:
                try:
                    t0 = time.perf_counter()
                    model = fit(spec, enc_train)
                    fit_ms = (time.perf_counter() - t0) * 1e3
                    t0 = time.perf_counter()
                    scores = model.predict_proba(enc_test)
                    predict_ms = (time.perf_counter() - t0) * 1e3
                    scored = dict(
                        report=compute_report(enc_test.labels, scores),
                        encode_ms=encode_ms,
                        fit_ms=fit_ms,
                        predict_ms=predict_ms,
                        dim_out=enc_train.n_cols,
                        iterations=int(model.meta.iterations),
                        converged=bool(model.meta.converged),
                    )
                except (QembedError, MemoryError) as exc:
                    error = f"fit: {exc}"
            results.append(
                RunResult(
                    encoding=entry.name,
                    model=spec.name,
                    error=error,
                    dim_in=train.n_cols,
                    seed=config.seed,
                    split_checksum=checksum,
                    **scored,
                )
            )
    return results


@dataclass
class BenchRun:
    """Everything one bench invocation produced: manifest plus all cells."""

    manifest: dict
    results: list[RunResult]


def preprocess_run(config: BenchConfig) -> tuple[PreprocessResult, dict]:
    """One draw: load, preprocess and checksum the split; returns it and its manifest."""
    # load unnamed: freed once coded; positional: perfbench's tracer takes *args only
    pre = run_preprocess(load_dataset(config), config.preprocess, config.seed)
    return pre, {
        "config": config_to_dict(config),
        "config_sha256": config_hash(config),
        "seed": config.seed,
        "split_checksum": split_checksum(pre.train, pre.test),
        "created": _now(),
        "rows": {"dataset": sum(pre.report.class_counts_before.values()),
                 "train": pre.train.n_rows, "test": pre.test.n_rows},
        "preprocess_report": asdict(pre.report),
    }


def run_matrix(config: BenchConfig) -> BenchRun:
    """Run the full grid once: one draw, then every encoding x model cell."""
    pre, manifest = preprocess_run(config)
    return BenchRun(manifest, _run_once(config, pre, manifest["split_checksum"]))


def write_json(path: str, payload) -> None:
    """Write payload as 2-space indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def persist_run(run: BenchRun, out_dir: str) -> str:
    """Write results.json (manifest and every cell) into out_dir; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RESULTS_FILE)
    write_json(path, asdict(run))
    return path


def load_results(path) -> list[dict]:
    """Read back the combined results file for re-rendering."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and isinstance(payload.get("results"), list)):
        raise ValueError(f"{path} is not a results file: no \"results\" list")
    for i, cell in enumerate(payload["results"]):
        if not (isinstance(cell, dict) and {"encoding", "model"} <= cell.keys()
                and isinstance(cell.get("report") or {}, dict)):
            raise ValueError(f"{path}: results entry {i} is not a cell object with "
                             "\"encoding\", \"model\" and an object or null \"report\"")
    return payload["results"]
