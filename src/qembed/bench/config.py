"""Benchmark configuration: JSON schema, validation, canonical echo.

One JSON file drives a full reproduction: dataset (CSV path or synthetic
fallback), preprocessing switches, the encoding list (plus the literal
"classical" baseline) and the model list.  Any invalid field surfaces as
ConfigError so the CLI can map it to exit code 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from ..encoding import (
    ANGLE,
    BASIS,
    KINDS,
    EncodingScheme,
    default_readout,
)
from ..errors import ConfigError, QembedError
from ..models import ModelSpec
from ..pipeline import CATEGORICAL, COLUMN_KINDS, ColumnSpec, PreprocessOptions

# Column layout of the public churn CSV; also the synthetic fallback's layout.
TELCO_SCHEMA: tuple[ColumnSpec, ...] = (
    ColumnSpec("customerID", "id"),
    ColumnSpec("gender", CATEGORICAL),
    ColumnSpec("SeniorCitizen", "numeric"),
    ColumnSpec("Partner", CATEGORICAL),
    ColumnSpec("Dependents", CATEGORICAL),
    ColumnSpec("tenure", "numeric"),
    ColumnSpec("PhoneService", CATEGORICAL),
    ColumnSpec("MultipleLines", CATEGORICAL),
    ColumnSpec("InternetService", CATEGORICAL),
    ColumnSpec("OnlineSecurity", CATEGORICAL),
    ColumnSpec("OnlineBackup", CATEGORICAL),
    ColumnSpec("DeviceProtection", CATEGORICAL),
    ColumnSpec("TechSupport", CATEGORICAL),
    ColumnSpec("StreamingTV", CATEGORICAL),
    ColumnSpec("StreamingMovies", CATEGORICAL),
    ColumnSpec("Contract", CATEGORICAL),
    ColumnSpec("PaperlessBilling", CATEGORICAL),
    ColumnSpec("PaymentMethod", CATEGORICAL),
    ColumnSpec("MonthlyCharges", "numeric"),
    ColumnSpec("TotalCharges", "numeric"),
    ColumnSpec("Churn", "target"),
)

CLASSICAL = "classical"


@dataclass(frozen=True)
class EncodingEntry:
    """One bench column: a named scheme, or the classical baseline (scheme None)."""

    name: str
    scheme: EncodingScheme | None


@dataclass(frozen=True)
class BenchConfig:
    dataset_path: str | None
    schema: tuple[ColumnSpec, ...]
    synthetic_rows: int
    preprocess: PreprocessOptions
    seed: int
    encodings: tuple[EncodingEntry, ...]
    models: tuple[ModelSpec, ...]
    output_dir: str | None

    def __post_init__(self):
        if not self.encodings:
            raise ConfigError("config needs at least one encoding")
        if not self.models:
            raise ConfigError("config needs at least one model")
        names = [e.name for e in self.encodings]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate encoding names: {names}")


def _parse_schema(items) -> tuple[ColumnSpec, ...]:
    specs = []
    for item in items:
        kind = item["kind"]
        if kind not in COLUMN_KINDS:
            raise ConfigError(f"unknown column kind {kind!r}")
        specs.append(ColumnSpec(item["name"], kind))
    return tuple(specs)


def _parse_encoding(obj: dict) -> EncodingEntry:
    kind = obj.get("kind")
    if kind == CLASSICAL:
        return EncodingEntry(obj.get("name", CLASSICAL), None)
    if kind not in KINDS:
        raise ConfigError(f"unknown encoding kind {kind!r}")
    if kind == "superposition":
        raise ConfigError(
            "superposition has no per-sample form and cannot be benchmarked; "
            "use the encode command instead"
        )
    kwargs: dict = {"readout": obj.get("readout") or default_readout(kind)}
    if kind == ANGLE:
        kwargs["axis"] = obj.get("axis", "X")
        kwargs["angle_map"] = obj.get("angle_map", "linear_pi")
        if kwargs["axis"] == "Z":
            raise ConfigError(
                "angle axis Z prepares |0...0> up to a global phase for every "
                "row, so its features carry no information; use X or Y"
            )
    if kind == BASIS:
        kwargs["bits_per_feature"] = obj.get("bits_per_feature", 4)
    scheme = EncodingScheme(kind, **kwargs)
    return EncodingEntry(obj.get("name", kind), scheme)


def _int_field(value, name: str, minimum: int) -> int:
    """An integer >= minimum; bools and floats such as 12.0 are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _parse_model(obj: dict, default_seed: int) -> ModelSpec:
    return ModelSpec(
        obj.get("kind", ""),
        seed=_int_field(obj.get("seed", default_seed), "models[].seed", 0),
        params=dict(obj.get("params", {})),
    )


def config_from_dict(raw: dict) -> BenchConfig:
    """Build and validate a BenchConfig; all failures raise ConfigError."""
    try:
        dataset = raw.get("dataset", {})
        seed = _int_field(raw.get("seed", 0), "seed", 0)
        pre_raw = dict(raw.get("preprocess", {}))
        n_components = pre_raw.get("n_components")
        if n_components is not None:
            _int_field(n_components, "preprocess.n_components", 1)
        preprocess = PreprocessOptions(
            corr_threshold=float(pre_raw.get("corr_threshold", 0.8)),
            vif_threshold=float(pre_raw.get("vif_threshold", 12.0)),
            extra_drops=tuple(pre_raw.get("extra_drops", ())),
            standardize=bool(pre_raw.get("standardize", True)),
            split_ratio=float(pre_raw.get("split_ratio", 0.8)),
            seed=seed,
            n_components=n_components,
        )
        if not 0 < preprocess.split_ratio < 1:
            raise ConfigError("split_ratio must be in (0, 1)")
        if preprocess.corr_threshold <= 0 or preprocess.corr_threshold > 1:
            raise ConfigError("corr_threshold must be in (0, 1]")
        if preprocess.vif_threshold <= 1:
            raise ConfigError("vif_threshold must exceed 1")
        schema = (
            _parse_schema(dataset["schema"]) if "schema" in dataset else TELCO_SCHEMA
        )
        encodings = tuple(_parse_encoding(e) for e in raw.get("encodings", ()))
        model_specs = tuple(_parse_model(m, seed) for m in raw.get("models", ()))
        return BenchConfig(
            dataset_path=dataset.get("path"),
            schema=schema,
            synthetic_rows=_int_field(
                dataset.get("synthetic_rows", 500), "dataset.synthetic_rows", 1
            ),
            preprocess=preprocess,
            seed=seed,
            encodings=encodings,
            models=model_specs,
            output_dir=raw.get("output_dir"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, QembedError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(cfg: BenchConfig) -> dict:
    """Canonical JSON-safe echo of a config (used for hashing and manifests)."""
    encodings = []
    for entry in cfg.encodings:
        if entry.scheme is None:
            encodings.append({"kind": CLASSICAL, "name": entry.name})
            continue
        s = entry.scheme
        obj = {"kind": s.kind, "name": entry.name, "readout": s.readout}
        if s.kind == ANGLE:
            obj["axis"] = s.axis
            obj["angle_map"] = s.angle_map
        if s.kind == BASIS:
            obj["bits_per_feature"] = s.bits_per_feature
        encodings.append(obj)
    return {
        "dataset": {
            "path": cfg.dataset_path,
            "synthetic_rows": cfg.synthetic_rows,
            "schema": [{"name": c.name, "kind": c.kind} for c in cfg.schema],
        },
        "seed": cfg.seed,
        "preprocess": {
            "corr_threshold": cfg.preprocess.corr_threshold,
            "vif_threshold": cfg.preprocess.vif_threshold,
            "extra_drops": list(cfg.preprocess.extra_drops),
            "standardize": cfg.preprocess.standardize,
            "split_ratio": cfg.preprocess.split_ratio,
            "n_components": cfg.preprocess.n_components,
        },
        "encodings": encodings,
        "models": [m.to_dict() for m in cfg.models],
        "output_dir": cfg.output_dir,
    }


def load_raw(path) -> dict:
    """Read a config file as a dict; a persisted results file (with an
    embedded manifest) is accepted too, enabling exact re-runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "manifest" in raw and "config" in raw.get("manifest", {}):
        raw = raw["manifest"]["config"]
    return raw


def load_config(path) -> BenchConfig:
    return config_from_dict(load_raw(path))


def default_synthetic_dict(seed: int = 0) -> dict:
    """Bundled fallback: 500 synthetic rows, all four encodings, all seven models."""
    return {
        "dataset": {"path": None, "synthetic_rows": 500},
        "seed": seed,
        "preprocess": {"n_components": 12, "extra_drops": []},
        "encodings": [
            {"kind": "classical"},
            {"kind": "basis", "bits_per_feature": 1, "readout": "z_expectations"},
            {"kind": "angle", "axis": "X", "angle_map": "linear_pi"},
            {"kind": "amplitude"},
        ],
        "models": [
            {"kind": "logreg"},
            {"kind": "knn"},
            {"kind": "svm"},
            {"kind": "tree"},
            {"kind": "forest"},
            {"kind": "adaboost"},
            {"kind": "gbt"},
        ],
    }
