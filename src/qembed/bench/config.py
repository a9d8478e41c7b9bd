"""Benchmark configuration: JSON schema, validation, canonical echo.

One JSON file drives a full reproduction: dataset, preprocessing, encodings
(plus the "classical" baseline) and models.  Each section takes its keys and
defaults from the record that owns it (`PreprocessOptions`, the `*_scheme`
builders, `DEFAULT_PARAMS`, `ColumnSpec`); the echo reads those records back.
An unknown key, a value without its default's JSON type, or one the owner
rejects raises ConfigError naming the key path (exit 1 in the CLI).
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass, fields, replace

from ..encoding import AMPLITUDE, ANGLE, BASIS, EncodingScheme
from ..encoding import amplitude_scheme, angle_scheme, basis_scheme
from ..errors import ConfigError, QembedError
from ..models import DEFAULT_PARAMS, ModelSpec
from ..pipeline import CATEGORICAL, ID, NUMERIC, TARGET, ColumnSpec, PreprocessOptions
from ..pipeline import checked_int, checked_layout

# Column layout of the public churn CSV and the synthetic fallback; a column
# without an entry in _TELCO_KINDS is categorical.
_TELCO_KINDS = {"customerID": ID, "SeniorCitizen": NUMERIC, "tenure": NUMERIC,
                "MonthlyCharges": NUMERIC, "TotalCharges": NUMERIC, "Churn": TARGET}
TELCO_SCHEMA: tuple[ColumnSpec, ...] = tuple(
    ColumnSpec(name, _TELCO_KINDS.get(name, CATEGORICAL)) for name in (
        "customerID gender SeniorCitizen Partner Dependents tenure PhoneService "
        "MultipleLines InternetService OnlineSecurity OnlineBackup DeviceProtection "
        "TechSupport StreamingTV StreamingMovies Contract PaperlessBilling "
        "PaymentMethod MonthlyCharges TotalCharges Churn"
    ).split()
)

CLASSICAL = "classical"
SCHEME_BUILDERS = {BASIS: basis_scheme, ANGLE: angle_scheme, AMPLITUDE: amplitude_scheme}

NULL, NUMBER = type(None), (int, float)
_TYPE_NAMES = {bool: "true or false", str: "a string", list: "a list",
               dict: "an object", int: "a number", NULL: "null"}
# JSON types of the keys no library record owns.
_TOP_KEYS = {"dataset": (dict,), "seed": NUMBER, "preprocess": (dict,),
             "encodings": (list,), "models": (list,)}
_DATASET_KEYS = {"path": (str, NULL), "synthetic_rows": NUMBER, "schema": (list,)}
_ENTRY_KEYS = {"kind": (str,), "name": (str,)}
_MODEL_KEYS = dict(_ENTRY_KEYS, params=(dict,))


@dataclass(frozen=True)
class EncodingEntry:
    """One bench column: a named scheme, or the classical baseline (scheme None)."""

    name: str
    scheme: EncodingScheme | None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")


@dataclass(frozen=True)
class BenchConfig:
    dataset_path: str | None
    schema: tuple[ColumnSpec, ...]
    synthetic_rows: int | None  # None when the rows come from dataset_path
    preprocess: PreprocessOptions
    seed: int  # the run's one seed: table, undersample, split and every model entry
    encodings: tuple[EncodingEntry, ...]
    models: tuple[ModelSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_int(self.seed, 0, "seed", ConfigError))
        object.__setattr__(self, "models", tuple(replace(m, seed=self.seed) for m in self.models))
        if self.dataset_path is None:
            object.__setattr__(self, "synthetic_rows", checked_int(
                self.synthetic_rows, 1, "dataset.synthetic_rows", ConfigError))
        elif self.synthetic_rows is not None:
            raise ConfigError("dataset.synthetic_rows sizes the synthetic table; "
                              "with dataset.path omit it")
        if not self.encodings:
            raise ConfigError("config needs at least one encoding")
        if not self.models:
            raise ConfigError("config needs at least one model")
        for axis, entries in (("encoding", self.encodings), ("model", self.models)):
            names = [e.name for e in entries]
            if twice := [name for i, name in enumerate(names) if name in names[:i]]:
                raise ConfigError(f"duplicate {axis} names: {twice}")
        checked_layout(self.schema, "dataset.schema", ConfigError)
        if self.dataset_path is None and tuple(self.schema) != TELCO_SCHEMA:
            raise ConfigError("dataset.schema describes a CSV; without dataset.path omit it")
        features = [c.name for c in self.schema if c.kind in (CATEGORICAL, NUMERIC)]
        if bad := [name for name in self.preprocess.extra_drops if name not in features]:
            raise ConfigError(f"preprocess.extra_drops: {bad[0]!r} is not a dataset.schema feature")


def _json_types(default, annotation="") -> tuple[type, ...]:
    """JSON types a key takes: its default's, and null where the default is an
    integer or null, the owner saying if null means anything there (`max_depth`
    yes, `n_trees` no).  A null default takes its annotation's type (`readout`)."""
    if isinstance(default, (bool, str)):
        return (type(default),)
    if isinstance(default, tuple):
        return (list,)
    if default is None and str(annotation).startswith("str"):
        return (str, NULL)
    return NUMBER if isinstance(default, float) else NUMBER + (NULL,)


def _typed(obj, types: dict, path: str) -> dict:
    """obj, once every key is declared in `types` and every value has its type."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'a config'} must be a JSON object, got {obj!r}")
    for key, value in obj.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            raise ConfigError(f"unknown key {where}")
        want = types[key]
        if (not isinstance(value, want) or (isinstance(value, bool) and bool not in want)
                or (isinstance(value, float) and not math.isfinite(value))):  # NaN, Infinity
            names = " or ".join(_TYPE_NAMES[t] for t in want if t is not float)
            raise ConfigError(f"{where} must be {names}, got {value!r}")
    return obj


def _build(owner, kwargs, path: str):
    """owner(**kwargs), with a value the owner rejects reported under path."""
    try:
        return owner(**kwargs)
    except (TypeError, ValueError, QembedError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_preprocess(obj) -> PreprocessOptions:
    types = {f.name: _json_types(f.default, f.type) for f in fields(PreprocessOptions)}
    kwargs = _typed(obj, types, "preprocess")
    if kwargs.get("n_components") is not None:
        checked_int(kwargs["n_components"], 1, "preprocess.n_components", ConfigError)
    return _build(PreprocessOptions, kwargs, "preprocess")


def _parse_encoding(obj, path: str) -> EncodingEntry:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    builder = SCHEME_BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None and kind != CLASSICAL:  # superposition is an encode-command scheme
        raise ConfigError(f"{path}.kind: {kind!r} is not one of "
                          f"{[CLASSICAL, *SCHEME_BUILDERS]}; try the encode command")
    params = inspect.signature(builder).parameters.values() if builder else ()
    types = dict(_ENTRY_KEYS, **{p.name: _json_types(p.default, p.annotation) for p in params})
    kwargs = dict(_typed(obj, types, path))
    name = kwargs.pop("name", kwargs.pop("kind"))
    return EncodingEntry(name, _build(builder, kwargs, path) if builder else None)


def _parse_model(obj, path: str) -> ModelSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in DEFAULT_PARAMS:
        raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
    kwargs = dict(_typed(obj, _MODEL_KEYS, path))
    types = {k: _json_types(v) for k, v in DEFAULT_PARAMS[kind].items()}
    _typed(kwargs.get("params", {}), types, f"{path}.params")
    return _build(ModelSpec, kwargs, path)


def config_from_dict(raw: dict) -> BenchConfig:
    """Build and validate a BenchConfig; all failures raise ConfigError."""
    raw = _typed(raw, _TOP_KEYS, "")
    dataset = _typed(raw.get("dataset", {}), _DATASET_KEYS, "dataset")
    schema = [_build(ColumnSpec, c, f"dataset.schema[{i}]")
              for i, c in enumerate(dataset.get("schema", ()))]
    encodings = [_parse_encoding(e, f"encodings[{i}]")
                 for i, e in enumerate(raw.get("encodings", ()))]
    models = [_parse_model(m, f"models[{i}]") for i, m in enumerate(raw.get("models", ()))]
    path = dataset.get("path")
    return BenchConfig(
        dataset_path=path,
        schema=tuple(schema) if "schema" in dataset else TELCO_SCHEMA,
        synthetic_rows=dataset.get("synthetic_rows", 500 if path is None else None),
        preprocess=_parse_preprocess(raw.get("preprocess", {})),
        seed=raw.get("seed", 0),
        encodings=tuple(encodings),
        models=tuple(models),
    )


def config_to_dict(cfg: BenchConfig) -> dict:
    """Canonical JSON-safe echo of a config (used for hashing and manifests),
    read back from the records the parse filled.  The dataset section holds only
    what the load reads: a CSV's path and schema, or the synthetic table's size."""
    preprocess = {**asdict(cfg.preprocess), "extra_drops": list(cfg.preprocess.extra_drops)}
    encodings = [
        {"kind": CLASSICAL, "name": e.name} if e.scheme is None else
        {**{k: v for k, v in asdict(e.scheme).items() if v is not None}, "name": e.name}
        for e in cfg.encodings
    ]
    return {
        "dataset": {"path": None, "synthetic_rows": cfg.synthetic_rows}
        if cfg.dataset_path is None else
        {"path": cfg.dataset_path, "schema": [asdict(c) for c in cfg.schema]},
        "seed": cfg.seed,
        "preprocess": preprocess,
        "encodings": encodings,
        "models": [{k: v for k, v in asdict(m).items() if k != "seed"} for m in cfg.models],
    }


def load_raw(path) -> dict:
    """Read a config file as a dict; a persisted results file (with an
    embedded manifest object) is accepted too, enabling exact re-runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    manifest = raw.get("manifest")
    if isinstance(manifest, dict) and "config" in manifest:
        raw = manifest["config"]
    return raw


def load_config(path) -> BenchConfig:
    return config_from_dict(load_raw(path))
