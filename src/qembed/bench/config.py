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
from dataclasses import asdict, dataclass, fields

from ..encoding import AMPLITUDE, ANGLE, BASIS, EncodingScheme
from ..encoding import amplitude_scheme, angle_scheme, basis_scheme
from ..errors import ConfigError, QembedError
from ..models import DEFAULT_PARAMS, ModelSpec
from ..pipeline import CATEGORICAL, ID, NUMERIC, TARGET, ColumnSpec, PreprocessOptions
from ..pipeline import checked_int

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
             "encodings": (list,), "models": (list,), "output_dir": (str, NULL)}
_DATASET_KEYS = {"path": (str, NULL), "synthetic_rows": NUMBER, "schema": (list,)}
_ENTRY_KEYS = {"kind": (str,), "name": (str,)}
_MODEL_KEYS = {"kind": (str,), "seed": NUMBER, "params": (dict,)}
# The preprocess seed is the config's top-level one.
_PREPROCESS_FIELDS = {f.name: f for f in fields(PreprocessOptions) if f.name != "seed"}


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
        object.__setattr__(self, "seed", checked_int(self.seed, 0, "seed", ConfigError))
        object.__setattr__(self, "synthetic_rows", checked_int(
            self.synthetic_rows, 1, "dataset.synthetic_rows", ConfigError))
        if not self.encodings:
            raise ConfigError("config needs at least one encoding")
        if not self.models:
            raise ConfigError("config needs at least one model")
        for what, names in (("encoding", [e.name for e in self.encodings]),
                            ("dataset.schema column", [c.name for c in self.schema])):
            if twice := [name for i, name in enumerate(names) if name in names[:i]]:
                raise ConfigError(f"duplicate {what} names: {twice}")
        if not any(c.kind in (CATEGORICAL, NUMERIC) for c in self.schema):
            raise ConfigError("dataset.schema declares no numeric or categorical feature column")


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


def _parse_preprocess(obj, seed: int) -> PreprocessOptions:
    types = {k: _json_types(f.default, f.type) for k, f in _PREPROCESS_FIELDS.items()}
    kwargs = dict(_typed(obj, types, "preprocess"), seed=seed)
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
    if kwargs.get("axis") == "Z":
        raise ConfigError(f"{path}.axis: Z prepares |0...0> up to a global phase for "
                          "every row, so its features carry no information; use X or Y")
    return EncodingEntry(name, _build(builder, kwargs, path) if builder else None)


def _parse_model(obj, path: str, default_seed: int) -> ModelSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in DEFAULT_PARAMS:
        raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
    kwargs = dict(_typed(obj, _MODEL_KEYS, path))
    types = {k: _json_types(v) for k, v in DEFAULT_PARAMS[kind].items()}
    _typed(kwargs.get("params", {}), types, f"{path}.params")
    kwargs["seed"] = checked_int(kwargs.get("seed", default_seed), 0, f"{path}.seed", ConfigError)
    return _build(ModelSpec, kwargs, path)


def config_from_dict(raw: dict) -> BenchConfig:
    """Build and validate a BenchConfig; all failures raise ConfigError."""
    raw = _typed(raw, _TOP_KEYS, "")
    seed = checked_int(raw.get("seed", 0), 0, "seed", ConfigError)
    dataset = _typed(raw.get("dataset", {}), _DATASET_KEYS, "dataset")
    schema = [_build(ColumnSpec, c, f"dataset.schema[{i}]")
              for i, c in enumerate(dataset.get("schema", ()))]
    encodings = [_parse_encoding(e, f"encodings[{i}]")
                 for i, e in enumerate(raw.get("encodings", ()))]
    models = [_parse_model(m, f"models[{i}]", seed) for i, m in enumerate(raw.get("models", ()))]
    return BenchConfig(
        dataset_path=dataset.get("path"),
        schema=tuple(schema) if "schema" in dataset else TELCO_SCHEMA,
        synthetic_rows=dataset.get("synthetic_rows", 500),
        preprocess=_parse_preprocess(raw.get("preprocess", {}), seed),
        seed=seed,
        encodings=tuple(encodings),
        models=tuple(models),
        output_dir=raw.get("output_dir"),
    )


def config_to_dict(cfg: BenchConfig) -> dict:
    """Canonical JSON-safe echo of a config (used for hashing and manifests),
    read back from the records the parse filled."""
    preprocess = {**asdict(cfg.preprocess), "extra_drops": list(cfg.preprocess.extra_drops)}
    del preprocess["seed"]
    encodings = [
        {"kind": CLASSICAL, "name": e.name} if e.scheme is None else
        {**{k: v for k, v in asdict(e.scheme).items() if v is not None}, "name": e.name}
        for e in cfg.encodings
    ]
    return {
        "dataset": {"path": cfg.dataset_path, "synthetic_rows": cfg.synthetic_rows,
                    "schema": [asdict(c) for c in cfg.schema]},
        "seed": cfg.seed,
        "preprocess": preprocess,
        "encodings": encodings,
        "models": [asdict(m) for m in cfg.models],
        "output_dir": cfg.output_dir,
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
