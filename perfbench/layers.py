"""The layer map: each per-layer metric's module, and what it should move.

BENCHMARK.json declares the per-layer metrics by name; this table says
which module of qembed each one measures and which end-to-end metric it
is expected to move on which workload, so that a change can name a
layer and the figure it should see move.  `moves` lists
(end-to-end metric, workload) pairs; an empty list means "watch only".
telco-matrix runs by hand (`--workload telco-matrix`); it is not a
declared workload.  A traced run prints each metric with its entry here.
"""
from __future__ import annotations

from workloads import ENTRY_NAMES, MODELS

MATRICES = ("small-matrix", "telco-matrix")
EVERY_WORKLOAD = ("small-matrix", "telco-matrix", "encode-screen")


def _moves(metric: str, workloads) -> tuple[tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


def _model_moves(kind: str, stage: str) -> tuple[tuple[str, str], ...]:
    if kind in ("svm", "logreg"):
        return (("bench_s", "telco-matrix"), ("peak_rss_mb", "telco-matrix"),
                *_moves("auc_mean", MATRICES))
    if kind == "knn":
        return _moves("bench_s", ("telco-matrix",)) if stage == "predict" else ()
    moves = _moves("bench_s", MATRICES)  # the tree family
    if kind == "tree" and stage == "fit":
        moves += (("bench_s", "encode-screen"),)
    if kind == "forest" and stage == "predict":
        moves = (("bench_s", "telco-matrix"),)
    return moves


def _layer_map() -> dict[str, dict]:
    screen = _moves("bench_s", ("encode-screen",))
    rows = [("pipeline", "load.s", screen), ("pipeline", "load.rows", screen),
            ("pipeline", "preprocess.s", screen),
            ("bench", "checksum.s", _moves("bench_s", EVERY_WORKLOAD)),
            ("encoding", "encode.s", screen), ("encoding", "encode.rows", screen)]
    rows += [("encoding", f"encode.{entry}.s", screen) for entry in ENTRY_NAMES]
    for kind in MODELS:
        fit = _model_moves(kind, "fit")
        rows += [("models", f"fit.{kind}.s", fit), ("models", f"fit.{kind}.fits", ()),
                 ("models", f"fit.{kind}.iterations", fit),
                 ("models", f"fit.{kind}.unconverged", fit),
                 ("models", f"predict.{kind}.s", _model_moves(kind, "predict"))]
    persist = _moves("bench_s", EVERY_WORKLOAD)
    rows += [("metrics", "metrics.s", ()),
             ("bench", "persist.s", persist), ("bench", "persist.bytes", persist)]
    # The harness's own figures: how much of the traced run the spans leave
    # unexplained, and what tracing costs.
    rows += [("perfbench", name, ()) for name in
             ("uncovered.s", "uncovered.share", "traced.bench_s", "trace_overhead.s")]
    return {name: {"module": module, "moves": moves} for module, name, moves in rows}


LAYER_MAP = _layer_map()


def layer_metric_names() -> list[str]:
    """Per-layer metrics the traced run gives, in the order BENCHMARK.json lists them."""
    return list(LAYER_MAP)


def describe(name: str) -> str:
    layer = LAYER_MAP[name]
    moves = ", ".join(f"{m} on {w}" for m, w in layer["moves"]) or "watch only"
    return f"{layer['module']}: {moves}"
