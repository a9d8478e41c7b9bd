"""Workload table: rows of the generated churn CSV plus the bench config.

A run of `--seconds S` covers n = max(1, S // draw_s) data draws, where
draw_s is the upper end of the time one bench takes on a 2-vCPU Xeon VM
whose speed drifts by up to a third (run medians of 6.4-8.4 s and
14.7-16 s), so that a run stays within S.  Draw i of workload seed k
uses data seed k * n + i, both for its CSV
(`bench.data.synthetic_telco(rows, data_seed)`) and as `config.seed`, so
one `--seed` fixes the data and the undersample/split/model seeds, and
runs of different seeds share no draw.  Bench time and AUC vary from draw
to draw (the test split has 54 rows at 500 rows), so a run reports over
several draws.  A traced run covers the first half of the draws, since it
runs each draw twice.
"""
from __future__ import annotations

MODELS = ("logreg", "knn", "svm", "tree", "forest", "adaboost", "gbt")

PREPROCESS = {
    "corr_threshold": 0.8,
    "vif_threshold": 12.0,
    "extra_drops": [],
    "standardize": True,
    "split_ratio": 0.8,
    "n_components": 12,
}

# The four entries of configs/synthetic.json; the entry name is the kind.
MATRIX_ENCODINGS = (
    {"kind": "classical"},
    {"kind": "basis", "bits_per_feature": 1, "readout": "z_expectations"},
    {"kind": "angle", "axis": "X", "angle_map": "linear_pi"},
    {"kind": "amplitude"},
)

# The matrix entries keep their names here, so `encode.<entry>.s` means the
# same encoding on every workload; the rest cover quantizer and readout
# paths the matrices skip.
SCREEN_ENCODINGS = MATRIX_ENCODINGS[:2] + (
    {"kind": "basis", "name": "basis_2bit", "bits_per_feature": 2,
     "readout": "z_expectations"},
    MATRIX_ENCODINGS[2],
    {"kind": "angle", "name": "angle_y", "axis": "Y", "angle_map": "linear_pi"},
    {"kind": "angle", "name": "angle_raw", "axis": "X", "angle_map": "raw"},
    MATRIX_ENCODINGS[3],
    {"kind": "amplitude", "name": "amplitude_parts", "readout": "amplitude_parts"},
)

WORKLOADS = {
    # configs/synthetic.json: 28 cells on 212 train / 54 test rows, where
    # per-node and per-iteration Python overhead in the models dominates.
    "small-matrix": {"rows": 500, "draw_s": 8.0,
                     "encodings": MATRIX_ENCODINGS, "models": MODELS},
    # The same 28 cells at the public telco size (3,156 train / 790 test
    # rows): the paper's headline run, led by SVM fit and the tree family.
    # Not declared in BENCHMARK.json: one bench takes ~38 s, so a run holds
    # a single draw and its spread follows the host's noise; run it by hand.
    "telco-matrix": {"rows": 7043, "draw_s": 40.0,
                     "encodings": MATRIX_ENCODINGS, "models": MODELS},
    # 4x telco rows, 8 encoding entries, one tree: the only workload where
    # encode, load and preprocess take a visible share of the run.
    "encode-screen": {"rows": 28172, "draw_s": 16.0,
                      "encodings": SCREEN_ENCODINGS, "models": ("tree",)},
    # Self-test smoke run; not declared in BENCHMARK.json.
    "smoke": {
        "rows": 120,
        "draw_s": 0.5,
        "encodings": (MATRIX_ENCODINGS[0], MATRIX_ENCODINGS[2]),
        "models": ("logreg", "tree"),
    },
}

# Every encoding entry name any workload uses, for the per-layer metric list.
ENTRY_NAMES = tuple(dict.fromkeys(
    e.get("name", e["kind"]) for w in WORKLOADS.values() for e in w["encodings"]
))


def data_seeds(workload: str, seed: int, seconds: float, trace: bool) -> list[int]:
    """Data seeds of the draws one run covers (see the module docstring)."""
    draw_s = WORKLOADS[workload]["draw_s"]
    n = max(1, int(seconds // draw_s))
    k = max(1, int(seconds // (2 * draw_s))) if trace else n
    return [seed * n + i for i in range(k)]


def bench_config(workload: str, seed: int, csv_path: str) -> dict:
    """The `qembed bench` config dict for one workload, reading csv_path."""
    spec = WORKLOADS[workload]
    return {
        "dataset": {"path": csv_path},
        "seed": seed,
        "preprocess": dict(PREPROCESS),
        "encodings": [dict(e) for e in spec["encodings"]],
        "models": [{"kind": kind} for kind in spec["models"]],
    }
