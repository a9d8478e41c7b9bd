"""One benchmark child process: `python3 perfbench/child.py <mode> ...`.

Modes:
  gen   <rows> <dir> <seed>...            write <dir>/data-<seed>.csv, verify it reads back
  setup <t_spawn> <config> <out>           import qembed and parse the config only
  bench <t_spawn> <config> <out>           setup, then the `qembed bench` path
  trace <t_spawn> <config> <out>           setup, then the same path with spans

<t_spawn> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s counts
interpreter start, `import qembed` and config parse.  Every mode writes
its measurements to <out>/child.json; the program's own outputs go to
<out>/results/.
"""
import csv
import functools
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

from qembed.bench import runner
from qembed.bench.config import TELCO_SCHEMA, config_from_dict, load_raw
from qembed.bench.data import synthetic_telco
from qembed.bench.report import write_report
from qembed.pipeline import NUMERIC, load_csv

from spans import Tracer

# --- input generation ---------------------------------------------------------

def _cell(value: float, blank_zero: bool) -> str:
    if blank_zero and value == 0.0:
        return " "  # the public file leaves TotalCharges blank for new accounts
    return str(int(value)) if value.is_integer() else repr(value)


def write_csv(dataset, path: str) -> None:
    """Write a Dataset as a header-first CSV in the public churn file's layout."""
    columns = []
    for spec in dataset.schema:
        values = dataset.columns[spec.name]
        if spec.kind == NUMERIC:
            blank = spec.name in dataset.blank_counts
            values = [_cell(v, blank) for v in np.asarray(values, dtype=float).tolist()]
        columns.append(values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([spec.name for spec in dataset.schema])
        writer.writerows(zip(*columns))


def _blanks(dataset) -> dict:
    return {name: n for name, n in dataset.blank_counts.items() if n}


def _same_dataset(a, b) -> bool:
    if a.n_rows != b.n_rows or _blanks(a) != _blanks(b):
        return False
    for spec in a.schema:
        x, y = a.columns[spec.name], b.columns[spec.name]
        if spec.kind == NUMERIC:
            if not np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
                return False
        elif tuple(x) != tuple(y):
            return False
    return True


def gen(rows: int, seed: int, path: str) -> None:
    dataset = synthetic_telco(rows, seed)
    write_csv(dataset, path)
    if not _same_dataset(dataset, load_csv(path, TELCO_SCHEMA)):
        raise SystemExit(f"{path} does not read back as the generated table")


# --- environment --------------------------------------------------------------

def env_stamp() -> dict:
    from run import THREAD_VARS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the bench path, untraced and traced --------------------------------------

def _no_span(name: str):
    return nullcontext({})


def bench(config, out_dir: str, span=_no_span) -> None:
    """What `qembed bench --format csv` does after parsing its config."""
    run = runner.run_matrix(config)
    with span("persist"):
        runner.persist_run(run, out_dir)
        write_report(run.results, "csv", out_dir)


def trace_layers(tracer: Tracer) -> None:
    """Put a span around every layer call that bench.runner makes.

    run_matrix and _run_once look these functions up in the runner module
    when they call them, so replacing them there traces the program's own
    orchestration, call for call.  Each wrapper records the counts its
    layer gives; the wrapped fit also wraps the returned model's
    predict_proba.  The child process ends with the run, so the
    replacements are never undone.
    """
    entry_name = [None]  # fits follow the encode_split of their entry

    def wrap(func_name: str, span_name, record=None) -> None:
        func = getattr(runner, func_name)

        @functools.wraps(func)
        def traced(*args):
            name = span_name(*args) if callable(span_name) else span_name
            with tracer.span(name) as attrs:
                out = func(*args)
                if record is not None:
                    record(attrs, out, *args)
            return out

        setattr(runner, func_name, traced)

    def loaded(attrs, dataset, config):
        attrs["rows"] = dataset.n_rows

    def encoded(attrs, out, entry, train, test):
        attrs["rows"] = 0 if entry.scheme is None else train.n_rows + test.n_rows

    def encoding(entry, train, test):
        entry_name[0] = entry.name
        return f"encode.{entry.name}"

    def fitted(attrs, model, spec, enc_train):
        attrs.update(entry=entry_name[0], iterations=int(model.meta.iterations),
                     converged=bool(model.meta.converged))
        predict = model.predict_proba

        def traced_predict(X):
            with tracer.span(f"predict.{spec.kind}"):
                return predict(X)

        model.predict_proba = traced_predict

    wrap("load_dataset", "load", loaded)
    wrap("run_preprocess", "preprocess")
    wrap("split_checksum", "checksum")
    wrap("encode_split", encoding, encoded)
    wrap("fit", lambda spec, enc_train: f"fit.{spec.kind}", fitted)
    wrap("compute_report", "metrics")


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "gen":
        rows, out_dir = int(argv[1]), argv[2]
        for seed in argv[3:]:
            gen(rows, int(seed), os.path.join(out_dir, f"data-{seed}.csv"))
        return
    t_spawn, config_path, out_dir = float(argv[1]), argv[2], argv[3]
    config = config_from_dict(load_raw(config_path))
    out = {"setup_s": time.monotonic() - t_spawn}
    if mode != "setup":
        results_dir = os.path.join(out_dir, "results")
        start = time.perf_counter()
        if mode == "bench":
            bench(config, results_dir)
        else:
            tracer = Tracer(run_id=os.path.basename(os.path.normpath(out_dir)))
            trace_layers(tracer)
            with tracer.span("bench"):
                bench(config, results_dir, tracer.span)
        out["bench_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = peak_rss_mb()
        out["persist_bytes"] = _tree_bytes(results_dir)
        out["env"] = env_stamp()
        if mode == "trace":
            with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(os.path.join(out_dir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
