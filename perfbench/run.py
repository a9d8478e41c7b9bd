"""qembed benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout.  A run writes one churn CSV per
data draw (how many draws S buys is set in workloads.py), then runs the
`qembed bench` path on each (load_csv -> run_preprocess -> encode ->
fit/predict -> metrics -> persist_run + write_report) in fresh child
processes, one at a time: a closed loop with one client.  It checks every
persisted run and prints each metric with its unit and sample count; the
last line is one JSON object.  With --trace 0 that object holds the
end-to-end metrics of untraced runs.  With --trace 1 it holds the
per-layer metrics of traced runs; each draw then also runs untraced, so
the tracing overhead and the metrics digests of both can be compared.
Exit status: 0 when every check passed, 1 when an output check failed,
2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from layers import describe
from spans import nesting_problems, self_times
from workloads import WORKLOADS, bench_config, data_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
SETUP_PROBES = 3       # setup-only children per run, after one warm-up
RUN_LIMIT_S = 170.0    # every child must end by then, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def declared_units(trace: bool) -> dict[str, str]:
    """Unit of each metric BENCHMARK.json declares for an untraced or a traced run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    """Children get one BLAS thread and cache their bytecode under the work dir.

    The BLAS thread count changes the order of floating-point sums and so
    the last digits of the metrics; fixing it keeps metrics_sha256 the same
    on every machine and in every environment.
    """
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / WORK / "pycache")
    return env


class Runner:
    """Starts child processes one at a time, each bounded by RUN_LIMIT_S."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def child(self, mode: str, *args: str) -> None:
        cmd = [sys.executable, str(HERE / "child.py"), mode, *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {mode} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited with {proc.returncode}")

    def measured(self, mode: str, data: dict) -> dict:
        """One setup/bench/trace child on one input; returns its child.json."""
        self.count += 1
        out = self.work / f"{self.count:03d}-{mode}-seed{data['seed']}"
        out.mkdir()
        self.child(mode, repr(time.monotonic()), data["config"], str(out))
        with open(out / "child.json", encoding="utf-8") as fh:
            record = json.load(fh)
        record["dir"] = out
        record["data"] = data
        return record


def make_inputs(runner: Runner, workload: str, seeds: list[int]) -> list[dict]:
    """Write one CSV and one bench config per data draw of the run."""
    rows = WORKLOADS[workload]["rows"]
    runner.child("gen", str(rows), str(runner.work), *map(str, seeds))
    inputs = []
    for s in seeds:
        path = runner.work / f"data-{s}.csv"
        with open(path, "rb") as fh:
            blob = fh.read()
        written = blob.count(b"\n") - 1
        if written != rows:
            raise BenchError(f"{path} holds {written} rows, not {rows}")
        rel = path.relative_to(ROOT).as_posix()
        config = runner.work / f"config-{s}.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(bench_config(workload, s, rel), fh, indent=2)
        inputs.append({"seed": s, "path": rel, "rows": rows, "config": str(config),
                       "sha256": hashlib.sha256(blob).hexdigest()})
    return inputs


def check_child(record: dict, workload: str) -> tuple[list[str], dict]:
    """Output problems of one bench/trace child and its persisted results."""
    results_dir = record["dir"] / "results"
    with open(results_dir / "results.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(results_dir / "report.csv", encoding="utf-8") as fh:
        report_lines = sum(1 for _ in fh)
    spec = WORKLOADS[workload]
    expected = [(e.get("name", e["kind"]), m) for e in spec["encodings"] for m in spec["models"]]
    found = checks.output_problems(payload, expected, record["data"]["rows"], report_lines)
    return found, payload


def layer_metrics(spans: list[dict], persist_bytes: int, units: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced run; absent work is 0."""
    m = dict.fromkeys(units, 0)

    def add(name: str, value: float) -> None:
        if name not in m:
            raise BenchError(f"the trace gives {name}, which BENCHMARK.json does not declare")
        m[name] += value

    for s, own in zip(spans, self_times(spans)):
        name, attrs = s["name"], s["attrs"]
        if s["parent"] is None:
            m["uncovered.s"] = own
            m["traced.bench_s"] = s["end"] - s["start"]
            continue
        add(f"{name}.s", own)
        if name.startswith("encode."):
            add("encode.s", own)
            add("encode.rows", attrs.get("rows", 0))
        elif name.startswith("fit."):
            add(f"{name}.fits", 1)
            add(f"{name}.iterations", attrs.get("iterations", 0))
            add(f"{name}.unconverged", not attrs.get("converged", True))
        elif name == "load":
            add("load.rows", attrs.get("rows", 0))
    m["persist.bytes"] = persist_bytes
    m["uncovered.share"] = m["uncovered.s"] / m["traced.bench_s"]
    return m


def unconverged_cells(spans: list[dict]) -> list[str]:
    fits = [s for s in spans if s["name"].startswith("fit.")]
    return [f"{s['attrs']['entry']}/{s['name'][4:]} ({s['attrs']['iterations']} iterations)"
            for s in fits if not s["attrs"].get("converged", True)]


def check_runs(children: dict[str, list[dict]], workload: str):
    """Check every persisted run; digests and mean AUC are keyed by data seed.

    Returns (problems, digests, aucs, cells attempted, cells failed).
    """
    problems, attempted, failed = [], 0, 0
    digests: dict[int, dict[str, str]] = {}
    aucs: dict[int, float | None] = {}
    for mode, records in children.items():
        for i, record in enumerate(records):
            found, payload = check_child(record, workload)
            problems += [f"{mode} run {i}: {p}" for p in found]
            data_seed = record["data"]["seed"]
            digests.setdefault(data_seed, {})[f"{mode}{i}"] = checks.metrics_sha256(
                payload["results"])
            attempted += len(payload["results"])
            failed += sum(c["error"] is not None for c in payload["results"])
            aucs.setdefault(data_seed, checks.auc_mean(payload["results"]))
    for runs in digests.values():
        problems += checks.digest_problems(runs)
    if None in aucs.values():
        problems.append("a data draw has no cell with a defined AUC")
    return problems, digests, aucs, attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, problems found)."""
    units = declared_units(trace)
    work = ROOT / WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    inputs = make_inputs(runner, workload, data_seeds(workload, seed, seconds, trace))
    for data in inputs:
        print(f"workload {workload} seed {seed}: input {data['path']} "
              f"rows={data['rows']} sha256={data['sha256']}")

    runner.measured("setup", inputs[0])  # warm-up: fills the bytecode cache
    setups = [runner.measured("setup", inputs[0])["setup_s"] for _ in range(SETUP_PROBES)]
    modes = ("bench", "trace") if trace else ("bench",)
    children: dict[str, list[dict]] = {mode: [] for mode in modes}
    for data in inputs:
        for mode in modes:
            children[mode].append(runner.measured(mode, data))

    problems, digests, aucs, attempted, failed = check_runs(children, workload)
    per_draw = [next(iter(d.values())) for d in digests.values()]
    digest = hashlib.sha256(",".join(per_draw).encode()).hexdigest()

    bench_runs = children["bench"]
    setups += [r["setup_s"] for mode in modes for r in children[mode]]
    bench_s = [r["bench_s"] for r in bench_runs]
    rss = [r["peak_rss_mb"] for r in bench_runs]
    summary = {
        "workload": workload, "seed": seed, "env": bench_runs[0]["env"],
        "inputs": [{k: v for k, v in d.items() if k != "config"} for d in inputs],
        "metrics_sha256": digest, "metrics_sha256_per_draw": per_draw,
        "cells": {"attempted": attempted, "failed": failed},
        "samples": {"setup_s": setups, "bench_s": bench_s, "peak_rss_mb": rss},
    }
    if not trace:
        metrics = {
            "bench_s": statistics.median(bench_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "auc_mean": statistics.fmean(a for a in aucs.values() if a is not None),
            "ok_cell_share": (attempted - failed) / attempted,
        }
        basis = {
            "bench_s": f"median of {len(bench_s)} draws",
            "setup_s": f"median of {len(setups)} children",
            "peak_rss_mb": f"median of {len(rss)} children",
            "auc_mean": f"mean over {len(aucs)} draws of each draw's mean cell AUC",
            "ok_cell_share": f"{attempted - failed} of {attempted} cells",
        }
    else:
        per_run, summary["unconverged"] = [], {}
        for record in children["trace"]:
            with open(record["dir"] / "trace.json", encoding="utf-8") as fh:
                spans = json.load(fh)
            problems += [f"trace: {p}" for p in nesting_problems(spans)]
            per_run.append(layer_metrics(spans, record["persist_bytes"], units))
            summary["unconverged"][record["data"]["seed"]] = unconverged_cells(spans)
        metrics = {name: statistics.median(m[name] for m in per_run) for name in units}
        metrics["trace_overhead.s"] = metrics["traced.bench_s"] - statistics.median(bench_s)
        basis = {name: f"median of {len(per_run)} traced runs; {describe(name)}"
                 for name in units}

    print("env: " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                             for k, v in summary["env"].items()))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit} ({basis[name]})")
    print(f"failed_cell_share = {failed / attempted} ratio "
          f"({failed} of {attempted} cells failed)")
    if trace:
        print(f"tracing overhead: {metrics['trace_overhead.s']} s over an untraced median "
              f"of {statistics.median(bench_s)} s; the layer spans leave "
              f"{metrics['uncovered.share']} of the traced bench_s uncovered")
        for data_seed, cells in summary["unconverged"].items():
            print(f"unconverged fits, data seed {data_seed} ({len(cells)}): "
                  + (", ".join(cells) or "none"))
    for data_seed, d in zip(digests, per_draw):
        print(f"metrics_sha256 of data seed {data_seed} = {d} "
              f"({len(digests[data_seed])} runs, {len(set(digests[data_seed].values()))} distinct)")
    print(f"metrics_sha256 = {digest}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    summary.update(metrics=metrics, problems=problems)
    with open(work / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)
    for data in inputs:  # reproducible from the seed; the sha256 is in the summary
        (ROOT / data["path"]).unlink()

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qembed" / "__init__.py").is_file():
        print(f"no qembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
