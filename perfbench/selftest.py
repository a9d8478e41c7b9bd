"""Self-tests of the benchmark: `python3 perfbench/selftest.py`, from the checkout root.

They run the smoke workload (120 rows, 2 encodings x 2 models) untraced and
traced, then check that:
  - every metric BENCHMARK.json declares prints by name with its unit, and
    the last line carries exactly those metrics;
  - both runs read the same input bytes and agree on metrics_sha256;
  - a tampered report changes metrics_sha256 and fails the digest check;
  - the traced run's spans nest, and a span moved out of its parent is caught;
  - the trace holds one span per layer call of bench.runner, in its order;
  - a directory holding only BENCHMARK.json and perfbench/ exits nonzero
    without printing a result.
Exit status 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import checks
from layers import layer_metric_names
from run import HERE, ROOT, WORK, declared_units
from spans import nesting_problems

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(trace: int, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        print(proc.stderr, end="")
    return proc.returncode, proc.stdout.splitlines()


def check_run(trace: int) -> list[str]:
    code, lines = bench(trace)
    check(code == 0 and bool(lines), f"smoke --trace {trace} exits 0")
    if code != 0 or not lines:
        return lines
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0, f"smoke --trace {trace} is correct")
    units = declared_units(bool(trace))
    check({k: v["unit"] for k, v in result["metrics"].items()} == units,
          f"--trace {trace} result carries exactly the declared metrics and units")
    printed = {line.split(" = ")[0]: line for line in lines[:-1] if " = " in line}
    missing = [n for n, u in units.items()
               if n not in printed or f" {u} (" not in printed[n]]
    check(not missing, f"--trace {trace} prints every declared metric with its unit {missing}")
    return lines


def main() -> int:
    check(list(declared_units(trace=True)) == layer_metric_names(),
          "BENCHMARK.json declares the per-layer metrics of every workload's entries and models")
    lines = {trace: check_run(trace) for trace in (0, 1)}
    inputs = [next(x for x in lines[t] if x.startswith("workload ")) for t in (0, 1)]
    check(inputs[0].split("sha256=")[1] == inputs[1].split("sha256=")[1],
          "one seed gives the same input bytes")
    digests = [next(x for x in lines[t] if x.startswith("metrics_sha256 of data seed 0 = "))
               .split(" = ")[1].split()[0] for t in (0, 1)]
    check(digests[0] == digests[1], "untraced and traced runs share metrics_sha256")

    traced = ROOT / WORK / "smoke-seed0-trace1"
    run_dirs = sorted(traced.glob("*-trace-seed0"))
    with open(run_dirs[0] / "results" / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    tampered = copy.deepcopy(results)
    tampered[0]["report"]["roc_auc"] = 1.0 - tampered[0]["report"]["roc_auc"] + 1e-9
    pair = {"traced": checks.metrics_sha256(results),
            "tampered": checks.metrics_sha256(tampered)}
    check(pair["traced"] == digests[1], "digest of the persisted results matches the printed one")
    check(bool(checks.digest_problems(pair)), "a tampered report fails the digest check")
    retimed = copy.deepcopy(results)
    retimed[0]["fit_ms"] += 1.0
    retimed[0]["timestamp"] = "2000-01-01T00:00:00+00:00"
    check(checks.metrics_sha256(retimed) == pair["traced"],
          "timings and timestamps stay out of the digest")

    with open(run_dirs[0] / "results" / "results.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    expected = [(c["encoding"], c["model"]) for c in payload["results"]]
    rows = payload["manifest"]["rows"]["dataset"]
    check(not checks.output_problems(payload, expected, rows, len(expected) + 1),
          "the persisted smoke run passes the output checks")
    broken = copy.deepcopy(payload)
    broken["results"][0]["report"]["roc_auc"] = 1.5
    broken["results"][1]["split_checksum"] = "0" * 64
    check(len(checks.output_problems(broken, expected, rows, len(expected) + 1)) == 2,
          "an AUC outside [0, 1] and a second split checksum fail the output checks")

    with open(run_dirs[0] / "trace.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    check(not nesting_problems(spans), "spans nest: parents exist and enclose their children")
    calls = ["bench", "load", "preprocess", "checksum"]
    for entry in dict.fromkeys(e for e, _ in expected):
        calls.append(f"encode.{entry}")
        for model in (m for e, m in expected if e == entry):
            calls += [f"fit.{model}", f"predict.{model}", "metrics"]
    check([s["name"] for s in spans] == calls + ["persist"],
          "the trace holds one span per layer call, in bench.runner's order")
    moved = copy.deepcopy(spans)
    moved[-1]["end"] = moved[0]["end"] + 1.0
    check(bool(nesting_problems(moved)), "a span outside its parent is caught")
    orphan = copy.deepcopy(spans)
    orphan[-1]["parent"] = len(spans) + 7
    check(bool(nesting_problems(orphan)), "a span with a missing parent is caught")

    bare = ROOT / WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out = bench(0, cwd=bare)
    check(code != 0 and not any(x.startswith("{") for x in out),
          "without the program sources the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
