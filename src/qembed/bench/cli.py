"""Command line front end.

Subcommands: encode (one-off vectors, bitstrings or text), preprocess,
bench and report.  Exit status is 0 on success, 1 for configuration or
usage problems (including unknown flags) and 2 for data problems or an
array too large for memory.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .. import encoding as enc
from .. import qsim
from ..errors import (
    ConfigError,
    EncodingError,
    InvalidHyperparameter,
    InvalidScheme,
    QembedError,
)
from ..pipeline import run_preprocess
from . import report as report_mod
from . import runner as runner_mod
from .config import config_from_dict, load_raw

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise EncodingError(f"cannot parse vector {text!r}") from None


def _parse_bits(text: str) -> list[int]:
    if not all(c in "01" for c in text):
        raise EncodingError(f"bitstring {text!r} must contain only 0 and 1")
    return [int(c) for c in text]


def _fmt(arr) -> str:
    return np.array2string(
        np.asarray(arr), separator=", ", threshold=64, max_line_width=100
    )


def _print_state(state, readout: str) -> None:
    print(f"qubits: {state.n_qubits}")
    probs = qsim.probabilities(state)
    nz = np.flatnonzero(probs > 1e-15)
    if nz.size == 1:
        label = format(int(nz[0]), f"0{state.n_qubits}b")
        print(f"state index: {int(nz[0])} (|{label}>)")
    print(f"amplitudes: {_fmt(state.amps)}")
    features = enc.readout_features(state, readout)
    print(f"readout ({readout}): {_fmt(features)}")


# The flags each encode mode reads besides --readout, its input first; --scheme
# picks every mode but text.  Any other flag given is a usage error, never ignored.
_ENCODE_FLAGS = {
    "text": ("text",),
    "basis": ("bits", "scheme"),
    "superposition": ("strings", "scheme"),
    "angle": ("vector", "scheme", "axis", "map", "degrees"),
    "amplitude": ("vector", "scheme"),
}


def _cmd_encode(args) -> int:
    mode = "text" if args.text is not None else args.scheme or "basis"
    for flag in ("scheme", "vector", "bits", "strings", "axis", "map", "degrees"):
        if getattr(args, flag) not in (None, False) and flag not in _ENCODE_FLAGS[mode]:
            raise ConfigError(f"--{flag} is not read by {mode} encoding")
    source = _ENCODE_FLAGS[mode][0]
    if (given := getattr(args, source)) is None:
        raise ConfigError(f"{mode} encoding needs --{source}")

    if mode == "text":
        for ch, state in zip(given, enc.basis_encode_text(given)):
            print(f"char {ch!r} (code {ord(ch)}):")
            _print_state(state, args.readout or enc.default_readout(enc.BASIS))
        return EXIT_OK
    if mode == "basis":
        state = enc.basis_encode(_parse_bits(given))
    elif mode == "superposition":
        state = enc.superposition_encode(given.split(","))
    elif mode == "angle":
        values = _parse_floats(given)
        if args.degrees:
            values, args.map = list(np.radians(values)), enc.RAW
        options = {"axis": args.axis, "angle_map": args.map}
        scheme = enc.angle_scheme(**{k: v for k, v in options.items() if v is not None})
        state = enc.angle_encode(values, scheme)
    else:
        state = enc.amplitude_encode(_parse_floats(given))
    _print_state(state, args.readout or enc.default_readout(mode))
    return EXIT_OK


def _load_config(args):
    raw = load_raw(args.config)
    if getattr(args, "seed", None) is not None:
        raw = dict(raw)
        raw["seed"] = args.seed
    return config_from_dict(raw)


def _cmd_preprocess(args) -> int:
    config = _load_config(args)
    dataset = runner_mod.load_dataset(config)
    result = run_preprocess(dataset, config.preprocess)
    out_dir = runner_mod.resolve_output_dir(config, args.out)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "preprocess.json")
    runner_mod.write_json(path, {
        "report": asdict(result.report),
        "train_rows": result.train.n_rows,
        "test_rows": result.test.n_rows,
        "n_components": result.report.n_components,
    })
    dropped = ", ".join(d.name for d in result.report.dropped) or "none"
    print(f"rows: {dataset.n_rows} -> train {result.train.n_rows}, test {result.test.n_rows}")
    print(f"dropped columns: {dropped}")
    print(f"components kept: {result.report.n_components} (elbow {result.report.elbow_index})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _load_config(args)
    run = runner_mod.run_matrix(config)
    out_dir = runner_mod.resolve_output_dir(config, args.out)
    results_path = runner_mod.persist_run(run, out_dir)
    report_path = report_mod.write_report(run.results, args.format, out_dir)
    print(report_mod.emit_report(run.results, args.format), end="")
    print(f"wrote {results_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    results = runner_mod.load_results(args.results)
    if args.out:
        path = report_mod.write_report(results, args.format, args.out)
        print(f"wrote {path}")
    else:
        print(report_mod.emit_report(results, args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_enc = sub.add_parser("encode", help="encode one vector, bitstring or text")
    p_enc.add_argument("--scheme", help="default basis",
                       choices=("basis", "superposition", "angle", "amplitude"))
    p_enc.add_argument("--vector", help="comma-separated numbers")
    p_enc.add_argument("--bits", help="bitstring such as 101")
    p_enc.add_argument("--strings", help="comma-separated bitstrings to superpose")
    p_enc.add_argument("--text", help="ASCII text, one 7-qubit state per character")
    p_enc.add_argument("--axis", choices=("X", "Y", "Z"))
    angle_map = p_enc.add_mutually_exclusive_group()
    angle_map.add_argument("--map", choices=("linear_pi", "raw"),
                           help="angle map for --scheme angle")
    angle_map.add_argument("--degrees", action="store_true",
                           help="treat --vector entries as rotation angles in degrees")
    p_enc.add_argument("--readout",
                       choices=("probability_vector", "z_expectations", "amplitude_parts"))
    p_enc.set_defaults(func=_cmd_encode)

    p_pre = sub.add_parser("preprocess", help="run the preprocessing chain only")
    p_pre.add_argument("--config", required=True)
    p_pre.add_argument("--seed", type=int)
    p_pre.add_argument("--out")
    p_pre.set_defaults(func=_cmd_preprocess)

    p_bench = sub.add_parser("bench", help="run the full encoding x model matrix")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out")
    p_bench.add_argument("--format", default="csv", choices=report_mod.FORMATS)
    p_bench.set_defaults(func=_cmd_bench)

    p_rep = sub.add_parser("report", help="re-render a saved results file")
    p_rep.add_argument("--results", required=True, help="path to results.json")
    p_rep.add_argument("--format", default="csv", choices=report_mod.FORMATS)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, InvalidScheme, InvalidHyperparameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QembedError, OSError, ValueError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
