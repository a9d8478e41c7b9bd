"""Benchmark harness: config, runner, reporting and the qembed CLI.

The names imported here are the package's public API.
"""

from .config import (
    CLASSICAL,
    TELCO_SCHEMA,
    BenchConfig,
    EncodingEntry,
    config_from_dict,
    config_to_dict,
    load_config,
    load_raw,
)
from .data import synthetic_telco
from .report import COLUMNS, FORMATS, emit_report, write_report
from .runner import (
    DEFAULT_OUTPUT_DIR,
    ENV_OUTPUT_DIR,
    BenchRun,
    RunResult,
    config_hash,
    encode_split,
    load_dataset,
    load_results,
    persist_run,
    resolve_output_dir,
    run_matrix,
    split_checksum,
)
