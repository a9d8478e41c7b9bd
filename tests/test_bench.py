import csv
import io
import json

import numpy as np
import pytest

from qembed.bench import cli, config, data, report, runner
from qembed.errors import ConfigError, EmptyResults
from qembed.metrics import MetricReport
from qembed.pipeline import pearson_corr


def small_config(**overrides):
    raw = {
        "dataset": {"path": None, "synthetic_rows": 200},
        "seed": 3,
        "preprocess": {"n_components": 6},
        "encodings": [
            {"kind": "classical"},
            {"kind": "angle"},
        ],
        "models": [
            {"kind": "logreg", "params": {"epochs": 300}},
            {"kind": "knn", "params": {"k": 3}},
        ],
    }
    raw.update(overrides)
    return config.config_from_dict(raw)


class TestConfig:
    def test_default_schema_is_telco(self):
        cfg = small_config()
        assert len(cfg.schema) == 21
        assert cfg.schema[0].name == "customerID"
        assert cfg.schema[-1].name == "Churn"

    def test_requires_encodings_and_models(self):
        with pytest.raises(ConfigError):
            small_config(encodings=[])
        with pytest.raises(ConfigError):
            small_config(models=[])

    def test_duplicate_encoding_names_rejected(self):
        with pytest.raises(ConfigError):
            small_config(encodings=[{"kind": "angle"}, {"kind": "angle"}])

    def test_named_duplicates_allowed(self):
        cfg = small_config(
            encodings=[
                {"kind": "angle", "name": "angle-x"},
                {"kind": "angle", "axis": "Y", "name": "angle-y"},
            ]
        )
        assert [e.name for e in cfg.encodings] == ["angle-x", "angle-y"]

    def test_unknown_encoding_kind(self):
        with pytest.raises(ConfigError):
            small_config(encodings=[{"kind": "teleport"}])

    def test_superposition_not_benchable(self):
        with pytest.raises(ConfigError):
            small_config(encodings=[{"kind": "superposition"}])

    def test_information_free_angle_axis_rejected(self):
        # R_Z|0> is |0> up to a phase: every row would encode the same state
        with pytest.raises(ConfigError):
            small_config(encodings=[{"kind": "angle", "axis": "Z"}])

    def test_unknown_model_kind_wrapped(self):
        with pytest.raises(ConfigError):
            small_config(models=[{"kind": "perceptron"}])

    def test_bad_model_param_wrapped(self):
        with pytest.raises(ConfigError):
            small_config(models=[{"kind": "knn", "params": {"k": 0}}])

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            small_config(preprocess={"split_ratio": 1.5})
        with pytest.raises(ConfigError):
            small_config(preprocess={"corr_threshold": 0.0})
        with pytest.raises(ConfigError):
            small_config(preprocess={"vif_threshold": 1.0})

    def test_seed_flows_to_preprocess_and_models(self):
        cfg = small_config(seed=11)
        assert cfg.preprocess.seed == 11
        assert all(m.seed == 11 for m in cfg.models)

    def test_explicit_model_seed_kept(self):
        cfg = small_config(models=[{"kind": "knn", "seed": 5}])
        assert cfg.models[0].seed == 5

    def test_roundtrip_hash_stable(self):
        cfg = small_config()
        again = config.config_from_dict(config.config_to_dict(cfg))
        assert runner.config_hash(cfg) == runner.config_hash(again)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            config.load_config(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            config.load_config(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_config(tmp_path / "absent.json")


class TestSyntheticData:
    def test_shape_and_schema(self):
        ds = data.synthetic_telco(150, seed=0)
        assert ds.n_rows == 150
        assert ds.schema == config.TELCO_SCHEMA
        assert len(ds.columns["Churn"]) == 150

    def test_deterministic(self):
        a = data.synthetic_telco(100, seed=7)
        b = data.synthetic_telco(100, seed=7)
        assert a.columns["Churn"] == b.columns["Churn"]
        assert np.array_equal(a.columns["MonthlyCharges"], b.columns["MonthlyCharges"])

    def test_seed_changes_rows(self):
        a = data.synthetic_telco(100, seed=0)
        b = data.synthetic_telco(100, seed=1)
        assert a.columns["Churn"] != b.columns["Churn"]

    def test_blank_totals_follow_zero_tenure(self):
        ds = data.synthetic_telco(400, seed=2)
        zero_tenure = int(np.count_nonzero(ds.columns["tenure"] == 0))
        assert ds.blank_counts.get("TotalCharges", 0) == zero_tenure
        assert np.all(ds.columns["TotalCharges"][ds.columns["tenure"] == 0] == 0.0)

    def test_both_classes_present(self):
        ds = data.synthetic_telco(300, seed=4)
        assert set(ds.columns["Churn"]) == {"No", "Yes"}

    def test_charges_correlation_trips_prune(self):
        # mirrors the public dataset, where this pair sits near 0.83
        for seed in range(5):
            ds = data.synthetic_telco(500, seed=seed)
            r = pearson_corr(ds.columns["tenure"], ds.columns["TotalCharges"])
            assert r >= 0.8

    def test_internet_addons_consistent(self):
        ds = data.synthetic_telco(200, seed=5)
        no_net = [v == "No" for v in ds.columns["InternetService"]]
        addon = ds.columns["OnlineSecurity"]
        for flag, value in zip(no_net, addon):
            assert (value == "No internet service") == flag


class TestRunner:
    def test_single_cell(self):
        cfg = small_config(
            encodings=[{"kind": "classical"}], models=[{"kind": "knn"}]
        )
        run = runner.run_matrix(cfg)
        assert len(run.results) == 1
        cell = run.results[0]
        assert cell.error is None
        assert cell.encoding == "classical"
        assert cell.model == "knn"
        assert isinstance(cell.report, MetricReport)
        assert cell.encode_ms == 0.0
        assert cell.fit_ms >= 0 and cell.predict_ms >= 0

    def test_grid_order_is_encoding_major(self):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        got = [(r.encoding, r.model) for r in run.results]
        assert got == [
            ("classical", "logreg"),
            ("classical", "knn"),
            ("angle", "logreg"),
            ("angle", "knn"),
        ]

    def test_shared_split_checksum_and_dims(self):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        checksums = {r.split_checksum for r in run.results}
        assert checksums == {run.manifest["split_checksum"]}
        assert all(r.dim_in == 6 for r in run.results)
        angle_cells = [r for r in run.results if r.encoding == "angle"]
        assert all(r.dim_out == 6 for r in angle_cells)

    def test_quantum_encode_time_positive(self):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        for r in run.results:
            if r.encoding == "classical":
                assert r.encode_ms == 0.0
            else:
                assert r.encode_ms > 0.0

    def test_metrics_deterministic_across_runs(self):
        cfg = small_config()
        first = runner.run_matrix(cfg)
        second = runner.run_matrix(cfg)
        for a, b in zip(first.results, second.results):
            assert a.report.to_dict() == b.report.to_dict()
        assert first.manifest["split_checksum"] == second.manifest["split_checksum"]

    def test_manifest_rerun_reproduces_reports(self):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        resumed = config.config_from_dict(run.manifest["config"])
        rerun = runner.run_matrix(resumed)
        assert [r.report.to_dict() for r in run.results] == [
            r.report.to_dict() for r in rerun.results
        ]

    def test_failing_encoding_isolated(self):
        # 6 components x 8 bits = 48 qubits, far past the simulator cap
        cfg = small_config(
            encodings=[
                {"kind": "basis", "bits_per_feature": 8},
                {"kind": "classical"},
            ]
        )
        run = runner.run_matrix(cfg)
        basis_cells = [r for r in run.results if r.encoding == "basis"]
        classical_cells = [r for r in run.results if r.encoding == "classical"]
        assert len(basis_cells) == 2 and len(classical_cells) == 2
        for cell in basis_cells:
            assert cell.report is None
            assert "encode:" in cell.error
        for cell in classical_cells:
            assert cell.error is None

    def test_repeat_keeps_metrics(self):
        cfg = small_config(
            encodings=[{"kind": "classical"}], models=[{"kind": "knn"}]
        )
        once = runner.run_matrix(cfg, repeat=1)
        thrice = runner.run_matrix(cfg, repeat=3)
        assert once.results[0].report.to_dict() == thrice.results[0].report.to_dict()
        assert thrice.manifest["repeat"] == 3
        assert thrice.results[0].fit_ms > 0

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            runner.run_matrix(small_config(), repeat=0)

    def test_persist_and_reload(self, tmp_path):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        out = tmp_path / "out"
        path = runner.persist_run(run, str(out))
        rows = runner.load_results(path)
        assert rows == [r.to_dict() for r in run.results]
        per_cell = sorted(p.name for p in (out / "runs").iterdir())
        assert per_cell == [
            "000_classical_logreg.json",
            "001_classical_knn.json",
            "002_angle_logreg.json",
            "003_angle_knn.json",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == runner.config_hash(cfg)

    def test_cells_record_solver_convergence(self, tmp_path):
        cfg = small_config(
            encodings=[{"kind": "classical"}],
            models=[
                {"kind": "logreg", "params": {"epochs": 3}},
                {"kind": "knn", "params": {"k": 3}},
            ],
        )
        run = runner.run_matrix(cfg)
        capped, knn = run.results
        assert (capped.iterations, capped.converged) == (3, False)
        assert (knn.iterations, knn.converged) == (0, True)
        path = runner.persist_run(run, str(tmp_path))
        rows = runner.load_results(path)
        assert [(r["iterations"], r["converged"]) for r in rows] == [(3, False), (0, True)]
        parsed = list(csv.DictReader(io.StringIO(report.emit_report(rows, "csv"))))
        assert [row["converged"] for row in parsed] == ["False", "True"]

    def test_results_file_rerunnable(self, tmp_path):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        path = runner.persist_run(run, str(tmp_path))
        resumed = config.load_config(path)
        assert runner.config_hash(resumed) == runner.config_hash(cfg)

    def test_output_dir_priority(self, monkeypatch):
        cfg = small_config()
        monkeypatch.delenv(runner.ENV_OUTPUT_DIR, raising=False)
        assert runner.resolve_output_dir(cfg) == runner.DEFAULT_OUTPUT_DIR
        monkeypatch.setenv(runner.ENV_OUTPUT_DIR, "from_env")
        assert runner.resolve_output_dir(cfg) == "from_env"
        cfg_out = small_config(output_dir="from_config")
        assert runner.resolve_output_dir(cfg_out) == "from_config"
        assert runner.resolve_output_dir(cfg_out, "from_flag") == "from_flag"


class TestReport:
    def run_small(self):
        cfg = small_config(
            encodings=[{"kind": "classical"}],
            models=[{"kind": "knn"}, {"kind": "gbt", "params": {"n_rounds": 5}}],
        )
        return runner.run_matrix(cfg)

    def test_csv_header_and_rows(self):
        run = self.run_small()
        text = report.emit_report(run.results, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(report.COLUMNS)
        assert len(rows) == 1 + len(run.results)
        assert rows[1][0] == "classical" and rows[1][1] == "knn"

    def test_csv_reparses_to_same_values(self):
        run = self.run_small()
        text = report.emit_report(run.results, "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        for row, cell in zip(parsed, run.results):
            for name in MetricReport.METRIC_NAMES:
                want = getattr(cell.report, name)
                if want is None:
                    assert row[name] == "NA"
                else:
                    assert float(row[name]) == want
            assert float(row["encode_ms"]) == cell.encode_ms
            assert float(row["fit_ms"]) == cell.fit_ms

    def test_undefined_metrics_render_na(self):
        run = self.run_small()
        failed = runner.RunResult(
            encoding="angle",
            model="svm",
            report=None,
            error="encode: boom",
            encode_ms=0.0,
            fit_ms=0.0,
            predict_ms=0.0,
            dim_in=6,
            dim_out=0,
            seed=0,
            split_checksum="x",
            timestamp="t",
        )
        text = report.emit_report([failed], "csv")
        row = list(csv.reader(io.StringIO(text)))[1]
        assert row[2:8] == ["NA"] * 6
        assert row[-1] == "encode: boom"
        assert (failed.iterations, failed.converged) == (0, None)
        assert row[report.COLUMNS.index("converged")] == "NA"

    def test_markdown_table_and_footnote(self):
        run = self.run_small()
        text = report.emit_report(run.results, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| encoding | model |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert "gbt stands in for the boosted-tree family" in text

    def test_markdown_footnote_only_with_gbt(self):
        cfg = small_config(
            encodings=[{"kind": "classical"}], models=[{"kind": "knn"}]
        )
        run = runner.run_matrix(cfg)
        text = report.emit_report(run.results, "markdown")
        assert "stands in" not in text

    def test_empty_results_raise(self):
        with pytest.raises(EmptyResults):
            report.emit_report([], "csv")

    def test_unknown_format(self):
        run = self.run_small()
        with pytest.raises(ValueError):
            report.emit_report(run.results, "tsv")

    def test_rerender_from_disk_identical(self, tmp_path):
        run = self.run_small()
        original = report.emit_report(run.results, "csv")
        path = runner.persist_run(run, str(tmp_path))
        again = report.emit_report(runner.load_results(path), "csv")
        assert again == original


class TestCli:
    def test_encode_amplitude(self, capsys):
        assert cli.main(["encode", "--scheme", "amplitude",
                         "--vector", "1.2,2.7,1.1,0.5"]) == 0
        out = capsys.readouterr().out
        assert "qubits: 2" in out
        assert "0.84581751" in out  # 2.7 / sqrt(10.19)

    def test_encode_basis_bits(self, capsys):
        assert cli.main(["encode", "--scheme", "basis", "--bits", "101"]) == 0
        out = capsys.readouterr().out
        assert "state index: 5 (|101>)" in out

    def test_encode_superposition(self, capsys):
        assert cli.main(["encode", "--scheme", "superposition",
                         "--strings", "100,010,001"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.33333333") == 3

    def test_encode_text(self, capsys):
        assert cli.main(["encode", "--text", "hi"]) == 0
        out = capsys.readouterr().out
        assert "code 104" in out and "code 105" in out

    def test_encode_angle_degrees(self, capsys):
        assert cli.main(["encode", "--scheme", "angle", "--vector", "78",
                         "--degrees", "--readout", "probability_vector"]) == 0
        out = capsys.readouterr().out
        # cos(39 deg)^2 = 0.6039558...
        assert "0.60395585" in out
        assert "0.77714596" in out  # cos(39 deg)

    def test_z_axis_config_exits_one_but_encode_demo_runs(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({
            "encodings": [{"kind": "angle", "axis": "Z"}],
            "models": [{"kind": "tree"}],
        }))
        assert cli.main(["bench", "--config", str(path)]) == 1
        assert cli.main(["encode", "--scheme", "angle", "--axis", "Z",
                         "--vector", "0.2,0.7"]) == 0
        assert "readout (z_expectations): [1., 1.]" in capsys.readouterr().out

    def test_encode_bad_bits_is_data_error(self, capsys):
        assert cli.main(["encode", "--scheme", "basis", "--bits", "102"]) == 2

    def test_encode_bad_vector_is_data_error(self, capsys):
        assert cli.main(["encode", "--scheme", "amplitude",
                         "--vector", "1.0,spam"]) == 2

    def test_encode_missing_input_is_config_error(self, capsys):
        assert cli.main(["encode", "--scheme", "angle"]) == 1

    def test_missing_config_file(self, capsys):
        assert cli.main(["bench", "--config", "no_such_file.json"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "--config", "x.json", "--frobnicate"])
        assert err.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 1

    def write_config(self, tmp_path, **overrides):
        raw = {
            "dataset": {"path": None, "synthetic_rows": 200},
            "seed": 3,
            "preprocess": {"n_components": 6},
            "encodings": [{"kind": "classical"}, {"kind": "angle"}],
            "models": [
                {"kind": "logreg", "params": {"epochs": 300}},
                {"kind": "knn", "params": {"k": 3}},
            ],
        }
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_bench_then_report_roundtrip(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 0
        bench_out = capsys.readouterr().out
        assert (out_dir / "results.json").exists()
        assert (out_dir / "report.csv").exists()
        assert cli.main(["report", "--results", str(out_dir / "results.json"),
                         "--format", "csv"]) == 0
        report_out = capsys.readouterr().out
        saved = (out_dir / "report.csv").read_text()
        assert report_out == saved
        assert saved in bench_out

    def test_bench_seed_override(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_a), "--seed", "9"]) == 0
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_b), "--seed", "9"]) == 0
        capsys.readouterr()
        a = json.loads((out_a / "manifest.json").read_text())
        b = json.loads((out_b / "manifest.json").read_text())
        assert a["seed"] == 9
        assert a["split_checksum"] == b["split_checksum"]

    def test_bench_negative_seed_rejected(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--seed", "-1"]) == 1

    def test_bench_unparsable_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header = ",".join(c.name for c in config.TELCO_SCHEMA)
        row = ",".join(["x"] * len(config.TELCO_SCHEMA))
        bad.write_text(header + "\n" + row + "\n")
        cfg_path = self.write_config(tmp_path, dataset={"path": str(bad)})
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2

    def test_bench_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, dataset={"path": str(tmp_path / "absent.csv")}
        )
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2

    def test_preprocess_writes_report(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out_dir = tmp_path / "pre"
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "preprocess.json").read_text())
        assert payload["n_components"] == 6
        assert payload["train_rows"] > payload["test_rows"] > 0

    def test_report_missing_results_is_data_error(self, tmp_path, capsys):
        assert cli.main(["report", "--results",
                         str(tmp_path / "nope.json")]) == 2

    def test_bench_repeat_flag(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path,
            encodings=[{"kind": "classical"}],
            models=[{"kind": "knn", "params": {"k": 3}}],
        )
        out_dir = tmp_path / "rep"
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_dir), "--repeat", "3"]) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["repeat"] == 3

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        cfg_path = self.write_config(
            tmp_path,
            encodings=[{"kind": "classical"}],
            models=[{"kind": "knn", "params": {"k": 3}}],
        )
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv(runner.ENV_OUTPUT_DIR, str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert (env_dir / "results.json").exists()
