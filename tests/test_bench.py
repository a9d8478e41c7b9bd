import csv
import hashlib
import inspect
import io
import json
import re
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from qembed.bench import cli, config, data, report, runner
from qembed.encoding import (
    AXIS_GATES, LINEAR_PI, RAW, READOUTS, amplitude_scheme, angle_scheme, basis_scheme,
)
from qembed.errors import (
    ConfigError, EmptyInput, EmptyResults, InvalidHyperparameter, ZeroVariance,
)
from qembed.metrics import MetricReport
from qembed.models import DEFAULT_PARAMS, MODEL_KINDS, ModelSpec
from qembed.pipeline import (
    CATEGORICAL, NUMERIC, FeatureMatrix, PreprocessOptions, correlation_matrix,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
            {"kind": "logreg", "params": {"max_iter": 300}},
            {"kind": "knn", "params": {"k": 3}},
        ],
    }
    raw.update(overrides)
    return config.config_from_dict(raw)


def synthetic_raw_with(path: str, value) -> dict:
    """configs/synthetic.json as a dict, its SVM polynomial (so coef0 and
    degree are live), with `value` set at a key path such as
    models[4].params.bootstrap."""
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["models"][2]["params"] = {"kernel": "polynomial"}
    *parents, last = re.findall(r"\w+|\[\d+\]", path)
    node = raw
    for step in parents:
        node = node[int(step[1:-1])] if step[0] == "[" else node.setdefault(step, {})
    node[int(last[1:-1]) if last[0] == "[" else last] = value
    return raw


# Each was accepted once: run as something else, echoed as given, or failed
# mid-matrix. Encodings: classical, basis, angle, amplitude; models: logreg,
# knn, svm, tree, forest, adaboost, gbt.
MALFORMED = [
    ("preprocess.standardize", "false"),
    ("preprocess.corr_threshold", True),
    ("preprocess.split_ratio", "0.5"),
    ("preprocess.n_component", 6),
    ("preprocess.extra_drops", "tenure"),
    ("encodings[1].bits", 2),
    ("encodings[1].bits_per_feature", True),
    ("encodings[3].axis", "X"),
    ("encodings[0].readout", "z_expectations"),
    ("models[0].param", {"max_iter": 50}),
    ("models[4].params.bootstrap", "no"),
    ("models[6].params.lr", True),
    ("models[2].params.coef0", "a"),
    ("models[2].params.degree", True),
    ("models[4].params.feature_fraction", True),
    ("seeds", 3),
    ("dataset.rows", 100),
]


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

    @pytest.mark.parametrize("name", ["synthetic.json", "telco.json"])
    def test_shipped_configs_load(self, name):
        cfg = config.load_config(CONFIGS / name)
        assert len(cfg.encodings) == 4
        assert tuple(m.kind for m in cfg.models) == MODEL_KINDS

    def test_duplicate_encoding_names_rejected(self):
        # one rule on both axes; a kind's default name collides with an explicit one
        for axis, entries, twice in [
            ("encoding", [{"kind": "angle"}, {"kind": "angle"}], "angle"),
            ("encoding", [{"kind": "classical"}, {"kind": "angle", "name": "classical"}],
             "classical"),
            ("model", [{"kind": "svm"}, {"kind": "svm", "params": {"C": 10.0}}], "svm"),
            ("model", [{"kind": "svm"}, {"kind": "knn", "name": "svm"}], "svm"),
        ]:
            with pytest.raises(ConfigError,
                               match=re.escape(f"duplicate {axis} names: [{twice!r}]")):
                small_config(**{f"{axis}s": entries})

    def test_named_duplicates_allowed(self):
        for axis, entries in [
            ("encoding", [{"kind": "angle", "name": "angle-x"},
                          {"kind": "angle", "axis": "Y", "name": "angle-y"}]),
            ("model", [{"kind": "svm", "name": "svm-c1"},
                       {"kind": "svm", "name": "svm-c10", "params": {"C": 10.0}}]),
            ("model", [{"kind": "svm"}, {"kind": "svm", "name": "svm_c10"}]),
        ]:
            cfg = small_config(**{f"{axis}s": entries})
            names = [e.get("name", e["kind"]) for e in entries]
            assert [e.name for e in getattr(cfg, f"{axis}s")] == names

    def test_model_name_defaults_to_the_kind(self):
        assert ModelSpec("svm").name == "svm"
        assert ModelSpec("svm", name="svm_c10").name == "svm_c10"
        assert [m.name for m in small_config().models] == ["logreg", "knn"]

    @pytest.mark.parametrize("build, error", [
        (lambda: ModelSpec("svm", name=3), InvalidHyperparameter),
        (lambda: config.EncodingEntry(3, None), ConfigError),
    ], ids=["model", "encoding"])
    def test_entry_name_must_be_a_string(self, build, error):
        # built in Python, each record makes the check the config reader makes
        with pytest.raises(error, match="^name must be a string, got 3$"):
            build()

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

    def test_unread_kernel_setting_at_its_default_hashes_as_omitted(self):
        stated = small_config(models=[{"kind": "svm", "params": {"degree": 3}}])
        assert runner.config_hash(stated) == runner.config_hash(
            small_config(models=[{"kind": "svm"}]))

    # every real hyperparameter: a base its kind reads it under, and an integral changed value
    REAL_PARAMS = [("logreg", "l2", {}, 2.0), ("svm", "C", {}, 2.0), ("svm", "gamma", {}, 2.0),
                   ("svm", "coef0", {"kernel": "sigmoid"}, 1.0), ("svm", "tol", {}, 1.0),
                   ("forest", "feature_fraction", {}, 1.0), ("gbt", "lr", {}, 1.0)]

    def test_every_real_hyperparameter_listed(self):
        listed = {(kind, key) for kind, key, _, _ in self.REAL_PARAMS}
        assert {(kind, key) for kind, params in DEFAULT_PARAMS.items()
                for key, value in params.items() if isinstance(value, float)} <= listed

    @pytest.mark.parametrize("kind, key, base, changed", REAL_PARAMS)
    def test_one_hash_per_real_hyperparameter_value(self, kind, key, base, changed):
        # omitted, the default written out, its integral spelling and -0.0 for 0.0
        # name one experiment; a changed value the kind reads names another
        def hashed(**params):
            entry = {"kind": kind, "params": {**base, **params}}
            return runner.config_hash(small_config(models=[entry]))

        default = DEFAULT_PARAMS[kind][key]
        alike = [{key: default}]
        if isinstance(default, float) and default.is_integer():
            alike.append({key: int(default)})
        if default == 0:
            alike.append({key: -0.0})
        assert {hashed(**params) for params in alike} == {hashed()}
        assert hashed(**{key: changed}) == hashed(**{key: int(changed)}) != hashed()

    # every key an encoding kind's scheme builder reads but axis: its default
    # written out, and a changed value
    ENCODING_KEYS = [("basis", "bits_per_feature", 4, 2),
                     ("basis", "readout", "probability_vector", "z_expectations"),
                     ("angle", "angle_map", "linear_pi", "raw"),
                     ("angle", "readout", "z_expectations", "probability_vector"),
                     ("amplitude", "readout", "probability_vector", "amplitude_parts")]

    def test_every_encoding_key_listed(self):
        listed = {(kind, key) for kind, key, _, _ in self.ENCODING_KEYS}
        assert listed == {(kind, key) for kind, builder in config.SCHEME_BUILDERS.items()
                          for key in inspect.signature(builder).parameters if key != "axis"}

    @pytest.mark.parametrize("kind, key, default, changed", ENCODING_KEYS)
    def test_one_hash_per_encoding_value(self, kind, key, default, changed):
        # omitted, the default written out (a null readout too) and a name equal
        # to the kind name one experiment; a changed value the scheme reads another
        def hashed(**entry):
            return runner.config_hash(small_config(encodings=[{"kind": kind, **entry}]))

        alike = [{key: default}, {"name": kind}]
        if key == "readout":
            alike.append({key: None})
        assert {hashed(**entry) for entry in alike} == {hashed()}
        assert hashed(**{key: changed}) != hashed()

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

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", True), ("seed", 2.0), ("seed", "3"),
        ("dataset.synthetic_rows", 0), ("dataset.synthetic_rows", True),
        ("dataset.synthetic_rows", 200.0),
        ("preprocess.n_components", 0), ("preprocess.n_components", -3),
        ("preprocess.n_components", True), ("preprocess.n_components", 12.0),
        ("preprocess.n_components", "12"),
    ])
    def test_integer_fields_rejected_by_name(self, field, value):
        section, _, key = field.rpartition(".")
        overrides = {section: {key: value}} if section else {key: value}
        if section == "dataset":
            overrides[section]["path"] = None
        with pytest.raises(ConfigError, match=field):
            small_config(**overrides)

    def test_seed_flows_to_preprocess_and_models(self, monkeypatch):
        cfg, seen, preprocess = small_config(seed=11), [], runner.run_preprocess
        assert all(m.seed == 11 for m in cfg.models)
        # positional, as a tracer that wraps the call as func(*args) passes them
        monkeypatch.setattr(runner, "run_preprocess",
                            lambda *args: seen.append(args[1:]) or preprocess(*args))
        runner.run_matrix(cfg)
        assert seen == [(cfg.preprocess, 11)]

    def test_replaced_seed_sets_the_config_and_every_model_seed(self):
        cfg = small_config(seed=0, models=[{"kind": "knn"}, {"kind": "tree"}])
        again = replace(cfg, seed=np.int64(7))
        assert again == small_config(seed=7, models=[{"kind": "knn"}, {"kind": "tree"}])
        assert (again.seed, [m.seed for m in again.models]) == (7, [7, 7])
        assert type(again.seed) is int
        # a library-built entry's own seed gives way to the config's too
        built = replace(cfg, models=(ModelSpec("forest", seed=5),))
        assert [m.seed for m in built.models] == [0]

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_replaced_seed_rejects_a_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0, got"):
            replace(small_config(), seed=seed)

    @pytest.mark.parametrize("kind", ["forest", "knn"])
    @pytest.mark.parametrize("seed", [5, -1, True, 2.5])
    def test_model_seed_is_an_unknown_key(self, kind, seed):
        # the top-level seed seeds every entry: a second seed per entry once gave
        # a knn entry another config hash for the same run, and a forest entry a
        # draw that --seed silently wrote over
        with pytest.raises(ConfigError, match=r"^unknown key models\[0\]\.seed$"):
            small_config(models=[{"kind": kind, "seed": seed}])

    def test_replaced_parsed_and_flag_seeds_run_alike(self, tmp_path, capsys):
        # replace(config, seed=3) once kept every model entry on the parsed seed:
        # the same split, but other forest reports and another config hash
        models = [{"kind": "forest", "params": {"n_trees": 10}}, {"kind": "knn"}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.config_to_dict(small_config(seed=0, models=models))))
        assert cli.main(["bench", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(tmp_path / "flag")]) == 0
        capsys.readouterr()
        flag = json.loads((tmp_path / "flag" / "results.json").read_text())
        for cfg in (replace(config.load_config(cfg_path), seed=3), small_config(models=models)):
            run = runner.run_matrix(cfg)
            for key in ("config_sha256", "split_checksum"):
                assert run.manifest[key] == flag["manifest"][key]
            assert ([asdict(c.report) for c in run.results]
                    == [c["report"] for c in flag["results"]])

    def test_replaced_seed_draws_as_the_parsed_seed(self, tmp_path, capsys):
        # a second copy of the seed in the preprocess options once kept the
        # replaced config undersampling and splitting with seed 0 while it drew
        # table 3 and recorded 3, so its results.json re-ran to another split
        models = [{"kind": "tree"}]
        replaced = replace(small_config(seed=0, models=models), seed=3)
        parsed = small_config(seed=3, models=models)
        runs = [runner.run_matrix(cfg) for cfg in (replaced, parsed)]
        assert runs[0].manifest["split_checksum"] == runs[1].manifest["split_checksum"]
        path = runner.persist_run(runs[0], str(tmp_path / "first"))
        assert cli.main(["bench", "--config", path, "--out", str(tmp_path / "rerun")]) == 0
        capsys.readouterr()
        rerun = json.loads((tmp_path / "rerun" / "results.json").read_text())
        assert rerun["manifest"]["split_checksum"] == runs[0].manifest["split_checksum"]
        assert ([c["report"] for c in rerun["results"]]
                == [asdict(c.report) for c in runs[0].results])

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_malformed_input_rejected_by_key_path(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            config.config_from_dict(synthetic_raw_with(path, value))

    @pytest.mark.parametrize("path, value, named", [
        ("preprocess.vif_threshold", float("inf"), "preprocess.vif_threshold"),
        ("models[0].params.l2", float("nan"), "models[0].params.l2"),
        # l2 = 0 on a readout wider than its train rows has no one optimum
        ("models[0].params.l2", 0, "models[0]: l2 must be a finite real number > 0"),
        ("preprocess.extra_drops", [3], "preprocess: extra_drops"),
        ("models[4].params.n_trees", None, "models[4]: n_trees"),
        ("dataset.schema", [{"name": 3, "kind": "numeric"}], "dataset.schema[0]"),
        # load_csv never reads synthetic.json's synthetic_rows, which once changed the hash
        ("dataset.path", "telco.csv", "dataset.synthetic_rows sizes the synthetic table"),
        ("encodings[1]", "basis", "encodings[1]"),
        ("models[0].name", 3, "models[0].name must be a string"),
        # only an absent or null readout takes the kind's default
        ("encodings[2].readout", "", "encodings[2]: unknown readout ''"),
        # an rbf entry with degree 5 ran as the default rbf under another config hash
        ("models[2].params", {"degree": 5}, "models[2]: the rbf kernel does not read degree"),
    ])
    def test_owner_and_entry_rejections_named(self, path, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            config.config_from_dict(synthetic_raw_with(path, value))

    @pytest.mark.parametrize("path, value, message", [
        (None, [], "a config must be a JSON object, got []"),
        ("preprocess", [], "preprocess must be an object, got []"),
        ("dataset", "telco.csv", "dataset must be an object, got 'telco.csv'"),
        ("models[0].params", [], "models[0].params must be an object, got []"),
    ])
    def test_section_that_is_not_an_object_rejected(self, path, value, message):
        raw = value if path is None else synthetic_raw_with(path, value)
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.config_from_dict(raw)

    def test_valid_variants_accepted(self):
        raw = synthetic_raw_with("models[3].params.max_depth", None)
        raw["models"][2]["params"] = {"C": 2}
        raw["preprocess"]["vif_threshold"] = 12
        raw["encodings"][3]["readout"] = None
        cfg = config.config_from_dict(raw)
        assert cfg.models[3].params["max_depth"] is None
        assert cfg.models[2].params["C"] == 2
        assert isinstance(cfg.models[2].params["C"], float)  # a real is stored as a float
        assert cfg.preprocess.vif_threshold == 12.0
        assert isinstance(cfg.preprocess.vif_threshold, float)
        assert cfg.encodings[3].scheme.readout == "probability_vector"

    @pytest.mark.parametrize("name, digest", [
        ("synthetic.json",
         "d2c648d648c144ee7bf4471d98009e900d66944943d7e9257003ac3c8f22bdf7"),
        ("telco.json",
         "0b334ee789107dd25565df6b6e5fd4b84961998e5c3893a31a5db128a7dc58fb"),
    ])
    def test_shipped_config_hash_pinned(self, name, digest):
        # a results.json records this hash; a changed echo breaks its re-run
        assert runner.config_hash(config.load_config(CONFIGS / name)) == digest

    @pytest.mark.parametrize("dataset", [
        {"path": None, "synthetic_rows": 200},
        {"path": "telco.csv", "schema": [{"name": "x", "kind": "numeric"},
                                         {"name": "Churn", "kind": "target"}]},
    ], ids=["synthetic", "csv"])
    def test_roundtrip_hash_stable(self, dataset):
        cfg = small_config(dataset=dataset)
        again = config.config_from_dict(config.config_to_dict(cfg))
        assert runner.config_hash(cfg) == runner.config_hash(again)

    def test_dataset_echo_holds_only_what_the_load_reads(self):
        csv_echo = config.config_to_dict(config.load_config(CONFIGS / "telco.json"))["dataset"]
        assert csv_echo.keys() == {"path", "schema"}
        echo = config.config_to_dict(config.load_config(CONFIGS / "synthetic.json"))["dataset"]
        assert echo == {"path": None, "synthetic_rows": 500}

    def test_echo_and_reseed_keep_model_names(self):
        cfg = small_config(models=[{"kind": "svm"}, {"kind": "svm", "name": "svm_c10"}])
        again = config.config_from_dict(config.config_to_dict(cfg))
        for other in (again, replace(cfg, seed=7)):
            assert [m.name for m in other.models] == ["svm", "svm_c10"]
        assert again == cfg

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
            pair = np.column_stack([ds.columns["tenure"], ds.columns["TotalCharges"]])
            names = ("tenure", "TotalCharges")
            assert correlation_matrix(FeatureMatrix(pair, names, np.zeros(500, int)))[0, 1] >= 0.8

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
            assert asdict(a.report) == asdict(b.report)
        assert first.manifest["split_checksum"] == second.manifest["split_checksum"]

    def test_manifest_rerun_reproduces_reports(self):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        resumed = config.config_from_dict(run.manifest["config"])
        rerun = runner.run_matrix(resumed)
        assert [asdict(r.report) for r in run.results] == [
            asdict(r.report) for r in rerun.results
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

    def test_failing_fit_isolated(self):
        # 8 rows at seed 6 leave one train row per class, so every fit fails
        cfg = small_config(
            dataset={"path": None, "synthetic_rows": 8}, seed=6, preprocess={}
        )
        run = runner.run_matrix(cfg)
        assert [(r.encoding, r.model) for r in run.results] == [
            ("classical", "logreg"),
            ("classical", "knn"),
            ("angle", "logreg"),
            ("angle", "knn"),
        ]
        for cell in run.results:
            assert cell.error == "fit: need at least two samples per class"
            assert cell.report is None
            assert (cell.encode_ms, cell.fit_ms, cell.predict_ms) == (0.0, 0.0, 0.0)
            assert (cell.dim_out, cell.iterations, cell.converged) == (0, 0, None)
            assert cell.dim_in == run.manifest["preprocess_report"]["n_components"]

    @pytest.mark.parametrize("stage, failed", [
        ("encode", {("angle", "logreg"), ("angle", "knn")}),
        ("fit", {("classical", "knn"), ("angle", "knn")}),
    ])
    def test_out_of_memory_cell_isolated(self, monkeypatch, tmp_path, stage, failed):
        # numpy raises MemoryError for an array the host cannot hold, such as a
        # probability readout of a basis encoding on 20 or more qubits
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 3.31 GiB")

        if stage == "encode":
            monkeypatch.setattr(runner, "embed_matrix", out_of_memory)
        else:
            real_fit = runner.fit
            monkeypatch.setattr(runner, "fit", lambda spec, X: (
                out_of_memory() if spec.kind == "knn" else real_fit(spec, X)))
        run = runner.run_matrix(small_config())
        assert len(run.results) == 4
        for cell in run.results:
            if (cell.encoding, cell.model) in failed:
                assert cell.error == f"{stage}: Unable to allocate 3.31 GiB"
                assert cell.report is None
            else:
                assert cell.error is None and cell.report is not None
        rows = runner.load_results(runner.persist_run(run, str(tmp_path)))
        assert rows == [asdict(r) for r in run.results]

    def test_dense_readout_over_budget_fails_its_cell(self):
        # 24 qubits on 212 train rows would be a 57 GB amplitude array
        cfg = small_config(
            dataset={"path": None, "synthetic_rows": 500},
            seed=0,
            preprocess={"n_components": 12},
            encodings=[{"kind": "basis", "bits_per_feature": 2,
                        "readout": "probability_vector"}],
            models=[{"kind": "tree"}],
        )
        tracemalloc.start()
        try:
            run = runner.run_matrix(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (cell,) = run.results
        assert cell.error == (
            "encode: 212 rows x 2^24 amplitudes (24 qubits) take 56908316672 bytes, "
            "over the 1073741824-byte budget")
        assert peak < 64 << 20

    def test_scaling_fitted_on_train_only(self, monkeypatch):
        # columns: a ranged one, a constant one, and one the test split overshoots
        monkeypatch.setattr(runner, "embed_matrix", lambda X, scheme: X)
        names, labels = ("a", "b", "c"), np.array([0, 1])
        train = FeatureMatrix(np.array([[0.0, 5.0, -1.0], [4.0, 5.0, 1.0]]), names, labels)
        test = FeatureMatrix(np.array([[2.0, 5.0, -3.0], [8.0, 7.0, 0.5]]), names, labels)
        for scheme in (basis_scheme(2), angle_scheme(axis="Y")):
            got_train, got_test, _ = runner.encode_split(
                config.EncodingEntry("e", scheme), train, test)
            assert got_train.data.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]
            assert got_test.data.tolist() == [[0.5, 0.0, 0.0], [1.0, 1.0, 0.75]]
        for scheme in (angle_scheme(angle_map=RAW), amplitude_scheme(), None):
            got_train, got_test, _ = runner.encode_split(
                config.EncodingEntry("e", scheme), train, test)
            assert got_train.data.tolist() == train.data.tolist()
            assert got_test.data.tolist() == test.data.tolist()

    def test_scaling_needs_train_rows(self):
        empty = FeatureMatrix(np.zeros((0, 2)), ("a", "b"), np.zeros(0, dtype=int))
        test = FeatureMatrix(np.ones((2, 2)), ("a", "b"), np.array([0, 1]))
        with pytest.raises(EmptyInput, match="^encoding 'basis': the train split has no row$"):
            runner.encode_split(config.EncodingEntry("basis", basis_scheme()), empty, test)

    @pytest.mark.parametrize("scheme", [None, angle_scheme(angle_map=RAW), amplitude_scheme()],
                             ids=["classical", "angle-raw", "amplitude"])
    def test_empty_train_split_is_refused_for_every_entry(self, scheme):
        # refused once, before any encoding, naming the entry, as the scaled
        # entries of test_scaling_needs_train_rows are
        empty = FeatureMatrix(np.zeros((0, 2)), ("a", "b"), np.zeros(0, dtype=int))
        test = FeatureMatrix(np.ones((2, 2)), ("a", "b"), np.array([0, 1]))
        with pytest.raises(EmptyInput, match="^encoding 'e': the train split has no row$"):
            runner.encode_split(config.EncodingEntry("e", scheme), empty, test)

    def test_information_free_cells_fail_alone(self):
        # one component: amplitude maps each row to x/|x| = +-1, so its probability
        # vector is [1, 0] and its Z expectation 1 on every row; the sign survives
        # in amplitude_parts, and the other encodings keep the component's spread
        encodings = [{"kind": "classical"}, {"kind": "basis", "readout": "z_expectations"},
                     {"kind": "angle"}]
        encodings += [{"kind": "amplitude", "name": readout, "readout": readout}
                      for readout in ("probability_vector", "z_expectations",
                                      "amplitude_parts")]
        run = runner.run_matrix(small_config(preprocess={"n_components": 1},
                                             encodings=encodings))
        assert len(run.results) == 12
        failed = {r.encoding for r in run.results if r.error is not None}
        assert failed == {"probability_vector", "z_expectations"}
        for cell in run.results:
            if cell.encoding in failed:
                assert cell.error == (f"encode: encoding {cell.encoding!r}: no column "
                                      "of the encoded train split varies")
                assert cell.report is None
            else:
                assert cell.report.roc_auc is not None

    def test_classical_split_without_spread_rejected(self):
        names, labels = ("a", "b"), np.array([0, 1, 0])
        train = FeatureMatrix(np.tile([[1.0, -2.0]], (3, 1)), names, labels)
        with pytest.raises(ZeroVariance, match="^encoding 'raw': no column of the encoded "
                                               "train split varies$"):
            runner.encode_split(config.EncodingEntry("raw", None), train, train)

    def test_two_entries_of_one_kind_give_distinct_rows(self):
        svm_c10 = {"kind": "svm", "name": "svm_c10", "params": {"C": 10.0}}
        cfg = small_config(models=[{"kind": "svm"}, svm_c10])
        run = runner.run_matrix(cfg)
        assert [(r.encoding, r.model) for r in run.results] == [
            ("classical", "svm"), ("classical", "svm_c10"), ("angle", "svm"), ("angle", "svm_c10")]
        assert all(r.error is None for r in run.results)
        for i, entry in enumerate(({"kind": "svm"}, svm_c10)):
            alone = runner.run_matrix(small_config(models=[entry])).results
            assert [asdict(r.report) for r in alone] == [
                asdict(r.report) for r in run.results[i::2]]

    def test_results_file_without_model_names_reruns(self, tmp_path):
        # a results.json written before model entries took a name: each takes its kind
        run = runner.run_matrix(small_config())
        path = Path(runner.persist_run(run, str(tmp_path / "first")))
        payload = json.loads(path.read_text())
        for model in payload["manifest"]["config"]["models"]:
            del model["name"]
        path.write_text(json.dumps(payload))
        resumed = config.load_config(path)
        assert [m.name for m in resumed.models] == ["logreg", "knn"]
        rerun = runner.run_matrix(resumed)
        assert rerun.manifest["split_checksum"] == run.manifest["split_checksum"]
        assert ([(r.encoding, r.model, asdict(r.report)) for r in rerun.results]
                == [(r.encoding, r.model, asdict(r.report)) for r in run.results])

    def test_persist_and_reload(self, tmp_path):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        out = tmp_path / "out"
        path = runner.persist_run(run, str(out))
        assert path == str(out / "results.json")
        assert [p.name for p in out.iterdir()] == ["results.json"]
        rows = runner.load_results(path)
        assert rows == [asdict(r) for r in run.results]
        manifest = json.loads((out / "results.json").read_text())["manifest"]
        assert manifest == run.manifest
        assert manifest["config_sha256"] == runner.config_hash(cfg)

    def test_cells_record_solver_convergence(self, tmp_path):
        cfg = small_config(
            encodings=[{"kind": "classical"}],
            models=[
                {"kind": "logreg", "params": {"max_iter": 1}},
                {"kind": "knn", "params": {"k": 3}},
            ],
        )
        run = runner.run_matrix(cfg)
        capped, knn = run.results
        assert (capped.iterations, capped.converged) == (1, False)
        assert (knn.iterations, knn.converged) == (0, True)
        path = runner.persist_run(run, str(tmp_path))
        rows = runner.load_results(path)
        assert [(r["iterations"], r["converged"]) for r in rows] == [(1, False), (0, True)]
        parsed = list(csv.DictReader(io.StringIO(report.emit_report(rows, "csv"))))
        assert [row["converged"] for row in parsed] == ["False", "True"]

    def test_results_file_rerunnable(self, tmp_path):
        cfg = small_config()
        run = runner.run_matrix(cfg)
        path = runner.persist_run(run, str(tmp_path))
        resumed = config.load_config(path)
        assert runner.config_hash(resumed) == runner.config_hash(cfg)

    def test_numpy_integer_config_matches_json_config(self, tmp_path):
        # every record stores a numpy integer as a Python int, so a config
        # built in Python hashes, runs and persists as the one read from JSON
        from_json = small_config(
            encodings=[{"kind": "classical"}, {"kind": "basis", "bits_per_feature": 2}],
            models=[{"kind": "knn", "params": {"k": 3}}],
        )
        i = np.int64
        built = config.BenchConfig(
            dataset_path=None, schema=config.TELCO_SCHEMA, synthetic_rows=i(200),
            preprocess=PreprocessOptions(n_components=i(6)), seed=i(3),
            encodings=(config.EncodingEntry("classical", None),
                       config.EncodingEntry("basis", basis_scheme(i(2)))),
            models=(ModelSpec("knn", params={"k": i(3)}),),
        )
        assert runner.config_hash(built) == runner.config_hash(from_json)
        run = runner.run_matrix(built)
        assert [cell.error for cell in run.results] == [None, None]
        path = runner.persist_run(run, str(tmp_path))
        manifest = json.loads(Path(path).read_text())["manifest"]
        assert manifest["config_sha256"] == runner.config_hash(from_json)


@pytest.fixture
def planted_config(tmp_path):
    """A config over a 500-row CSV whose label depends on cos of its columns.

    Six independent normal columns with sds 2.0 down to 1.0, and a label
    drawn as Bernoulli(sigmoid(3 (w . cos(x) - median))) with w ~ N(0, I).
    Without standardizing, the distinct variances keep PCA on the columns'
    axes up to sign, and cos is even, so angle-X `raw` Z readouts carry the
    planted effect to a linear model that classical features hide it from.
    """
    def write(seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(500, 6)) * np.linspace(2, 1, 6)
        z = np.cos(x) @ rng.normal(size=6)
        y = rng.uniform(size=500) < 1 / (1 + np.exp(-3 * (z - np.median(z))))
        names = [f"x{j}" for j in range(6)]
        path = tmp_path / f"planted-{seed}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*names, "label"])
            writer.writerows([*map(repr, row), "Yes" if hit else "No"]
                             for row, hit in zip(x.tolist(), y))
        schema = [{"name": n, "kind": "numeric"} for n in names]
        raw = {
            "dataset": {"path": str(path), "schema": [*schema, {"name": "label", "kind": "target"}]},
            "seed": seed,
            "preprocess": {"standardize": False, "n_components": 6},
            "encodings": [{"kind": "classical"},
                          {"kind": "angle", "name": "angle_raw", "axis": "X", "angle_map": "raw"}],
            "models": [{"kind": "logreg"}],
        }
        config_path = tmp_path / f"planted-{seed}.json"
        config_path.write_text(json.dumps(raw))
        return config.load_config(config_path)
    return write


class TestPlantedEffect:
    @pytest.mark.parametrize("seed", range(5))
    def test_logreg_finds_the_planted_nonlinearity(self, planted_config, seed):
        # the gap was 0.31-0.41 at these seeds; a bench that lost the effect
        # (a scrambled split, a wrong readout) would read near 0
        run = runner.run_matrix(planted_config(seed))
        auc = {cell.encoding: cell.report.roc_auc for cell in run.results}
        assert auc["angle_raw"] - auc["classical"] > 0.2


class TestPinnedSplits:
    """The split checksum of configs/synthetic.json at seeds 0-2, and the sha256
    of its manifest's `preprocess_report` (the dropped columns, every VIF
    table, the elbow) as canonical JSON.

    Preprocessing calls no BLAS or LAPACK routine, so each value holds on every
    BLAS kernel and thread count, and with numpy's AVX-512 on or off.  A change
    that moves a split or a report re-pins the value and says why.
    """

    CHECKSUMS = (
        "dcc542094512af8520482e8c937f279567af17eb2dc09fb3cf755714bc6f6289",
        "eaef4cfafe7b2f705af65afac07eb372b7f0d395c4e5aee71d21b43b686258b5",
        "f85b0f4678fcc8ddfa92466f2746280039cccccb70b78f9cda6ac25ebf5fb012",
    )
    REPORTS = (
        "997f2bb6ef42632dd24accb9010b36287e04f99d95fb9163e4f461d477b06a22",
        "98b9596a1fc98115df1ac626136ab2e3745007f88a55029d5ef06e55eb315b7f",
        "07fead22ecfc1aadcbc0a19a0e0099d63d78b892cde2cb75ba45d6eb0f575e2b",
    )

    @pytest.mark.parametrize("seed", range(3))
    def test_split_checksum(self, seed):
        base = config.load_config(CONFIGS / "synthetic.json")
        _, manifest = runner.preprocess_run(replace(base, seed=seed))
        assert manifest["split_checksum"] == self.CHECKSUMS[seed]

    @pytest.mark.parametrize("seed", range(3))
    def test_preprocess_report_digest(self, seed):
        base = config.load_config(CONFIGS / "synthetic.json")
        _, manifest = runner.preprocess_run(replace(base, seed=seed))
        blob = json.dumps(manifest["preprocess_report"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.REPORTS[seed]


class TestPinnedReports:
    """sha256 over every cell's encoding, model, report, error and dim_out, as
    canonical JSON in cell order, of configs/synthetic.json at seeds 0-2.

    One value holds on OpenBLAS's SkylakeX and Haswell kernels, at one and two
    BLAS threads, and with numpy's AVX-512 on or off.  Solver iterations are
    left out: a few SMO pair-update counts move with numpy's AVX-512 switch
    (the rbf kernel's `exp`), while no report does.  A change that moves a
    report re-pins the value and lists the moved cells.
    """

    DIGEST = "e16ffdf2c116171053d533927532777f3f348584a0d319438777ff7843a00401"
    FIELDS = ("encoding", "model", "report", "error", "dim_out")

    def test_report_digest(self):
        base = config.load_config(CONFIGS / "synthetic.json")
        h = hashlib.sha256()
        for seed in range(3):
            for cell in runner.run_matrix(replace(base, seed=seed)).results:
                row = {k: v for k, v in asdict(cell).items() if k in self.FIELDS}
                h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode())
        assert h.hexdigest() == self.DIGEST


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

    def test_markdown_escapes_pipes(self):
        # an encoding name and an error string may hold `|`; only markdown escapes it
        failed = runner.RunResult(
            encoding="a|b", model="svm", report=None, error="encode: x | y",
            encode_ms=0.0, fit_ms=0.0, predict_ms=0.0, dim_in=6, dim_out=0,
            seed=0, split_checksum="x",
        )
        lines = report.emit_report([failed], "markdown").splitlines()
        unescaped = [len(re.findall(r"(?<!\\)\|", line)) for line in lines]
        assert unescaped == [len(report.COLUMNS) + 1] * 3
        assert lines[2].startswith("| a\\|b | svm |")
        assert lines[2].endswith("| encode: x \\| y |")
        row = list(csv.reader(io.StringIO(report.emit_report([failed], "csv"))))[1]
        assert (row[0], row[-1]) == ("a|b", "encode: x | y")

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

    def test_z_axis_config_and_encode_exit_one(self, tmp_path, capsys):
        # the encode demo once printed the constant readout [1., 1.] for any vector
        path = tmp_path / "z.json"
        path.write_text(json.dumps({
            "encodings": [{"kind": "angle", "axis": "Z"}],
            "models": [{"kind": "tree"}],
        }))
        assert cli.main(["bench", "--config", str(path), "--out", str(tmp_path / "z")]) == 1
        assert "config error: encodings[0]: angle axis" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            cli.main(["encode", "--scheme", "angle", "--axis", "Z", "--vector", "0.2"])
        assert err.value.code == 1
        assert capsys.readouterr().out == ""

    def test_kernel_setting_its_family_does_not_read_exits_one(self, tmp_path, capsys):
        path = tmp_path / "degree.json"
        path.write_text(json.dumps({
            "encodings": [{"kind": "classical"}],
            "models": [{"kind": "svm", "params": {"degree": 5}}],
        }))
        assert cli.main(["bench", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
        assert (capsys.readouterr().err
                == "config error: models[0]: the rbf kernel does not read degree\n")

    def test_encode_bad_bits_is_data_error(self, capsys):
        assert cli.main(["encode", "--scheme", "basis", "--bits", "102"]) == 2

    def test_encode_bad_vector_is_data_error(self, capsys):
        assert cli.main(["encode", "--scheme", "amplitude",
                         "--vector", "1.0,spam"]) == 2

    @pytest.mark.parametrize("scheme", ["amplitude", "angle"])
    @pytest.mark.parametrize("vector", ["1,,2", "1,2,", ",1,2", " ", ""])
    def test_encode_empty_vector_entry_is_data_error(self, capsys, scheme, vector):
        # a blank entry was dropped, so "1,,2" encoded [1, 2] and exited 0
        assert cli.main(["encode", "--scheme", scheme, "--vector", vector]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: cannot parse vector {vector!r}\n"
        assert captured.out == ""

    def test_encode_missing_input_is_config_error(self, capsys):
        assert cli.main(["encode", "--scheme", "angle"]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["--scheme", "amplitude", "--vector", "90,0", "--degrees"], "--degrees"),
        (["--scheme", "amplitude", "--vector", "1,0", "--axis", "Y"], "--axis"),
        (["--scheme", "basis", "--bits", "101", "--axis", "Y"], "--axis"),
        (["--scheme", "basis", "--bits", "101", "--vector", "3"], "--vector"),
        (["--bits", "101", "--map", "raw"], "--map"),
        (["--scheme", "superposition", "--strings", "01,10", "--bits", "1"], "--bits"),
        (["--scheme", "angle", "--vector", "1", "--strings", "01"], "--strings"),
        (["--text", "hi", "--scheme", "basis"], "--scheme"),
        (["--text", "hi", "--vector", "1"], "--vector"),
    ])
    def test_encode_flag_the_scheme_does_not_read_exits_one(self, capsys, argv, flag):
        assert cli.main(["encode", *argv]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_encode_choices_are_read_from_the_encoding_module(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        choices = {a.dest: list(a.choices) for a in sub.choices["encode"]._actions if a.choices}
        assert choices == {
            "scheme": [mode for mode in cli._ENCODE_FLAGS if mode != "text"],
            "axis": list(AXIS_GATES),
            "map": [LINEAR_PI, RAW],
            "readout": list(READOUTS),
        }

    def test_encode_degrees_with_a_map_is_usage_error(self, capsys):
        # --degrees sets the raw map; it must not silently override --map linear_pi
        with pytest.raises(SystemExit) as err:
            cli.main(["encode", "--scheme", "angle", "--vector", "90",
                      "--map", "linear_pi", "--degrees"])
        assert err.value.code == 1
        assert "--degrees: not allowed with argument --map" in capsys.readouterr().err

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
                {"kind": "logreg", "params": {"max_iter": 300}},
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

    def test_report_out_writes_the_report_bench_wrote(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        first, again = tmp_path / "out", tmp_path / "again"
        assert cli.main(["bench", "--config", str(cfg_path), "--out", str(first)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--results", str(first / "results.json"),
                         "--out", str(again)]) == 0
        assert capsys.readouterr().out == f"wrote {again / 'report.csv'}\n"
        assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()

    def test_bench_seed_override(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_a), "--seed", "9"]) == 0
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out_b), "--seed", "9"]) == 0
        capsys.readouterr()
        a, b = (json.loads((out / "results.json").read_text())["manifest"]
                for out in (out_a, out_b))
        assert a["seed"] == 9
        assert a["split_checksum"] == b["split_checksum"]

    def test_seed_flag_reseeds_the_models_of_a_results_file_rerun(self, tmp_path, capsys):
        # when the echo recorded a seed per model, a results-file re-run with --seed 7
        # once kept the forest on the first run's seed, unlike a fresh --seed 7 run
        cfg_path = self.write_config(tmp_path, models=[
            {"kind": "forest", "params": {"n_trees": 10}}, {"kind": "knn"}])
        fresh, first, rerun = tmp_path / "fresh", tmp_path / "first", tmp_path / "rerun"
        for config_path, out, seed in [(cfg_path, fresh, ["--seed", "7"]), (cfg_path, first, []),
                                       (first / "results.json", rerun, ["--seed", "7"])]:
            assert cli.main(["bench", "--config", str(config_path), "--out", str(out), *seed]) == 0
        capsys.readouterr()
        a, b = (json.loads((out / "results.json").read_text()) for out in (fresh, rerun))
        assert b["manifest"]["config"]["seed"] == 7
        assert not any("seed" in m for m in b["manifest"]["config"]["models"])
        assert a["manifest"]["config_sha256"] == b["manifest"]["config_sha256"]
        assert [c["report"] for c in a["results"]] == [c["report"] for c in b["results"]]

    @pytest.mark.parametrize("models", ["forest", ["forest"]])
    def test_seed_flag_leaves_malformed_models_to_the_config_check(self, tmp_path, capsys,
                                                                    models):
        cfg_path = self.write_config(tmp_path, models=models)
        errors = []
        for seed in ([], ["--seed", "7"]):
            assert cli.main(["bench", "--config", str(cfg_path), *seed]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("name, extra_drops", [("tenure", []), ("Contract", ["Contract"])])
    def test_schema_naming_a_column_twice_rejected(self, tmp_path, capsys, name, extra_drops):
        # the column entered the matrix twice: tenure was dropped for correlation
        # 1.0000000000000007, and Contract reported dropped twice
        schema = [asdict(c) for c in config.TELCO_SCHEMA]
        schema.append(next(c for c in schema if c["name"] == name))
        cfg_path = self.write_config(
            tmp_path, dataset={"path": None, "synthetic_rows": 200, "schema": schema},
            preprocess={"n_components": 6, "extra_drops": extra_drops})
        assert cli.main(["bench", "--config", str(cfg_path)]) == 1
        assert (f"config error: duplicate dataset.schema column names: [{name!r}]"
                in capsys.readouterr().err)

    def test_repeated_model_name_is_config_error(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, models=[{"kind": "svm"},
                                                        {"kind": "knn", "name": "svm"}])
        assert cli.main(["bench", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "config error: duplicate model names: ['svm']\n"

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    def test_int_too_large_for_a_float_is_config_error(self, tmp_path, capsys, command):
        # JSON's integers have no bound: a 401-digit vif_threshold is a number to the
        # config layer, and its float conversion overflowed into a traceback
        cfg_path = self.write_config(tmp_path, preprocess={"vif_threshold": 10**400})
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: preprocess: vif_threshold must be a finite real")
        assert "Traceback" not in err

    def test_bench_negative_seed_rejected(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    @pytest.mark.parametrize("overrides, message", [
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"models": [{"kind": "knn", "seed": -1}]}, "unknown key models[0].seed")])
    def test_seed_flag_does_not_mend_a_bad_config_seed(self, tmp_path, capsys, command,
                                                       overrides, message):
        # the config is checked as written, then re-seeded
        cfg_path = self.write_config(tmp_path, **overrides)
        assert cli.main([command, "--config", str(cfg_path), "--seed", "7",
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_results_file_rerun_never_writes_over_itself(self, tmp_path, capsys, monkeypatch):
        # without --out, a re-run of the default directory's results.json would
        # write over the file it read, and the first run's timings would be lost
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path)
        out = tmp_path / "qembed_out"
        assert cli.main(["bench", "--config", "cfg.json"]) == 0
        first = (out / "results.json").read_bytes()
        capsys.readouterr()
        for config_path in ("qembed_out/results.json", str(out / "results.json")):
            assert cli.main(["bench", "--config", config_path]) == 1
            assert capsys.readouterr().err == (
                f"config error: {Path('qembed_out', 'results.json')} is the --config file "
                "this run re-runs; pass --out to write the re-run elsewhere\n")
        assert (out / "results.json").read_bytes() == first
        assert cli.main(["bench", "--config", "qembed_out/results.json", "--out", "rerun"]) == 0
        # and preprocess.json, re-runnable too, is never written over by preprocess
        assert cli.main(["preprocess", "--config", "cfg.json"]) == 0
        first = (out / "preprocess.json").read_bytes()
        capsys.readouterr()
        assert cli.main(["preprocess", "--config", "qembed_out/preprocess.json"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {Path('qembed_out', 'preprocess.json')} is the --config file "
            "this run re-runs; pass --out to write the re-run elsewhere\n")
        assert (out / "preprocess.json").read_bytes() == first

    @pytest.mark.parametrize("overrides", [
        {"seed": -1},
        {"preprocess": {"n_components": "12"}},
        {"preprocess": {"n_components": 0}},
        {"dataset": {"path": None, "synthetic_rows": 0}},
    ])
    def test_preprocess_bad_integer_field_is_config_error(self, tmp_path, capsys, overrides):
        cfg_path = self.write_config(tmp_path, **overrides)
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_too_many_components_is_data_error(self, tmp_path, capsys):
        # the bound depends on the data's rows and one-hot columns
        cfg_path = self.write_config(tmp_path, preprocess={"n_components": 500})
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_out_of_memory_outside_a_cell_is_data_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(dataset, options, seed):
            raise MemoryError("Unable to allocate 3.31 GiB")

        monkeypatch.setattr(runner, "run_preprocess", out_of_memory)
        cfg_path = self.write_config(tmp_path)
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "data error: Unable to allocate 3.31 GiB\n"

    def test_bench_unparsable_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header = ",".join(c.name for c in config.TELCO_SCHEMA)
        row = ",".join(["x"] * len(config.TELCO_SCHEMA))
        bad.write_text(header + "\n" + row + "\n")
        cfg_path = self.write_config(tmp_path, dataset={"path": str(bad)})
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_bench_non_finite_csv_cell_names_the_cell(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        numeric = {c.name for c in config.TELCO_SCHEMA if c.kind == NUMERIC}
        row = [cell if c.name == "MonthlyCharges" else "1" if c.name in numeric else "x"
               for c in config.TELCO_SCHEMA]
        bad.write_text(",".join(c.name for c in config.TELCO_SCHEMA) + "\n"
                       + ",".join(row) + "\n")
        cfg_path = self.write_config(tmp_path, dataset={"path": str(bad)})
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: row 0, column 'MonthlyCharges'")
        assert repr(cell) in err

    @pytest.mark.parametrize("manifest", [5, "config"])
    def test_non_object_manifest_is_config_error(self, tmp_path, capsys, manifest):
        # only a results file's manifest object is unwrapped to its config
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"manifest": manifest}))
        assert cli.main(["bench", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "unknown key manifest" in capsys.readouterr().err

    def test_non_binary_target_is_data_error_naming_the_column(self, tmp_path, capsys):
        csv_path = tmp_path / "grades.csv"
        csv_path.write_text("x,grade\n1,a\n2,b\n3,c\n")
        schema = [{"name": "x", "kind": "numeric"}, {"name": "grade", "kind": "target"}]
        cfg_path = self.write_config(tmp_path, dataset={"path": str(csv_path), "schema": schema})
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 2
        assert capsys.readouterr().err == "data error: target column 'grade' has 3 values, not 2\n"

    def test_bench_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, dataset={"path": str(tmp_path / "absent.csv")}
        )
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("name", ["TotalCharges"])
    def test_extra_drop_of_no_remaining_feature_is_data_error(self, tmp_path, capsys, name):
        # a schema feature that the correlation stage has already dropped
        cfg_path = self.write_config(tmp_path, preprocess={"extra_drops": [name]})
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and repr(name) in err

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    def test_extra_drops_of_every_feature_left_is_data_error(self, tmp_path, capsys, command):
        # every feature the correlation and VIF stages keep, dropped by name
        assert cli.main(["preprocess", "--config", str(self.write_config(tmp_path)),
                         "--out", str(tmp_path / "pre")]) == 0
        manifest = json.loads((tmp_path / "pre" / "preprocess.json").read_text())["manifest"]
        dropped = {d["name"] for d in manifest["preprocess_report"]["dropped"]}
        left = [c.name for c in config.TELCO_SCHEMA
                if c.kind in (CATEGORICAL, NUMERIC) and c.name not in dropped]
        cfg_path = self.write_config(tmp_path, preprocess={"n_components": 6,
                                                           "extra_drops": left})
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("data error: extra_drops: no feature column is "
                                           "left after the correlation and VIF drops\n")

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    @pytest.mark.parametrize("name", ["Churn", "customerID", "Colour", "PhoneServce"])
    def test_extra_drop_of_no_schema_feature_is_config_error(self, tmp_path, capsys, command,
                                                            name):
        # the target, the id, a name not in the schema, a misspelt feature: refused
        # when the config is read, where they failed after load and preprocessing
        cfg_path = self.write_config(tmp_path, preprocess={"extra_drops": ["tenure", name]})
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: preprocess.extra_drops: {name!r} is not a dataset.schema feature\n")

    def test_repeated_extra_drop_is_a_config_error(self, tmp_path, capsys):
        # refused when the config is read, not reported as two drops of one column
        cfg_path = self.write_config(tmp_path, preprocess={"extra_drops": ["tenure", "tenure"]})
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 1
        assert "preprocess: extra_drops must name each column once" in capsys.readouterr().err

    def write_narrow_csv(self, tmp_path, n_features):
        """A CSV of n_features numeric columns and a label, and its dataset section."""
        rng = np.random.default_rng(n_features)
        X = rng.normal(size=(120, n_features))
        label = np.where(X.sum(axis=1) + rng.normal(size=120) > 0, "Yes", "No")
        names = [f"f{j}" for j in range(n_features)]
        lines = [",".join(names + ["Churn"])]
        lines += [",".join([*map(repr, row.tolist()), y]) for row, y in zip(X, label)]
        (tmp_path / "narrow.csv").write_text("\n".join(lines) + "\n")
        schema = [{"name": n, "kind": "numeric"} for n in names]
        return {"path": str(tmp_path / "narrow.csv"),
                "schema": schema + [{"name": "Churn", "kind": "target"}]}

    @pytest.mark.parametrize("n_features", [1, 2])
    def test_fewer_than_three_columns_bench_with_n_components(self, tmp_path, capsys,
                                                             n_features):
        # no elbow under three explained-variance ratios: reported as null
        dataset = self.write_narrow_csv(tmp_path, n_features)
        cfg_path = self.write_config(tmp_path, dataset=dataset,
                                     preprocess={"n_components": n_features})
        out_dir = tmp_path / "out"
        assert cli.main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "results.json").read_text())
        report = payload["manifest"]["preprocess_report"]
        assert report["elbow_index"] is None and report["cumulative_at_elbow"] is None
        assert report["n_components"] == n_features
        assert all(cell["error"] is None for cell in payload["results"])

    def test_fewer_than_three_columns_without_n_components_is_data_error(self, tmp_path,
                                                                        capsys):
        dataset = self.write_narrow_csv(tmp_path, 2)
        cfg_path = self.write_config(tmp_path, dataset=dataset, preprocess={})
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "data error: 2 components have no elbow; set n_components\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    @pytest.mark.parametrize("kind, value", [("numeric", "2.5"), ("categorical", "red")])
    def test_lone_constant_column_is_data_error_naming_it(self, tmp_path, capsys, command,
                                                          kind, value):
        # numeric or a categorical with one value: it once benched to exit 0,
        # every cell at AUC 0.5 behind a rank-deficiency note
        rows = [f"{value},{'Yes' if i % 3 else 'No'}" for i in range(60)]
        (tmp_path / "flat.csv").write_text("\n".join(["x,Churn", *rows]) + "\n")
        dataset = {"path": str(tmp_path / "flat.csv"),
                   "schema": [{"name": "x", "kind": kind}, {"name": "Churn", "kind": "target"}]}
        cfg_path = self.write_config(tmp_path, dataset=dataset, preprocess={"n_components": 1})
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "data error: column 'x' is constant\n"

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    def test_schema_without_feature_column_is_config_error(self, tmp_path, capsys, command):
        # it passed validation, then failed preprocessing on a k=0 that named no column
        schema = [{"name": "customerID", "kind": "id"}, {"name": "Churn", "kind": "target"}]
        cfg_path = self.write_config(
            tmp_path, dataset={"path": None, "synthetic_rows": 200, "schema": schema})
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: dataset.schema declares no numeric or categorical feature column\n")

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    def test_synthetic_table_with_a_custom_schema_is_config_error(self, tmp_path, capsys,
                                                                  command):
        # without a path the schema was ignored: the 21-column synthetic table
        # benched to exit 0 under a manifest that echoed these 3 columns
        schema = [{"name": "tenure", "kind": "numeric"},
                  {"name": "Contract", "kind": "categorical"}, {"name": "Churn", "kind": "target"}]
        cfg_path = self.write_config(
            tmp_path, dataset={"path": None, "synthetic_rows": 200, "schema": schema})
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: dataset.schema describes a CSV; without dataset.path omit it\n")

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    @pytest.mark.parametrize("targets", [[], ["f1", "Churn"]], ids=["no-target", "two-targets"])
    def test_schema_without_one_target_is_config_error(self, tmp_path, capsys, command, targets):
        # refused when the config is read, where it was a data error (exit 2)
        # once the CSV had been read
        dataset = self.write_narrow_csv(tmp_path, 2)
        dataset["schema"] = [{"name": "f0", "kind": "numeric"},
                             *({"name": name, "kind": "target"} for name in targets)]
        cfg_path = self.write_config(tmp_path, dataset=dataset, preprocess={"n_components": 1})
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: dataset.schema must declare exactly one target column\n")

    @pytest.mark.parametrize("on_csv", [False, True], ids=["synthetic", "csv"])
    def test_results_file_rerun_reproduces_the_reports(self, tmp_path, capsys, on_csv):
        # the CSV run echoes its schema and the synthetic run its row count,
        # and either echo parses back into the same run
        dataset = self.write_narrow_csv(tmp_path, 3) if on_csv else {"path": None}
        cfg_path = self.write_config(tmp_path, dataset=dataset, preprocess={"n_components": 2})
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        for config_path, out in [(cfg_path, first), (first / "results.json", rerun)]:
            assert cli.main(["bench", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        a, b = (json.loads((out / "results.json").read_text()) for out in (first, rerun))
        echo = a["manifest"]["config"]["dataset"]
        if on_csv:
            assert len(echo["schema"]) == 4
        else:
            assert echo == {"path": None, "synthetic_rows": 500}
        assert a["manifest"]["config_sha256"] == b["manifest"]["config_sha256"]
        assert [c["report"] for c in a["results"]] == [c["report"] for c in b["results"]]
        assert all(cell["error"] is None for cell in a["results"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits", [25, 64])
    def test_basis_bits_over_the_qubit_cap_is_a_config_error(self, tmp_path, capsys, bits):
        # refused when the config is read: 25 bits failed every cell, and from
        # 64 up a RuntimeWarning in the bit rounding escaped as a traceback
        cfg_path = self.write_config(
            tmp_path, encodings=[{"kind": "classical"},
                                 {"kind": "basis", "bits_per_feature": bits}])
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert f"encodings[1]: bits_per_feature must be at most 24, got {bits}" in \
            capsys.readouterr().err

    def test_split_leaving_a_class_out_of_train_is_data_error(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, dataset={"path": None, "synthetic_rows": 60}, seed=0,
            preprocess={"split_ratio": 0.01},
        )
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 2
        assert capsys.readouterr().err == (
            "data error: class 0 has 19 rows, so split_ratio 0.01 "
            "puts none of them in the train split\n"
        )

    def test_preprocess_writes_report(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out_dir = tmp_path / "pre"
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "preprocess.json").read_text())["manifest"]
        assert manifest["preprocess_report"]["n_components"] == 6
        assert manifest["rows"]["train"] > manifest["rows"]["test"] > 0

    def test_preprocess_writes_the_bench_manifest_and_bench_reruns_it(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        for command in ("bench", "preprocess"):
            assert cli.main([command, "--config", str(cfg_path), "--out", str(first)]) == 0
        assert cli.main(["bench", "--config", str(first / "preprocess.json"),
                         "--out", str(rerun)]) == 0
        capsys.readouterr()
        pre = json.loads((first / "preprocess.json").read_text())["manifest"]
        a, b = (json.loads((out / "results.json").read_text()) for out in (first, rerun))
        assert pre.keys() == a["manifest"].keys()
        assert [k for k in pre if k != "created" and pre[k] != a["manifest"][k]] == []
        assert a["manifest"]["split_checksum"] == b["manifest"]["split_checksum"]
        assert [c["report"] for c in a["results"]] == [c["report"] for c in b["results"]]

    @pytest.mark.parametrize("command, step", [("preprocess", "preprocess_run"),
                                               ("bench", "run_matrix")])
    def test_out_that_is_a_file_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, command, step):
        # the matrix once ran in full before the write found --out to be a file
        def never(config):
            raise AssertionError(f"{step} ran")

        monkeypatch.setattr(runner, step, never)
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg_path = self.write_config(tmp_path)
        assert cli.main([command, "--config", str(cfg_path), "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("config error: --out ")

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_malformed_config_exits_one(self, tmp_path, capsys, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(synthetic_raw_with(path, value)))
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["config", "array"])
    def test_report_on_non_results_file_is_data_error(self, tmp_path, capsys, payload):
        path = CONFIGS / "synthetic.json"
        if payload == "array":
            path = tmp_path / "array.json"
            path.write_text("[1, 2, 3]")
        assert cli.main(["report", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err

    @pytest.mark.parametrize("cells, bad", [
        ([1], 0),
        ([{"encoding": "basis", "model": "tree"}, "cell"], 1),
        ([{"encoding": "basis"}], 0),
        ([{"encoding": "basis", "model": "tree", "report": [1]}], 0),
    ])
    def test_report_on_malformed_entry_is_data_error(self, tmp_path, capsys, cells, bad):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"results": cells}))
        assert cli.main(["report", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"results entry {bad} " in err

    def test_report_missing_results_is_data_error(self, tmp_path, capsys):
        assert cli.main(["report", "--results",
                         str(tmp_path / "nope.json")]) == 2

    def test_results_with_repeat_key_reruns(self, tmp_path, capsys):
        # results files from before --repeat was retired carry "repeat" in
        # their manifest; re-running one ignores it and gives the same reports
        cfg_path = self.write_config(tmp_path)
        out_dir = tmp_path / "old"
        assert cli.main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        old = json.loads((out_dir / "results.json").read_text())
        old["manifest"]["repeat"] = 3
        (out_dir / "results.json").write_text(json.dumps(old))
        assert cli.main(["bench", "--config", str(out_dir / "results.json"),
                         "--out", str(tmp_path / "new")]) == 0
        capsys.readouterr()
        new = json.loads((tmp_path / "new" / "results.json").read_text())
        assert [c["report"] for c in new["results"]] == [c["report"] for c in old["results"]]
        assert "repeat" not in new["manifest"]
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "--config", str(cfg_path), "--repeat", "3"])
        assert err.value.code == 1
        assert "--repeat" in capsys.readouterr().err

    def test_without_out_both_commands_write_into_qembed_out(self, tmp_path, capsys,
                                                              monkeypatch):
        self.write_config(tmp_path, encodings=[{"kind": "classical"}],
                          models=[{"kind": "knn", "params": {"k": 3}}])
        monkeypatch.chdir(tmp_path)
        for command in ("bench", "preprocess"):
            assert cli.main([command, "--config", "cfg.json"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in (tmp_path / "qembed_out").iterdir()) == [
            "preprocess.json", "report.csv", "results.json"]

    @pytest.mark.parametrize("command", ["bench", "preprocess", "report"])
    @pytest.mark.parametrize("taken", [False, True], ids=["empty", "file"])
    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, tmp_path, capsys,
                                                             monkeypatch, command, taken):
        # os.makedirs's error once reached the user as a data error naming no flag
        # (exit 2), and report --out "" printed to stdout instead
        monkeypatch.chdir(tmp_path)
        cfg_path = self.write_config(tmp_path, encodings=[{"kind": "classical"}],
                                     models=[{"kind": "knn", "params": {"k": 3}}])
        results = runner.persist_run(runner.run_matrix(config.load_config(cfg_path)), "first")
        out = str(cfg_path) if taken else ""
        source = ["--results", results] if command == "report" else ["--config", str(cfg_path)]
        assert cli.main([command, *source, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --out {out!r} is not a directory: ")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "first"]

    @pytest.mark.parametrize("command", ["bench", "preprocess"])
    def test_output_dir_key_is_a_config_error(self, tmp_path, capsys, command):
        # --out alone says where a run writes; the key once changed the config hash
        # of the same run, and its echo could name a directory the run never wrote
        cfg_path = self.write_config(tmp_path, output_dir="elsewhere")
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: unknown key output_dir\n"
