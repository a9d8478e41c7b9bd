import csv
import io
import json
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from qembed.bench import cli, config, data, report, runner
from qembed.encoding import RAW, amplitude_scheme, angle_scheme, basis_scheme
from qembed.errors import ConfigError, EmptyInput, EmptyResults, ZeroVariance
from qembed.metrics import MetricReport
from qembed.models import MODEL_KINDS, ModelSpec
from qembed.pipeline import NUMERIC, FeatureMatrix, PreprocessOptions, correlation_matrix

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

    def test_seed_flows_to_preprocess_and_models(self):
        cfg = small_config(seed=11)
        assert cfg.preprocess.seed == 11
        assert all(m.seed == 11 for m in cfg.models)

    def test_explicit_model_seed_kept(self):
        cfg = small_config(models=[{"kind": "knn", "seed": 5}])
        assert cfg.models[0].seed == 5

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_bad_model_seed_rejected(self, seed):
        # caught here, not later in the forest's rng, which aborts the whole matrix
        with pytest.raises(ConfigError, match=r"models\[0\]\.seed"):
            small_config(models=[{"kind": "forest", "seed": seed}])

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_malformed_input_rejected_by_key_path(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            config.config_from_dict(synthetic_raw_with(path, value))

    @pytest.mark.parametrize("path, value, named", [
        ("preprocess.vif_threshold", float("inf"), "preprocess.vif_threshold"),
        ("models[0].params.l2", float("nan"), "models[0].params.l2"),
        ("preprocess.extra_drops", [3], "preprocess: extra_drops"),
        ("models[4].params.n_trees", None, "models[4]: n_trees"),
        ("dataset.schema", [{"name": 3, "kind": "numeric"}], "dataset.schema[0]"),
        ("encodings[1]", "basis", "encodings[1]"),
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
        assert isinstance(cfg.models[2].params["C"], int)  # params are not widened
        assert cfg.preprocess.vif_threshold == 12.0
        assert isinstance(cfg.preprocess.vif_threshold, float)
        assert cfg.encodings[3].scheme.readout == "probability_vector"

    @pytest.mark.parametrize("name, digest", [
        ("synthetic.json",
         "0e6760cd7a2bd82595a6ade5e58824fad239d2a4d404b6ec813ad513721b74a4"),
        ("telco.json",
         "c2c3cc4908e153e79152f33bdedf031d42cb2274cfd1a42773d507bd82e34d27"),
    ])
    def test_shipped_config_hash_pinned(self, name, digest):
        # a results.json records this hash; a changed echo breaks its re-run
        assert runner.config_hash(config.load_config(CONFIGS / name)) == digest

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
            assert cell.dim_in == run.manifest["n_components"]

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
        with pytest.raises(EmptyInput):
            runner.encode_split(config.EncodingEntry("basis", basis_scheme()), empty, test)

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
            models=[{"kind": "knn", "seed": 1, "params": {"k": 3}}],
        )
        i = np.int64
        built = config.BenchConfig(
            dataset_path=None, schema=config.TELCO_SCHEMA, synthetic_rows=i(200),
            preprocess=PreprocessOptions(seed=i(3), n_components=i(6)), seed=i(3),
            encodings=(config.EncodingEntry("classical", None),
                       config.EncodingEntry("basis", basis_scheme(i(2)))),
            models=(ModelSpec("knn", seed=i(1), params={"k": i(3)}),),
            output_dir=None,
        )
        assert runner.config_hash(built) == runner.config_hash(from_json)
        run = runner.run_matrix(built)
        assert [cell.error for cell in run.results] == [None, None]
        path = runner.persist_run(run, str(tmp_path))
        manifest = json.loads(Path(path).read_text())["manifest"]
        assert manifest["config_sha256"] == runner.config_hash(from_json)

    def test_output_dir_priority(self, monkeypatch):
        cfg = small_config()
        monkeypatch.delenv(runner.ENV_OUTPUT_DIR, raising=False)
        assert runner.resolve_output_dir(cfg) == runner.DEFAULT_OUTPUT_DIR
        monkeypatch.setenv(runner.ENV_OUTPUT_DIR, "from_env")
        assert runner.resolve_output_dir(cfg) == "from_env"
        cfg_out = small_config(output_dir="from_config")
        assert runner.resolve_output_dir(cfg_out) == "from_config"
        assert runner.resolve_output_dir(cfg_out, "from_flag") == "from_flag"


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

    def test_markdown_escapes_pipes(self):
        # an encoding name and an error string may hold `|`; only markdown escapes it
        failed = runner.RunResult(
            encoding="a|b", model="svm", report=None, error="encode: x | y",
            encode_ms=0.0, fit_ms=0.0, predict_ms=0.0, dim_in=6, dim_out=0,
            seed=0, split_checksum="x", timestamp="t",
        )
        lines = report.emit_report([failed], "markdown").splitlines()
        unescaped = [len(re.findall(r"(?<!\\)\|", line)) for line in lines]
        assert unescaped == [len(report.COLUMNS) + 1] * 3
        assert lines[2].startswith("| a\\|b | svm |")
        assert lines[2].endswith("| encode: x \\| y |")
        row = list(csv.reader(io.StringIO(report.emit_report([failed], "csv"))))[1]
        assert (row[0], row[-1]) == ("a|b", "encode: x | y")

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
        # the echo records each model's seed; a results-file re-run with --seed 7
        # once kept the forest on the first run's seed, unlike a fresh --seed 7 run
        cfg_path = self.write_config(tmp_path, models=[
            {"kind": "forest", "params": {"n_trees": 10}}, {"kind": "knn", "seed": 5}])
        fresh, first, rerun = tmp_path / "fresh", tmp_path / "first", tmp_path / "rerun"
        for config_path, out, seed in [(cfg_path, fresh, ["--seed", "7"]), (cfg_path, first, []),
                                       (first / "results.json", rerun, ["--seed", "7"])]:
            assert cli.main(["bench", "--config", str(config_path), "--out", str(out), *seed]) == 0
        capsys.readouterr()
        a, b = (json.loads((out / "results.json").read_text()) for out in (fresh, rerun))
        assert [m["seed"] for m in b["manifest"]["config"]["models"]] == [7, 7]
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
        def out_of_memory(dataset, options):
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

    @pytest.mark.parametrize("name", ["Churn", "customerID", "TotalCharges", "Colour"])
    def test_extra_drop_of_no_remaining_feature_is_data_error(self, tmp_path, capsys, name):
        # the target, the id, a correlation-stage drop, a name not in the schema
        cfg_path = self.write_config(tmp_path, preprocess={"extra_drops": [name]})
        assert cli.main(["preprocess", "--config", str(cfg_path),
                         "--out", str(tmp_path / "pre")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and repr(name) in err

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
        payload = json.loads((out_dir / "preprocess.json").read_text())
        assert payload["n_components"] == 6
        assert payload["train_rows"] > payload["test_rows"] > 0

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
