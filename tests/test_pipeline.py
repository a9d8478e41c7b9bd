import csv
import math
import sys
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from qembed import pipeline as pl
from qembed.errors import (
    ClassTooSmall,
    EmptyFile,
    InvalidLabel,
    LengthMismatch,
    MissingColumn,
    NonBinaryTarget,
    NonIncreasingRatios,
    SingleClass,
    TooFewComponents,
    UnknownColumn,
    UnparsableCell,
    ZeroVariance,
)
from qembed.bench.data import synthetic_telco
from qembed.bench import runner
from qembed.bench.config import config_from_dict, load_config
from qembed.bench.runner import split_checksum
from qembed.models import MODEL_KINDS
from qembed.pipeline import ColumnSpec, FeatureMatrix


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


SCHEMA = (
    ColumnSpec("id", pl.ID),
    ColumnSpec("color", pl.CATEGORICAL),
    ColumnSpec("amount", pl.NUMERIC),
    ColumnSpec("label", pl.TARGET),
)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount", "label"],
                  [["a", "red", "1.5", "No"], ["b", "blue", "2", "Yes"]])
        ds = pl.load_csv(p, SCHEMA)
        assert ds.n_rows == 2
        assert list(ds.columns["amount"]) == [1.5, 2.0]
        assert ds.columns["color"] == ("red", "blue")
        assert ds.target_name == "label"

    def test_column_order_insensitive(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["id", "color", "amount", "label"], [["a", "red", "1", "No"]])
        write_csv(p2, ["label", "amount", "id", "color"], [["No", "1", "a", "red"]])
        d1, d2 = pl.load_csv(p1, SCHEMA), pl.load_csv(p2, SCHEMA)
        assert d1.columns == d2.columns

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount"], [["a", "red", "1"]])
        with pytest.raises(MissingColumn):
            pl.load_csv(p, SCHEMA)

    def test_blank_numeric_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount", "label"],
                  [["a", "red", " ", "No"], ["b", "red", "", "Yes"],
                   ["c", "blue", "3", "No"]])
        ds = pl.load_csv(p, SCHEMA)
        assert ds.blank_counts == {"amount": 2}
        assert list(ds.columns["amount"]) == [0.0, 0.0, 3.0]

    def test_unparsable_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount", "label"], [["a", "red", "x9", "No"]])
        with pytest.raises(UnparsableCell) as info:
            pl.load_csv(p, SCHEMA)
        assert info.value.column == "amount"
        assert info.value.row == 0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_unparsable(self, tmp_path, cell):
        # float() accepts each of these; a feature matrix holds finite values only
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount", "label"],
                  [["a", "red", "1", "No"], ["b", "red", cell, "Yes"]])
        with pytest.raises(UnparsableCell) as info:
            pl.load_csv(p, SCHEMA)
        assert (info.value.row, info.value.column, info.value.value) == (1, "amount", cell)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["id", "color", "amount", "label"], [])
        with pytest.raises(EmptyFile):
            pl.load_csv(p, SCHEMA)

    def test_schema_naming_a_column_twice_rejected(self, tmp_path):
        # before the file is opened: the column would enter the matrix twice
        with pytest.raises(ValueError, match=r"duplicate schema column names: \['amount'\]"):
            pl.load_csv(tmp_path / "absent.csv", SCHEMA + (ColumnSpec("amount", pl.NUMERIC),))

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["junk", "id", "color", "amount", "label"],
                  [["zz", "a", "red", "1", "No"]])
        ds = pl.load_csv(p, SCHEMA)
        assert "junk" not in ds.columns


TARGETS = (ColumnSpec("a", pl.TARGET), ColumnSpec("b", pl.TARGET))
REJECTED = "rejected"


class TestFeatureMatrixArrays:
    def test_caller_arrays_stay_writeable(self):
        # the matrix freezes views, so the caller's own arrays keep their flags
        data, labels = np.zeros((2, 2)), np.array([0, 1])
        matrix = FeatureMatrix(data, ("a", "b"), labels)
        data[0, 0], labels[0] = 1.0, 1
        assert np.shares_memory(matrix.data, data) and np.shares_memory(matrix.labels, labels)
        assert not matrix.data.flags.writeable and not matrix.labels.flags.writeable


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: FeatureMatrix(np.zeros(3), ("a",), np.zeros(3)), "data must be 2-D"),
        (lambda: FeatureMatrix(np.zeros((3, 2)), ("a",), np.zeros(3)),
         "one name per column required"),
        (lambda: FeatureMatrix(np.array([[0.0], [math.inf]]), ("a",), np.zeros(2)),
         "matrix entries must be finite"),
        (lambda: FeatureMatrix(np.zeros((3, 1)), ("a",), np.zeros(2)),
         "label length must equal row count"),
        (lambda: FeatureMatrix(np.zeros((3, 1)), ("a",), [0, 1, 2]), "labels must be 0 or 1"),
        # read by the models' and metrics' rule, not cast to int first (0.5 was class 0)
        (lambda: FeatureMatrix(np.zeros((2, 1)), ("a",), [0.5, 1.0]), "labels must be 0 or 1"),
        (lambda: ColumnSpec("a", "ordinal"), "unknown column kind 'ordinal'"),
        (lambda: pl.Dataset((ColumnSpec("a", pl.NUMERIC),), {"a": np.zeros(2)}, 2),
         "exactly one target column"),
        (lambda: pl.Dataset(TARGETS, {"a": ("x", "y"), "b": ("x", "y")}, 2),
         "exactly one target column"),
        # refused when built, not inside pca_fit on a k=0 that named no column
        (lambda: pl.Dataset((ColumnSpec("id", pl.ID), ColumnSpec("y", pl.TARGET)),
                            {"id": ("a", "b"), "y": ("x", "z")}, 2),
         "^schema declares no numeric or categorical feature column$"),
    ], ids=["1-d", "names", "non-finite", "label-length", "labels-0-1", "labels-half",
            "column-kind", "no-target", "two-targets", "no-feature"])
    def test_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_take_rows_by_mask_or_index(self):
        # a bool mask selects rows, never the row indices 0 and 1
        m = FeatureMatrix(np.arange(3.0)[:, None], ("a",), [0, 1, 1])
        masked = m.take_rows(np.array([True, False, True]))
        assert masked.data[:, 0].tolist() == [0.0, 2.0] and masked.labels.tolist() == [0, 1]
        assert m.take_rows([2, 0, 2]).data[:, 0].tolist() == [2.0, 0.0, 2.0]
        assert m.take_rows([]).n_rows == 0
        with pytest.raises(ValueError, match="^take_rows needs a bool mask or integer indices"):
            m.take_rows(np.array([0.9, 1.7]))  # never truncated to rows 0 and 1
        for mask in ([True, False], np.ones(4, dtype=bool)):
            message = f"^row mask of length {len(mask)} for a matrix of 3 rows$"
            with pytest.raises(ValueError, match=message):
                m.take_rows(mask)

    def test_one_label_rule(self):
        # bools and 0.0/1.0 read as int labels, in the matrix as in checked_labels;
        # int labels come back uncopied, and a failure raises the caller's error
        ints = np.array([0, 1, 1])
        assert pl.checked_labels(ints, "y") is ints
        for values in ([False, True, True], [0.0, 1.0, 1.0], ints):
            assert pl.checked_labels(values, "y").dtype == ints.dtype
            labels = FeatureMatrix(np.zeros((3, 1)), ("a",), values).labels
            assert labels.dtype == ints.dtype and labels.tolist() == [0, 1, 1]
        for bad in ([0, 0.5], [0, -1], [0, "1"], [0, None]):
            with pytest.raises(InvalidLabel, match="^y must be 0 or 1$"):
                pl.checked_labels(bad, "y", InvalidLabel)


@pytest.fixture(scope="module")
def telco_csv(tmp_path_factory):
    """A 20,000-row synthetic churn table written as CSV, and the table."""
    dataset = synthetic_telco(20_000, 0)
    path = tmp_path_factory.mktemp("telco") / "telco.csv"
    columns = [np.asarray(dataset.columns[c.name]).tolist() for c in dataset.schema]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c.name for c in dataset.schema])
        writer.writerows(zip(*columns))
    return path, dataset


class TestLoadCsvScale:
    def test_one_string_object_per_distinct_value(self, telco_csv):
        path, dataset = telco_csv  # 20 blocks, so values are shared across blocks
        ds = pl.load_csv(path, dataset.schema)
        for spec in ds.schema:
            if spec.kind != pl.NUMERIC:
                col = ds.columns[spec.name]
                assert len({id(v) for v in col}) == len(set(col)), spec.name

    def test_peak_memory_bounded_by_file_size(self, telco_csv):
        path, dataset = telco_csv
        tracemalloc.start()
        try:
            pl.load_csv(path, dataset.schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole-file row list with one string per cell peaks near 12x the file
        assert peak < 4 * path.stat().st_size


def reference_load_csv(path, schema):
    """The loader before the column-wise parse: csv.DictReader and one float() per cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        for spec in schema:
            if spec.name not in reader.fieldnames:
                raise MissingColumn(f"{path}: column {spec.name!r} not in header")
        raw_rows = list(reader)
    if not raw_rows:
        raise EmptyFile(f"{path}: no data rows")
    columns, blanks = {}, {}
    for spec in schema:
        cells = [row[spec.name] for row in raw_rows]
        if spec.kind != pl.NUMERIC:
            columns[spec.name] = tuple((cell or "").strip() for cell in cells)
            continue
        values = np.empty(len(cells))
        for i, cell in enumerate(cells):
            text = (cell or "").strip()
            if not text:
                values[i] = 0.0
                blanks[spec.name] = blanks.get(spec.name, 0) + 1
                continue
            try:
                values[i] = float(text)
            except ValueError:
                values[i] = math.nan
            if not math.isfinite(values[i]):
                raise UnparsableCell(i, spec.name, cell)
        columns[spec.name] = values
    return pl.Dataset(tuple(schema), columns, len(raw_rows), blanks)


PARITY_SCHEMA = SCHEMA + (ColumnSpec("count", pl.NUMERIC),)
PARITY_HEADER = "id,color,amount,label,count\n"
PARITY_FILES = {
    "bom": "\ufeff" + PARITY_HEADER + "a,red,1.5,No,2\nb,blue,2,Yes,3\n",
    "quoted commas": PARITY_HEADER + 'a,"red, dark",1,No,"4"\nb,"x ""y"", z",2,Yes,5\n',
    "blank lines": "\n".join([PARITY_HEADER[:-1], "", "a,red,1,No,2", "", "", "b,red,2,Yes,3", ""]),
    "crlf and blank lines":
        PARITY_HEADER.replace("\n", "\r\n") + "a,red,1,No,2\r\n\r\nb,red,2,Yes,3\r\n",
    "short and long rows": PARITY_HEADER + "a,red,1\nb,blue,2,Yes,3,extra,more\nc\n",
    "all rows short": PARITY_HEADER + "a,red\nb,blue\n",
    "duplicated header": "id,amount,color,amount,label,count\na,9,red,1,No,2\nb,x,blue,2,Yes\n",
    "padded and underscore numbers":
        PARITY_HEADER + "a,red, 1.5 ,No,1_000\nb,red,\t-2e3 ,Yes, +7 \n",
    "blank and whitespace cells": PARITY_HEADER + 'a, red ,,No,  \nb,,"  ",Yes,\t\nc,blue,3,No,4\n',
    "quoted blank line": PARITY_HEADER + '""\na,red,1,No,2\n',
    "nan": PARITY_HEADER + "a,red,1,No,2\nb,red,nan,Yes,3\n",
    "inf after abc": PARITY_HEADER + "a,red,1,No,abc\nb,red,2,Yes,inf\n",
    "1e400 before abc": PARITY_HEADER + "a,red,1,No,1e400\nb,red,2,Yes,abc\n",
    "abc in the second numeric column": PARITY_HEADER + "a,red,1,No,2\nb,red,2,Yes, abc \n",
    "bad cells in two columns": PARITY_HEADER + "a,red,1,No,abc\nb,red,-inf,Yes,3\n",
    "header only": PARITY_HEADER,
    "only blank lines": PARITY_HEADER + "\n\n",
    "empty file": "",
    "blank first line": "\n" + PARITY_HEADER + "a,red,1,No,2\n",
    "missing column": "id,color,amount,count\na,red,1,2\n",
}


def _load_outcome(loader, path):
    try:
        ds = loader(path, PARITY_SCHEMA)
    except UnparsableCell as exc:
        return "UnparsableCell", exc.row, exc.column, exc.value
    except (EmptyFile, MissingColumn) as exc:
        return type(exc).__name__, str(exc)
    columns = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in ds.columns.items()}
    return ds.n_rows, columns, ds.blank_counts


@pytest.mark.parametrize("case, block_rows", [
    pytest.param(case, rows, id=case if rows is None else f"{case}, {rows}-row blocks")
    for case in sorted(PARITY_FILES) for rows in (None, 1, 2)
])
def test_load_csv_matches_reference_loader(tmp_path, monkeypatch, case, block_rows):
    if block_rows is not None:  # blocks of blank lines only, and errors across blocks
        monkeypatch.setattr(pl, "LOAD_BLOCK_ROWS", block_rows)
    path = tmp_path / "d.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(PARITY_FILES[case])
    assert _load_outcome(pl.load_csv, path) == _load_outcome(reference_load_csv, path)


def matrix_of(data, names=None, labels=None):
    data = np.asarray(data, dtype=float)
    names = names or tuple(f"c{i}" for i in range(data.shape[1]))
    labels = np.zeros(data.shape[0], dtype=int) if labels is None else labels
    return FeatureMatrix(data, names, labels)


def pearson(a, b):
    """The Pearson correlation of two columns, read off correlation_matrix."""
    return pl.correlation_matrix(matrix_of(np.column_stack([a, b])))[0, 1]


class TestPearson:
    def test_identical(self):
        a = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(a, a) == pytest.approx(1.0)

    def test_negated(self):
        a = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            X = rng.normal(size=(30, 4))
            C = pl.correlation_matrix(matrix_of(X))
            assert np.allclose(C, np.corrcoef(X.T), rtol=0, atol=1e-12)
            assert np.array_equal(C, C.T)

    def test_errors(self):
        # the error names the constant column; one row leaves every column constant
        with pytest.raises(ZeroVariance, match="'c0' is constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance, match="'b' is constant"):
            pl.correlation_matrix(matrix_of([[1.0, 4.0], [2.0, 4.0]], names=("a", "b")))
        with pytest.raises(ZeroVariance):
            pearson([1.0], [2.0])

    def test_constant_column_whose_mean_is_inexact(self):
        # the mean of 28,172 copies of 0.1 is not 0.1, so the centred column
        # is not exactly zero; equal values still make it constant
        with pytest.raises(ZeroVariance):
            pearson(np.full(28172, 0.1), np.arange(28172) % 7)
        with pytest.raises(ZeroVariance):
            pearson(np.arange(28172) % 7, np.full(28172, 0.1))


def reference_vif(matrix):
    """VIFs as computed before the correlation-matrix form: one lstsq fit per column."""
    X = matrix.data
    entries = []
    for j, name in enumerate(matrix.column_names):
        y = X[:, j]
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        design = np.column_stack([np.ones(X.shape[0]), np.delete(X, j, axis=1)])
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        r2 = max(0.0, 1.0 - float(np.sum((y - design @ coef) ** 2)) / ss_tot)
        infinite = r2 > 1.0 - 1e-12
        entries.append(pl.VifEntry(name, math.inf if infinite else 1.0 / (1.0 - r2), infinite))
    return entries


def assert_vifs_match(got, want):
    """Same columns and infinite flags; finite VIFs equal to 1e-9 relative."""
    assert [(e.column, e.infinite) for e in got] == [(e.column, e.infinite) for e in want]
    for g, w in zip(got, want):
        if not w.infinite:
            assert g.vif == pytest.approx(w.vif, rel=1e-9)


VIF_GROUPS = ("independent", "collinear", "planted")


def random_vif_case(rng, group):
    """A seeded m x d matrix, d in 2-20 and m in 40-400, each column on its own
    scale and offset.  `collinear`: every third column is its left neighbour
    plus 1% noise.  `planted`: one exact dependency pattern, a scaled copy,
    two disjoint aliased groups, or a chain c = a + b (then e = c - 2a)."""
    kind = int(rng.integers(3)) if group == "planted" else 0
    d = int(rng.integers((2, 6, 3)[kind], 21))
    m = int(rng.integers(40, 401))
    X = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(scale=5.0, size=d)
    if group == "collinear":
        for j in range(1, d, 3):
            X[:, j] = X[:, j - 1] + 0.01 * X[:, j - 1].std() * rng.normal(size=m)
    elif group == "planted":
        c = rng.permutation(d)
        if kind == 0:
            X[:, c[1]] = rng.uniform(-3.0, 3.0) * X[:, c[0]] + rng.normal()
        elif kind == 1:
            X[:, c[2]] = rng.normal() * X[:, c[0]] + rng.normal() * X[:, c[1]]
            X[:, c[5]] = rng.normal() * X[:, c[3]] - rng.normal() * X[:, c[4]]
        else:
            X[:, c[2]] = X[:, c[0]] + X[:, c[1]]
            if d > 3:
                X[:, c[3]] = X[:, c[2]] - 2.0 * X[:, c[0]]
    return matrix_of(X)


class TestVif:
    def test_independent_columns_near_one(self, vif_inputs):
        rng = np.random.default_rng(5)
        X = matrix_of(rng.normal(size=(1000, 2)))
        for entry in pl.compute_vif(*vif_inputs(X)):
            assert 1.0 <= entry.vif <= 1.2
            assert not entry.infinite

    def test_two_column_oracle(self, vif_inputs):
        # for two columns VIF = 1/(1 - r^2) with r the Pearson correlation
        rng = np.random.default_rng(7)
        a = rng.normal(size=400)
        b = 0.6 * a + rng.normal(size=400)
        X = matrix_of(np.column_stack([a, b]))
        r = pearson(a, b)
        expected = 1.0 / (1.0 - r * r)
        for entry in pl.compute_vif(*vif_inputs(X)):
            assert entry.vif == pytest.approx(expected, rel=1e-9)

    def test_inverse_correlation_oracle(self, vif_inputs):
        # VIFs are the diagonal of the inverse correlation matrix
        rng = np.random.default_rng(11)
        base = rng.normal(size=(500, 5))
        base[:, 3] = 0.5 * base[:, 0] + 0.4 * base[:, 1] + 0.2 * base[:, 3]
        X = matrix_of(base)
        oracle = np.diag(np.linalg.inv(np.corrcoef(base.T)))
        got = [e.vif for e in pl.compute_vif(*vif_inputs(X))]
        assert np.allclose(got, oracle, rtol=1e-6)

    def test_duplicated_column_flagged(self, vif_inputs):
        rng = np.random.default_rng(13)
        a = rng.normal(size=100)
        X = matrix_of(np.column_stack([a, a]), names=("a1", "a2"))
        entries = pl.compute_vif(*vif_inputs(X))
        assert all(e.infinite and math.isinf(e.vif) for e in entries)

    def test_duplicated_pair_beside_a_free_column(self, vif_inputs):
        # only the pair is collinear; b's fit sees a singular block of a1 and a2
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(2, 300))
        X = matrix_of(np.column_stack([a, a, 0.3 * a + b]), names=("a1", "a2", "b"))
        entries = pl.compute_vif(*vif_inputs(X))
        assert [e.infinite for e in entries] == [True, True, False]
        assert_vifs_match(entries, reference_vif(X))

    def test_near_collinear_matches_reference(self, vif_inputs):
        # VIFs near 3e4; the correlation-matrix form loses about eps * VIF^2
        # relative, so 1e-9 holds up to VIFs of about 1e6
        rng = np.random.default_rng(29)
        base = rng.normal(size=(2000, 5))
        base[:, 4] = base[:, 0] + base[:, 1] - base[:, 2] + 0.01 * base[:, 4]
        entries = pl.compute_vif(*vif_inputs(matrix_of(base)))
        assert max(e.vif for e in entries) > 1e4
        assert_vifs_match(entries, reference_vif(matrix_of(base)))

    def test_near_dependency_under_the_line_stays_finite(self, vif_inputs):
        # 1 - R^2 near 5e-10, over the 1e-12 pivot tolerance: swept, not aliased,
        # so finite VIFs of 1e9-2e9, equal to the reference's to eps * VIF^2
        rng = np.random.default_rng(41)
        base = rng.normal(size=(400, 4))
        base[:, 3] = base[:, 0] - base[:, 1] + 3e-5 * base[:, 3]
        entries = pl.compute_vif(*vif_inputs(matrix_of(base)))
        assert not any(e.infinite for e in entries) and max(e.vif for e in entries) > 1e9
        for g, w in zip(entries, reference_vif(matrix_of(base))):
            assert g.vif == pytest.approx(w.vif, rel=1e-5)

    def test_constant_column(self, vif_inputs):
        X = matrix_of([[1.0, 3.0], [1.0, 4.0], [1.0, 5.0]])
        with pytest.raises(ZeroVariance):
            pl.compute_vif(*vif_inputs(X))

    def test_needs_two_columns(self):
        with pytest.raises(LengthMismatch, match="at least two columns"):
            pl.compute_vif(np.ones((1, 1)), ("c0",))

    def test_needs_one_name_per_row_and_column_of_c(self, vif_inputs):
        corr, names = vif_inputs(matrix_of(np.random.default_rng(31).normal(size=(20, 3))))
        with pytest.raises(LengthMismatch, match=r"a 2 x 2 C, got \(3, 3\)"):
            pl.compute_vif(corr, names[:2])

    @pytest.mark.parametrize("value, rows", [(0.1, 28172), (0.3, 500)])
    def test_constant_column_whose_mean_is_inexact(self, vif_inputs, value, rows):
        # the column mean is not exactly `value`, so centring leaves ~1e-17 noise
        X = matrix_of(np.column_stack([np.full(rows, value), np.arange(rows) % 7]))
        with pytest.raises(ZeroVariance):
            pl.compute_vif(*vif_inputs(X))

    @pytest.mark.parametrize("group", VIF_GROUPS)
    def test_random_matrices_match_reference(self, vif_inputs, group):
        # Equal infinite flags, and finite VIFs up to 1e6 equal to 1e-9 relative.
        # Out of the domain: a column the design-matrix fit calls infinite that C
        # reads as a finite VIF above 1e10.  A VIF v read off C is off by about
        # eps * v^2, because the 1 - R^2 = 1/v it rests on is known only to about
        # eps times the fit's conditioning k.  An exact dependency's 1 - R^2 is
        # 0, so C reads it as that rounding alone, a VIF of about 1/(k * eps):
        # infinite for a well-conditioned fit, but 1e10-1e12 for k ~ 5-500, where
        # a finite reading cannot be told from an exact dependency.
        rng = np.random.default_rng(VIF_GROUPS.index(group))
        for _ in range(60):
            X = random_vif_case(rng, group)
            for g, w in zip(pl.compute_vif(*vif_inputs(X)), reference_vif(X)):
                if w.infinite and not g.infinite and g.vif > 1e10:
                    continue
                assert (g.column, g.infinite) == (w.column, w.infinite)
                if not w.infinite and w.vif <= 1e6:
                    assert g.vif == pytest.approx(w.vif, rel=1e-9)


def columns_of(matrix, names):
    """The named columns of a FeatureMatrix, in the order given."""
    idx = [matrix.column_names.index(n) for n in names]
    return FeatureMatrix(matrix.data[:, idx], tuple(names), matrix.labels)


class TestIterativeVifPrune:
    def test_all_under_threshold_unchanged(self, vif_inputs):
        rng = np.random.default_rng(17)
        X = matrix_of(rng.normal(size=(200, 3)))
        keep, iters, dropped = pl.iterative_vif_prune(*vif_inputs(X), 12.0)
        assert keep == [0, 1, 2]
        assert dropped == []
        assert len(iters) == 1

    def test_duplicate_drops_one_copy(self, vif_inputs):
        rng = np.random.default_rng(19)
        a = rng.normal(size=150)
        b = rng.normal(size=150)
        X = matrix_of(np.column_stack([a, a, b]), names=("a1", "a2", "b"))
        keep, _, dropped = pl.iterative_vif_prune(*vif_inputs(X), 12.0)
        assert [e.column for e in dropped] == ["a1"]  # tie breaks to earlier column
        assert keep == [1, 2]
        pruned = columns_of(X, ("a2", "b"))
        assert all(e.vif <= 12.0 for e in pl.compute_vif(*vif_inputs(pruned)))

    def test_rounds_read_blocks_of_one_c(self, vif_inputs):
        # each round's table equals compute_vif on C recomputed over the columns left
        rng = np.random.default_rng(37)
        base = rng.normal(size=(300, 6))
        base[:, 2] = base[:, 0] + base[:, 1] + 0.05 * base[:, 2]
        base[:, 5] = base[:, 3] - 0.02 * base[:, 5]
        X = matrix_of(base)
        keep, iters, dropped = pl.iterative_vif_prune(*vif_inputs(X), 12.0)
        assert len(dropped) == 2 and len(iters) == 3
        for table in iters:
            want = pl.compute_vif(*vif_inputs(columns_of(X, [e.column for e in table])))
            assert_vifs_match(table, want)
        assert [X.column_names[j] for j in keep] == [e.column for e in iters[-1]]

    def test_threshold_validated(self, vif_inputs):
        # nan would pass a threshold <= 1 check and then drop all columns but one
        for threshold in (1.0, float("nan")):
            with pytest.raises(ValueError, match="^VIF threshold must exceed 1$"):
                pl.iterative_vif_prune(*vif_inputs(matrix_of(np.eye(3))), threshold)

    @pytest.mark.parametrize("rows", [500, 7043, 28172])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_telco_preprocess_matches_reference_vif(self, monkeypatch, rows, seed):
        # the reference VIF of each table's columns, fitted on the ordinal matrix,
        # both as a check on each table and as the pruning's own VIF
        dataset, options = synthetic_telco(rows, seed), pl.PreprocessOptions()
        got = pl.run_preprocess(dataset, options, seed)
        ordinal, _ = pl.ordinal_matrix(dataset)
        assert got.report.vif_iterations
        for table in got.report.vif_iterations:
            assert_vifs_match(table, reference_vif(columns_of(ordinal, [e.column for e in table])))
        monkeypatch.setattr(pl, "compute_vif",
                            lambda corr, names: reference_vif(columns_of(ordinal, names)))
        want = pl.run_preprocess(dataset, options, seed)
        assert split_checksum(got.train, got.test) == split_checksum(want.train, want.test)
        assert got.report.dropped == want.report.dropped
        assert len(got.report.vif_iterations) == len(want.report.vif_iterations)
        for g, w in zip(got.report.vif_iterations, want.report.vif_iterations):
            assert_vifs_match(g, w)


def make_dataset(rows, schema):
    """Columnar Dataset from row tuples, typed by the schema."""
    columns = {}
    for j, spec in enumerate(schema):
        cells = [r[j] for r in rows]
        if spec.kind == pl.NUMERIC:
            columns[spec.name] = np.array(cells, dtype=float)
        else:
            columns[spec.name] = tuple(str(c) for c in cells)
    return pl.Dataset(tuple(schema), columns, len(rows))


class TestOneHot:
    schema = (
        ColumnSpec("color", pl.CATEGORICAL),
        ColumnSpec("size", pl.CATEGORICAL),
        ColumnSpec("amount", pl.NUMERIC),
        ColumnSpec("label", pl.TARGET),
    )

    def make(self, rows=None):
        rows = rows or [
            ("red", "S", 1.0, "No"),
            ("blue", "M", 2.0, "Yes"),
            ("red", "M", 3.0, "No"),
            ("green", "S", 4.0, "Yes"),
        ]
        return pl.one_hot(*pl.ordinal_matrix(make_dataset(rows, self.schema)))

    def test_full_vocabulary_first_appearance(self):
        m = self.make()
        assert m.column_names == (
            "color=red", "color=blue", "color=green", "size=S", "size=M", "amount",
        )
        assert np.allclose(m.data[:, 0], [1, 0, 1, 0])
        assert np.allclose(m.data[:, 5], [1, 2, 3, 4])

    def test_indicator_groups_sum_to_one(self):
        m = self.make()
        assert np.allclose(m.data[:, 0:3].sum(axis=1), 1.0)
        assert np.allclose(m.data[:, 3:5].sum(axis=1), 1.0)

    def test_labels_sorted_mapping(self):
        m = self.make()
        assert list(m.labels) == [0, 1, 0, 1]  # No=0, Yes=1

    def test_single_category_column(self):
        m = self.make([("red", "S", 1.0, "No"), ("red", "M", 2.0, "Yes")])
        assert np.allclose(m.data[:, m.column_names.index("color=red")], 1.0)

    def test_ordinal_codes_and_vocabularies(self):
        rows = [("red", "S", 1.5, "No"), ("blue", "M", 2.0, "Yes"), ("red", "M", 3.0, "No")]
        matrix, vocabularies = pl.ordinal_matrix(make_dataset(rows, self.schema))
        assert matrix.column_names == ("color", "size", "amount")
        assert matrix.data.tolist() == [[0, 0, 1.5], [1, 1, 2.0], [0, 1, 3.0]]
        assert vocabularies == {"color": ["red", "blue"], "size": ["S", "M"]}

    def test_dropped_categorical_is_not_expanded(self):
        matrix, vocabularies = pl.ordinal_matrix(make_dataset(
            [("red", "S", 1.0, "No"), ("blue", "M", 2.0, "Yes")], self.schema
        ))
        m = pl.one_hot(columns_of(matrix, ("size", "amount")), vocabularies)
        assert m.column_names == ("size=S", "size=M", "amount")


class TestUndersample:
    def make(self, n0, n1, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.array([0] * n0 + [1] * n1)
        return matrix_of(rng.normal(size=(n0 + n1, 3)), labels=labels)

    def test_churn_like_counts(self):
        m = pl.undersample(self.make(5174, 1869), seed=1)
        assert m.n_rows == 3738
        assert int(m.labels.sum()) == 1869

    def test_rows_come_from_input(self):
        X = self.make(30, 10)
        out = pl.undersample(X, seed=2)
        in_rows = {tuple(r) for r in X.data}
        assert all(tuple(r) in in_rows for r in out.data)

    def test_balanced_input_multiset_unchanged(self):
        X = self.make(15, 15)
        out = pl.undersample(X, seed=3)
        assert sorted(map(tuple, out.data)) == sorted(map(tuple, X.data))

    def test_deterministic(self):
        X = self.make(40, 12)
        a = pl.undersample(X, seed=9)
        b = pl.undersample(X, seed=9)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            pl.undersample(matrix_of(np.ones((4, 2)), labels=np.ones(4, dtype=int)), 0)


class TestSplit:
    def test_churn_counts(self):
        labels = np.array([0, 1] * 1869)
        X = matrix_of(np.arange(3738 * 2, dtype=float).reshape(3738, 2), labels=labels)
        train, test = pl.train_test_split(X, 0.8, seed=4)
        assert train.n_rows == 2990 and test.n_rows == 748
        assert int(train.labels.sum()) == 1495
        assert int(test.labels.sum()) == 374

    def test_tiny_balanced(self):
        X = matrix_of(np.eye(4), labels=np.array([0, 0, 1, 1]))
        train, test = pl.train_test_split(X, 0.5, seed=5)
        assert train.n_rows == test.n_rows == 2
        assert sorted(train.labels) == [0, 1]
        assert sorted(test.labels) == [0, 1]

    def test_partition(self):
        rng = np.random.default_rng(6)
        X = matrix_of(rng.normal(size=(101, 3)),
                      labels=rng.integers(0, 2, size=101))
        train, test = pl.train_test_split(X, 0.8, seed=6)
        together = sorted(map(tuple, np.vstack([train.data, test.data])))
        assert together == sorted(map(tuple, X.data))

    def test_deterministic(self):
        X = matrix_of(np.random.default_rng(0).normal(size=(50, 2)),
                      labels=np.array([0, 1] * 25))
        a = pl.train_test_split(X, 0.8, seed=7)
        b = pl.train_test_split(X, 0.8, seed=7)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_exact_ratio_floor(self):
        # 10 rows per class at 0.7 must put 7 in train, not 6
        X = matrix_of(np.zeros((20, 1)), labels=np.array([0, 1] * 10))
        train, test = pl.train_test_split(X, 0.7, seed=8)
        assert train.n_rows == 14 and test.n_rows == 6

    def test_class_too_small(self):
        X = matrix_of(np.zeros((3, 1)), labels=np.array([0, 0, 1]))
        with pytest.raises(ClassTooSmall):
            pl.train_test_split(X, 0.5, seed=0)

    def test_class_without_test_row(self):
        # the floor's epsilon rounds 5 * (1 - 1e-12) up to all five rows
        X = matrix_of(np.zeros((10, 1)), labels=np.array([0, 1] * 5))
        with pytest.raises(ClassTooSmall, match="none of them in the test split"):
            pl.train_test_split(X, 1 - 1e-12, seed=0)

    def test_bad_ratio(self):
        X = matrix_of(np.zeros((4, 1)), labels=np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            pl.train_test_split(X, 1.0, seed=0)


class TestPca:
    def test_roundtrip_full_rank(self):
        rng = np.random.default_rng(8)
        X = matrix_of(rng.normal(size=(40, 5)))
        model = pl.pca_fit(X, 5)
        back = pl.pca_inverse_transform(model, pl.pca_transform(model, X))
        assert np.max(np.abs(back - X.data)) < 1e-8

    def test_line_cloud(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=200)
        X = matrix_of(np.column_stack([t, 2 * t + 1e-9 * rng.normal(size=200)]))
        model = pl.pca_fit(X, 2)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
        assert model.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-9)

    def test_ratios_match_covariance_eigenvalues(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(120, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
        X = matrix_of(data)
        model = pl.pca_fit(X, 6)
        eigs = np.sort(np.linalg.eigvalsh(np.cov(data.T)))[::-1]
        assert np.allclose(model.explained_variance_ratio, eigs / eigs.sum(), atol=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(11)
        X = matrix_of(rng.normal(size=(60, 7)))
        model = pl.pca_fit(X, 4)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-9

    def test_sign_convention(self):
        # the first entry within a relative 1e-6 of the largest |entry| is positive
        rng = np.random.default_rng(12)
        X = matrix_of(rng.normal(size=(50, 4)))
        model = pl.pca_fit(X, 4)
        for row in model.components:
            size = np.abs(row)
            assert row[np.flatnonzero(size >= size.max() * (1 - 1e-6))[0]] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_tied_one_hot_pair_keeps_its_signs(self, seed):
        # a standardized two-category one-hot pair ties its entries to ~1e-15 in
        # every component; signed by the bare largest |entry|, the row order's
        # rounding flipped a component at half these seeds
        rng = np.random.default_rng(seed)
        hot = rng.integers(0, 2, size=60)
        raw = matrix_of(np.column_stack([rng.normal(size=60), hot, 1 - hot, rng.normal(size=60)]))
        X = pl.Standardizer.fit(raw).transform(raw)
        shuffled = X.take_rows(rng.permutation(60))
        assert np.max(np.abs(pl.pca_fit(X, 3).components
                             - pl.pca_fit(shuffled, 3).components)) < 1e-12

    def test_ratios_nonincreasing_and_sum_one(self):
        rng = np.random.default_rng(13)
        X = matrix_of(rng.normal(size=(80, 9)))
        model = pl.pca_fit(X, 3)
        r = model.explained_variance_ratio
        assert r.size == 9
        assert np.all(np.diff(r) <= 1e-12)
        assert r.sum() == pytest.approx(1.0, abs=1e-9)

    def test_score_variance_proportional_to_ratios(self):
        rng = np.random.default_rng(14)
        X = matrix_of(rng.normal(size=(100, 5)) @ np.diag([4, 2, 1, 0.5, 0.2]))
        model = pl.pca_fit(X, 5)
        scores = pl.pca_transform(model, X).data
        var = scores.var(axis=0, ddof=1)
        scale = var / model.explained_variance_ratio
        assert np.max(np.abs(scale - scale[0])) < 1e-6 * scale[0]

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(15)
        t = rng.normal(size=(30, 2))
        X = matrix_of(np.column_stack([t, t @ np.array([[1.0], [1.0]])]))
        model = pl.pca_fit(X, 3)
        assert model.rank_deficient
        assert model.explained_variance_ratio[2] == pytest.approx(0.0, abs=1e-12)

    def test_k_bounds(self):
        X = matrix_of(np.random.default_rng(16).normal(size=(10, 4)))
        with pytest.raises(ValueError):
            pl.pca_fit(X, 0)
        with pytest.raises(ValueError):
            pl.pca_fit(X, 5)


class TestRowDots:
    @pytest.mark.parametrize("seed", range(8))
    def test_each_row_summed_alone(self, seed):
        # a row's bits do not depend on the rows computed beside it, so row
        # blocks and BLAS threads cannot move them; the values are A @ B.T's
        rng = np.random.default_rng(seed)
        n, m, d = (int(v) for v in rng.integers(1, 40, size=3))
        A, B, b = rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.normal(size=d)
        for other, want in ((B, A @ B.T), (b, A @ b)):
            got = pl.row_dots(A, other)
            assert got.shape == want.shape
            for i in range(n):
                assert pl.row_dots(A[i:i + 1], other).tobytes() == got[i:i + 1].tobytes()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def well_separated(rng, m, d):
    """An m x d matrix whose centered singular values are r, r-1, ..., 1 (r = min(m-1, d))."""
    r = min(m - 1, d)
    q, _ = np.linalg.qr(np.column_stack([np.ones(m), rng.normal(size=(m, r))]))
    v, _ = np.linalg.qr(rng.normal(size=(d, r)))
    return q[:, 1:] * np.arange(r, 0, -1.0) @ v.T + rng.normal(size=d)  # columns of q[:, 1:] sum to 0


class TestJacobiEigh:
    def check(self, C):
        w, V = pl._jacobi_eigh(C)
        want = np.linalg.eigvalsh(C)
        scale = np.abs(want).max()
        assert np.max(np.abs(np.sort(w) - want)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ V - np.eye(len(C)))) <= 1e-12
        assert np.max(np.abs(C @ V - V * w)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(8))
    def test_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 46))  # odd and even sizes
        A = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-3, 4)
        self.check(A + A.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_one_hot_covariance(self, seed):
        # standardized indicators of three categorical columns: each column's
        # indicators sum to 1, so the covariance has a null space of dimension 3
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, [3, 4, 5], size=(200, 3))
        hot = np.column_stack([codes[:, j] == c for j, n in enumerate([3, 4, 5]) for c in range(n)])
        X = (hot - hot.mean(axis=0)) / hot.std(axis=0)
        C = pl.covariance(X, X.mean(axis=0))
        self.check(C)
        w, _ = pl._jacobi_eigh(C)
        assert np.sum(w > w.max() * 200 * np.finfo(float).eps) == 12 - 3

    @pytest.mark.parametrize("diagonal", [[3.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0], [0.0, 0.0], [5.0]])
    def test_already_diagonal(self, diagonal):
        # no rotation and no warning, even where a pivot's entries are all 0
        w, V = pl._jacobi_eigh(np.diag(diagonal))
        assert w.tolist() == diagonal and np.array_equal(V, np.eye(len(diagonal)))


class TestPcaCovariance:
    @pytest.mark.parametrize("block_rows, m, d", [
        (1, 7, 12), (2, 7, 12), (None, 7, 12),  # fewer rows than columns
        (1, 37, 6), (2, 37, 6), (None, 2500, 9),  # rows not a multiple of the block
    ])
    def test_matches_the_full_svd(self, monkeypatch, block_rows, m, d):
        if block_rows is not None:
            monkeypatch.setattr(pl, "PCA_BLOCK_ROWS", block_rows)
        data = well_separated(np.random.default_rng(m * d), m, d)
        k = min(m - 1, d)
        model = pl.pca_fit(matrix_of(data), k)
        _, sing, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
        ratios = np.zeros(d)
        ratios[: sing.size] = sing**2 / np.sum(sing**2)
        assert np.max(np.abs(model.explained_variance_ratio - ratios)) < 1e-12
        # pca_fit's sign rule: the first entry within a relative 1e-6 of the largest |entry| > 0
        want = np.array([v * np.sign(v[np.flatnonzero(np.abs(v) >= np.abs(v).max() * (1 - 1e-6))[0]])
                         for v in vt[:k]])
        assert np.max(np.abs(model.components - want)) < 1e-9
        assert model.rank == k

    @pytest.mark.parametrize("rows", [500, 7043])
    def test_rank_on_the_one_hot_telco_matrix(self, rows):
        # the eigenvalues of X^T X are squared singular values, and their rounding is
        # ~eps * lambda_0: a rank rule with a squared eps factor reports 35-37 here
        result = pl.run_preprocess(synthetic_telco(rows, 0), pl.PreprocessOptions())
        assert (result.report.one_hot_columns, result.pca.rank) == (44, 22)

    def test_peak_memory_a_fraction_of_the_matrix(self):
        X = matrix_of(np.random.default_rng(17).normal(size=(15_552, 44)))
        tracemalloc.start()
        try:
            pl.pca_fit(X, 43)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a full SVD of the centered copy holds it and U, twice the matrix
        assert peak < 0.5 * X.data.nbytes

    def test_correlation_matrix_makes_no_centred_copy(self):
        X = matrix_of(np.random.default_rng(19).normal(size=(28_172, 19)))
        tracemalloc.start()
        try:
            pl.correlation_matrix(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.data.nbytes


class TestElbow:
    def test_hand_oracle(self):
        assert pl.find_elbow([0.7, 0.2, 0.05, 0.03, 0.02]) == 1

    def test_linear_curve_tie_break(self):
        assert pl.find_elbow([0.2, 0.2, 0.2, 0.2, 0.2]) == 0

    def test_sharp_knee(self):
        ratios = np.array([0.5, 0.45, 0.01, 0.01, 0.01, 0.01, 0.01])
        # cumulative rises steeply then flattens after index 1
        assert pl.find_elbow(ratios) == 1

    def test_errors(self):
        with pytest.raises(TooFewComponents):
            pl.find_elbow([0.9, 0.1])
        with pytest.raises(NonIncreasingRatios):
            pl.find_elbow([0.2, 0.5, 0.3])
        with pytest.raises(NonIncreasingRatios):  # not a bare IndexError
            pl.find_elbow([0.5, float("nan"), 0.1])


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(18)
        X = matrix_of(rng.normal(3, 5, size=(200, 4)))
        z = pl.Standardizer.fit(X).transform(X)
        assert np.allclose(z.data.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(z.data.std(axis=0), 1, atol=1e-12)

    def test_constant_column_passthrough(self):
        X = matrix_of([[2.0, 1.0], [2.0, 3.0]])
        z = pl.Standardizer.fit(X).transform(X)
        assert np.allclose(z.data[:, 0], 0.0)


def synthetic_dataset(seed=0, n=300):
    """Imbalanced toy table with an id, a collinear numeric pair and categoricals."""
    rng = np.random.default_rng(seed)
    schema = (
        ColumnSpec("uid", pl.ID),
        ColumnSpec("plan", pl.CATEGORICAL),
        ColumnSpec("region", pl.CATEGORICAL),
        ColumnSpec("usage", pl.NUMERIC),
        ColumnSpec("usage_total", pl.NUMERIC),
        ColumnSpec("spend", pl.NUMERIC),
        ColumnSpec("churn", pl.TARGET),
    )
    usage = rng.uniform(0, 100, size=n)
    rows = []
    for i in range(n):
        rows.append((
            f"u{i}",
            rng.choice(["basic", "plus", "max"]),
            rng.choice(["north", "south"]),
            usage[i],
            usage[i] * 12 + rng.normal(0, 5),
            rng.uniform(10, 90),
            "Yes" if rng.uniform() < 0.3 else "No",
        ))
    return make_dataset(rows, schema)


class TestPreprocessWorkingSet:
    def test_one_hot_and_undersample_commute(self):
        matrix, vocabularies = pl.ordinal_matrix(synthetic_telco(2000, 1))
        a = pl.one_hot(pl.undersample(matrix, 5), vocabularies)
        b = pl.undersample(pl.one_hot(matrix, vocabularies), 5)
        assert a.data.tobytes() == b.data.tobytes()
        assert (a.column_names, a.labels.tobytes()) == (b.column_names, b.labels.tobytes())

    def test_one_hot_expands_only_the_undersampled_rows(self, monkeypatch):
        rows, one_hot = [], pl.one_hot
        monkeypatch.setattr(pl, "one_hot", lambda m, v: rows.append(m.n_rows) or one_hot(m, v))
        result = pl.run_preprocess(synthetic_telco(2000, 1), pl.PreprocessOptions(), 1)
        assert rows == [sum(result.report.class_counts_after.values())]
        assert result.report.class_counts_before != result.report.class_counts_after

    def test_preprocess_peak_memory(self):
        dataset = synthetic_telco(28_172, 3)
        tracemalloc.start()
        try:
            pl.run_preprocess(dataset, pl.PreprocessOptions(), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one-hot before undersampling, and a full SVD, peak near 25 MB
        assert peak < 18e6


class TestPreprocessInPlace:
    """run_preprocess frees each stage's input and updates one-hot's array in
    place; the blocked and in-place forms give the one-shot forms' bits."""

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 a caller holds its call's arguments until it returns")
    def test_run_matrix_frees_the_dataset_before_one_hot(self, monkeypatch):
        refs, alive, load, one_hot = [], [], runner.load_dataset, pl.one_hot

        def loading(config):
            dataset = load(config)
            refs.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(runner, "load_dataset", loading)
        monkeypatch.setattr(pl, "one_hot", lambda m, v: alive.append(refs[0]() is not None)
                            or one_hot(m, v))
        run = runner.run_matrix(config_from_dict({
            "dataset": {"synthetic_rows": 300}, "encodings": [{"kind": "classical"}],
            "models": [{"kind": "tree"}]}))
        assert alive == [False]
        assert run.manifest["rows"]["dataset"] == 300  # the sum of the class counts

    def test_preprocess_peak_memory_with_the_dataset_held(self):
        dataset = synthetic_telco(28_172, 3)
        tracemalloc.start()
        try:
            pl.run_preprocess(dataset, pl.PreprocessOptions(), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # stacked ordinal columns, the cut before undersampling, std's centred
        # copy, a second standardized matrix and pca_transform's centred copy
        # took it to 13-14 MB
        assert peak < 11e6

    @pytest.mark.parametrize("rows", [1, 2, 3, 500, 1025])
    def test_column_blocked_standardizer_is_the_one_shot(self, rows):
        rng = np.random.default_rng(rows)
        for d in range(1, 51):
            X = matrix_of(rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-4, 4, size=d))
            fitted = pl.Standardizer.fit(X)
            assert fitted.mean.tobytes() == X.data.mean(axis=0).tobytes(), d
            scale = X.data.std(axis=0)
            assert fitted.scale.tobytes() == np.where(scale == 0, 1.0, scale).tobytes(), d
            z = fitted.transform(X)  # still a new matrix; the input is untouched
            assert z.data is not X.data and not X.data.flags.writeable

    @pytest.mark.parametrize("rows, seed", [(500, 0), (7043, 1), (7043, 2)])
    def test_in_place_projection_is_pca_transform(self, monkeypatch, rows, seed):
        seen, fit, split = {}, pl.pca_fit, pl.train_test_split

        def fitting(matrix, k):  # a copy: run_preprocess centres the matrix after the fit
            seen["matrix"] = FeatureMatrix(matrix.data.copy(), matrix.column_names, matrix.labels)
            return fit(matrix, k)

        def splitting(scores, ratio, seed):
            seen["scores"] = scores
            return split(scores, ratio, seed)

        monkeypatch.setattr(pl, "pca_fit", fitting)
        monkeypatch.setattr(pl, "train_test_split", splitting)
        result = pl.run_preprocess(synthetic_telco(rows, seed), pl.PreprocessOptions(), seed)
        want = pl.pca_transform(result.pca, seen["matrix"])
        assert seen["scores"].data.tobytes() == want.data.tobytes()
        assert seen["scores"].column_names == want.column_names


class TestPreprocessOptions:
    @pytest.mark.parametrize("field, value", [
        ("n_components", 2.5), ("n_components", True), ("n_components", 0),
        ("n_components", "3"), ("corr_threshold", True), ("split_ratio", "0.5"),
        ("standardize", "no"), ("extra_drops", "gender"),
    ])
    def test_rejected_when_built(self, field, value):
        # typed, at construction: not a TypeError inside run_preprocess, and
        # never True run as 1 or 1.0
        with pytest.raises(ValueError, match=f"{field} must be .*, got"):
            pl.PreprocessOptions(**{field: value})

    @pytest.mark.parametrize("field, value, stored", [
        ("corr_threshold", np.float32(0.5), 0.5), ("vif_threshold", np.int64(5), 5.0),
        ("split_ratio", np.float64(0.5), 0.5), ("n_components", np.uint8(2), 2),
        ("n_components", np.int64(3), 3), ("standardize", np.bool_(False), False),
        *[(field, bad, REJECTED) for field in ("corr_threshold", "vif_threshold", "split_ratio")
          for bad in (True, np.bool_(True), math.nan, math.inf, -math.inf, "0.5")],
        ("n_components", np.bool_(True), REJECTED), ("n_components", math.nan, REJECTED),
        ("standardize", 0, REJECTED), ("standardize", np.int64(1), REJECTED),
        ("extra_drops", None, REJECTED), ("extra_drops", 3, REJECTED),
    ])
    def test_shared_rules(self, field, value, stored):
        # numpy scalars are stored as the Python numbers and bools they hold; a
        # bool is never a number, a real is finite, and a field of the wrong
        # container type is a typed error, not a TypeError
        if stored is REJECTED:
            with pytest.raises(ValueError, match=f"{field} must be .*, got"):
                pl.PreprocessOptions(**{field: value})
            return
        got = getattr(pl.PreprocessOptions(**{field: value}), field)
        assert (got, type(got)) == (stored, type(stored))

    @pytest.mark.parametrize("field", ["corr_threshold", "vif_threshold", "split_ratio"])
    def test_int_too_large_for_a_float_rejected(self, field):
        # such an int passes the type test, and math.isfinite of it overflowed
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number.*, got 1000"):
            pl.PreprocessOptions(**{field: 10**400})

    def test_numpy_scalars_stored_as_python_numbers(self):
        opts = pl.PreprocessOptions(n_components=np.int64(3), corr_threshold=np.float32(0.5),
                                    vif_threshold=12)
        assert opts == pl.PreprocessOptions(n_components=3, corr_threshold=0.5,
                                             vif_threshold=12.0)
        assert [type(v) for v in (opts.n_components, opts.corr_threshold,
                                  opts.vif_threshold)] == [int, float, float]

    def test_repeated_extra_drop_rejected(self):
        # run_preprocess would report the one drop once per repetition
        with pytest.raises(ValueError, match="extra_drops must name each column once"):
            pl.PreprocessOptions(extra_drops=("PhoneService", "gender", "PhoneService"))

    def test_extra_drops_stored_as_a_tuple(self):
        # a list would leave the frozen record unhashable
        opts = pl.PreprocessOptions(extra_drops=["tenure"])
        assert opts.extra_drops == ("tenure",)
        assert hash(opts) == hash(pl.PreprocessOptions(extra_drops=("tenure",)))


class TestRunPreprocess:
    def test_end_to_end(self):
        ds = synthetic_dataset()
        result = pl.run_preprocess(ds, pl.PreprocessOptions(), 11)
        report = result.report
        reasons = {d.name: d.reason for d in report.dropped}
        assert reasons["uid"] == "id"
        assert reasons["usage_total"] == "correlation"  # later column of the pair
        n_min = min(report.class_counts_before.values())
        assert set(report.class_counts_after.values()) == {n_min}
        assert result.train.n_cols == report.n_components
        total = result.train.n_rows + result.test.n_rows
        assert total == 2 * n_min

    @pytest.mark.parametrize("rows", [500, 7043])
    def test_preprocess_calls_no_linalg(self, refuse_linalg, rows):
        # configs/synthetic.json's draw, then at telco size: no LAPACK routine
        # runs, so none maps its pages and no BLAS kernel moves a report bit
        refuse_linalg()
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
        runner.preprocess_run(replace(cfg, synthetic_rows=rows))

    def test_bench_run_calls_no_linalg(self, refuse_linalg):
        # configs/synthetic.json's draw through every encoding, then the fit and
        # predict_proba of every model kind: a whole bench run maps no LAPACK code
        refuse_linalg()
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
        assert {spec.kind for spec in cfg.models} == set(MODEL_KINDS)
        cells = runner.run_matrix(cfg).results
        assert len(cells) == 28 and not any(cell.error for cell in cells)

    @pytest.mark.parametrize("seed", [-1, 2.0, "2", True,
                                      pytest.param(np.bool_(True), id="np-bool")])
    def test_seed_rejected(self, seed):
        # the seed is an argument, not a knob, and takes the one integer rule
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got"):
            pl.run_preprocess(synthetic_dataset(), pl.PreprocessOptions(), seed)

    def test_numpy_integer_seed_draws_as_the_int(self):
        a, b = (pl.run_preprocess(synthetic_dataset(), pl.PreprocessOptions(), seed)
                for seed in (np.int32(2), 2))
        assert split_checksum(a.train, a.test) == split_checksum(b.train, b.test)

    def test_deterministic(self):
        opts = pl.PreprocessOptions()
        a = pl.run_preprocess(synthetic_dataset(), opts, 21)
        b = pl.run_preprocess(synthetic_dataset(), opts, 21)
        assert np.array_equal(a.train.data, b.train.data)
        assert np.array_equal(a.test.data, b.test.data)
        assert np.array_equal(a.train.labels, b.train.labels)

    @pytest.mark.parametrize("n_features", [1, 2])
    def test_fewer_than_three_columns_have_no_elbow(self, n_features):
        # the elbow needs three explained-variance ratios; n_components stands in
        rng = np.random.default_rng(n_features)
        schema = tuple(ColumnSpec(f"f{j}", pl.NUMERIC) for j in range(n_features))
        rows = [(*rng.normal(size=n_features), "Yes" if i % 3 else "No") for i in range(90)]
        ds = make_dataset(rows, schema + (ColumnSpec("churn", pl.TARGET),))
        with pytest.raises(TooFewComponents, match=f"^{n_features} components have no elbow; "
                                                   "set n_components$"):
            pl.run_preprocess(ds, pl.PreprocessOptions())
        result = pl.run_preprocess(ds, pl.PreprocessOptions(n_components=n_features))
        assert result.report.elbow_index is None and result.report.cumulative_at_elbow is None
        assert result.train.n_cols == n_features

    def test_extra_drops_and_fixed_components(self):
        opts = pl.PreprocessOptions(extra_drops=("spend",), n_components=3)
        result = pl.run_preprocess(synthetic_dataset(), opts, 2)
        reasons = {d.name: d.reason for d in result.report.dropped}
        assert reasons["spend"] == "config"
        assert result.train.n_cols == 3

    def test_each_categorical_column_coded_once(self, monkeypatch):
        coded = []
        real_codes = pl._codes

        def counting_codes(values):
            coded.append(values)
            return real_codes(values)

        monkeypatch.setattr(pl, "_codes", counting_codes)
        ds = synthetic_dataset()
        pl.run_preprocess(ds, pl.PreprocessOptions(), 3)
        categorical = [c.name for c in ds.feature_specs() if c.kind == pl.CATEGORICAL]
        assert len(coded) == len(categorical) == 2

    def test_target_coded_once(self, monkeypatch):
        calls = []
        real_binary_labels = pl.binary_labels

        def counting_binary_labels(dataset):
            calls.append(dataset)
            return real_binary_labels(dataset)

        monkeypatch.setattr(pl, "binary_labels", counting_binary_labels)
        result = pl.run_preprocess(synthetic_dataset(), pl.PreprocessOptions(), 3)
        assert len(calls) == 1
        assert result.report.label_mapping == {"No": 0, "Yes": 1}

    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_constant_numeric_column_raises(self, value):
        ds = synthetic_telco(500, 0)
        ds.columns["MonthlyCharges"] = np.full(500, value)
        with pytest.raises(ZeroVariance, match="column 'MonthlyCharges' is constant"):
            pl.run_preprocess(ds, pl.PreprocessOptions())

    @pytest.mark.parametrize("kind, value", [(pl.NUMERIC, 3.5), (pl.CATEGORICAL, "red")])
    def test_lone_constant_column_raises(self, kind, value):
        # one feature column takes the path of many: the correlation matrix's
        # constancy check, not a fit on a column without information
        rows = [(value, "Yes" if i % 3 else "No") for i in range(90)]
        ds = make_dataset(rows, (ColumnSpec("x", kind), ColumnSpec("churn", pl.TARGET)))
        with pytest.raises(ZeroVariance, match="^column 'x' is constant$"):
            pl.run_preprocess(ds, pl.PreprocessOptions(n_components=1))

    def test_constant_column_error_names_the_first_in_schema_order(self):
        # every feature column enters one correlation matrix, so a constant
        # categorical column before a constant numeric one is the one named
        ds = synthetic_telco(500, 0)
        ds.columns["gender"] = ("Female",) * 500
        ds.columns["MonthlyCharges"] = np.full(500, 20.0)
        with pytest.raises(ZeroVariance, match="column 'gender' is constant"):
            pl.run_preprocess(ds, pl.PreprocessOptions())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correlation_drops_read_the_correlation_matrix(self, seed):
        ds = synthetic_telco(500, seed)
        ordinal, _ = pl.ordinal_matrix(ds)
        C = pl.correlation_matrix(ordinal)
        report = pl.run_preprocess(ds, pl.PreprocessOptions(), seed).report
        drops = [(d.name, d.statistic) for d in report.dropped if d.reason == "correlation"]
        names = ordinal.column_names
        tenure, charges = names.index("tenure"), names.index("TotalCharges")
        assert drops == [("TotalCharges", C[tenure, charges])]

    def test_one_correlation_matrix_per_run(self, monkeypatch):
        seen, real = [], pl.correlation_matrix
        monkeypatch.setattr(pl, "correlation_matrix", lambda m: seen.append(m.n_cols) or real(m))
        ds = synthetic_telco(500, 0)
        pl.run_preprocess(ds, pl.PreprocessOptions(extra_drops=("PhoneService",)))
        assert seen == [len(ds.feature_specs())]

    def test_target_with_one_value_names_the_column(self):
        ds = synthetic_telco(50, 0)
        ds.columns["Churn"] = ("No",) * 50
        with pytest.raises(SingleClass, match="target column 'Churn' has a single value 'No'"):
            pl.run_preprocess(ds, pl.PreprocessOptions())

    def test_target_with_three_values_names_the_column(self):
        ds = synthetic_dataset()
        ds.columns["churn"] = ("Maybe",) + tuple(ds.columns["churn"][1:])
        with pytest.raises(NonBinaryTarget, match="target column 'churn' has 3 values"):
            pl.run_preprocess(ds, pl.PreprocessOptions())

    def test_components_past_numerical_rank_are_noted(self):
        # at 500 rows the one-hot telco matrix has numerical rank 22
        note = "requested components exceed numerical rank"
        ds = synthetic_telco(500, 0)
        default = pl.run_preprocess(ds, pl.PreprocessOptions())
        assert note not in default.report.notes
        result = pl.run_preprocess(ds, pl.PreprocessOptions(n_components=40))
        assert note in result.report.notes
        assert result.train.n_cols == 40

    def test_too_many_components_is_typed(self):
        # the bound depends on the data, so it is checked here, not in the options
        with pytest.raises(TooFewComponents, match=r"n_components=500 outside \[1, \d+\]"):
            pl.run_preprocess(synthetic_dataset(), pl.PreprocessOptions(n_components=500))

    def test_split_leaving_a_class_out_of_train(self):
        ds = synthetic_dataset()
        # undersampling leaves each class with the minority's rows
        n_min = min(ds.columns["churn"].count(v) for v in ("No", "Yes"))
        opts = pl.PreprocessOptions(split_ratio=0.001)
        with pytest.raises(ClassTooSmall, match=(
            f"class 0 has {n_min} rows, so split_ratio 0.001 "
            "puts none of them in the train split"
        )):
            pl.run_preprocess(ds, opts)

    @pytest.mark.parametrize("name", [
        "churn",  # the target
        "uid",  # an id column
        "usage_total",  # dropped by the correlation stage
        "plan_typo",  # not in the schema
    ])
    def test_extra_drops_must_name_a_remaining_feature(self, name):
        opts = pl.PreprocessOptions(extra_drops=(name,))
        with pytest.raises(UnknownColumn, match=repr(name)):
            pl.run_preprocess(synthetic_dataset(), opts, 2)

    def test_extra_drops_of_every_feature_left_is_named(self):
        # the correlation stage drops usage_total; dropping the other four
        # leaves PCA nothing, which is the extra_drops stage's error, not PCA's
        ds = synthetic_dataset()
        report = pl.run_preprocess(ds, pl.PreprocessOptions(), 2).report
        dropped = {d.name for d in report.dropped}
        left = tuple(c.name for c in ds.feature_specs() if c.name not in dropped)
        assert left == ("plan", "region", "usage", "spend")
        with pytest.raises(TooFewComponents, match="^extra_drops: no feature column is left"):
            pl.run_preprocess(ds, pl.PreprocessOptions(extra_drops=left), 2)

    def test_report_serializes(self):
        import json

        result = pl.run_preprocess(synthetic_dataset(), pl.PreprocessOptions(), 1)
        text = json.dumps(asdict(result.report))
        assert "elbow_index" in text
