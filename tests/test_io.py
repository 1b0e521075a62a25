import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmml import (
    CorruptMatrix,
    DataError,
    EmptyFile,
    EvalReport,
    GmmlConfig,
    InconsistentWidth,
    ParseError,
    RunRecord,
    ScatterMatrices,
    VersionMismatch,
    fingerprint_dataset,
    load_dataset,
    load_metric,
    read_report,
    save_metric,
    solve,
    write_report,
)
from gmml.io import format_report
from gmml.learn import LearnedMetric, MetricProvenance
from helpers import load_dataset_oracle, make_blobs, rand_spd, write_csv


def identity_metric(d=3):
    return LearnedMetric(
        matrix=np.eye(d),
        config=GmmlConfig(),
        provenance=MetricProvenance(sim_count=0, dis_count=0, riccati_residual=0.0),
    )


def tiny_report(name="tiny", error=0.25):
    record = RunRecord(run=0, fold=0, error_rate=error, chosen_t=0.5,
                       learn_time=0.01, total_time=0.02, n_train=8, n_test=4)
    return EvalReport(
        dataset_name=name, fingerprint="n=12 d=2 c=2 hash=00ff", seed=3, k=5,
        t_mode="cv", lam=0.0, constraint_count=80, n_runs=1, n_folds=2,
        baseline=False, standardize=False, records=(record,),
        mean_error=error, std_error=0.0, mean_learn_time=0.01,
        mean_total_time=0.02, label_names=("a", "b"),
    )


# ------------------------------------------------------------------ load_dataset

def test_load_two_row_string_labels(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,0,A\n1,1,B\n")
    data = load_dataset(path, label_column=2)
    assert data.n_points == 2 and data.n_features == 2 and data.num_classes == 2
    assert data.labels.tolist() == [0, 1]
    assert data.label_names == ["A", "B"]


def test_load_non_numeric_feature_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,0\n1,oops,1\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    assert info.value.line_number == 2
    assert "oops" in str(info.value)


def test_load_iris_shaped_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "iris_like.csv"
    rows = []
    for i in range(150):
        feats = rng.normal(size=4)
        rows.append(",".join(f"{v:.4f}" for v in feats) + f",{i % 3}")
    path.write_text("\n".join(rows) + "\n")
    data = load_dataset(path)
    assert data.n_points == 150 and data.n_features == 4 and data.num_classes == 3


def test_load_whitespace_delimited(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("1.0 2.0 0\n3.0  4.0 1\n")
    data = load_dataset(path)
    assert data.n_points == 2 and data.n_features == 2
    assert data.labels.tolist() == [0, 1]


def test_load_label_column_selection(tmp_path):
    path = tmp_path / "first.csv"
    path.write_text("A,1,2\nB,3,4\n")
    data = load_dataset(path, label_column=0)
    assert data.labels.tolist() == [0, 1]
    np.testing.assert_allclose(data.points, [[1, 2], [3, 4]])


def test_load_inconsistent_width_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,0\n1,2,3,0\n")
    with pytest.raises(InconsistentWidth) as info:
        load_dataset(path)
    assert info.value.line_number == 2


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(EmptyFile):
        load_dataset(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1,2,0\n\n3,4,1\n\n")
    assert load_dataset(path).n_points == 2


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,2,0\ninf,4,1\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    assert info.value.line_number == 2


def test_load_keeps_dense_integer_labels(tmp_path):
    path = tmp_path / "dense.csv"
    path.write_text("1,2\n2,0\n3,1\n")
    data = load_dataset(path)
    assert data.labels.tolist() == [2, 0, 1]


def test_load_remaps_sparse_integer_labels(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("1,5\n2,7\n3,5\n")
    data = load_dataset(path)
    assert data.labels.tolist() == [0, 1, 0]
    assert data.label_names == ["5", "7"]


def test_load_label_column_out_of_range(tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("1,2,0\n")
    with pytest.raises(ParseError):
        load_dataset(path, label_column=5)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "nope.csv")


def test_load_float_looking_labels_are_strings(tmp_path):
    path = tmp_path / "floats.csv"
    path.write_text("1,2,1.0\n3,4,0.0\n5,6,2.0\n7,8,0.0\n")
    data = load_dataset(path)
    assert data.labels.tolist() == [0, 1, 2, 1]
    assert data.label_names == ["1.0", "0.0", "2.0"]


def test_load_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"1,2,0\r\n3,4,1\r\n\r\n")
    data = load_dataset(path)
    assert data.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.labels.tolist() == [0, 1]


def test_load_delimiter_comes_from_first_row(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("1 2 0\n3,4,1\n")
    with pytest.raises(InconsistentWidth) as info:
        load_dataset(path)
    assert info.value.line_number == 2


@pytest.mark.parametrize("text,label_column", [("1.0,2.0,0\n3.0,4.0,1\n", -1),
                                                ("0,1.0,2.0\n1,3.0,4.0\n", 0)],
                         ids=["label-last", "label-first"])
def test_load_ignores_byte_order_mark(tmp_path, text, label_column):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = load_dataset(plain, label_column=label_column)
    got = load_dataset(marked, label_column=label_column)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.labels.tolist() == want.labels.tolist() == [0, 1]
    assert got.label_names == want.label_names == ["0", "1"]


def test_load_rejects_empty_label(tmp_path):
    path = tmp_path / "trailing.csv"
    path.write_text("1,2,0,\n3,4,1,\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    assert info.value.line_number == 1
    assert "empty label" in str(info.value)


def test_load_rejects_empty_feature(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("1,2,0\n3, ,1\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    assert info.value.line_number == 2
    assert "non-numeric feature value ''" in str(info.value)


_TOKENS = ["0", "-1.5", "2.25e-3", "1_000", "1e308", "-1e308", "1e309", "-0.0", ".5",
           "+7", "nan", "inf", "-Infinity", "abc", "1.2.3", "0x10", "1e", "٣",
           "#1", '"1"', "'1'", "１２", "4.9e-324", "2.2250738585072014e-308", "0x1p3", "1d5",
           "0." + "1234567890" * 40]
_LABELS = {"dense": ["0", "1", "2"], "sparse": ["5", "7", "-1"], "text": ["a", "b", "a b"],
           "float": ["1.0", "0.0", "2.0"]}


@st.composite
def dataset_files(draw):
    """Delimited text files with or without faults, and a label column to read.

    Fields are never empty and the file has no byte-order mark: there the
    library loader deliberately differs from the oracle.
    """
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 5, 5]))
    comma = draw(st.booleans())
    labels = _LABELS[draw(st.sampled_from(sorted(_LABELS)))]
    label_column = draw(st.sampled_from([0, width // 2, width - 1, -1, -1, -width, width, -width - 1]))
    col = label_column if label_column >= 0 else width + label_column
    clean = draw(st.integers(0, 2)) == 0
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 4, 4, 6, 6, 8, 8]))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        row_width = width if clean or draw(st.integers(0, 15)) else draw(st.integers(1, 6))
        tokens = []
        for j in range(row_width):
            if j == col:
                tokens.append(draw(st.sampled_from(labels)) if clean or draw(st.integers(0, 7))
                              else draw(st.sampled_from(_TOKENS)))
            elif clean or draw(st.integers(0, 5)):
                tokens.append(draw(number))
            else:
                tokens.append(draw(st.sampled_from(_TOKENS)))
        row_comma = comma if clean or draw(st.integers(0, 15)) else not comma
        if row_comma:
            line = ",".join(draw(pad) + tok + draw(pad) for tok in tokens)
        else:
            line = " ".join(tok.replace(" ", "_") for tok in tokens)
        lines.append(draw(pad) + line + draw(pad))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), label_column


def _outcome(load, path, label_column):
    try:
        data = load(path, label_column=label_column)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return data.points.tobytes(), data.points.shape, data.labels.tolist(), data.label_names


@settings(max_examples=400, deadline=None)
@given(dataset_files())
@example(("1_000, 1e308,0\n2,3,1\n", -1))
@example(("1 nan 0\n2 abc 1\n", -1))
@example(("1,abc,0\n2,3\n", -1))
@example(("1,inf,abc,0\n2,3,4,1\n", -1))
@example(("1,abc,nan,0\n2,3,4,1\n", -1))
@example(("1,inf,abc,0\n", 5))
@example(("a,1,2\nb,inf,x\nc,oops,4\n", 0))
@example(("0,1,2\n", 7))
@example(("0,0\n0,0\n0,0,0", 0))
@example(("0,0\n0,0\n0,0,0", -1))
@example(("1,2,0\n1,2\n", -1))
@example(("1.5,a,2\n-3,b,4e-3\n", 1))
@example(("1_000,１２,0\n2,3,1\n", -1))
def test_load_dataset_matches_token_oracle(tmp_path_factory, file):
    text, label_column = file
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(load_dataset_oracle, path, label_column)
    assert _outcome(load_dataset, path, label_column) == want


def test_label_last_csv_skips_the_token_loop(tmp_path, monkeypatch):
    data = make_blobs(np.random.default_rng(2), n_per_class=10)
    path = tmp_path / "blobs.csv"
    write_csv(path, data)

    def unreachable(*args):
        raise AssertionError("a well-formed label-last CSV reached the token loop")

    monkeypatch.setattr("gmml.io._read_token_by_token", unreachable)
    loaded = load_dataset(path)
    assert loaded.points.tobytes() == data.points.tobytes()
    assert loaded.labels.tolist() == data.labels.tolist()


# ------------------------------------------------------------------ fingerprint

def test_fingerprint_stable_across_loads(tmp_path):
    data = make_blobs(np.random.default_rng(1), n_per_class=10)
    path = tmp_path / "blobs.csv"
    write_csv(path, data)
    fp1 = fingerprint_dataset(load_dataset(path))
    fp2 = fingerprint_dataset(load_dataset(path))
    assert fp1 == fp2
    assert fp1.n == 20 and fp1.d == 2 and fp1.c == 2
    assert len(fp1.content_hash) == 16


def test_fingerprint_changes_with_points_or_labels():
    data = make_blobs(np.random.default_rng(2), n_per_class=10)
    base = fingerprint_dataset(data)

    moved = data.points.copy()
    moved[0, 0] += 1e-9
    from gmml import LabeledDataset
    assert fingerprint_dataset(LabeledDataset(points=moved, labels=data.labels)) != base

    flipped = data.labels.copy()
    flipped[0] = 1 - flipped[0]
    assert fingerprint_dataset(LabeledDataset(points=data.points, labels=flipped)) != base


# ------------------------------------------------------------ metric round trip

def test_metric_round_trip_identity(tmp_path):
    path = tmp_path / "id.gmml"
    save_metric(identity_metric(3), path)
    loaded = load_metric(path)
    assert np.array_equal(loaded.matrix, np.eye(3))


def test_metric_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    sc = ScatterMatrices(s_mat=rand_spd(rng, 4), d_mat=rand_spd(rng, 4),
                         sim_count=7, dis_count=9)
    metric = solve(sc, fingerprint="n=4 d=4 c=2 hash=beef")
    path = tmp_path / "m.gmml"
    save_metric(metric, path)
    loaded = load_metric(path)
    assert np.array_equal(loaded.matrix, metric.matrix)
    assert loaded.provenance.riccati_residual == metric.provenance.riccati_residual
    assert loaded.provenance.sim_count == 7 and loaded.provenance.dis_count == 9
    assert loaded.config.t == 0.5 and loaded.config.lam == 0.0
    assert loaded.provenance.fingerprint == "n=4 d=4 c=2 hash=beef"


def test_metric_truncated_file_never_partial(tmp_path):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(3), path)
    text = path.read_text()
    for cut in (len(text) // 3, 2 * len(text) // 3, len(text) - 5):
        clipped = tmp_path / "clipped.gmml"
        clipped.write_text(text[:cut])
        with pytest.raises((CorruptMatrix, ParseError)):
            load_metric(clipped)


def test_metric_version_mismatch_refused(tmp_path):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(2), path)
    bumped = path.read_text().replace("gmml-metric 1", "gmml-metric 99", 1)
    path.write_text(bumped)
    with pytest.raises(VersionMismatch):
        load_metric(path)


def test_metric_non_spd_content_rejected(tmp_path):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(2), path)
    # flip one diagonal entry negative: still parses, fails the SPD check
    doctored = path.read_text().replace("\n1.0 0.0\n", "\n-1.0 0.0\n", 1)
    path.write_text(doctored)
    with pytest.raises(CorruptMatrix):
        load_metric(path)


def test_metric_load_checks_spd_once(tmp_path, monkeypatch):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(3), path)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    load_metric(path)
    assert len(calls) == 1


def test_metric_wrong_magic_rejected(tmp_path):
    path = tmp_path / "m.gmml"
    path.write_text("something else\n")
    with pytest.raises(ParseError):
        load_metric(path)


# ----------------------------------------------------------------- report files

def test_report_table_single_run(tmp_path):
    path = tmp_path / "rep.txt"
    write_report(tiny_report(), path, fmt="table")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header, rule, one data row
    assert "tiny" in lines[2]
    assert "0.2500" in lines[2]


def test_report_json_round_trip(tmp_path):
    report = tiny_report()
    path = tmp_path / "rep.json"
    write_report(report, path, fmt="json")
    assert read_report(path) == report


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_report_file_is_format_report_text(tmp_path, fmt):
    path = tmp_path / "rep"
    write_report(tiny_report(), path, fmt=fmt)
    assert path.read_text() == format_report(tiny_report(), fmt) + "\n"


def test_report_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        format_report(tiny_report(), "xml")
    with pytest.raises(ValueError):
        write_report(tiny_report(), tmp_path / "rep.xml", fmt="xml")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, kind", [("[]", "list"), ("3", "int")])
def test_read_report_refuses_a_document_that_is_not_an_object(tmp_path, text, kind):
    path = tmp_path / "rep.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}.*not a {kind}"):
        read_report(path)


@pytest.mark.parametrize("text, cause", [
    ("{}", "KeyError"),
    ("not json", "JSONDecodeError"),
    ('{"records": []}', "TypeError"),
])
def test_read_report_malformed_document_is_a_parse_error_naming_the_file(tmp_path, text,
                                                                         cause):
    path = tmp_path / "rep.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}.*{cause}") as info:
        read_report(path)
    assert type(info.value.__cause__).__name__ == cause


def test_read_report_unknown_field_is_a_parse_error(tmp_path):
    path = tmp_path / "rep.json"
    write_report(tiny_report(), path, fmt="json")
    doc = json.loads(path.read_text())
    doc["surplus"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="surplus"):
        read_report(path)


def test_writers_leave_no_temp_files(tmp_path):
    write_report(tiny_report(), tmp_path / "rep.json", fmt="json")
    save_metric(identity_metric(2), tmp_path / "m.gmml")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["m.gmml", "rep.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_writers_give_new_files_the_mode_open_gives(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        save_metric(identity_metric(2), tmp_path / "m.gmml")
        write_report(tiny_report(), tmp_path / "rep.json", fmt="json")
    finally:
        os.umask(previous)
    for name in ("m.gmml", "rep.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
