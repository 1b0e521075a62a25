import hashlib
import json
import os
import re
import stat
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmml import (
    CorruptMatrix,
    DataError,
    EmptyFile,
    EvalReport,
    GmmlConfig,
    InconsistentWidth,
    LabeledDataset,
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
import gmml.io
from gmml.io import _matrix_hash, _matrix_rows, format_report
from gmml.learn import LearnedMetric, MetricProvenance, Standardizer
from helpers import (
    _encode_labels_oracle,
    _traced_peak,
    load_dataset_oracle,
    make_blobs,
    metric_rows_oracle,
    rand_spd,
    write_csv,
)


def identity_metric(d=3):
    return matrix_metric(np.eye(d))


def matrix_metric(matrix):
    return LearnedMetric(
        matrix=np.asarray(matrix, dtype=float),
        config=GmmlConfig(),
        provenance=MetricProvenance(sim_count=0, dis_count=0, riccati_residual=0.0),
    )


def solved_metric(d, seed=3):
    rng = np.random.default_rng(seed)
    return solve(ScatterMatrices(s_mat=rand_spd(rng, d), d_mat=rand_spd(rng, d),
                                 sim_count=7, dis_count=9))


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


def test_load_folds_spellings_of_one_integer_label(tmp_path):
    path = tmp_path / "spellings.csv"
    path.write_text("1,1\n2,01\n3,0\n4,+1\n")
    data = load_dataset(path)
    assert data.labels.tolist() == [1, 1, 0, 1]
    assert data.label_names == ["0", "1"]


@pytest.mark.parametrize("tokens", [
    ["1", "01", "0", "+1"], ["1", "01", "5"], ["2", "0", "1", "2"], ["1.0", "0.0", "1.0"],
    ["b", "a b", "b"], ["0", "a", "1"], ["٣", "0", "1", "2"],
])
def test_encode_labels_matches_reference(tokens):
    codes, names = gmml.io._encode_labels(tokens)
    want_codes, want_names = _encode_labels_oracle(tokens)
    assert codes.dtype == np.int64
    assert codes.tolist() == want_codes.tolist()
    assert names == want_names


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


_TOKENS = ["", "0", "-1.5", "2.25e-3", "1_000", "1e308", "-1e308", "1e309", "-0.0", ".5",
           "+7", "nan", "inf", "-Infinity", "abc", "1.2.3", "0x10", "1e", "٣",
           "#1", '"1"', "'1'", "１２", "4.9e-324", "2.2250738585072014e-308", "0x1p3", "1d5",
           "0." + "1234567890" * 40]
_LABELS = {"dense": ["0", "1", "2"], "sparse": ["5", "7", "-1"], "text": ["a", "b", "a b"],
           "float": ["1.0", "0.0", "2.0"]}


@st.composite
def dataset_files(draw):
    """Delimited text files with or without faults, and a label column to read.

    The file has no byte-order mark: there the library loader deliberately
    differs from the oracle.
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
# U+001F is stripped like whitespace around a field, by both readers
@example(("1\x1f,0\n2,1\n3,0\n4,1\n", -1))
@example(("0,\x1f1\n1,2\n", 0))
# a row one column short, one column long, and an empty label on the last row
@example(("1,2,0\n3,4,1\n5,6\n7,8,1\n", -1))
@example(("1,2,0\n3,4,5,1\n5,6,0\n", -1))
@example(("1,2,0\n3,4,1\n5,6,\n", -1))
def test_load_dataset_matches_token_oracle(tmp_path_factory, file):
    text, label_column = file
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(load_dataset_oracle, path, label_column)
    assert _outcome(load_dataset, path, label_column) == want


def _assert_loads_without_token_loop(path, data, label_names, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a well-formed label-last CSV reached the token loop")

    monkeypatch.setattr("gmml.io._read_token_by_token", unreachable)
    loaded = load_dataset(path)
    assert loaded.points.flags.c_contiguous
    assert loaded.points.shape == data.points.shape
    assert loaded.points.tobytes() == data.points.tobytes()
    assert loaded.labels.tolist() == data.labels.tolist()
    assert loaded.label_names == label_names


def test_label_last_csv_skips_the_token_loop(tmp_path, monkeypatch):
    data = make_blobs(np.random.default_rng(2), n_per_class=10)
    path = tmp_path / "blobs.csv"
    write_csv(path, data)
    _assert_loads_without_token_loop(path, data, ["0", "1"], monkeypatch)


@pytest.mark.parametrize("text,label_names", [
    ("1.5,2, a\n-3,4e-3,b \n0.25,7, a\n", ["a", "b"]),
    # one feature: the record layout's float field is a width-1 subarray
    ("1.5,1\n-2,0\n3,1\n", ["0", "1"]),
], ids=["padded-string-labels", "one-feature"])
def test_label_last_csv_variants_skip_the_token_loop(tmp_path, monkeypatch, text, label_names):
    path = tmp_path / "data.csv"
    path.write_text(text)
    data = load_dataset_oracle(path)
    _assert_loads_without_token_loop(path, data, label_names, monkeypatch)


@pytest.mark.parametrize("text,error,line", [
    ("1,2,0\n3,4,1\n5,6\n7,8,1\n", InconsistentWidth, 3),
    ("1,2,0\n3,4,5,1\n5,6,0\n", InconsistentWidth, 2),
    ("1,2,0\n3,4,1\n5,6,\n", ParseError, 3),
], ids=["short-row", "long-row", "empty-last-label"])
def test_numpy_parse_refuses_and_token_loop_names_the_line(tmp_path, text, error, line):
    assert gmml.io._read_well_formed(text.splitlines(), -1) is None
    path = tmp_path / "fault.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_dataset(path)
    assert info.value.line_number == line


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
    assert fingerprint_dataset(LabeledDataset(points=moved, labels=data.labels)) != base

    flipped = data.labels.copy()
    flipped[0] = 1 - flipped[0]
    assert fingerprint_dataset(LabeledDataset(points=data.points, labels=flipped)) != base


def test_content_hashes_are_pinned():
    # literal digests: a change to the hash recipe changes every fingerprint
    # and prior_hash already written
    assert _matrix_hash(np.diag([1.0, 2.0, 3.0])) == "e70aa2124c0a4c1a"
    data = LabeledDataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]))
    assert fingerprint_dataset(data).content_hash == "9c29096d430785c1"


_GRID = np.arange(24.0).reshape(4, 6)


@pytest.mark.parametrize("a", [_GRID, np.asfortranarray(_GRID), _GRID[::2, 1::3],
                               np.arange(12, dtype=np.int64).reshape(3, 4), np.empty((0, 3))],
                         ids=["c-order", "fortran", "strided", "int64", "empty"])
def test_matrix_hash_digests_the_c_ordered_bytes(a):
    # the digest of the buffer is that of the bytes of its C-ordered copy
    want = hashlib.blake2b(digest_size=8)
    for chunk in (repr(a.shape).encode(), np.ascontiguousarray(a).tobytes(), a.T.tobytes()):
        want.update(chunk)
    assert _matrix_hash(a, a.T) == want.hexdigest()


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
    assert np.array_equal(loaded.matrix.view(np.int64), metric.matrix.view(np.int64))
    assert loaded.provenance.riccati_residual == metric.provenance.riccati_residual
    assert loaded.provenance.sim_count == 7 and loaded.provenance.dis_count == 9
    assert loaded.config.t == 0.5 and loaded.config.lam == 0.0
    assert loaded.provenance.fingerprint == "n=4 d=4 c=2 hash=beef"
    # -0.0 == 0.0, so the SPD check accepts this matrix, and only its bits
    # show a writer that copies an entry's mirror in place of the entry
    signed_zeros = matrix_metric([[1.0, -0.0], [0.0, 1.0]])
    save_metric(signed_zeros, path)
    assert np.array_equal(load_metric(path).matrix.view(np.int64),
                          signed_zeros.matrix.view(np.int64))


def standardized_metric(d=3):
    rng = np.random.default_rng(5)
    # awkward floats, so a reader that rounds any of them shows
    z = Standardizer(rng.normal(size=d) * 1e4 + 0.1, rng.uniform(1e-3, 1e3, size=d) / 3)
    return solve(ScatterMatrices(s_mat=rand_spd(rng, d), d_mat=rand_spd(rng, d),
                                 sim_count=7, dis_count=9), standardizer=z)


def test_metric_standardizer_round_trips_bit_for_bit(tmp_path):
    metric = standardized_metric()
    path = tmp_path / "m.gmml"
    save_metric(metric, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "gmml-metric 2"
    assert f"mu: {' '.join(map(repr, metric.standardizer.mu.tolist()))}" in lines
    assert f"sigma: {' '.join(map(repr, metric.standardizer.sigma.tolist()))}" in lines
    loaded = load_metric(path)
    for key in ("mu", "sigma"):
        assert np.array_equal(getattr(loaded.standardizer, key).view(np.int64),
                              getattr(metric.standardizer, key).view(np.int64))
    assert np.array_equal(loaded.matrix.view(np.int64), metric.matrix.view(np.int64))


def test_metric_without_standardizer_stays_version_1(tmp_path):
    path = tmp_path / "m.gmml"
    save_metric(solved_metric(3), path)
    text = path.read_text()
    assert text.startswith("gmml-metric 1\n")
    assert "\nmu:" not in text and "\nsigma:" not in text
    assert load_metric(path).standardizer is None


def test_metric_version_1_file_loads(tmp_path):
    path = tmp_path / "m.gmml"
    path.write_text(
        "gmml-metric 1\ndim: 2\nt: 0.5\nlambda: 0.0\nprior_hash: identity\n"
        "riccati_residual: 2.609219491997483e-16\nsim_count: 38\ndis_count: 42\n"
        "created: 2026-08-14T09:35:09.614856+00:00\n"
        "fingerprint: n=40 d=2 c=2 hash=13a1b953eacea658\nmatrix:\n"
        "5.504768450088025 4.510316499330826\n4.510316499330826 5.279993010418683\n"
    )
    loaded = load_metric(path)
    assert loaded.standardizer is None
    assert loaded.matrix[0, 1] == 4.510316499330826


@pytest.mark.parametrize("edit", [
    lambda text: re.sub(r"^sigma: .*\n", "", text, flags=re.MULTILINE),
    lambda text: re.sub(r"^(mu: \S+) \S+", r"\1", text, flags=re.MULTILINE),
    lambda text: re.sub(r"^(sigma: )\S+", r"\g<1>0.0", text, flags=re.MULTILINE),
    lambda text: re.sub(r"^(mu: )\S+", r"\g<1>nan", text, flags=re.MULTILINE),
    lambda text: re.sub(r"^(mu: )\S+", r"\g<1>x", text, flags=re.MULTILINE),
], ids=["no-sigma", "short-mu", "zero-sigma", "nan-mu", "bad-token"])
def test_metric_version_2_needs_a_valid_standardizer(tmp_path, edit):
    path = tmp_path / "m.gmml"
    save_metric(standardized_metric(), path)
    text = path.read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    with pytest.raises(CorruptMatrix):
        load_metric(path)


def test_metric_of_dimension_zero_is_corrupt(tmp_path):
    # dim 0 with an empty matrix section agrees with itself, but no metric
    # has dimension 0: the header is malformed, and the error names the file
    path = tmp_path / "m.gmml"
    save_metric(solved_metric(2), path)
    text = path.read_text()
    path.write_text(re.sub(r"^dim: 2$", "dim: 0", text[:text.index("matrix:\n") + 8],
                           flags=re.MULTILINE))
    with pytest.raises(CorruptMatrix, match=r"m\.gmml has a malformed header: dim must be >= 1"):
        load_metric(path)


HAND_BUILT_SPD = {
    "subnormals": [[1.0, 5e-324, 0.0], [5e-324, 1.0, -2.2250738585072e-310],
                   [0.0, -2.2250738585072e-310, 1.0]],
    "tenths": np.full((4, 4), 0.1) + np.eye(4),
    "huge": [[4e300, 1e300, -1e300], [1e300, 4e300, 1e300], [-1e300, 1e300, 4e300]],
    "integers": [[4.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 3.0, 6.0]],
    "signed-zeros": [[1.0, -0.0], [0.0, 1.0]],
}


def wide_signed_zeros(d=320):
    """An SPD matrix of dimension d whose column caches grow long, with
    ±0.0 mirror pairs far from the diagonal and in the last column, -0.0
    above the diagonal in some and below it in others."""
    m = rand_spd(np.random.default_rng(11), d)
    for i, j in ((0, 250), (40, d - 1), (d - 2, d - 1)):
        m[i, j], m[j, i] = -0.0, 0.0
    for i, j in ((3, 290), (1, d - 1)):
        m[i, j], m[j, i] = 0.0, -0.0
    return m


@pytest.mark.parametrize(
    "metric",
    [solved_metric(d) for d in (1, 2, 3, 17, 64)]
    + [matrix_metric(m) for m in HAND_BUILT_SPD.values()]
    + [matrix_metric(wide_signed_zeros())],
    ids=[f"solve-d{d}" for d in (1, 2, 3, 17, 64)] + list(HAND_BUILT_SPD)
    + ["signed-zeros-d320"],
)
def test_metric_matrix_section_is_repr_of_every_entry(tmp_path, metric):
    path = tmp_path / "m.gmml"
    save_metric(metric, path)
    assert path.read_text().split("matrix:\n", 1)[1] == metric_rows_oracle(metric.matrix)


MIRROR_PRONE = st.sampled_from([0.0, -0.0, 0.1, 1.0, -1.0, 5e-324, 1e300, float("nan"),
                                float("inf")])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: hnp.arrays(np.float64, (d, d), elements=MIRROR_PRONE)))
def test_matrix_rows_match_the_oracle_on_any_square_matrix(m):
    # few distinct values, so mirrors often agree bit for bit and sometimes not
    assert "".join(_matrix_rows(m)) == metric_rows_oracle(m)
    assert "".join(_matrix_rows(m.T)) == metric_rows_oracle(m.T)


def test_matrix_rows_hold_the_pending_tokens_as_bytes():
    # at its peak the writer holds the tokens still due left of the
    # diagonal, one byte per character and one per terminator, not d²/4
    # string objects; slack for each bytearray's growth (at most an eighth
    # above its size) and 256 bytes per column for the bytearrays and one
    # row's text, token list and decoded line
    d = 512
    m = solved_metric(d).matrix
    sizes = np.array([[len(repr(x)) + 1 for x in row] for row in m.tolist()])
    upper = np.triu(sizes, 1)
    pending = max(upper[: i + 1, i + 1:].sum() for i in range(d))
    peak = _traced_peak(deque, _matrix_rows(m), 0)
    assert peak <= pending + pending // 8 + 256 * d


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


def test_metric_blank_lines_in_the_matrix_section_are_skipped(tmp_path):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(2), path)
    path.write_text(path.read_text().replace("\n1.0 0.0\n", "\n\n1.0 0.0\n  \n", 1) + "\n")
    assert np.array_equal(load_metric(path).matrix, np.eye(2))


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


def test_metric_write_failing_mid_stream_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.gmml"
    save_metric(identity_metric(3), path)
    before = path.read_bytes()
    calls = []

    def failing_repr(x):
        calls.append(x)
        if len(calls) == 40:  # in row 2 of 16, after rows 0 and 1 were yielded
            raise RuntimeError("write failed")
        return repr(x)

    monkeypatch.setattr(gmml.io, "repr", failing_repr, raising=False)
    with pytest.raises(RuntimeError, match="write failed"):
        save_metric(solved_metric(16), path)
    assert len(calls) == 40
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.gmml"]


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
