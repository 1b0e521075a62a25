import contextlib
import dataclasses
import gc
import importlib.metadata
import io
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import gmml
from gmml import (
    ConvergenceError,
    CorruptMatrix,
    GmmlConfig,
    NotPositiveDefinite,
    ParseError,
    ScatterMatrices,
    check_spd,
    load_dataset,
    load_metric,
    sample_constraints,
    save_metric,
    scatter_matrices,
    solve,
)
from gmml.cli import main
from gmml.io import _matrix_hash
from gmml.spd import sym_eigen
from gmml.learn import LearnedMetric, MetricProvenance
from gmml.evaluation import TIMING_FIELDS
from helpers import make_anisotropic, make_blobs, write_csv


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def blobs_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    write_csv(path, make_blobs(np.random.default_rng(0), n_per_class=20))
    return path


@pytest.fixture()
def degenerate_csv(tmp_path):
    # constant second feature: scatter matrices are singular without a prior
    rng = np.random.default_rng(1)
    rows = []
    for i in range(16):
        label = i % 2
        rows.append(f"{rng.normal(5.0 * label):.6f},0.0,{label}")
    path = tmp_path / "degenerate.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def all_text(result):
    # result.output interleaves stdout and stderr under this click version
    return result.output


def strip_timing(doc):
    doc = {k: v for k, v in doc.items() if k not in TIMING_FIELDS}
    doc["records"] = [
        {k: v for k, v in rec.items() if k not in TIMING_FIELDS}
        for rec in doc["records"]
    ]
    return doc


# ----------------------------------------------------------------------- learn

def test_learn_defaults_writes_valid_metric(runner, blobs_csv, tmp_path):
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(blobs_csv), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "constraints=80" in result.stderr
    assert f"wrote metric to {out}" in result.stderr
    metric = load_metric(out)
    assert metric.dim == 2
    assert metric.provenance.riccati_residual <= 1e-8


def test_learn_regularized_on_rank_deficient_data(runner, degenerate_csv, tmp_path):
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(degenerate_csv), "--lambda", "0.1",
                                  "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert out.exists()


def _metric_header(path):
    """The ``key: value`` lines of a metric file between its magic line and
    ``matrix:``, as a dict, and its matrix section's text."""
    head, matrix = path.read_text().split("matrix:\n")
    return dict(line.split(": ", 1) for line in head.splitlines()[1:]), matrix


def test_learn_standardize_matches_pre_standardized_data(runner, tmp_path):
    # --standardize z-scores by the dataset's mean and std, mapping the std
    # of a constant column to 1; the metric is that of the z-scored file,
    # and the file says so with the statistics it was learned under
    data = make_anisotropic(np.random.default_rng(9), n_per_class=15, d=3)
    points = data.points.copy()
    points[:, 1] = 4.0
    mu, sigma = points.mean(axis=0), points.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    files = {}
    for name, pts, flags in (("raw", points, ["--standardize"]),
                             ("z", (points - mu) / sigma, [])):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.gmml"
        write_csv(path, dataclasses.replace(data, points=pts))
        result = runner.invoke(main, ["learn", str(path), "--lambda", "0.1", *flags,
                                      "--out", str(out)])
        assert result.exit_code == 0, all_text(result)
        files[name] = out
    (raw, raw_matrix), (z, z_matrix) = map(_metric_header, (files["raw"], files["z"]))
    assert raw_matrix == z_matrix
    assert files["raw"].read_text().startswith("gmml-metric 2\n")
    assert files["z"].read_text().startswith("gmml-metric 1\n")
    assert raw.pop("mu") == " ".join(map(repr, mu.tolist()))
    assert raw.pop("sigma") == " ".join(map(repr, sigma.tolist()))
    # each fingerprint is that of its own file
    for header in (raw, z):
        del header["created"], header["fingerprint"]
    assert raw == z


def test_learn_standardize_fingerprints_the_file(runner, tmp_path):
    path, out = tmp_path / "scaled.csv", tmp_path / "m.gmml"
    write_csv(path, _scaled_problem(np.random.default_rng(3), 40))
    fingerprints = []
    for argv in (["learn", str(path), "--standardize", "--out", str(out)],
                 ["learn", str(path), "--out", str(tmp_path / "plain.gmml")],
                 ["eval", "--data", str(path), "--metric", "identity"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, all_text(result)
        fingerprints.append(re.search(r"fingerprint=(\S+)", result.stderr).group(1))
    assert len(set(fingerprints)) == 1
    assert _metric_header(out)[0]["fingerprint"].endswith(f"hash={fingerprints[0]}")


def test_learn_records_the_midpoint_residual_at_every_t(runner, blobs_csv, tmp_path):
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(blobs_csv), "--t", "0.3", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert load_metric(out).provenance.riccati_residual < 1e-12


def test_learn_prior_file_blends_the_saved_metric(runner, blobs_csv, tmp_path):
    prior_path, out = tmp_path / "prior.gmml", tmp_path / "m.gmml"
    assert runner.invoke(main, ["learn", str(blobs_csv), "--t", "0.3",
                                "--out", str(prior_path)]).exit_code == 0
    result = runner.invoke(main, ["learn", str(blobs_csv), "--prior", str(prior_path),
                                  "--lambda", "0.5", "--seed", "4", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    prior = load_metric(prior_path).matrix
    header = dict(line.split(": ", 1) for line in out.read_text().splitlines()[1:10])
    assert header["prior_hash"] == _matrix_hash(prior) != "identity"

    data = load_dataset(blobs_csv)
    sc = scatter_matrices(data, sample_constraints(data, 80, 4))
    expected = solve(sc, GmmlConfig(lam=0.5, prior=prior)).matrix
    np.testing.assert_array_equal(load_metric(out).matrix, expected)


@pytest.mark.parametrize("argv", [
    ["learn", "--lambda", "0.5"],
    ["learn", "--lambda", "0.5", "--t", "cv"],
    ["benchmark", "--lambda", "0.5", "--t", "cv", "--runs", "2"],
], ids=["learn", "learn-cv", "benchmark-cv"])
def test_a_prior_file_is_checked_once(runner, blobs_csv, tmp_path, monkeypatch, argv):
    # load_metric's check_spd is the one eigvalsh of a --prior run: the
    # config does not repeat it, nor does each fit at its cross-validated
    # t, and every fit's own factors prove its metrics SPD
    prior = tmp_path / "prior.gmml"
    assert runner.invoke(main, ["learn", str(blobs_csv), "--out", str(prior)]).exit_code == 0
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
    command, *options = argv
    result = runner.invoke(main, [command, str(blobs_csv), "--prior", str(prior), *options,
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, all_text(result)
    assert calls == [(2, 2)]


def test_learn_rejects_t_out_of_range_before_work(runner, blobs_csv, tmp_path):
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(blobs_csv), "--t", "1.5",
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_learn_singular_scatter_suggests_lambda(runner, degenerate_csv, tmp_path):
    result = runner.invoke(main, ["learn", str(degenerate_csv),
                                  "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 4
    assert "increase --lambda" in all_text(result)
    # the exception's text is the one hint
    assert "(hint:" not in result.stderr
    assert result.stderr.count("--lambda") == 1


def test_learn_parse_error_exits_with_data_code(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,0\n1,oops,1\n")
    result = runner.invoke(main, ["learn", str(bad), "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 3
    assert "line 2" in all_text(result)


@pytest.mark.parametrize("text,message", [("1,2,0,\n3,4,1,\n", "line 1: empty label"),
                                          ("1,2,0\n3,,1\n", "line 2: non-numeric feature value ''")],
                         ids=["empty-label", "empty-feature"])
def test_learn_empty_field_exits_with_data_code(runner, tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    result = runner.invoke(main, ["learn", str(bad), "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 3
    assert message in all_text(result)


@pytest.mark.parametrize("text,args", [("1\x1f,0\n2,1\n3,0\n4,1\n", []),
                                       ("0,\x1f1\n1,2\n0,3\n1,4\n", ["--label-column", "0"])],
                         ids=["label-last", "label-first"])
def test_learn_strips_unit_separator_around_a_feature(runner, tmp_path, text, args):
    # U+001F is whitespace to str.strip() but not to float()
    path, clean = tmp_path / "us.csv", tmp_path / "clean.csv"
    path.write_text(text)
    clean.write_text(text.replace("\x1f", ""))
    for data, out in ((path, tmp_path / "us.gmml"), (clean, tmp_path / "clean.gmml")):
        result = runner.invoke(main, ["learn", str(data), *args, "--out", str(out)])
        assert result.exit_code == 0, all_text(result)
    assert np.array_equal(load_metric(tmp_path / "us.gmml").matrix,
                          load_metric(tmp_path / "clean.gmml").matrix)


def test_learn_cv_mode_reports_chosen_t(runner, tmp_path):
    path = tmp_path / "aniso.csv"
    write_csv(path, make_anisotropic(np.random.default_rng(2), n_per_class=20))
    result = runner.invoke(main, ["learn", str(path), "--t", "cv",
                                  "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 0, all_text(result)
    assert "cross-validation chose t=" in result.output


# ------------------------------------------------------------------------ eval

def parse_error_rate(output):
    for line in output.splitlines():
        if line.startswith("error rate:"):
            return float(line.split()[2])
    raise AssertionError(f"no error rate in output:\n{output}")


def test_eval_identity_baseline(runner, blobs_csv):
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv),
                                  "--metric", "identity", "--seed", "3"])
    assert result.exit_code == 0, all_text(result)
    assert parse_error_rate(result.output) == 0.0


def test_eval_learned_beats_or_ties_baseline(runner, tmp_path):
    path = tmp_path / "aniso.csv"
    write_csv(path, make_anisotropic(np.random.default_rng(3), n_per_class=40))
    base = runner.invoke(main, ["eval", "--data", str(path), "--metric", "identity",
                                "--seed", "1"])
    learned = runner.invoke(main, ["eval", "--data", str(path), "--seed", "1"])
    assert base.exit_code == 0 and learned.exit_code == 0
    assert parse_error_rate(learned.output) <= parse_error_rate(base.output)


def test_eval_metric_dimension_mismatch_names_both(runner, blobs_csv, tmp_path):
    aniso = tmp_path / "aniso.csv"
    write_csv(aniso, make_anisotropic(np.random.default_rng(4), n_per_class=10))
    metric_path = tmp_path / "m10.gmml"
    result = runner.invoke(main, ["learn", str(aniso), "--out", str(metric_path)])
    assert result.exit_code == 0

    result = runner.invoke(main, ["eval", "--data", str(blobs_csv),
                                  "--metric", str(metric_path)])
    assert result.exit_code == 3
    text = all_text(result)
    assert "10" in text and "2" in text


@pytest.mark.parametrize("field, value", [("t", "2.0"), ("lambda", "-0.5")])
def test_eval_metric_with_invalid_header_exits_with_data_code(runner, blobs_csv, tmp_path,
                                                              field, value):
    path = tmp_path / "m.gmml"
    assert runner.invoke(main, ["learn", str(blobs_csv), "--out", str(path)]).exit_code == 0
    path.write_text(re.sub(rf"^{field}: .*$", f"{field}: {value}", path.read_text(),
                           flags=re.MULTILINE))
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv), "--metric", str(path)])
    assert result.exit_code == 3, all_text(result)
    assert "invalid header" in all_text(result)


def test_eval_requires_a_data_source(runner, blobs_csv):
    assert runner.invoke(main, ["eval"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--train", str(blobs_csv)]).exit_code == 2


def test_eval_train_test_dimension_mismatch(runner, blobs_csv, tmp_path):
    aniso = tmp_path / "aniso.csv"
    write_csv(aniso, make_anisotropic(np.random.default_rng(5), n_per_class=10))
    result = runner.invoke(main, ["eval", "--train", str(blobs_csv),
                                  "--test", str(aniso)])
    assert result.exit_code == 3


@pytest.mark.parametrize("args, t_mode, baseline, chosen_t", [
    (["--metric", "identity"], "identity", True, None),
    (["--metric", "FILE"], "file", False, None),
    (["--t", "0.3"], "0.3", False, 0.3),
    (["--t", "cv"], "cv", False, "printed"),
], ids=["identity", "metric-file", "fixed-t", "cv"])
def test_eval_writes_report(runner, blobs_csv, tmp_path, args, t_mode, baseline, chosen_t):
    metric_path = tmp_path / "m.gmml"
    assert runner.invoke(main, ["learn", str(blobs_csv), "--out", str(metric_path)]).exit_code == 0
    args = [str(metric_path) if a == "FILE" else a for a in args]
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv), *args,
                                  "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    doc = json.loads(out.read_text())
    assert doc["n_runs"] == 1 and len(doc["records"]) == 1
    (record,) = doc["records"]
    assert (doc["t_mode"], doc["baseline"]) == (t_mode, baseline)
    if chosen_t == "printed":
        assert f"cross-validation chose t={record['chosen_t']:.4g}\n" in result.stdout
    else:
        assert record["chosen_t"] == chosen_t
    assert doc["mean_error"] == record["error_rate"]
    assert doc["std_error"] == 0.0
    assert doc["mean_learn_time"] == record["learn_time"]
    assert doc["mean_total_time"] == record["total_time"]


def cluster(rng, centre, label, n):
    return "".join(f"{centre[0] + rng.normal()},{centre[1] + rng.normal()},{label}\n"
                   for _ in range(n))


@pytest.mark.parametrize("train_labels, test_labels, wrong", [
    ("012", "21", 0),
    ("abc", "cb", 0),
    ("012", "13", 5),
    ("abc", "bd", 5),
], ids=["int", "string", "int-unseen", "string-unseen"])
def test_eval_train_test_labels_match_by_token(runner, tmp_path, train_labels, test_labels,
                                               wrong):
    # the test file lacks the first training class and lists its labels in
    # another order, so each file coded on its own would disagree; a label
    # the training file never uses sits on the first class and is always wrong
    rng = np.random.default_rng(12)
    centres = dict(zip(train_labels, ((0.0, 0.0), (20.0, 0.0), (0.0, 20.0))))
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("".join(cluster(rng, centres[lab], lab, 10) for lab in train_labels))
    test.write_text("".join(cluster(rng, centres.get(lab, centres[train_labels[0]]), lab, 5)
                            for lab in test_labels))
    result = runner.invoke(main, ["eval", "--train", str(train), "--test", str(test),
                                  "--metric", "identity"])
    assert result.exit_code == 0, all_text(result)
    assert f"({wrong}/10 misclassified)" in result.stdout


def _scaled_problem(rng, n_per_class):
    """Two overlapping classes apart along feature 0 only, beside a noise
    feature scaled by 1e3 and one offset by 1e4: the raw scales hide the
    signal, and the CV error varies with t."""
    data = make_anisotropic(rng, n_per_class=n_per_class, d=3, signal_sigma=0.8,
                            noise_sigma=1.0)
    return dataclasses.replace(data, points=data.points * [1.0, 1e3, 1.0] + [0.0, 0.0, 1e4])


@pytest.fixture()
def scaled_split(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, _scaled_problem(np.random.default_rng(21), 40))
    write_csv(test, _scaled_problem(np.random.default_rng(22), 15))
    return train, test


def _error_line(result):
    assert result.exit_code == 0, all_text(result)
    return re.search(r"^error rate: .*$", result.stdout, flags=re.MULTILINE).group(0)


@pytest.mark.parametrize("t", ["0.5", "cv"])
@pytest.mark.parametrize("standardize", [[], ["--standardize"]])
def test_learn_then_eval_metric_matches_one_step_eval(runner, tmp_path, scaled_split, t,
                                                      standardize):
    # a saved metric carries the coordinates it was learned in, so evaluating
    # it needs no --standardize and errs as the one-step eval does
    train, test = scaled_split
    options = ["--t", t, "--lambda", "0.5", "--seed", "0", *standardize]
    out = tmp_path / "m.gmml"
    learned = runner.invoke(main, ["learn", str(train), *options, "--out", str(out)])
    assert learned.exit_code == 0, all_text(learned)
    split = ["--train", str(train), "--test", str(test), "--seed", "0"]
    two_step = runner.invoke(main, ["eval", *split, "--metric", str(out)])
    one_step = runner.invoke(main, ["eval", *split, *options])
    assert _error_line(two_step) == _error_line(one_step)


def test_learn_cv_standardize_chooses_the_t_of_per_fold_standardization(runner, tmp_path,
                                                                        scaled_split):
    # each CV fold is z-scored by its own training part, as in eval and
    # benchmark, not by the statistics of the whole file
    train, _ = scaled_split
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(train), "--t", "cv", "--lambda", "0.5",
                                  "--standardize", "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    cv = gmml.cross_validate_t(load_dataset(train), gmml.CvPolicy(), GmmlConfig(lam=0.5),
                               5, 0, standardize=True)
    assert load_metric(out).config.t == cv.chosen_t
    assert f"cross-validation chose t={cv.chosen_t:.4g}" in result.stdout


def test_eval_refuses_to_standardize_a_standardized_metric(runner, tmp_path, scaled_split):
    train, test = scaled_split
    out = tmp_path / "m.gmml"
    assert runner.invoke(main, ["learn", str(train), "--standardize",
                                "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["eval", "--train", str(train), "--test", str(test),
                                  "--metric", str(out), "--standardize"])
    assert result.exit_code == 2
    assert "already carries its standardization" in result.stderr


@pytest.mark.parametrize("command", [
    ["learn", "{train}", "--out", "{tmp}/m.gmml"],
    ["eval", "--train", "{train}", "--test", "{test}"],
    ["eval", "--train", "{train}", "--test", "{test}", "--metric", "identity"],
    ["benchmark", "{train}", "--runs", "1"],
    ["benchmark", "{train}", "--runs", "1", "--baseline"],
], ids=["learn", "eval", "eval-metric", "benchmark", "benchmark-baseline"])
def test_a_standardized_prior_needs_standardize(runner, tmp_path, scaled_split, command):
    # a prior learned with --standardize is in z-scored coordinates: a raw
    # run refuses it before reading any data, a --standardize run uses it
    train, test = scaled_split
    prior = tmp_path / "std.gmml"
    assert runner.invoke(main, ["learn", str(train), "--standardize", "--lambda", "0.5",
                                "--out", str(prior)]).exit_code == 0
    argv = [arg.format(train=train, test=test, tmp=tmp_path) for arg in command]
    argv += ["--prior", str(prior), "--lambda", "0.5"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert (f"error: prior {prior} was learned with --standardize; add --standardize"
            in result.stderr)
    assert "config:" not in result.stderr
    assert not (tmp_path / "m.gmml").exists()
    result = runner.invoke(main, [*argv, "--standardize"])
    assert result.exit_code == 0, all_text(result)


def test_eval_cv_report_total_time_includes_cross_validation(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv), "--t", "cv",
                                  "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    printed = re.search(r"timings: .* total=(\d+\.\d+)s", result.stdout).group(1)
    doc = json.loads(out.read_text())
    assert f"{doc['records'][0]['total_time']:.4f}" == printed
    assert f"{doc['mean_total_time']:.4f}" == printed


@pytest.mark.parametrize("command", [
    ["eval", "--data"],
    ["benchmark", "--runs", "1"],
])
def test_cv_standardize_ignores_feature_scales(runner, tmp_path, command):
    # with --lambda > 0 the identity prior makes the learned metric depend
    # on feature scales; --standardize must z-score the cross-validation
    # folds as well as the final split, so power-of-two rescaling (exact in
    # floating point) changes neither the chosen t nor the error
    data = make_anisotropic(np.random.default_rng(8), n_per_class=30, d=4)
    outcomes = []
    for name, scales in (("raw", [1.0, 1.0, 1.0, 1.0]),
                         ("scaled", [2.0**-10, 2.0**7, 1.0, 2.0**10])):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        write_csv(path, dataclasses.replace(data, points=data.points * scales))
        result = runner.invoke(main, [*command, str(path), "--t", "cv",
                                      "--standardize", "--lambda", "1.0",
                                      "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, all_text(result)
        records = json.loads(out.read_text())["records"]
        outcomes.append([(rec["chosen_t"], rec["error_rate"]) for rec in records])
    assert outcomes[0] == outcomes[1]


# -------------------------------------------------------------------- benchmark

def test_benchmark_counting_and_report(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "2",
                                  "--folds", "2", "--t", "0.5", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert "config:" in result.stderr
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 4
    assert doc["seed"] == 0


def test_benchmark_deterministic_given_seed(runner, blobs_csv, tmp_path):
    args = ["benchmark", str(blobs_csv), "--runs", "2", "--t", "cv", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    da = strip_timing(json.loads(a.read_text()))
    db = strip_timing(json.loads(b.read_text()))
    assert da == db


def test_benchmark_cv_records_chosen_t_per_run(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "2",
                                  "--t", "cv", "--cv-folds", "5", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["t_mode"] == "cv"
    assert all(rec["chosen_t"] is not None for rec in doc["records"])


def test_benchmark_all_runs_failing_exits_nonzero(runner, degenerate_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(degenerate_csv), "--runs", "2",
                                  "--t", "0.5", "--out", str(out)])
    assert result.exit_code == 4
    assert "failed" in all_text(result)
    doc = json.loads(out.read_text())
    assert all(rec["failure"] is not None for rec in doc["records"])


@pytest.fixture()
def overflowing_csv(tmp_path):
    # finite features whose scatter sums overflow to inf
    rng = np.random.default_rng(0)
    rows = [",".join(f"{v:.17g}" for v in rng.normal(size=4) * 1e160) + f",{i % 3}"
            for i in range(60)]
    path = tmp_path / "overflowing.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_k_clamp_notice_is_one_line_per_command(runner, blobs_csv):
    # every unit of the benchmark clamps k on its 20 training points: each of
    # two in-process commands prints the notice once, with no source location
    argv = ["benchmark", str(blobs_csv), "--baseline", "--runs", "2", "--k", "50"]
    for _ in range(2):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, all_text(result)
        notices = [line for line in result.stderr.splitlines() if "clamping" in line]
        assert notices == ["warning: k=50 exceeds 20 training points; clamping to 20"]
        assert ".py:" not in result.stderr and "warnings.warn" not in result.stderr


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_learn_failing_eigensolver_exits_with_numerical_code(runner, overflowing_csv,
                                                              tmp_path):
    result = runner.invoke(main, ["learn", str(overflowing_csv),
                                  "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 4, all_text(result)
    assert "scatter matrix is not finite" in result.stderr
    assert "--standardize" in result.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["lambda", "lambda-prior", "huge-features"])
def test_learn_overflowing_lambda_exits_with_numerical_code(runner, blobs_csv, tmp_path, case):
    # a numpy warning would turn into an exception here and exit 1
    args = ["learn", str(blobs_csv), "--lambda", "1e308"]
    if case == "lambda-prior":
        prior = tmp_path / "prior.gmml"
        assert runner.invoke(main, ["learn", str(blobs_csv), "--out", str(prior)]).exit_code == 0
        args += ["--prior", str(prior)]
    elif case == "huge-features":
        # finite scatters whose whitened product L^T D L overflows
        data = load_dataset(blobs_csv)
        huge = tmp_path / "huge.csv"
        write_csv(huge, dataclasses.replace(data, points=data.points * 1e100))
        args = ["learn", str(huge)]
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 4, all_text(result)
    assert "whitened dissimilarity scatter overflows float64" in result.stderr
    if case == "huge-features":
        assert "--standardize" in result.stderr and "smaller lambda" not in result.stderr
    else:
        assert "with lambda 1e+308; use a smaller lambda" in result.stderr
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_benchmark_failing_eigensolver_records_every_unit(runner, overflowing_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(overflowing_csv), "--runs", "1",
                                  "--out", str(out)])
    assert result.exit_code == 4, all_text(result)
    assert "every run failed" in result.stderr
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 2
    assert all("scatter matrix is not finite" in rec["failure"] for rec in doc["records"])


def test_failing_eigensolver_is_a_convergence_error(runner, blobs_csv, tmp_path,
                                                    monkeypatch):
    # numpy's LinAlgError is a ValueError subclass, which would exit 2
    def failing_eigensolver(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigensolver)
    message = "symmetric eigensolver failed: Eigenvalues did not converge"
    with pytest.raises(ConvergenceError, match=message):
        check_spd(np.eye(2))
    with pytest.raises(ConvergenceError, match=message):
        sym_eigen(np.eye(2))
    with pytest.raises(ConvergenceError, match=message):
        solve(ScatterMatrices(s_mat=np.eye(2), d_mat=np.eye(2), sim_count=1, dis_count=1))
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(blobs_csv), "--out", str(out)])
    assert result.exit_code == 4, all_text(result)
    assert message in result.stderr
    assert not out.exists()


def test_benchmark_regularized_degenerate_succeeds(runner, degenerate_csv):
    result = runner.invoke(main, ["benchmark", str(degenerate_csv), "--runs", "2",
                                  "--t", "0.5", "--lambda", "0.1"])
    assert result.exit_code == 0, all_text(result)
    assert "0/4" in result.output  # failure column of the table


def test_benchmark_seed_from_environment(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "1",
                                  "--t", "0.5", "--out", str(out)],
                           env={"GMML_SEED": "77"})
    assert result.exit_code == 0
    assert json.loads(out.read_text())["seed"] == 77


def test_benchmark_baseline_flag(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--baseline",
                                  "--runs", "1", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["baseline"] is True
    assert all(rec["chosen_t"] is None for rec in doc["records"])


@pytest.mark.parametrize("t_args", [[], ["--t", "cv"]], ids=["fixed-t", "cv"])
def test_benchmark_baseline_records_identity_t_mode(runner, blobs_csv, tmp_path, t_args):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--baseline", *t_args,
                                  "--runs", "1", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    doc = json.loads(out.read_text())
    assert (doc["t_mode"], doc["baseline"]) == ("identity", True)
    assert all(rec["chosen_t"] is None for rec in doc["records"])


def test_main_frees_redirected_output(tmp_path):
    # click caches the stream it looks up for itself and never frees it;
    # each in-process call would then keep its whole output alive
    data = tmp_path / "blobs.csv"
    write_csv(data, make_blobs(np.random.default_rng(0), n_per_class=10))
    out, err = io.StringIO(), io.StringIO()
    refs = [weakref.ref(out), weakref.ref(err)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(["eval", "--data", str(data), "--metric", "identity"], standalone_mode=False)
    assert "error rate:" in out.getvalue() and "config:" in err.getvalue()
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_benchmark_json_stdout_is_pure_json(runner, blobs_csv):
    # config echoes land on stderr so json output pipes cleanly
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "1",
                                  "--t", "0.5", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["records"]) == 2
    assert "config:" in result.stderr


def test_benchmark_json_stdout_equals_out_file(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "1",
                                  "--t", "0.5", "--format", "json", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert result.stdout == out.read_text()


def test_benchmark_more_folds_than_points_allow_exits_with_argument_code(runner, blobs_csv):
    # 40 points hold at most 20 folds of 2 points
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--folds", "30", "--runs", "1"])
    assert result.exit_code == 2, all_text(result)
    assert "30 folds need at least 60 points, got 40" in result.stderr


@pytest.fixture()
def seven_csv(tmp_path):
    # 4 + 3 points: a 2-fold split leaves 3 training points in fold 0 and 4 in fold 1
    path = tmp_path / "seven.csv"
    path.write_text("0,0\n1,0\n2,0\n3,0\n10,1\n11,1\n12,1\n")
    return path


def test_benchmark_unit_too_small_to_cross_validate_fails_alone(runner, seven_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["benchmark", str(seven_csv), "--t", "cv", "--runs", "1",
                                  "--folds", "2", "--lambda", "0.1", "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert "run 0 fold 0 failed: cross-validation needs at least 4 points, got 3" in result.stderr
    doc = json.loads(out.read_text())
    assert [rec["failure"] is not None for rec in doc["records"]] == [True, False]
    assert " 1/2\n" in result.stdout


@pytest.mark.parametrize("command", [
    ["learn", "THREE", "--out", "OUT"],
    ["eval", "--data", "SEVEN", "--holdout", "0.5"],
], ids=["learn", "eval"])
def test_cv_on_too_few_training_points_exits_with_data_code(runner, seven_csv, tmp_path,
                                                           command):
    # learn trains on all 3 points of its file; eval's holdout of 7 leaves 3
    three = tmp_path / "three.csv"
    three.write_text("2,0\n3,0\n10,1\n")
    paths = {"SEVEN": seven_csv, "THREE": three, "OUT": tmp_path / "m.gmml"}
    args = [str(paths.get(a, a)) for a in command]
    result = runner.invoke(main, [*args, "--t", "cv", "--lambda", "0.1"])
    assert result.exit_code == 3, all_text(result)
    assert "error: cross-validation needs at least 4 points, got 3" in result.stderr
    assert not (tmp_path / "m.gmml").exists()


@pytest.mark.parametrize("command", [
    ["learn"],
    ["eval", "--data"],
    ["benchmark", "--t", "0.5", "--runs", "1"],
], ids=["learn", "eval", "benchmark"])
def test_cv_folds_below_two_exits_with_argument_code(runner, blobs_csv, tmp_path, command):
    # the CV options are checked on every command, --t cv or not
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, str(blobs_csv), "--cv-folds", "1",
                                  "--out", str(out)])
    assert result.exit_code == 2, all_text(result)
    assert "cv_folds must be >= 2" in all_text(result)
    assert not out.exists()


@pytest.mark.parametrize("command, env", [
    (["learn", "CSV", "--t", "abc"], None),
    (["benchmark", "CSV", "--coarse-grid", "0.5,x"], None),
    (["eval", "--data", "CSV", "--coarse-grid", ","], None),
    (["learn", "CSV", "--coarse-grid", "0,0.5"], None),
    (["benchmark", "CSV", "--count", "0"], None),
    (["eval", "--data", "CSV", "--holdout", "1.5"], None),
    (["learn", "CSV", "--lambda", "nan"], None),
    (["eval", "--data", "CSV", "--lambda", "inf"], None),
    (["learn", "CSV", "--fine-spacing", "nan"], None),
    (["benchmark", "CSV", "--t", "cv", "--runs", "1", "--fine-spacing", "inf"], None),
    (["eval", "--data", "CSV", "--seed", "-1"], None),
    (["learn", "CSV"], {"GMML_SEED": "-1"}),
    (["benchmark", "CSV", "--runs", "1", "--t", "1.5"], None),
    (["eval", "--data", "CSV", "--fine-count", "0"], None),
    (["benchmark", "CSV", "--runs", "0"], None),
    (["learn", "CSV", "--k", "0"], None),
    (["benchmark", "CSV", "--runs", "1", "--jobs", "0"], None),
], ids=["t-abc", "grid-token", "grid-empty", "grid-zero", "count-zero", "holdout",
        "lambda-nan", "lambda-inf", "fine-spacing-nan", "fine-spacing-inf", "seed-negative",
        "seed-env-negative", "t-above-one", "fine-count-zero", "runs-zero", "k-zero",
        "jobs-zero"])
def test_bad_option_value_exits_with_argument_code(runner, blobs_csv, tmp_path, command, env):
    out = tmp_path / "out"
    args = [str(blobs_csv) if a == "CSV" else a for a in command]
    result = runner.invoke(main, [*args, "--out", str(out)], env=env)
    assert result.exit_code == 2, all_text(result)
    assert "config:" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, code", [
    (["learn", "CSV", "--out", "OUT"], 3),
    (["eval", "--data", "CSV"], 3),
    (["benchmark", "CSV", "--runs", "1"], 3),
    (["benchmark", "CSV", "--runs", "1", "--baseline"], 0),
    (["eval", "--data", "CSV", "--metric", "identity"], 0),
], ids=["learn", "eval", "benchmark", "benchmark-baseline", "eval-identity"])
def test_single_class_data_fails_only_where_a_metric_is_learned(runner, tmp_path, command, code):
    # one class has no dissimilar pairs; the Euclidean baseline needs none
    path = tmp_path / "one.csv"
    write_csv(path, make_blobs(np.random.default_rng(6), n_per_class=10, centers=((0.0, 0.0),)))
    args = [{"CSV": str(path), "OUT": str(tmp_path / "m.gmml")}.get(a, a) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == code, all_text(result)
    if code == 3:
        # a check that needs the data comes after the config echo
        assert "config:" in result.stderr
        assert "dataset 'one' has 1 class" in result.stderr
        assert not (tmp_path / "m.gmml").exists()


def test_holdout_leaving_a_side_too_small_names_the_split(runner, tmp_path):
    three = tmp_path / "three.csv"
    three.write_text("0,0\n1,0\n2,0\n")
    result = runner.invoke(main, ["eval", "--data", str(three), "--metric", "identity",
                                  "--holdout", "0.2"])
    assert result.exit_code == 3, all_text(result)
    assert ("error: holdout 0.2 of 3 points leaves 2 training and 1 test points; "
            "each side needs at least 2") in result.stderr


@pytest.mark.parametrize("lam", ["0", "0.5"])
def test_learn_prior_of_another_dimension_exits_with_data_code(runner, blobs_csv, tmp_path,
                                                               lam):
    # a saved 3x3 metric as the prior of 2-feature data
    prior, out = tmp_path / "m3.gmml", tmp_path / "m.gmml"
    save_metric(LearnedMetric(matrix=np.eye(3), config=GmmlConfig(),
                              provenance=MetricProvenance(0, 0, 0.0)), prior)
    result = runner.invoke(main, ["learn", str(blobs_csv), "--prior", str(prior),
                                  "--lambda", lam, "--out", str(out)])
    assert result.exit_code == 3, all_text(result)
    assert "error: prior has dimension 3, data has 2" in result.stderr
    assert not out.exists()


def test_benchmark_prior_of_another_dimension_exits_before_any_unit(runner, blobs_csv,
                                                                    tmp_path):
    # checked once against the data, like learn and eval, not failed per unit
    prior = tmp_path / "m3.gmml"
    save_metric(LearnedMetric(matrix=np.eye(3), config=GmmlConfig(),
                              provenance=MetricProvenance(0, 0, 0.0)), prior)
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--prior", str(prior),
                                  "--runs", "1"])
    assert result.exit_code == 3, all_text(result)
    assert "error: prior has dimension 3, data has 2" in result.stderr
    assert "failed:" not in result.stderr
    # a baseline solves nothing, so it ignores the prior
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--prior", str(prior),
                                  "--runs", "1", "--baseline"])
    assert result.exit_code == 0, all_text(result)


def test_one_row_dataset_names_its_file(runner, blobs_csv, tmp_path):
    onerow = tmp_path / "onerow.csv"
    onerow.write_text(blobs_csv.read_text().splitlines()[0] + "\n")
    result = runner.invoke(main, ["eval", "--train", str(blobs_csv), "--test", str(onerow),
                                  "--metric", "identity"])
    assert result.exit_code == 3, all_text(result)
    assert f"error: {onerow} has 1 data row; a dataset needs at least 2" in result.stderr


def test_non_positive_whitened_eigenvalue_exits_with_numerical_code(runner, blobs_csv,
                                                                    tmp_path, monkeypatch):
    # on an ill-conditioned scatter pair, rounding alone can give L^T D L a
    # negative eigenvalue whose sign has no correct digit, so the eigensolver
    # gmml.learn calls is stubbed to return one
    def shifted(m):
        w, v = sym_eigen(m)
        return np.concatenate(([-1.188e-08], w[1:])), v

    monkeypatch.setattr(gmml.learn.spd, "sym_eigen", shifted)
    message = "dissimilarity scatter is not positive definite (whitened min eigenvalue -1.188e-08)"
    with pytest.raises(NotPositiveDefinite, match=re.escape(message)):
        solve(ScatterMatrices(s_mat=np.eye(2), d_mat=np.eye(2), sim_count=1, dis_count=1))
    out = tmp_path / "m.gmml"
    result = runner.invoke(main, ["learn", str(blobs_csv), "--out", str(out)])
    assert result.exit_code == 4, all_text(result)
    assert f"error: {message}" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("edit, error, message", [
    (lambda text: "", CorruptMatrix, "is empty"),
    (lambda text: re.sub(r"^dim: .*\n", "", text, flags=re.MULTILINE), CorruptMatrix,
     "malformed header"),
    (lambda text: text.replace("\n0.0 1.0\n", "\n0.0 one\n"), ParseError,
     "line 13: bad matrix entry"),
    (lambda text: text.replace("\n0.0 1.0\n", "\nnan 1.0\n"), ParseError,
     "line 13: non-finite matrix entry 'nan'"),
    (lambda text: text.replace("\n1.0 0.0\n", "\n1.0 inf\n"), ParseError,
     "line 12: non-finite matrix entry 'inf'"),
    (lambda text: text.replace("\n0.0 1.0\n", "\n0.0 1e400\n"), ParseError,
     "line 13: non-finite matrix entry '1e400'"),
], ids=["empty", "no-dim", "non-numeric-entry", "nan-entry", "inf-entry", "overflowing-entry"])
def test_corrupt_metric_file_exits_with_data_code(runner, blobs_csv, tmp_path, edit, error,
                                                  message):
    path = tmp_path / "m.gmml"
    save_metric(LearnedMetric(matrix=np.eye(2), config=GmmlConfig(),
                              provenance=MetricProvenance(0, 0, 0.0)), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(error, match=message):
        load_metric(path)
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv), "--metric", str(path)])
    assert result.exit_code == 3, all_text(result)
    assert message in result.stderr


def test_help_screens(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    for sub in ("learn", "eval", "benchmark"):
        assert runner.invoke(main, [sub, "--help"]).exit_code == 0


@pytest.mark.parametrize("command", ["learn", "eval", "benchmark"])
def test_cv_options_default_to_the_cv_policy_fields(blobs_csv, command):
    # the CV options reach CvPolicy(**cv) by field name
    cmd = main.commands[command]
    ctx = cmd.make_context(command, [] if command == "eval" else [str(blobs_csv)])
    for field in dataclasses.fields(gmml.CvPolicy):
        assert ctx.params[field.name] == field.default, field.name


def config_line(stderr):
    """The second ``config:`` line of ``stderr`` as {name: text}, in order."""
    line = [ln for ln in stderr.splitlines() if ln.startswith("config: ")][1]
    return dict(tok.split("=", 1) for tok in line[len("config: "):].split())


def test_learn_echoes_its_cv_options_and_label_column(runner, blobs_csv, tmp_path):
    result = runner.invoke(main, ["learn", str(blobs_csv), "--t", "cv", "--cv-folds", "3",
                                  "--coarse-grid", "0.2,0.6", "--fine-count", "4",
                                  "--fine-spacing", "0.05", "--seed", "3",
                                  "--out", str(tmp_path / "m.gmml")])
    assert result.exit_code == 0, all_text(result)
    echoed = config_line(result.stderr)
    assert {"cv_folds": "3", "coarse_grid": "0.2,0.6", "fine_count": "4",
            "fine_spacing": "0.05", "label_column": "-1", "t": "cv", "seed": "3",
            "constraints": "80"}.items() <= echoed.items()


@pytest.mark.parametrize("command, argv, derived", [
    ("learn", ["{data}", "--t", "cv", "--cv-folds", "3", "--coarse-grid", "0.2,0.6",
               "--fine-count", "4", "--lambda", "0.1", "--count", "50", "--k", "3",
               "--label-column", "2", "--out", "{tmp}/m.gmml"], []),
    ("eval", ["--data", "{data}", "--holdout", "0.4", "--metric", "identity",
              "--standardize", "--format", "table", "--out", "{tmp}/r.txt"],
     ["train_n", "test_n"]),
    ("benchmark", ["{data}", "--runs", "1", "--folds", "3", "--baseline", "--jobs", "2",
                   "--t", "0.3", "--seed", "4", "--format", "json"], []),
], ids=["learn", "eval", "benchmark"])
def test_config_echo_shows_every_option_as_parsed(runner, blobs_csv, tmp_path, command,
                                                  argv, derived):
    argv = [a.format(data=blobs_csv, tmp=tmp_path) for a in argv]
    cmd = main.commands[command]
    parsed = cmd.make_context(command, list(argv)).params
    result = runner.invoke(main, [command, *argv])
    assert result.exit_code == 0, all_text(result)
    echoed = config_line(result.stderr)
    # each option under its long flag, --count resolved (40c(c-1) = 80 on two
    # classes), then the values the command derives
    expected = {}
    for param in cmd.params:
        if isinstance(param, click.Option):
            name, value = param.opts[0][2:].replace("-", "_"), parsed[param.name]
            if name == "count":
                expected["constraints"] = str(value or 80)
            else:
                expected[name] = (",".join(map(str, value)) if isinstance(value, tuple)
                                  else str(value))
    assert list(echoed) == [*expected, *derived]
    assert {name: echoed[name] for name in expected} == expected


def test_eval_echoes_the_fingerprint_of_its_test_file(runner, blobs_csv, tmp_path):
    # the test file holds class 1 only, which it codes 0 on its own and
    # eval recodes to 1; the echo shows the file's own fingerprint
    test_csv = tmp_path / "ones.csv"
    test_csv.write_text("".join(ln + "\n" for ln in blobs_csv.read_text().splitlines()
                                if ln.endswith(",1")))
    result = runner.invoke(main, ["eval", "--train", str(blobs_csv), "--test", str(test_csv),
                                  "--metric", "identity"])
    assert result.exit_code == 0, all_text(result)
    own = gmml.fingerprint_dataset(load_dataset(test_csv)).content_hash
    assert config_line(result.stderr)["test_fingerprint"] == own
    assert "test_fingerprint" not in config_line(
        runner.invoke(main, ["eval", "--data", str(blobs_csv), "--metric", "identity"]).stderr)


def test_version_needs_no_installed_package_metadata(runner, monkeypatch):
    # the tests and the benchmark run the source tree, where no metadata exists
    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", missing)
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, all_text(result)
    assert result.stdout == "gmml, version 0.1.0\n"


def test_pyproject_version_is_package_version():
    # pyproject.toml reads its version from gmml.__version__, the one place it is written
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta" in some versions
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == gmml.__version__


NO_SCIPY_SCRIPT = """
import json
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from gmml import geodesic, riemannian_distance, spd_inverse
from gmml.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        main(argv, prog_name="gmml")
    except SystemExit as exc:
        codes.append(exc.code)
a = np.array([[2.0, 0.5], [0.5, 1.0]])
spd_inverse(a), geodesic(a, np.eye(2), 0.3), riemannian_distance(a, np.eye(2))
print(codes)
"""


def test_gmml_runs_without_scipy(blobs_csv, tmp_path):
    data, metric = str(blobs_csv), str(tmp_path / "m.gmml")
    commands = [
        ["learn", data, "--out", metric],
        ["learn", data, "--prior", metric, "--lambda", "0.5",
         "--out", str(tmp_path / "p.gmml")],
        ["eval", "--data", data, "--metric", metric],
        ["benchmark", data, "--t", "cv", "--runs", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == str([0] * len(commands)), child.stderr


SERIAL_IMPORTS_SCRIPT = """
import json
import sys
from gmml.cli import main

loaded = ["concurrent.futures" in sys.modules]
try:
    main(json.loads(sys.argv[1]), prog_name="gmml")
except SystemExit as exc:
    loaded.append(exc.code)
loaded.append("concurrent.futures" in sys.modules)
print(loaded)
"""


def test_a_serial_command_loads_no_thread_pool(blobs_csv):
    # concurrent.futures, and the logging it imports, is loaded only for a
    # benchmark with --jobs above 1
    argv = ["benchmark", str(blobs_csv), "--runs", "1", "--folds", "2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.run([sys.executable, "-c", SERIAL_IMPORTS_SCRIPT, json.dumps(argv)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == str([False, 0, False]), child.stderr
