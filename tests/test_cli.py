import dataclasses
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from gmml import load_metric
from gmml.cli import main
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


def test_learn_standardize_matches_pre_standardized_data(runner, tmp_path):
    # --standardize z-scores by the dataset's mean and std, mapping the std
    # of a constant column to 1
    data = make_anisotropic(np.random.default_rng(9), n_per_class=15, d=3)
    points = data.points.copy()
    points[:, 1] = 4.0
    sigma = points.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    texts = []
    for name, pts, flags in (("raw", points, ["--standardize"]),
                             ("z", (points - points.mean(axis=0)) / sigma, [])):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.gmml"
        write_csv(path, dataclasses.replace(data, points=pts))
        result = runner.invoke(main, ["learn", str(path), "--lambda", "0.1", *flags,
                                      "--out", str(out)])
        assert result.exit_code == 0, all_text(result)
        texts.append(re.sub(r"^created: .*$", "", out.read_text(), flags=re.MULTILINE))
    assert texts[0] == texts[1]


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


def test_eval_writes_report(runner, blobs_csv, tmp_path):
    out = tmp_path / "rep.json"
    result = runner.invoke(main, ["eval", "--data", str(blobs_csv),
                                  "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["n_runs"] == 1 and len(doc["records"]) == 1
    assert doc["records"][0]["chosen_t"] == 0.5


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


def test_benchmark_json_stdout_is_pure_json(runner, blobs_csv):
    # config echoes land on stderr so json output pipes cleanly
    result = runner.invoke(main, ["benchmark", str(blobs_csv), "--runs", "1",
                                  "--t", "0.5", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["records"]) == 2
    assert "config:" in result.stderr


def test_help_screens(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    for sub in ("learn", "eval", "benchmark"):
        assert runner.invoke(main, [sub, "--help"]).exit_code == 0
