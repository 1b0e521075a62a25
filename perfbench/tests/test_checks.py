"""Each correctness check of the benchmark passes the program's genuine
output and rejects a corrupted copy of it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

gmml = worker.import_program()
SMALL = inputs.Design(n=120, d=6, c=3, informative=3, noise_scale=4.0, separation=4.0)
COUNT = 240


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small mixture split in two files, a metric learned on the first
    half, and the `gmml eval` and `gmml benchmark --t cv` reports."""
    work = tmp_path_factory.mktemp("small")
    points, labels = inputs.mixture(SMALL, seed=3)
    train, test = work / "train.csv", work / "test.csv"
    inputs.write_csv(train, points[:80], labels[:80])
    inputs.write_csv(test, points[80:], labels[80:])
    run = worker.Runner(gmml)
    metric, report, cv = work / "m.gmml", work / "r.json", work / "cv.json"
    assert run(["learn", str(train), "--count", str(COUNT), "--seed", "3",
                "--out", str(metric)]).code == 0
    ev = run(["eval", "--train", str(train), "--test", str(test), "--metric", str(metric),
              "--out", str(report)])
    assert ev.code == 0
    assert run(["benchmark", str(train), "--t", "cv", "--runs", "1", "--seed", "3",
                "--out", str(cv)]).code == 0
    return {"train": train, "test": test, "metric": metric.read_text(),
            "report": report.read_bytes(), "stdout": ev.stdout, "cv": cv.read_bytes()}


def _recount(small) -> int:
    train_x, train_y = inputs.read_csv(small["train"])
    test_x, test_y = inputs.read_csv(small["test"])
    a = checks.parse_metric_file(small["metric"])
    return checks.knn_errors(train_x, train_y, test_x, test_y, a)


def test_eval_count_matches_genuine_report(small):
    reported = checks.reported_errors(json.loads(small["report"]))
    assert checks.check_eval_count(reported, _recount(small)) == []


@pytest.mark.parametrize("delta", [-1, 1])
def test_eval_count_rejects_count_off_by_one(small, delta):
    doc = json.loads(small["report"])
    rec = doc["records"][0]
    wrong = round(rec["error_rate"] * rec["n_test"]) + delta
    if wrong < 0:
        pytest.skip("no misclassified point to remove")
    rec["error_rate"] = wrong / rec["n_test"]
    assert checks.check_eval_count(checks.reported_errors(doc), _recount(small))


def test_vote_admits_every_point_tied_at_kth_distance():
    # k = 1, but two points tie at the nearest distance: class 1 wins the
    # vote 2 to 1 only because all tied points vote
    dists = np.array([1.0, 1.0, 1.0, 5.0])
    labels = np.array([0, 1, 1, 0])
    assert checks.vote(dists, labels, k=1) == 1


def test_vote_tie_goes_to_smaller_mean_distance_then_smaller_class():
    assert checks.vote(np.array([1.0, 2.0, 0.5, 3.0]), np.array([0, 0, 1, 1]), k=4) == 0
    assert checks.vote(np.array([1.0, 2.0, 2.0, 1.0]), np.array([1, 1, 0, 0]), k=4) == 0


def test_learned_metric_passes(small):
    assert workloads.check_learned(gmml, small["metric"], small["train"], COUNT, 3) == []


def _perturb_entry(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    start = lines.index("matrix:") + 1
    values = lines[start + row].split()
    values[col] = repr(float(values[col]) * factor)
    lines[start + row] = " ".join(values)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("row,col", [(0, 0), (1, 2), (5, 4)])
def test_learned_metric_rejects_one_perturbed_entry(small, row, col):
    text = _perturb_entry(small["metric"], row, col, 1 + 1e-6)
    assert workloads.check_learned(gmml, text, small["train"], COUNT, 3)


def test_midpoint_rejects_symmetric_perturbation(small):
    a = checks.parse_metric_file(small["metric"])
    points, labels = inputs.read_csv(small["train"])
    pairs = gmml.sample_constraints(gmml.LabeledDataset(points, labels), COUNT, 3)
    s, d = checks.scatter(points, pairs.sim_pairs), checks.scatter(points, pairs.dis_pairs)
    assert checks.check_midpoint(a, s, d) == []
    a[1, 2] *= 1 + 1e-6
    a[2, 1] = a[1, 2]
    assert checks.check_spd(a) == []
    assert checks.check_midpoint(a, s, d)


def test_cv_report_passes(small):
    assert checks.check_cv_report(json.loads(small["cv"]), checks.grid_values()) == []


@pytest.mark.parametrize("t", [0.42, 0.3001, 0.995, None])
def test_cv_report_rejects_chosen_t_off_grid(small, t):
    doc = json.loads(small["cv"])
    doc["records"][0]["chosen_t"] = t
    assert checks.check_cv_report(doc, checks.grid_values())


def test_grid_holds_coarse_and_fine_values():
    grid = checks.grid_values()
    for t in (0.1, 0.5, 0.9, 0.01, 0.39, 0.41, 0.61, 0.99):
        assert checks.check_chosen_t([t], grid) == []


def test_cv_report_rejects_failed_unit_and_bad_rate(small):
    doc = json.loads(small["cv"])
    doc["records"][0]["failure"] = "similarity scatter matrix is singular"
    assert checks.check_cv_report(doc, checks.grid_values())
    doc = json.loads(small["cv"])
    doc["records"][1]["error_rate"] = 1.5
    assert checks.check_cv_report(doc, checks.grid_values())


def test_same_report_ignores_only_time_fields(small):
    raw = small["cv"]
    doc = json.loads(raw)
    doc["mean_total_time"] += 1.0
    doc["records"][0]["learn_time"] += 1.0
    retimed = (json.dumps(doc, indent=2) + "\n").encode()
    assert checks.check_same_report(raw, retimed) == []
    doc["records"][0]["n_test"] += 1
    changed = (json.dumps(doc, indent=2) + "\n").encode()
    assert checks.check_same_report(raw, changed)


def test_beats_baseline_needs_the_margin():
    assert checks.check_beats_baseline(0.05, 0.40, 0.15) == []
    assert checks.check_beats_baseline(0.30, 0.40, 0.15)
