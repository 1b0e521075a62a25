"""The three workloads: the CLI commands of one timed round, per-command
figures taken from their wall times, and the checks on their outputs."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

import checks
import inputs

# `gmml benchmark` runs per round on cv-protocol; each run is two
# (run, fold) units.
CV_RUNS = 1
# On cv-protocol the learned error must undercut the Euclidean one by this
# much. The design puts the Bayes error near zero and Euclidean k-NN near
# 0.4; over seeds 0-19 the gap was never below 0.35 (perfbench/README.md).
CV_MARGIN = 0.15
KNN_COUNT = 480  # the default 40c(c-1) for c = 4
WIDE_COUNT = 4000


def _metric_text(path: Path) -> str:
    """A metric file without its informational `created:` line."""
    return "".join(
        line for line in path.read_text().splitlines(keepends=True)
        if not line.startswith("created:")
    )


def check_learned(gmml, text: str, data_path: Path, count: int, seed: int) -> list[str]:
    """Parse a saved metric; test it against S and D summed here over the
    pairs gmml.sample_constraints draws for the same seed."""
    try:
        a = checks.parse_metric_file(text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable metric file: {exc}"]
    points, labels = inputs.read_csv(data_path)
    pairs = gmml.sample_constraints(gmml.LabeledDataset(points, labels), count, seed)
    s = checks.scatter(points, pairs.sim_pairs)
    d = checks.scatter(points, pairs.dis_pairs)
    return checks.check_spd(a) + checks.check_midpoint(a, s, d)


class CvProtocol:
    """`gmml benchmark --t cv` with the paper's defaults on a small set."""

    def __init__(self, files, seed, work, jobs):
        self.data = str(files["data"])
        self.report = work / "report.json"
        self.baseline = work / "baseline.json"
        self.plan = ["--runs", str(CV_RUNS), "--folds", "2", "--k", "5",
                     "--count", "240", "--seed", str(seed)]
        self.argv = ["benchmark", self.data, "--t", "cv", *self.plan,
                     "--coarse-grid", ",".join(map(str, checks.COARSE_GRID)),
                     "--fine-count", str(checks.FINE_COUNT),
                     "--fine-spacing", str(checks.FINE_SPACING),
                     "--cv-folds", str(checks.CV_FOLDS), "--jobs", str(jobs),
                     "--out", str(self.report)]
        self.rates: list[float] = []
        self.reports: list[bytes] = []
        self.units = 0
        self.failed_units = 0

    def round(self, run) -> None:
        cmd = run(self.argv)
        if cmd.code != 0:
            return
        raw = self.report.read_bytes()
        records = json.loads(raw)["records"]
        self.units += len(records)
        self.failed_units += sum(r["failure"] is not None for r in records)
        self.rates.append(len(records) / cmd.wall)
        self.reports.append(raw)

    def details(self) -> dict:
        return {"cv_units_per_s": statistics.median(self.rates)} if self.rates else {}

    def check(self, run, gmml) -> list[str]:
        if not self.reports:
            return ["no gmml benchmark command succeeded"]
        first = self.reports[0]
        problems = checks.check_cv_report(json.loads(first), checks.grid_values())
        for other in self.reports[1:]:
            problems += checks.check_same_report(first, other)
        if run(["benchmark", self.data, "--baseline", *self.plan,
                "--out", str(self.baseline)]).code != 0:
            return problems + ["gmml benchmark --baseline failed"]
        return problems + checks.check_beats_baseline(
            json.loads(first)["mean_error"],
            json.loads(self.baseline.read_bytes())["mean_error"],
            CV_MARGIN,
        )


class KnnHoldout:
    """`gmml learn` on a large training file, then `gmml eval --metric FILE`
    on a large test file."""

    def __init__(self, files, seed, work, jobs):
        self.train, self.test = files["train"], files["test"]
        self.metric = work / "metric.gmml"
        self.report = work / "report.json"
        self.seed = seed
        self.learn_argv = ["learn", str(self.train), "--t", "0.5", "--count", str(KNN_COUNT),
                           "--seed", str(seed), "--out", str(self.metric)]
        self.eval_argv = ["eval", "--train", str(self.train), "--test", str(self.test),
                          "--metric", str(self.metric), "--k", str(checks.K),
                          "--seed", str(seed), "--out", str(self.report)]
        self.learn_s: list[float] = []
        self.query_rates: list[float] = []
        self.first: tuple[str, bytes, str] | None = None
        self.problems: list[str] = []

    def round(self, run) -> None:
        learn = run(self.learn_argv)
        if learn.code != 0:
            return
        self.learn_s.append(learn.wall)
        ev = run(self.eval_argv)
        if ev.code != 0:
            return
        raw = self.report.read_bytes()
        self.query_rates.append(json.loads(raw)["records"][0]["n_test"] / ev.wall)
        output = (_metric_text(self.metric), raw, ev.stdout)
        if self.first is None:
            self.first = output
        elif output[0] != self.first[0]:
            self.problems.append("metric files of two passes differ")
        else:
            self.problems += checks.check_same_report(self.first[1], raw)

    def details(self) -> dict:
        out = {"learn_s": statistics.median(self.learn_s)} if self.learn_s else {}
        if self.query_rates:
            out["eval_queries_per_s"] = statistics.median(self.query_rates)
        return out

    def check(self, run, gmml) -> list[str]:
        if self.first is None:
            return ["no learn + eval round succeeded"]
        text, raw, stdout = self.first
        problems = self.problems + check_learned(gmml, text, self.train, KNN_COUNT, self.seed)
        a = checks.parse_metric_file(text)
        train_x, train_y = inputs.read_csv(self.train)
        test_x, test_y = inputs.read_csv(self.test)
        learned = checks.knn_errors(train_x, train_y, test_x, test_y, a)
        problems += checks.check_eval_count(checks.reported_errors(json.loads(raw)), learned)
        if f"({learned}/{test_x.shape[0]} misclassified)" not in stdout:
            problems.append("gmml eval printed another misclassified count than it saved")
        euclid = checks.knn_errors(train_x, train_y, test_x, test_y, np.eye(a.shape[0]))
        if not learned < euclid:
            problems.append(f"learned metric misclassifies {learned}, Euclidean {euclid}")
        return problems


class LearnWide:
    """`gmml learn` on a wide set: CSV parse, O(d^3) solve, metric write."""

    def __init__(self, files, seed, work, jobs):
        self.data = files["data"]
        self.metric = work / "metric.gmml"
        self.seed = seed
        self.argv = ["learn", str(self.data), "--t", "0.5", "--count", str(WIDE_COUNT),
                     "--seed", str(seed), "--out", str(self.metric)]
        self.learn_s: list[float] = []
        self.first: str | None = None
        self.problems: list[str] = []

    def round(self, run) -> None:
        cmd = run(self.argv)
        if cmd.code != 0:
            return
        self.learn_s.append(cmd.wall)
        text = _metric_text(self.metric)
        if self.first is None:
            self.first = text
        elif text != self.first:
            self.problems.append("metric files of two passes differ")

    def details(self) -> dict:
        return {"learn_s": statistics.median(self.learn_s)} if self.learn_s else {}

    def check(self, run, gmml) -> list[str]:
        if self.first is None:
            return ["no gmml learn command succeeded"]
        return self.problems + check_learned(gmml, self.first, self.data, WIDE_COUNT, self.seed)


KINDS = {"cv-protocol": CvProtocol, "knn-holdout": KnnHoldout, "learn-wide": LearnWide}
