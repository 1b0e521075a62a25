"""Differential harness: run one list of gmml commands on two source trees
and compare everything they print and write.

    python tests/differential.py OLD_TREE NEW_TREE

A tree is a checkout of this repository; its ``src/`` goes on PYTHONPATH.
The inputs are generated here from fixed seeds, identically for both
trees, into a fresh work directory per tree. Every command of
:data:`COMMANDS` runs there in order, as ``python -m gmml.cli`` with
relative paths and one BLAS thread, so a later command can read what an
earlier one wrote (a metric used as ``--prior``, say). For each command
the harness compares the exit code, stdout, stderr and every file the
command created or changed, after masking what may differ between two
runs of the same program:

- a ``timings:`` line, and the time columns of a report table;
- every ``*_time`` field of a JSON document (reports on disk or stdout);
- a metric file's ``created:`` line;
- the source location Python prints with a warning (file and line).

It prints each difference and a summary, and exits 1 if any command
differs or exits with another code than the one listed for it on the new
tree. Golden outputs are not kept: metric bits depend on the BLAS.
``tests/test_differential.py`` runs the list in-process on the current
tree and checks each documented exit code, so the list cannot rot.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OK, ARGUMENT, DATA, NUMERICAL = 0, 2, 3, 4


@dataclass(frozen=True)
class Command:
    """One gmml invocation (argv after ``gmml``) and its documented exit code."""

    argv: tuple[str, ...]
    code: int = OK

    @property
    def name(self) -> str:
        return " ".join(("gmml", *self.argv))


def _cmd(line: str, code: int = OK) -> Command:
    return Command(tuple(line.split()), code)


# The twelve points of ROADMAP item 4: features scaled about 1, 1e-4 and 20,
# so cond(S) and cond(D) are both near 6e10.
TWELVE_POINTS = """\
-1.738,-0.0001337,-27.22,0
-0.3516,-0.0002313,-3.778,1
-0.9572,8.936e-05,19.14,0
1.392,7.675e-05,-1.061,1
0.8598,0.0001505,-13.07,0
0.6104,-4.267e-06,28.8,1
-0.8369,-3.015e-05,7.247,0
0.2581,-0.0001639,7.203,1
-0.1185,-2.397e-05,-3.106,0
0.219,-0.0001816,31.05,1
-0.8614,-0.0002241,-1.639,0
1.457,-5.186e-05,31.03,1
"""

CV_GRID = "--coarse-grid 0.1,0.3,0.5,0.7,0.9 --fine-count 5 --fine-spacing 0.02 --cv-folds 5"
SPLIT = "--train strain.csv --test stest.csv --lambda 0.5"
KNN = "--train knn-train.csv --test knn-test.csv"

COMMANDS: tuple[Command, ...] = (
    # help screens and version
    _cmd("--help"),
    _cmd("--version"),
    _cmd("learn --help"),
    _cmd("eval --help"),
    _cmd("benchmark --help"),
    # learn on CI's 40-point file: every t mode and solver option
    _cmd("learn data.csv --out m.gmml"),
    _cmd("learn data.csv --t 0.3 --out t03.gmml"),
    _cmd("learn data.csv --t 0.0 --out t0.gmml"),
    _cmd("learn data.csv --t 1.0 --out t1.gmml"),
    _cmd("learn data.csv --t cv --out cv.gmml"),
    _cmd("learn data.csv --t cv --cv-folds 3 --coarse-grid 0.2,0.6 --fine-count 4 "
         "--fine-spacing 0.05 --out cvopt.gmml"),
    _cmd("learn data.csv --t cv --coarse-grid 0.5,0.5,0.3 --out dup.gmml"),
    _cmd("learn data.csv --lambda 0.5 --out lam.gmml"),
    _cmd("learn data.csv --prior m.gmml --lambda 0.5 --out p.gmml"),
    _cmd("learn data.csv --standardize --out std-data.gmml"),
    _cmd("learn data.csv --t cv --standardize --lambda 0.1 --out cvstd.gmml"),
    _cmd("learn data.csv --count 30 --seed 3 --k 3 --out c30.gmml"),
    _cmd("learn label-first.csv --label-column 0 --out lf.gmml"),
    _cmd("learn float-only.csv --out f.gmml"),
    _cmd("learn us.csv --out us.gmml"),
    # string labels padded with spaces, stripped on the way to a report's
    # label_names
    _cmd("learn padded.csv --out padded.gmml"),
    _cmd("eval --train padded.csv --test padded.csv --metric padded.gmml --out padded.json"),
    _cmd("benchmark padded.csv --runs 1"),
    _cmd("learn wide.csv --count 2000 --out wide.gmml"),
    _cmd("learn cv.csv --t cv --lambda 0.5 --count 240 --out cvdata.gmml"),
    # learn's failures: bad options, bad files, singular and ill-resolved pencils
    _cmd("learn data.csv --lambda nan --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --lambda -1 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t 1.5 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t abc --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --count 0 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t cv --coarse-grid 0.5,x --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t cv --coarse-grid 0.0,0.5 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t cv --fine-count 0 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t cv --fine-spacing 0 --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --t cv --cv-folds 1 --out bad.gmml", ARGUMENT),
    _cmd("learn missing.csv --out bad.gmml", ARGUMENT),
    _cmd("learn data.csv --prior nonspd.gmml --lambda 0.5 --out bad.gmml", DATA),
    _cmd("learn two.csv --prior m.gmml --out two.gmml", DATA),
    _cmd("learn extra.csv --out e.gmml", DATA),
    _cmd("learn one.csv --out one.gmml", DATA),
    _cmd("learn onerow.csv --out onerow.gmml", DATA),
    _cmd("learn short.csv --out short.gmml", DATA),
    _cmd("learn nolabel.csv --out nolabel.gmml", DATA),
    _cmd("learn flat.csv --out flat.gmml", NUMERICAL),
    _cmd("learn flat.csv --lambda 0.5 --out flat.gmml"),
    _cmd("learn const.csv --out const.gmml", NUMERICAL),
    _cmd("learn const.csv --lambda 1e-13 --out const13.gmml", NUMERICAL),
    _cmd("learn rankdef.csv --out rd.gmml", NUMERICAL),
    _cmd("learn rankdef.csv --lambda 0.5 --out rd.gmml"),
    _cmd("learn twelve.csv --count 40 --seed 48 --out twelve.gmml", NUMERICAL),
    _cmd("learn twelve.csv --count 40 --seed 48 --standardize --out twelve.gmml"),
    # eval: fixed metrics, learned metrics, and both split forms
    _cmd("eval --data data.csv --metric m.gmml"),
    _cmd("eval --data data.csv --metric identity"),
    _cmd("eval --data data.csv --metric identity --standardize"),
    _cmd("eval --train data.csv --test data.csv --metric m.gmml"),
    _cmd("eval --data data.csv --metric m.gmml --k 100"),
    _cmd("eval --data data.csv --t cv --out e-cv.json"),
    _cmd("eval --data data.csv --t 0.3 --format table --out e03.txt"),
    _cmd("eval --data data.csv --metric identity --t cv --cv-folds 3 --count 7 --out fixed.json"),
    _cmd("eval --data cv.csv --t cv --cv-folds 3 --count 120 --out ecv.json"),
    _cmd("eval --data cv.csv --t cv --coarse-grid 0.5,0.5,0.3 --count 120 --out edup.json"),
    _cmd("eval --data cv.csv --holdout 0.5 --k 3 --seed 2"),
    _cmd("eval --data cv.csv --standardize --t cv --count 120"),
    _cmd(f"eval {SPLIT} --standardize"),
    _cmd("learn strain.csv --standardize --lambda 0.5 --out std.gmml"),
    _cmd(f"eval {SPLIT} --metric std.gmml"),
    _cmd(f"eval {SPLIT} --metric std.gmml --standardize", ARGUMENT),
    _cmd(f"eval {SPLIT} --prior std.gmml", ARGUMENT),
    _cmd(f"eval {SPLIT} --prior std.gmml --standardize"),
    _cmd("learn knn-train.csv --count 480 --out knn.gmml"),
    _cmd(f"eval {KNN} --metric knn.gmml --k 5 --out knn.json"),
    _cmd(f"eval {KNN} --metric identity --k 5"),
    _cmd(f"eval {KNN} --t cv --count 200"),
    # tie-prone integer grids with exact duplicates, and the same grid 1e6
    # away from the origin: the classifier's exact fallback decides their ties
    *(_cmd(line.format(grid=grid)) for grid in ("grid.csv", "grid-far.csv") for line in (
        "eval --data {grid} --t cv",
        "benchmark {grid} --t cv --runs 2",
        "eval --train {grid} --test {grid} --metric identity --k 4",
    )),
    _cmd("eval --train data.csv --metric identity", ARGUMENT),
    _cmd("eval --data data.csv --train data.csv --test data.csv --metric identity", ARGUMENT),
    _cmd("eval --data data.csv --metric identity --format xml", ARGUMENT),
    _cmd("eval --data three.csv --metric identity --holdout 0.2", DATA),
    _cmd("eval --train data.csv --test onerow.csv --metric identity", DATA),
    _cmd("eval --train data.csv --test two.csv --metric identity", DATA),
    _cmd("eval --data data.csv --metric missing.gmml", DATA),
    _cmd("eval --data data.csv --metric two.csv", DATA),
    _cmd("eval --data data.csv --metric v9.gmml", DATA),
    _cmd("eval --data data.csv --metric t2.gmml", DATA),
    _cmd("eval --data data.csv --metric nonspd.gmml", DATA),
    _cmd("eval --data two.csv --metric m.gmml", DATA),
    # benchmark: the cv-protocol command and its baseline, and every option
    _cmd(f"benchmark cv.csv --t cv --runs 1 --folds 2 --k 5 --count 240 {CV_GRID} "
         "--out cvp.json"),
    _cmd("benchmark cv.csv --baseline --runs 1 --folds 2 --k 5 --out cvp-base.json"),
    _cmd("benchmark cv.csv --t cv --runs 1 --count 240 --standardize"),
    _cmd("benchmark data.csv --runs 2"),
    _cmd("benchmark data.csv --t cv --runs 1"),
    _cmd("benchmark data.csv --baseline --runs 2 --standardize"),
    _cmd("benchmark data.csv --runs 2 --format json"),
    _cmd("benchmark data.csv --runs 2 --t 0.3 --folds 3 --out b.json"),
    _cmd("benchmark data.csv --runs 3 --standardize --lambda 0.5"),
    _cmd("benchmark data.csv --runs 2 --prior m.gmml --lambda 0.5"),
    _cmd("benchmark data.csv --runs 3 --jobs 2 --t cv"),
    _cmd("benchmark label-first.csv --label-column 0 --runs 2"),
    _cmd("benchmark seven.csv --t cv --runs 1 --folds 2 --lambda 0.1"),
    _cmd("benchmark flat.csv --runs 2 --lambda 0.5"),
    _cmd("benchmark flat.csv --runs 2", NUMERICAL),
    _cmd("benchmark one.csv --runs 1", DATA),
    _cmd("benchmark two.csv --prior m.gmml --runs 1", DATA),
    _cmd("benchmark data.csv --runs 0", ARGUMENT),
    _cmd("benchmark data.csv --folds 1", ARGUMENT),
    _cmd("benchmark data.csv --jobs 0", ARGUMENT),
)


def _save(path: Path, points: np.ndarray, labels: np.ndarray, fmt: str = "%.6f") -> None:
    np.savetxt(path, np.column_stack((points, labels)),
               fmt=[fmt] * points.shape[1] + ["%d"], delimiter=",")


def _mixture(n: int, d: int, c: int, informative: int, noise: float, seed: int):
    """Class clusters on ``informative`` coordinates drowned in rotated
    noise, as in the benchmark's inputs."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c
    rng.shuffle(labels)
    points = np.empty((n, d))
    points[:, :informative] = (4.0 * np.eye(c, informative))[labels] + rng.standard_normal(
        (n, informative))
    points[:, informative:] = noise * rng.standard_normal((n, d - informative))
    return points @ np.linalg.qr(rng.standard_normal((d, d)))[0], labels


def write_inputs(work: Path) -> None:
    """Every input file of :data:`COMMANDS`, generated from fixed seeds."""
    rng = np.random.default_rng(0)
    labels = np.arange(40) % 2
    data = rng.normal(size=(40, 3)) + 3 * labels[:, None]
    _save(work / "data.csv", data, labels)
    lines = (work / "data.csv").read_text().splitlines()
    (work / "label-first.csv").write_text(
        "".join(",".join([row.split(",")[-1], *row.split(",")[:-1]]) + "\n" for row in lines))
    (work / "two.csv").write_text("".join(row.split(",", 1)[1] + "\n" for row in lines))
    (work / "onerow.csv").write_text(lines[0] + "\n")
    (work / "extra.csv").write_text("\n".join([*lines[:2], lines[2] + ",0", *lines[3:]]) + "\n")
    (work / "short.csv").write_text(
        "\n".join([*lines[:4], lines[4].split(",", 1)[1], *lines[5:]]) + "\n")
    (work / "nolabel.csv").write_text("\n".join([*lines[:-1], lines[-1][:-1]]) + "\n")
    padding = {"0": " a", "1": "b "}
    (work / "padded.csv").write_text(
        "".join(row[:-1] + padding[row[-1]] + "\n" for row in lines))
    first = lines[0].split(",")
    (work / "float-only.csv").write_text(
        "\n".join([",".join(["1_000", "１２", *first[2:]]), *lines[1:]]) + "\n",
        encoding="utf-8")
    for seed, name in enumerate(("strain.csv", "stest.csv")):
        split_rng = np.random.default_rng(seed)
        split_labels = np.arange(60) % 2
        x = split_rng.normal(size=(60, 3)) * [1.0, 1e3, 1.0] + [0.0, 0.0, 1e4]
        x[:, 0] = 0.8 * x[:, 0] + np.where(split_labels == 1, 1.0, -1.0)
        _save(work / name, x, split_labels)
    _save(work / "cv.csv", *_mixture(300, 10, 3, 3, 6.0, 1), fmt="%.10g")
    knn_points, knn_labels = _mixture(500, 16, 4, 4, 3.0, 2)
    _save(work / "knn-train.csv", knn_points[:400], knn_labels[:400], fmt="%.10g")
    _save(work / "knn-test.csv", knn_points[400:], knn_labels[400:], fmt="%.10g")
    _save(work / "wide.csv", *_mixture(200, 64, 4, 8, 3.0, 3), fmt="%.10g")
    grid_rng = np.random.default_rng(6)
    grid = grid_rng.integers(-2, 3, size=(45, 3)).astype(float)
    grid_labels = np.digitize(grid[:, 0] + 0.5 * grid[:, 1], [-1.0, 1.0])
    again = grid_rng.integers(0, 45, size=15)
    grid, grid_labels = np.vstack((grid, grid[again])), np.concatenate((grid_labels, grid_labels[again]))
    _save(work / "grid.csv", grid, grid_labels, fmt="%.10g")
    _save(work / "grid-far.csv", grid + 1e6, grid_labels, fmt="%.10g")
    const = np.random.default_rng(4).normal(size=(30, 3))
    const[:, 1] = 2.5
    _save(work / "const.csv", const, np.arange(30) % 2)
    # six features spanned by two directions: both scatters have rank 2
    rank_rng = np.random.default_rng(5)
    _save(work / "rankdef.csv", rank_rng.normal(size=(30, 2)) @ rank_rng.normal(size=(2, 6)),
          np.arange(30) % 2)
    (work / "twelve.csv").write_text(TWELVE_POINTS)
    (work / "flat.csv").write_text("0,0,0\n1,0,0\n2,0,1\n3,0,1\n4,0,0\n5,0,1\n")
    (work / "seven.csv").write_text("0,0\n1,0\n2,0\n3,0\n10,1\n11,1\n12,1\n")
    (work / "one.csv").write_text("0,0\n1,0\n2,0\n3,0\n4,0\n5,0\n")
    (work / "three.csv").write_text("0,0\n1,0\n2,0\n")
    (work / "us.csv").write_text("1\x1f,0\n2,1\n3,0\n4,1\n")
    header = ("dim: 2\nt: 0.5\nlambda: 0.0\nprior_hash: identity\nriccati_residual: 0.0\n"
              "sim_count: 0\ndis_count: 0\nfingerprint: none\nmatrix:\n")
    (work / "nonspd.gmml").write_text("gmml-metric 1\n" + header + "1.0 2.0\n2.0 1.0\n")
    (work / "v9.gmml").write_text("gmml-metric 9\n" + header + "1.0 0.0\n0.0 1.0\n")
    (work / "t2.gmml").write_text(
        "gmml-metric 1\n" + header.replace("t: 0.5", "t: 2.0") + "1.0 0.0\n0.0 1.0\n")


def _mask_json(value):
    if isinstance(value, dict):
        return {k: "<time>" if k.endswith("_time") else _mask_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_json(v) for v in value]
    return value


_MASKS = (
    (re.compile(r"^timings: .*$", re.MULTILINE), "timings: <masked>"),
    (re.compile(r"^created: .*$", re.MULTILINE), "created: <masked>"),
    # a report table row: the two time columns follow the error column
    (re.compile(r"^(.* \+/- \S+\s+)\S+(\s+)\S+", re.MULTILINE), r"\1<time>\2<time>"),
    # a warning as Python prints it: location, then the source line
    (re.compile(r"^\S+\.py:\d+: (\w+): (.*)\n(?:  .*\n)?", re.MULTILINE), r"<source>: \1: \2\n"),
)


def mask(text: str) -> str:
    """``text`` with every field that may differ between two runs masked."""
    try:
        return json.dumps(_mask_json(json.loads(text)), indent=2)
    except ValueError:
        pass
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str
    files: dict[str, str]


def _snapshot(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}


def _run_tree(tree: Path, work: Path) -> list[Outcome]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMML_")}
    env.update(PYTHONPATH=str(tree.resolve() / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    write_inputs(work)
    outcomes = []
    for command in COMMANDS:
        before = _snapshot(work)
        done = subprocess.run([sys.executable, "-m", "gmml.cli", *command.argv], cwd=work,
                              env=env, capture_output=True, text=True, timeout=600)
        after = _snapshot(work)
        written = {name: mask(data.decode("utf-8", "replace")) for name, data in after.items()
                   if before.get(name) != data}
        outcomes.append(Outcome(done.returncode, mask(done.stdout), mask(done.stderr), written))
    return outcomes


def _diff(label: str, old: str, new: str) -> list[str]:
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(), f"old {label}",
                                      f"new {label}", lineterm="", n=1))
    return lines[:40]


def compare(old_tree: Path, new_tree: Path) -> int:
    with tempfile.TemporaryDirectory(prefix="gmml-differential-") as tmp:
        runs = []
        for side, tree in (("old", old_tree), ("new", new_tree)):
            work = Path(tmp) / side
            work.mkdir()
            runs.append(_run_tree(tree, work))
    failures = 0
    for command, old, new in zip(COMMANDS, *runs, strict=True):
        problems = []
        if new.code != command.code:
            problems.append(f"exit code {new.code} on the new tree, documented {command.code}")
        if old.code != new.code:
            problems.append(f"exit code {old.code} -> {new.code}")
        for label, a, b in (("stdout", old.stdout, new.stdout),
                            ("stderr", old.stderr, new.stderr)):
            if a != b:
                problems += _diff(label, a, b)
        if old.files.keys() != new.files.keys():
            problems.append(f"files written {sorted(old.files)} -> {sorted(new.files)}")
        for name in sorted(old.files.keys() & new.files.keys()):
            if old.files[name] != new.files[name]:
                problems += _diff(name, old.files[name], new.files[name])
        if problems:
            failures += 1
            print(f"DIFFERS: {command.name}")
            print("\n".join(f"  {p}" for p in problems))
    if failures:
        print(f"{failures} of {len(COMMANDS)} commands differ")
        return 1
    print(f"all {len(COMMANDS)} commands match in exit code, stdout, stderr and written files "
          "(timings, *_time fields, created: lines and warning locations masked)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
