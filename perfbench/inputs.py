"""Seeded synthetic inputs for the benchmark workloads.

Every dataset is a balanced mixture of c classes. A few informative
coordinates carry unit-variance Gaussian clusters around class centres;
the remaining coordinates are class-independent noise with a much larger
spread. A random rotation then mixes the two groups into every feature,
so neither feature selection nor per-feature scaling recovers the classes.
The Euclidean distance is dominated by the noise, so plain k-NN is close to
chance, while the similarity scatter of a learned metric sees the noise as
within-class spread and shrinks it away. That gap is what the correctness
checks rely on when they demand that the learned metric beats the
Euclidean baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Design:
    """Shape and difficulty of one synthetic dataset."""

    n: int
    d: int
    c: int
    informative: int
    noise_scale: float
    separation: float


# Shapes of each workload's inputs; see perfbench/README.md for why.
CV_DESIGN = Design(n=300, d=10, c=3, informative=3, noise_scale=6.0, separation=4.0)
HOLDOUT_DESIGN = Design(n=2000, d=32, c=4, informative=4, noise_scale=3.0, separation=4.0)
HOLDOUT_TRAIN = 1500
WIDE_DESIGN = Design(n=1000, d=512, c=4, informative=8, noise_scale=3.0, separation=4.0)


def mixture(design: Design, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (n, d) and integer labels 0..c-1 drawn from ``design``."""
    rng = np.random.default_rng(seed)
    labels = np.arange(design.n) % design.c
    rng.shuffle(labels)
    # class j sits at separation * e_j: every pair of centres is equally far
    # apart on every seed, so the seed changes the sample, not the difficulty
    centres = design.separation * np.eye(design.c, design.informative)
    points = np.empty((design.n, design.d))
    points[:, : design.informative] = centres[labels] + rng.standard_normal(
        (design.n, design.informative)
    )
    points[:, design.informative :] = design.noise_scale * rng.standard_normal(
        (design.n, design.d - design.informative)
    )
    rotation, _ = np.linalg.qr(rng.standard_normal((design.d, design.d)))
    return points @ rotation, labels


def write_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    """Comma-separated rows: the features, then the integer label last."""
    rows = np.column_stack((points, labels))
    fmt = ["%.10g"] * points.shape[1] + ["%d"]
    np.savetxt(path, rows, fmt=fmt, delimiter=",")


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The benchmark's own reader of a file written by :func:`write_csv`."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return rows[:, :-1], rows[:, -1].astype(np.int64)


def generate(workload: str, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the input files of ``workload`` into ``out_dir``; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cv-protocol":
        points, labels = mixture(CV_DESIGN, seed)
        files = {"data": out_dir / "data.csv"}
        write_csv(files["data"], points, labels)
    elif workload == "knn-holdout":
        points, labels = mixture(HOLDOUT_DESIGN, seed)
        files = {"train": out_dir / "train.csv", "test": out_dir / "test.csv"}
        write_csv(files["train"], points[:HOLDOUT_TRAIN], labels[:HOLDOUT_TRAIN])
        write_csv(files["test"], points[HOLDOUT_TRAIN:], labels[HOLDOUT_TRAIN:])
    elif workload == "learn-wide":
        points, labels = mixture(WIDE_DESIGN, seed)
        files = {"data": out_dir / "wide.csv"}
        write_csv(files["data"], points, labels)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files
