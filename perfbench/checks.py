"""Correctness checks on the program's outputs, computed apart from it.

Nothing here imports gmml: the metric file is parsed from its documented
text format, k-NN is recomputed with the documented vote rule, and the
matrix equation and the square-root route are evaluated with numpy. Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import re

import numpy as np

# The paper's protocol as documented for `gmml benchmark --t cv`.
K = 5
COARSE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
FINE_COUNT = 12
FINE_SPACING = 0.02
CV_FOLDS = 5

# A chosen t matches a grid value when it lies this close to it.
GRID_TOL = 1e-9
# Relative Frobenius tolerances of the learn-wide checks at d = 512.
RICCATI_TOL = 1e-8
ROUTE_TOL = 1e-7

_TIME_LINE = re.compile(rb'^\s*"[A-Za-z0-9_]*_time": .*$\n?', re.MULTILINE)


def grid_values(coarse=COARSE_GRID, count=FINE_COUNT, spacing=FINE_SPACING) -> list[float]:
    """Every t the two-stage grid can produce: the coarse values, and for
    each of them `count` values `spacing` apart centred on it, clamped to
    [0.01, 0.99]."""
    values = list(coarse)
    half = (count - 1) / 2
    for centre in coarse:
        values += [min(max(centre + (i - half) * spacing, 0.01), 0.99) for i in range(count)]
    return sorted(set(values))


def check_chosen_t(chosen, grid) -> list[str]:
    grid = np.asarray(grid)
    return [
        f"chosen t {t!r} is not a grid value"
        for t in chosen
        if t is None or np.abs(grid - t).min() > GRID_TOL
    ]


def check_cv_report(doc: dict, grid) -> list[str]:
    """Units of a `gmml benchmark --t cv` report: none failed, every error
    rate in [0, 1], every chosen t on the grid."""
    problems = []
    records = doc.get("records") or []
    if not records:
        problems.append("report has no unit records")
    for rec in records:
        where = f"run {rec.get('run')} fold {rec.get('fold')}"
        if rec.get("failure") is not None:
            problems.append(f"{where} failed: {rec['failure']}")
            continue
        err = rec.get("error_rate")
        if err is None or not 0.0 <= err <= 1.0:
            problems.append(f"{where} error rate {err!r} outside [0, 1]")
    problems += check_chosen_t([r.get("chosen_t") for r in records if r.get("failure") is None], grid)
    return problems


def check_beats_baseline(learned_error: float, baseline_error: float, margin: float) -> list[str]:
    if learned_error <= baseline_error - margin:
        return []
    return [
        f"learned error {learned_error:.4f} is not below the Euclidean "
        f"error {baseline_error:.4f} by {margin}"
    ]


def strip_time_fields(raw: bytes) -> bytes:
    """A JSON report with every `*_time` field line removed."""
    return _TIME_LINE.sub(b"", raw)


def check_same_report(first: bytes, other: bytes) -> list[str]:
    if strip_time_fields(first) == strip_time_fields(other):
        return []
    return ["reports of two passes differ outside their *_time fields"]


def parse_metric_file(text: str) -> np.ndarray:
    """The matrix of a metric file in the documented text format."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "gmml-metric":
        raise ValueError("missing 'gmml-metric <version>' magic line")
    fields = {}
    for i, line in enumerate(lines[1:], start=1):
        if line.strip() == "matrix:":
            rows = [r.split() for r in lines[i + 1 :] if r.strip()]
            break
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    else:
        raise ValueError("missing 'matrix:' section")
    dim = int(fields["dim"])
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"matrix section is not {dim} rows of {dim} values")
    return np.array([[float(v) for v in r] for r in rows])


def check_spd(a: np.ndarray) -> list[str]:
    problems = []
    if not np.array_equal(a, a.T):
        problems.append("metric matrix is not symmetric")
    w = np.linalg.eigvalsh((a + a.T) / 2)
    if not w[0] > 0:
        problems.append(f"metric matrix is not positive definite (min eigenvalue {w[0]:.3e})")
    return problems


def scatter(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Sum of (x_i - x_j)(x_i - x_j)^T over the index pairs."""
    diffs = points[pairs[:, 0]] - points[pairs[:, 1]]
    return diffs.T @ diffs


def _spd_power(m: np.ndarray, p: float) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.T) / 2)
    return (v * w**p) @ v.T


def midpoint_route(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """S^{-1/2} (S^{1/2} D S^{1/2})^{1/2} S^{-1/2}, the geodesic midpoint
    from S^{-1} to D by explicit matrix square roots."""
    root = _spd_power(s, 0.5)
    inv_root = _spd_power(s, -0.5)
    return inv_root @ _spd_power(root @ d @ root, 0.5) @ inv_root


def check_midpoint(a: np.ndarray, s: np.ndarray, d: np.ndarray) -> list[str]:
    """A S A = D, and A equal to the square-root route, both relative."""
    problems = []
    residual = np.linalg.norm(a @ s @ a - d) / np.linalg.norm(d)
    if not residual <= RICCATI_TOL:
        problems.append(f"relative residual of A S A = D is {residual:.3e} > {RICCATI_TOL}")
    route = midpoint_route(s, d)
    gap = np.linalg.norm(a - route) / np.linalg.norm(route)
    if not gap <= ROUTE_TOL:
        problems.append(f"metric differs from the square-root route by {gap:.3e} > {ROUTE_TOL}")
    return problems


def vote(dists: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Documented rule: every point tied at the k-th distance votes; a vote
    tie goes to the class with the smaller mean voter distance, then to the
    smaller class."""
    kth = np.sort(dists)[min(k, dists.size) - 1]
    voters = dists <= kth
    counts = np.bincount(labels[voters])
    tied = np.flatnonzero(counts == counts.max())
    if tied.size == 1:
        return int(tied[0])
    means = [dists[voters & (labels == c)].mean() for c in tied]
    return int(tied[int(np.argmin(means))])


def knn_errors(train_x, train_y, test_x, test_y, a: np.ndarray, k: int = K, chunk: int = 64) -> int:
    """Misclassified test points under (x - y)^T A (x - y)."""
    wrong = 0
    for start in range(0, test_x.shape[0], chunk):
        diffs = train_x[None, :, :] - test_x[start : start + chunk, None, :]
        dists = np.einsum("qnd,de,qne->qn", diffs, a, diffs, optimize=True)
        for row, truth in zip(dists, test_y[start : start + chunk]):
            wrong += vote(row, train_y, k) != truth
    return wrong


def reported_errors(report: dict) -> int:
    """Misclassified count of a one-split `gmml eval` report."""
    rec = report["records"][0]
    return round(rec["error_rate"] * rec["n_test"])


def check_eval_count(reported: int, recomputed: int) -> list[str]:
    if reported == recomputed:
        return []
    return [f"gmml eval reports {reported} misclassified, the benchmark counts {recomputed}"]
