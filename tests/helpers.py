"""Shared test fixtures: random SPD factories, synthetic datasets, the
arithmetic-harmonic-mean oracle used to cross-check geodesic midpoints, the
inverse-then-geodesic route used to cross-check ``solve``, the
token-by-token dataset loader used to cross-check ``load_dataset``, the
entry-by-entry row writer used to cross-check ``save_metric``, the
per-candidate loop used to cross-check ``cross_validate_t``, and the
cursor deal and per-class cut used to cross-check ``stratified_folds`` and
``holdout_split``."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from gmml import (
    SPD_TOLERANCE,
    DataError,
    EmptyFile,
    GmmlConfig,
    InconsistentWidth,
    LabeledDataset,
    NotPositiveDefinite,
    ParseError,
    ScatterMatrices,
    SingularScatter,
    check_spd,
    geodesic,
    sample_constraints,
    scatter_matrices,
    spd_inverse,
    symmetrize,
)
from gmml.evaluation import (
    CvResult,
    TScore,
    _pick_best,
    default_constraint_count,
    evaluate_split,
    fit_metric,
    stratified_folds,
)
from gmml.io import _encode_labels
from gmml.learn import solve_basis


def rand_spd(rng: np.random.Generator, d: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.uniform(lo, hi, size=d)
    m = q @ np.diag(w) @ q.T
    return (m + m.T) / 2


def ahm_mean(a: np.ndarray, b: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Geometric mean a #_{1/2} b by the arithmetic-harmonic iteration.

    A_{k+1} = (A_k + B_k)/2 and B_{k+1} = 2(A_k^{-1} + B_k^{-1})^{-1} both
    converge to the midpoint of the geodesic; entirely independent of the
    package's Cholesky-based path.
    """
    ak = np.asarray(a, dtype=float).copy()
    bk = np.asarray(b, dtype=float).copy()
    for _ in range(200):
        an = (ak + bk) / 2
        hn = 2 * np.linalg.inv(np.linalg.inv(ak) + np.linalg.inv(bk))
        ak, bk = an, (hn + hn.T) / 2
        if np.linalg.norm(ak - bk) < tol:
            break
    return (ak + bk) / 2


def spd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root via eigendecomposition (oracle path)."""
    w, v = np.linalg.eigh(a)
    return v @ np.diag(np.sqrt(w)) @ v.T


def solve_oracle(sc: ScatterMatrices, cfg: GmmlConfig) -> np.ndarray:
    """Reference solver: eigenvalue guards on both scatters, then
    geodesic(S^{-1}, D, t), which factors S and then S^{-1} again.

    Same contract as :func:`gmml.solve`, except that it rejects some
    ill-conditioned pairs the single-factorization route solves.
    """
    if cfg.lam == 0.0:
        for which, m in (("similarity", sc.s_mat), ("dissimilarity", sc.d_mat)):
            w = np.linalg.eigvalsh(m)
            if not (w[-1] > 0 and w[0] > SPD_TOLERANCE * w[-1]):
                raise SingularScatter(which, "oracle guard")
        s_used, d_used = sc.s_mat, sc.d_mat
    else:
        a0 = cfg.prior_for_dim(sc.dim)
        s_used = symmetrize(sc.s_mat + cfg.lam * spd_inverse(a0))
        d_used = symmetrize(sc.d_mat + cfg.lam * a0)
    return check_spd(geodesic(spd_inverse(s_used), d_used, cfg.t), "learned metric")


def make_blobs(
    rng: np.random.Generator,
    n_per_class: int = 40,
    centers=((0.0, 0.0), (8.0, 8.0)),
    sigma: float = 0.5,
    name: str = "blobs",
) -> LabeledDataset:
    """Well-separated isotropic Gaussian blobs, one per class."""
    centers = np.asarray(centers, dtype=float)
    pts = np.vstack([rng.normal(c, sigma, (n_per_class, centers.shape[1])) for c in centers])
    labels = np.repeat(np.arange(centers.shape[0]), n_per_class)
    return LabeledDataset(points=pts, labels=labels, name=name)


def make_anisotropic(
    rng: np.random.Generator,
    n_per_class: int = 100,
    d: int = 10,
    signal_sigma: float = 0.25,
    noise_sigma: float = 4.0,
    name: str = "aniso",
) -> LabeledDataset:
    """Two classes separated only along feature 0; the rest is loud noise.

    Euclidean k-NN is nearly blind here (noise dominates distances), while
    a metric that upweights feature 0 separates the classes easily.
    """
    n = 2 * n_per_class
    pts = rng.normal(0.0, noise_sigma, (n, d))
    labels = np.repeat([0, 1], n_per_class)
    pts[:, 0] = rng.normal(0.0, signal_sigma, n) + np.where(labels == 0, -1.0, 1.0)
    return LabeledDataset(points=pts, labels=labels, name=name)


def write_csv(path, data: LabeledDataset) -> None:
    """Dump a dataset as comma-delimited text with the label last."""
    rows = []
    for p, l in zip(data.points, data.labels):
        rows.append(",".join(repr(float(v)) for v in p) + f",{int(l)}")
    path.write_text("\n".join(rows) + "\n")


def metric_rows_oracle(m: np.ndarray) -> str:
    """Reference text of a metric file's matrix section: every entry of
    every row formatted with ``repr``, one newline-terminated line a row."""
    return "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())


def load_dataset_oracle(path, label_column: int = -1) -> LabeledDataset:
    """Reference loader: keeps every row's tokens, then converts token by token.

    Same contract as :func:`gmml.load_dataset` for UTF-8 files without a
    byte-order mark and without empty fields, where the library loader
    deliberately differs.
    """
    path = Path(path)
    rows: list[list[str]] = []
    line_numbers: list[int] = []
    width = comma = None
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if comma is None:
            comma = "," in stripped
        if comma:
            fields = [f.strip() for f in stripped.split(",")]
        else:
            fields = stripped.split()
        if width is None:
            width = len(fields)
            if width < 2:
                raise ParseError("need at least one feature column and a label column", lineno)
        elif len(fields) != width:
            raise InconsistentWidth(f"expected {width} columns, found {len(fields)}", lineno)
        rows.append(fields)
        line_numbers.append(lineno)

    if not rows:
        raise EmptyFile(f"{path} contains no data rows")

    col = label_column if label_column >= 0 else width + label_column
    if not 0 <= col < width:
        raise ParseError(f"label column {label_column} out of range for {width} columns")

    label_tokens: list[str] = []
    features = np.empty((len(rows), width - 1))
    for r, (fields, lineno) in enumerate(zip(rows, line_numbers)):
        label_tokens.append(fields[col])
        feat = fields[:col] + fields[col + 1:]
        for c_idx, tok in enumerate(feat):
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(f"non-numeric feature value {tok!r}", lineno) from None
            if not np.isfinite(value):
                raise ParseError(f"non-finite feature value {tok!r}", lineno)
            features[r, c_idx] = value

    if len(rows) < 2:
        raise DataError(f"{path} has 1 data row; a dataset needs at least 2")
    labels, label_names = _encode_labels(label_tokens)
    return LabeledDataset(points=features, labels=labels, label_names=label_names,
                          name=path.stem)


def cross_validate_t_oracle(
    train, policy, cfg, k, seed, constraint_count=None, standardize=False,
) -> CvResult:
    """Reference cross-validation in two phases. Phase one fits every fold
    in order (sample, scatter, ``solve_basis``): a singular scatter raises
    SingularScatter naming it, any other error propagates. Phase two runs
    one ``fit_metric`` and one ``evaluate_split`` per (t, fold), each
    solving and classifying on its own; a NotPositiveDefinite there
    disqualifies that t.

    Same contract as :func:`gmml.cross_validate_t`, which scores every t of
    a fold from one factorization and classifies them together, except for
    a metric the guard accepts but that has no Cholesky factor: there
    ``cross_validate_t`` raises and the oracle disqualifies its t.
    """
    if constraint_count is None:
        constraint_count = default_constraint_count(max(train.num_classes, 2))
    n = train.n_points
    # fold count degrades on small data, but every fold must keep >= 2 points
    n_folds = min(policy.cv_folds, n // 2)
    if n_folds < 2:
        raise DataError(f"cross-validation needs at least 4 points, got {n}")
    rng = np.random.default_rng(seed)
    folds = stratified_folds(train.labels, n_folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=n_folds)
    splits = []
    all_idx = np.arange(n)
    for f, fold in enumerate(folds):
        rest = np.setdiff1d(all_idx, fold, assume_unique=True)
        splits.append((train.subset(rest), train.subset(fold), int(fold_seeds[f])))

    for cv_train, _, fold_seed in splits:
        points = cv_train.points
        if standardize:
            sigma = points.std(axis=0)
            points = (points - points.mean(axis=0)) / np.where(sigma > 0, sigma, 1.0)
        pairs = sample_constraints(cv_train, constraint_count, fold_seed)
        try:
            solve_basis(scatter_matrices(points, pairs), cfg)
        except SingularScatter as exc:
            detail = f"{exc.detail}, so every t candidate failed cross-validation"
            raise SingularScatter(exc.which, detail) from exc

    rejected = []  # (t, fold) of every NotPositiveDefinite, t by t

    def score(t: float, stage: str) -> TScore:
        errors = []
        for f, (cv_train, cv_val, fold_seed) in enumerate(splits):
            try:
                metric, _ = fit_metric(cv_train, replace(cfg, t=t), None, k,
                                       constraint_count, fold_seed, standardize=standardize)
                errors.append(evaluate_split(cv_train, cv_val, metric, k))
            except NotPositiveDefinite:
                rejected.append((t, f))
        if len(errors) < len(splits):
            return TScore(t=t, mean_error=None, stage=stage, disqualified=True)
        return TScore(t=t, mean_error=float(np.mean(errors)), stage=stage)

    scored = [score(t, "coarse") for t in policy.coarse_grid]
    first_rejected = rejected[0] if rejected else None
    winner = _pick_best(scored, first_rejected)
    already = {s.t for s in scored}
    for t in policy.fine_grid(winner):
        if t not in already:
            scored.append(score(t, "fine"))
    return CvResult(chosen_t=_pick_best(scored, first_rejected), scores=tuple(scored))


def stratified_folds_oracle(labels, n_folds, rng) -> list[np.ndarray]:
    """Reference fold deal: each class's indices shuffled in turn, then dealt
    one point at a time to fold ``cursor % n_folds``, with the cursor carried
    across classes. Same contract as :func:`gmml.stratified_folds`."""
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % n_folds].append(int(i))
            cursor += 1
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def holdout_split_oracle(data: LabeledDataset, fraction: float, seed: int):
    """Reference holdout split: each class shuffled and cut in turn. Same
    contract as :func:`gmml.evaluation.holdout_split`."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must lie strictly in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    test_parts = []
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        n_test = min(max(1, round(fraction * idx.size)), idx.size - 1)
        test_parts.append(idx[:n_test])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.setdiff1d(np.arange(data.n_points), test_idx, assume_unique=True)
    if train_idx.size < 2 or test_idx.size < 2:
        raise DataError(
            f"holdout {fraction} of {data.n_points} points leaves {train_idx.size} "
            f"training and {test_idx.size} test points; each side needs at least 2"
        )
    return data.subset(train_idx), data.subset(test_idx)
