"""k-NN evaluation harness: constraint sampling, classification under a
learned metric, repeated stratified splits, and the two-step grid search
over the geodesic parameter t.

Everything here is deterministic given its seed arguments: randomness
flows only through explicitly seeded generators, and sub-seeds for runs
and folds are pre-drawn so units of work stay independent.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset
from .exceptions import DataError, DimensionMismatch, GmmlError, NotPositiveDefinite, SingularScatter
from .learn import (
    GmmlConfig,
    LearnedMetric,
    PairConstraints,
    Standardizer,
    scatter_matrices,
    solve,
    solve_basis,
)
from .spd import as_square, cholesky, spd_mask

DEFAULT_K = 5
DEFAULT_COARSE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

# Report fields that hold wall-clock measurements (excluded when comparing
# reports for reproducibility).
TIMING_FIELDS = ("learn_time", "total_time", "mean_learn_time", "mean_total_time")


@dataclass(frozen=True)
class SplitPlan:
    """Repeated random-split schedule: n_runs runs of an n_folds split."""

    n_runs: int = 40
    n_folds: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {self.n_folds}")


@dataclass(frozen=True)
class CvPolicy:
    """Two-step grid over t: a coarse pass, then a fine window around the
    coarse winner (fine_count values spaced fine_spacing apart, clamped to
    (0.01, 0.99))."""

    coarse_grid: tuple[float, ...] = DEFAULT_COARSE_GRID
    fine_count: int = 12
    fine_spacing: float = 0.02
    cv_folds: int = 5

    def __post_init__(self):
        object.__setattr__(self, "coarse_grid", tuple(float(t) for t in self.coarse_grid))
        if not self.coarse_grid:
            raise ValueError("coarse_grid must not be empty")
        if any(not 0.0 < t < 1.0 for t in self.coarse_grid):
            raise ValueError(f"coarse grid values must lie in (0, 1): {self.coarse_grid}")
        if self.fine_count < 1:
            raise ValueError(f"fine_count must be >= 1, got {self.fine_count}")
        if not 0.0 < self.fine_spacing < np.inf:
            raise ValueError(f"fine_spacing must be finite and > 0, got {self.fine_spacing}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")

    def fine_grid(self, center: float) -> tuple[float, ...]:
        """Fine candidates centered on the coarse winner, clamped and deduplicated."""
        half = (self.fine_count - 1) / 2
        values = []
        for i in range(self.fine_count):
            t = center + (i - half) * self.fine_spacing
            t = min(max(t, 0.01), 0.99)
            if t not in values:
                values.append(t)
        return tuple(values)


@dataclass(frozen=True)
class TScore:
    """Cross-validation score of one candidate t."""

    t: float
    mean_error: float | None
    stage: str
    disqualified: bool = False


@dataclass(frozen=True)
class CvResult:
    chosen_t: float
    scores: tuple[TScore, ...]


@dataclass(frozen=True)
class RunRecord:
    """One train/evaluate unit of a benchmark (one run, one held-out fold)."""

    run: int
    fold: int
    error_rate: float | None
    chosen_t: float | None
    learn_time: float
    total_time: float
    n_train: int
    n_test: int
    failure: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Aggregated benchmark results plus everything needed to rerun them."""

    dataset_name: str
    fingerprint: str | None
    seed: int
    k: int
    t_mode: str
    lam: float
    constraint_count: int
    n_runs: int
    n_folds: int
    baseline: bool
    standardize: bool
    records: tuple[RunRecord, ...]
    mean_error: float
    std_error: float
    mean_learn_time: float
    mean_total_time: float
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        for rec in self.records:
            if rec.error_rate is not None and not 0.0 <= rec.error_rate <= 1.0:
                raise ValueError(f"error rate out of [0, 1]: {rec.error_rate}")
            if rec.learn_time < 0 or rec.total_time < 0:
                raise ValueError("negative wall-clock time in record")

    @property
    def n_failures(self) -> int:
        return sum(1 for rec in self.records if rec.failure is not None)

    @property
    def chosen_ts(self) -> tuple[float, ...]:
        return tuple(r.chosen_t for r in self.records if r.chosen_t is not None)


def default_constraint_count(c: int) -> int:
    """Default number of sampled pair constraints for c classes: 40c(c-1),
    with one class counted as two (its pairs are all similar)."""
    if c < 1:
        raise ValueError(f"class count must be >= 1, got {c}")
    c = max(c, 2)
    return 40 * c * (c - 1)


def _pair_count(count: int | None, data: LabeledDataset) -> int:
    """``count``, or by default ``default_constraint_count`` of ``data``'s classes."""
    return count if count is not None else default_constraint_count(data.num_classes)


def _require_classes(data: LabeledDataset) -> None:
    if data.num_classes < 2:
        raise DataError(
            f"dataset {data.name!r} has {data.num_classes} class; "
            "metric learning needs at least 2"
        )


def sample_constraints(data: LabeledDataset, count: int, seed: int) -> PairConstraints:
    """Draw `count` unordered point pairs uniformly at random.

    Sampling is without replacement over the universe of distinct pairs,
    falling back to with-replacement draws when the universe holds fewer
    than `count` pairs. Each pair lands in the similar set when its labels
    match and in the dissimilar set otherwise. Deterministic given seed.
    """
    n = data.n_points
    if count < 1:
        raise ValueError(f"constraint count must be >= 1, got {count}")
    universe = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    if count > universe:
        picks = rng.integers(0, universe, size=count)
    else:
        picks = rng.choice(universe, size=count, replace=False)
    # pick p is the row-major index of pair (i, j), i < j, in the strict
    # upper triangle; row i starts at index i * (2n - i - 1) / 2
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, picks, side="right") - 1
    pairs = np.column_stack((i, picks - starts[i] + i + 1))

    same = data.labels[pairs[:, 0]] == data.labels[pairs[:, 1]]
    return PairConstraints(sim_pairs=pairs[same], dis_pairs=pairs[~same])


def _distances_to_all(metric: np.ndarray, points: np.ndarray, query: np.ndarray) -> np.ndarray:
    u = points - query
    return np.clip(np.einsum("ij,jk,ik->i", u, metric, u), 0.0, None)


def _vote(dists: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Majority label among the k nearest, with deterministic tie-breaking.

    Ties at the k-th distance admit every tied point; vote ties go to the
    class whose voters have the smaller mean distance, then to the smaller
    class index.
    """
    n = dists.shape[0]
    if k > n:
        warnings.warn(f"k={k} exceeds {n} training points; clamping to {n}")
        k = n
    kth = np.partition(dists, k - 1)[k - 1]
    voters = np.flatnonzero(dists <= kth)
    classes, counts = np.unique(labels[voters], return_counts=True)
    top = counts.max()
    candidates = classes[counts == top]
    if candidates.shape[0] == 1:
        return int(candidates[0])
    means = [dists[voters[labels[voters] == cls]].mean() for cls in candidates]
    best = np.flatnonzero(np.asarray(means) == min(means))
    return int(candidates[best[0]])


# The classifier's one memory budget, in floats: a chunk of a metric stack
# holds about this many train embeddings (one n x d copy of train per
# metric), and a block of queries about this many query x train distances
# over the chunk's metrics, whatever the stack and test set sizes.
_BLOCK_ELEMENTS = 2**14
# numpy's einsum sums a two-feature row in another order when it is given
# fewer than three rows, so recomputing at least three candidates keeps every
# recomputed distance bit-identical to the one _distances_to_all gives on all
# of train (tests/test_evaluation.py has an exact tie that this decides).
_MIN_CANDIDATES = 3
_EPS = np.finfo(float).eps


def _one_hot(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct labels and the (n, classes) indicator matrix."""
    classes, codes = np.unique(labels, return_inverse=True)
    return classes, np.eye(classes.shape[0])[codes]


def _vote_rows(
    dists: np.ndarray, one_hot: np.ndarray, k: int, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar ``_vote`` of every row of ``dists`` at once, for distances
    known only to within ``delta`` (one bound per row) of the exact ones.

    Returns the column of ``one_hot`` each row votes for, and a mask of the
    rows this cannot decide exactly: those whose (k+1)-th distance lies
    within 2 delta of the k-th (the voters are not certain), whose vote tie
    has its two smallest mean distances within 2 delta plus the rounding of
    the sums, or whose distances or bound are not finite. Every other row
    has the voters, class counts and winner the scalar rule gives on the
    exact distances; ``k`` must already be clamped to the row length.
    """
    m, n = dists.shape
    # rows with huge or non-finite distances overflow below; they are unsure
    with np.errstate(over="ignore", invalid="ignore"):
        rowmax = dists.max(axis=1)
        if k < n:
            part = np.partition(dists, k, axis=1)
            kth = part[:, :k].max(axis=1)
            unsure = ~(part[:, k] - kth > 2.0 * delta)
            del part  # free the copy before the vote's own temporaries
        else:
            kth = rowmax
            unsure = np.zeros(m, dtype=bool)
        unsure |= ~np.isfinite(2.0 * (rowmax + delta))
        voters = dists <= kth[:, None]
        counts = voters @ one_hot
        sums = np.where(voters, dists, 0.0) @ one_hot
        tied = counts == counts.max(axis=1)[:, None]
        means = np.where(tied, sums / np.maximum(counts, 1.0), np.inf)
        # first index of the smallest mean: the smaller class of an exact tie
        choice = np.argmin(means, axis=1)
        contested = np.flatnonzero(tied.sum(axis=1) > 1)
        if contested.size:
            low2 = np.partition(means[contested], 1, axis=1)
            d = delta[contested]
            # a mean of up to n_voters terms, each within delta and at most
            # |kth| + delta, rounds by less than (n_voters + 1) eps of that
            rounding = (counts[contested].sum(axis=1) + 1.0) * _EPS * (abs(kth[contested]) + d)
            unsure[contested] |= ~(low2[:, 1] - low2[:, 0] > 2.0 * (d + 2.0 * rounding))
    return choice, unsure


def _knn_labels(
    train_pts: np.ndarray, train_labels: np.ndarray, a: np.ndarray,
    queries: np.ndarray, k: int,
) -> np.ndarray:
    """k-NN labels of the rows of ``queries`` under every metric of the
    (T, d, d) stack ``a``: entry (t, i) of the (T, q) result is decided
    exactly as ``_vote(_distances_to_all(a[t], train_pts, queries[i]),
    train_labels, k)`` would decide it.

    Train and queries are embedded by the Cholesky factors A_t = L_t L_t^T
    of the whole stack, factored at once, so that
    d_t(x, y) = ||xL_t||^2 + ||yL_t||^2 - 2 (xL_t).(yL_t), one stacked GEMM
    per block of queries. That Gram distance g differs from the exact
    distance e of ``_distances_to_all`` by at most

        delta_t = (d + 3)^2 * eps * tr(A_t) * (||x||^2 + max_y ||y||^2),

    a first-order bound on the rounding of the Cholesky factor, the
    embedding, the dot products and the einsum, with tr(A_t) >= ||A_t||_2
    and the norms taken before embedding (an ill-conditioned L_t can shrink
    the embedded norms far below the error of embedding). A block's
    (T, rows, n) Gram distances are voted at once by ``_vote_rows``, as
    T * rows rows each with its own delta. A row it cannot decide exactly
    (a distance within 2 delta of the k-th, or a vote tie within 2 delta on
    mean distance) is decided by the scalar rule under its own A_t: every
    point whose exact distance is at most the row's k-th exact distance has
    a Gram distance at most 2 delta above the row's k-th Gram distance, or
    above its _MIN_CANDIDATES-th when k is smaller. Those candidates get
    their exact distances back, and ``_vote`` on them sees the same voters
    as on all of train: duplicates, ties at the k-th distance and vote ties
    are decided the same way. One budget, _BLOCK_ELEMENTS floats, bounds
    both a chunk of the stack's train embeddings and a block's distances,
    so memory stays bounded whatever T and the query count.

    Raises ValueError when k < 1, and NotPositiveDefinite when a matrix of
    ``a`` is not symmetric or has no Cholesky factor.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, d = train_pts.shape
    if k > n:
        warnings.warn(f"k={k} exceeds {n} training points; clamping to {n}")
        k = n
    if not np.array_equal(a, a.swapaxes(1, 2)):
        raise NotPositiveDefinite("metric is not symmetric")
    low = cholesky(a)
    classes, one_hot = _one_hot(train_labels)
    max_raw = np.einsum("ij,ij->i", train_pts, train_pts).max()
    query_raw = np.einsum("ij,ij->i", queries, queries) + max_raw
    # delta per unit of squared row norm, one per metric
    scale = (d + 3) ** 2 * _EPS * np.trace(a, axis1=1, axis2=2)
    pick = min(n, max(k, _MIN_CANDIDATES)) - 1
    predicted = np.empty((a.shape[0], queries.shape[0]), dtype=np.int64)
    per_chunk = max(1, _BLOCK_ELEMENTS // (n * d))
    for first in range(0, a.shape[0], per_chunk):
        chunk = low[first:first + per_chunk]
        m = chunk.shape[0]
        train_emb = train_pts @ chunk
        train_sq = np.einsum("tij,tij->ti", train_emb, train_emb)
        rows = max(1, _BLOCK_ELEMENTS // (n * m))
        for start in range(0, queries.shape[0], rows):
            block = queries[start:start + rows]
            r = block.shape[0]
            emb = block @ chunk
            # in place: one block-sized temporary besides the vote's
            gram = emb @ train_emb.transpose(0, 2, 1)
            gram *= -2.0
            gram += train_sq[:, None, :]
            gram += np.einsum("tij,tij->ti", emb, emb)[:, :, None]
            gram = gram.reshape(m * r, n)
            delta = np.outer(scale[first:first + m], query_raw[start:start + r]).ravel()
            choice, unsure = _vote_rows(gram, one_hot, k, delta)
            predicted[first:first + m, start:start + r] = classes[choice].reshape(m, r)
            if not unsure.any():
                continue
            redo = np.flatnonzero(unsure)
            kth = np.partition(gram[redo], pick, axis=1)[:, pick]
            # written as "not above" so that a Gram distance that overflowed to
            # nan makes its point a candidate, measured exactly like the rest
            near = ~(gram[redo] > (kth + 2.0 * delta[redo])[:, None])
            for i, flat in enumerate(redo):
                t, row = divmod(int(flat), r)
                cand = np.flatnonzero(near[i])
                dists = _distances_to_all(a[first + t], train_pts[cand], block[row])
                predicted[first + t, start + row] = _vote(dists, train_labels[cand], k)
    return predicted


def knn_predict(train: LabeledDataset, metric, query, k: int = DEFAULT_K) -> int:
    """k-NN label of a query point under a Mahalanobis metric.

    Every training point tied at the k-th smallest distance votes. A vote
    tie goes to the class whose voters have the smaller mean distance, then
    to the smaller class index. When k exceeds the training size it is
    clamped with a warning. The query runs through the same batched
    classifier as ``evaluate_split``, as a batch of one row, and is decided
    exactly as the scalar rule decides it. A LearnedMetric that carries a
    standardizer measures the training points and the query z-scored by it.

    Raises DimensionMismatch when ``metric`` or ``query`` does not fit the
    data, NotPositiveDefinite when ``metric`` is not SPD or not finite, and
    DataError when ``query`` is not finite.
    """
    a = _metric_array(metric, train.n_features)
    query = np.asarray(query, dtype=float).ravel()
    if query.shape[0] != train.n_features:
        raise DimensionMismatch(
            f"query dim {query.shape[0]} vs data dim {train.n_features}"
        )
    if not np.isfinite(query).all():
        raise DataError("query contains non-finite values")
    train_pts, queries = _coordinates(metric, False, train.points, query[None, :])
    return int(_knn_labels(train_pts, train.labels, a[None], queries, k)[0, 0])


def _metric_array(metric, dim: int) -> np.ndarray:
    """The matrix of a fixed ``metric`` (an array or LearnedMetric), which
    must be ``dim`` x ``dim`` (DimensionMismatch otherwise) and finite
    (NotPositiveDefinite otherwise)."""
    a = as_square(metric.matrix if isinstance(metric, LearnedMetric) else metric, "metric")
    if a.shape[0] != dim:
        raise DimensionMismatch(f"metric dim {a.shape[0]} vs data dim {dim}")
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("metric contains non-finite values")
    return a


def _coordinates(metric, standardize: bool, train_pts: np.ndarray, *others: np.ndarray):
    """``train_pts`` and every array of ``others`` in the coordinates
    ``metric`` measures: z-scored by the metric's own standardizer when it
    carries one, else with ``standardize`` by the statistics of
    ``train_pts`` alone, else as given."""
    z = metric.standardizer if isinstance(metric, LearnedMetric) else None
    if z is None and standardize:
        z = Standardizer.of(train_pts)
    if z is None:
        return (train_pts, *others)
    return tuple(z.apply(pts) for pts in (train_pts, *others))


def fit_metric(
    train: LabeledDataset,
    cfg: GmmlConfig,
    policy: CvPolicy | None,
    k: int,
    count: int | None,
    seed: int,
    *,
    cv_seed: int | None = None,
    standardize: bool = False,
    fingerprint: str | None = None,
) -> tuple[LearnedMetric, CvResult | None]:
    """The one fit of a metric to ``train``, and its CvResult (None
    without ``policy``).

    With ``policy``, t is first chosen by ``cross_validate_t`` with ``k``
    neighbors, seeded by ``cv_seed`` (by default ``seed``); with
    ``standardize`` each CV fold is z-scored by its own training part.
    Then ``train`` is z-scored by its own statistics when ``standardize``,
    ``count`` pairs (by default ``default_constraint_count``) are sampled
    with ``seed``, and their scatters are solved at the chosen t, or at
    ``cfg.t`` without ``policy``. The metric carries ``fingerprint`` and
    the standardizer it was learned under (None without ``standardize``).
    A singular scatter of that solve raises SingularScatter naming the
    dataset.
    """
    count = _pair_count(count, train)
    cv = None
    if policy is not None:
        cv_seed = seed if cv_seed is None else cv_seed
        cv = cross_validate_t(train, policy, cfg, k, cv_seed, count, standardize)
        cfg = replace(cfg, t=cv.chosen_t)
    standardizer = Standardizer.of(train.points) if standardize else None
    points = train.points if standardizer is None else standardizer.apply(train.points)
    pairs = sample_constraints(train, count, seed)
    try:
        metric = solve(scatter_matrices(points, pairs), cfg, fingerprint, standardizer)
    except SingularScatter as exc:
        where = f" (dataset {train.name})" if train.name else ""
        raise SingularScatter(exc.which, f"{exc.detail}, while learning{where}") from exc
    return metric, cv


def evaluate_split(
    train: LabeledDataset,
    test: LabeledDataset,
    metric,
    k: int = DEFAULT_K,
    standardize: bool = False,
) -> float:
    """The fraction of ``test`` that k-NN on ``train`` misclassifies under
    the fixed ``metric``, an SPD array or LearnedMetric (``fit_metric``
    learns one; an identity matrix gives the plain-Euclidean baseline).

    Test points are classified by the rule of ``knn_predict``, with train
    and test z-scored by the metric's own standardizer when it carries one,
    or else with ``standardize`` by the statistics of ``train``. Raises
    DimensionMismatch when train and test, or the metric and the data,
    differ in dimension, and NotPositiveDefinite when the metric is not SPD
    or not finite.
    """
    if train.n_features != test.n_features:
        raise DimensionMismatch(
            f"train dim {train.n_features} vs test dim {test.n_features}"
        )
    a = _metric_array(metric, train.n_features)
    train_pts, test_pts = _coordinates(metric, standardize, train.points, test.points)
    predicted = _knn_labels(train_pts, train.labels, a[None], test_pts, k)[0]
    return int(np.count_nonzero(predicted != test.labels)) / test.n_points


def _by_class(labels: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """The indices of each class of ``labels``, in ``np.unique`` order, each
    shuffled by ``rng``: the only draws a stratified split makes."""
    parts = [np.flatnonzero(labels == cls) for cls in np.unique(labels)]
    for idx in parts:
        rng.shuffle(idx)
    return parts


def stratified_folds(labels: np.ndarray, n_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Partition indices into n_folds sorted folds, spreading every class
    across folds: the shuffled classes of ``_by_class``, laid end to end, are
    dealt round-robin, so fold sizes differ by at most one. (The empty head
    keeps the dtype int64, and the folds empty when there are no labels.)"""
    order = np.concatenate([np.empty(0, dtype=np.int64), *_by_class(labels, rng)])
    return [np.sort(order[f::n_folds]) for f in range(n_folds)]


def _fold_splits(
    labels: np.ndarray, n_folds: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, held-out) index pairs, one per fold of ``stratified_folds``."""
    all_idx = np.arange(labels.size)
    return [
        (np.setdiff1d(all_idx, fold, assume_unique=True), fold)
        for fold in stratified_folds(labels, n_folds, rng)
    ]


def holdout_split(
    data: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/test split: test takes the first ``round(fraction * m)``
    of each class's m indices shuffled by ``_by_class``, at least 1, at most m - 1.
    DataError when either side would hold fewer than 2 points."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must lie strictly in (0, 1), got {fraction}")
    test_idx = np.sort(np.concatenate([
        idx[:min(max(1, round(fraction * idx.size)), idx.size - 1)]
        for idx in _by_class(data.labels, np.random.default_rng(seed))
    ]))
    train_idx = np.setdiff1d(np.arange(data.n_points), test_idx, assume_unique=True)
    if min(train_idx.size, test_idx.size) < 2:
        raise DataError(
            f"holdout {fraction} of {data.n_points} points leaves {train_idx.size} "
            f"training and {test_idx.size} test points; each side needs at least 2"
        )
    return data.subset(train_idx), data.subset(test_idx)


def _pick_best(scored: list[TScore], first_rejected: tuple[float, int] | None) -> float:
    """The t of least mean error among the candidates not disqualified, ties
    toward 0.5. With every candidate disqualified, raises NotPositiveDefinite
    naming ``first_rejected``, the first (t, fold) whose metric failed the
    SPD guard."""
    alive = [s for s in scored if not s.disqualified]
    if not alive:
        t, fold = first_rejected
        raise NotPositiveDefinite(
            f"every t candidate failed cross-validation: the learned metric at "
            f"t = {t} is not positive definite on fold {fold}"
        )
    return min(alive, key=lambda s: (s.mean_error, abs(s.t - 0.5), s.t)).t


def cross_validate_t(
    train: LabeledDataset,
    policy: CvPolicy,
    cfg: GmmlConfig,
    k: int,
    seed: int,
    constraint_count: int | None = None,
    standardize: bool = False,
) -> CvResult:
    """Two-step cross-validated choice of the geodesic parameter t.

    Every candidate is a point A_t = P diag(w^t) P^T of one geodesic, so the
    folds are fitted once, in order, before any t is scored: each samples
    its constraints, builds its scatters and factors them (``solve_basis``).
    The first fold that fails to fit raises its error; a singular scatter
    fails every t, so it raises SingularScatter naming that scatter. With
    ``standardize`` every fold is z-scored by its own training part, as
    ``fit_metric`` does.

    Step one scores the coarse grid; step two scores a fine window around
    the coarse winner. Per fold, a stage's A_t are stacked, checked by one
    stacked SPD guard (``spd_mask``, the guard of a learned metric) and the
    accepted ones classified by one ``_knn_labels`` call, whose errors
    propagate. A t whose A_t the guard rejects on any fold is disqualified;
    every other t scores its mean validation error over the folds. The
    overall argmin wins, with ties broken toward the t nearest 0.5. With
    every t disqualified, NotPositiveDefinite names the first rejected
    (t, fold), taking the candidates in order.
    """
    constraint_count = _pair_count(constraint_count, train)
    n = train.n_points
    # fold count degrades on small data, but every fold must keep >= 2 points
    n_folds = min(policy.cv_folds, n // 2)
    if n_folds < 2:
        raise DataError(f"cross-validation needs at least 4 points, got {n}")
    rng = np.random.default_rng(seed)
    index_splits = _fold_splits(train.labels, n_folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=n_folds)

    # per fold: train labels and points, validation labels and points, and
    # the basis, the one d x d array a fold keeps between stages
    fits = []
    for (rest, fold), fold_seed in zip(index_splits, fold_seeds):
        cv_train, cv_val = train.subset(rest), train.subset(fold)
        train_pts, val_pts = _coordinates(None, standardize, cv_train.points, cv_val.points)
        pairs = sample_constraints(cv_train, constraint_count, int(fold_seed))
        try:
            basis = solve_basis(scatter_matrices(train_pts, pairs), cfg)[0]
        except SingularScatter as exc:
            detail = f"{exc.detail}, so every t candidate failed cross-validation"
            raise SingularScatter(exc.which, detail) from exc
        fits.append((cv_train.labels, train_pts, cv_val.labels, val_pts, basis))

    def score(ts: tuple[float, ...], stage: str):
        """The scores of every t of a stage, and its first (t, fold), in
        order of t, whose metric the guard rejects (None if there is none)."""
        rejected = np.zeros((len(ts), n_folds), dtype=bool)
        errors = np.zeros((len(ts), n_folds))
        for f, (train_labels, train_pts, val_labels, val_pts, basis) in enumerate(fits):
            stack = np.stack([basis.matrix(t) for t in ts])
            passed = spd_mask(stack)
            rejected[:, f] = ~passed
            if passed.any():
                predicted = _knn_labels(train_pts, train_labels, stack[passed], val_pts, k)
                wrong = np.count_nonzero(predicted != val_labels, axis=1)
                errors[passed, f] = wrong / val_labels.size
        scores = [
            TScore(t=t, mean_error=None, stage=stage, disqualified=True) if failed.any()
            else TScore(t=t, mean_error=float(np.mean(row)), stage=stage)
            for t, failed, row in zip(ts, rejected, errors)
        ]
        bad = np.argwhere(rejected)  # (t, fold) index pairs, t by t
        return scores, (ts[bad[0, 0]], int(bad[0, 1])) if bad.size else None

    scored, first_rejected = score(policy.coarse_grid, "coarse")
    winner = _pick_best(scored, first_rejected)
    already = {s.t for s in scored}
    fine = tuple(t for t in policy.fine_grid(winner) if t not in already)
    if fine:
        scored += score(fine, "fine")[0]
    return CvResult(chosen_t=_pick_best(scored, first_rejected), scores=tuple(scored))


def _run_unit(
    train: LabeledDataset,
    test: LabeledDataset,
    policy: CvPolicy | None,
    cfg: GmmlConfig,
    k: int,
    constraint_count: int,
    cv_seed: int,
    eval_seed: int,
    *,
    start: float,
    metric=None,
    standardize: bool = False,
    run: int = 0,
    fold: int = 0,
) -> tuple[RunRecord, float]:
    """Fit a metric to ``train`` with ``fit_metric`` unless ``metric`` is
    fixed (cross-validating t with ``cv_seed`` when ``policy`` is given,
    sampling pairs with ``eval_seed``), then classify ``test`` with
    ``evaluate_split``. Returns the record and the seconds the
    classification took. The record's ``chosen_t`` is None for a fixed
    metric, its ``learn_time`` covers the whole fit, cross-validation
    included, and its ``total_time`` runs from ``start``."""
    fit_start = time.perf_counter()
    learned = None if metric is not None else fit_metric(
        train, cfg, policy, k, constraint_count, eval_seed,
        cv_seed=cv_seed, standardize=standardize,
    )[0]
    classify_start = time.perf_counter()
    error_rate = evaluate_split(train, test, metric if learned is None else learned, k, standardize)
    classify_time = time.perf_counter() - classify_start
    record = RunRecord(
        run=run, fold=fold, error_rate=error_rate,
        chosen_t=None if learned is None else learned.config.t,
        learn_time=classify_start - fit_start, total_time=time.perf_counter() - start,
        n_train=train.n_points, n_test=test.n_points,
    )
    return record, classify_time


def _build_report(
    data: LabeledDataset, records, metric, policy: CvPolicy | None, cfg: GmmlConfig,
    **fields,
) -> EvalReport:
    """The EvalReport of ``records`` on ``data``, every field not derived
    here taken from ``fields``. ``t_mode``, ``baseline`` and ``lam`` follow
    from the run's fixed ``metric`` (None when it learned one, a LearnedMetric
    read from a file, or else the Euclidean baseline's identity), ``policy``
    and ``cfg``. Failed records count only toward the total time."""
    if metric is None:
        t_mode = "cv" if policy is not None else f"{cfg.t}"
    else:
        t_mode = "file" if isinstance(metric, LearnedMetric) else "identity"
    errors = [rec.error_rate for rec in records if rec.error_rate is not None]
    learn_times = [rec.learn_time for rec in records if rec.failure is None]
    total_times = [rec.total_time for rec in records]
    return EvalReport(
        dataset_name=data.name,
        records=tuple(records),
        mean_error=float(np.mean(errors)) if errors else float("nan"),
        std_error=float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0,
        mean_learn_time=float(np.mean(learn_times)) if learn_times else 0.0,
        mean_total_time=float(np.mean(total_times)) if total_times else 0.0,
        label_names=tuple(data.label_names) if data.label_names else None,
        t_mode=t_mode,
        baseline=t_mode == "identity",
        lam=cfg.lam,
        **fields,
    )


def run_benchmark(
    data: LabeledDataset,
    plan: SplitPlan,
    policy: CvPolicy | None,
    cfg: GmmlConfig,
    k: int = DEFAULT_K,
    constraint_count: int | None = None,
    baseline: bool = False,
    standardize: bool = False,
    n_jobs: int = 1,
    fingerprint: str | None = None,
) -> EvalReport:
    """Repeated-split benchmark of the learned metric on one dataset.

    Each run splits the data into plan.n_folds stratified folds and holds
    each fold out once (so two-fold runs test every point exactly once per
    run). When ``policy`` is given, t is cross-validated on the training
    part of every split; otherwise cfg.t is used as-is. Failures are
    recorded per unit without aborting the remaining runs. Deterministic
    given plan.rng_seed, up to wall-clock fields. Unless ``baseline``, the
    data needs at least 2 classes (DataError otherwise) and a prior of
    ``cfg`` must match its dimension (DimensionMismatch otherwise), before
    any unit runs. Every fold must hold at least 2 points, so the data
    needs n >= 2 * plan.n_folds (ValueError otherwise).
    """
    if not baseline:
        _require_classes(data)
        cfg.prior_for_dim(data.n_features)
    if data.n_points < 2 * plan.n_folds:
        raise ValueError(
            f"{plan.n_folds} folds need at least {2 * plan.n_folds} points, "
            f"got {data.n_points}"
        )
    constraint_count = _pair_count(constraint_count, data)
    metric = np.eye(data.n_features) if baseline else None

    master = np.random.default_rng(plan.rng_seed)
    split_seeds = master.integers(0, 2**63 - 1, size=plan.n_runs)
    unit_seeds = master.integers(0, 2**63 - 1, size=(plan.n_runs, plan.n_folds, 2)).tolist()
    units = [
        (r, f, train_idx, test_idx)
        for r in range(plan.n_runs)
        for f, (train_idx, test_idx) in enumerate(
            _fold_splits(data.labels, plan.n_folds, np.random.default_rng(split_seeds[r]))
        )
    ]

    def work(unit) -> RunRecord:
        r, f, train_idx, test_idx = unit
        train, test = data.subset(train_idx), data.subset(test_idx)
        start = time.perf_counter()
        try:
            return _run_unit(
                train, test, policy, cfg, k, constraint_count, *unit_seeds[r][f],
                metric=metric, standardize=standardize, run=r, fold=f, start=start,
            )[0]
        except GmmlError as exc:
            return RunRecord(
                run=r, fold=f, error_rate=None, chosen_t=None,
                learn_time=0.0, total_time=time.perf_counter() - start,
                n_train=train.n_points, n_test=test.n_points, failure=str(exc),
            )

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(work, units))
    else:
        records = [work(u) for u in units]

    return _build_report(
        data, records, metric, policy, cfg, fingerprint=fingerprint, seed=plan.rng_seed,
        k=k, constraint_count=constraint_count, n_runs=plan.n_runs, n_folds=plan.n_folds,
        standardize=standardize,
    )
