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
from .exceptions import DimensionMismatch, GmmlError, NotPositiveDefinite, SingularScatter
from .learn import (
    GmmlConfig,
    LearnedMetric,
    PairConstraints,
    scatter_matrices,
    solve,
)
from .spd import as_square, check_spd, cholesky, spd_mask

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
        if self.fine_spacing <= 0:
            raise ValueError(f"fine_spacing must be > 0, got {self.fine_spacing}")
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
class SplitOutcome:
    """Result of evaluating one train/test split."""

    error_rate: float
    n_test: int
    learn_time: float
    classify_time: float
    learned: LearnedMetric | None = None


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
    """Default number of sampled pair constraints for c classes: 40c(c-1).

    Returns 0 for c = 1; callers must reject single-class data since
    metric learning needs at least two classes.
    """
    if c < 1:
        raise ValueError(f"class count must be >= 1, got {c}")
    return 40 * c * (c - 1)


def _decode_pair_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """Map codes i*n + j (i < j) back to index pairs."""
    return np.column_stack((codes // n, codes % n))


def sample_constraints(data: LabeledDataset, count: int, seed: int) -> PairConstraints:
    """Draw `count` unordered point pairs uniformly at random.

    Sampling is without replacement over the universe of distinct pairs,
    falling back to with-replacement draws when the universe holds fewer
    than `count` pairs. Each pair lands in the similar set when its labels
    match and in the dissimilar set otherwise. Deterministic given seed.
    """
    n = data.n_points
    if n < 2:
        raise ValueError("constraint sampling needs at least 2 points")
    if count < 1:
        raise ValueError(f"constraint count must be >= 1, got {count}")
    universe = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    if count > universe:
        ii, jj = np.triu_indices(n, 1)
        picks = rng.integers(0, universe, size=count)
        pairs = np.column_stack((ii[picks], jj[picks]))
    elif universe <= max(4 * count, 4096):
        ii, jj = np.triu_indices(n, 1)
        picks = rng.permutation(universe)[:count]
        pairs = np.column_stack((ii[picks], jj[picks]))
    else:
        # large sparse universe: rejection-sample distinct pairs
        seen: set[int] = set()
        chosen: list[int] = []
        while len(chosen) < count:
            m = 2 * (count - len(chosen)) + 16
            ii = rng.integers(0, n, size=m)
            jj = rng.integers(0, n, size=m)
            mask = ii != jj
            codes = np.minimum(ii[mask], jj[mask]) * n + np.maximum(ii[mask], jj[mask])
            for code in codes:
                code = int(code)
                if code not in seen:
                    seen.add(code)
                    chosen.append(code)
                    if len(chosen) == count:
                        break
        pairs = _decode_pair_codes(np.asarray(chosen, dtype=np.int64), n)

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


# A block of queries gets about this many query x train distances at once,
# over all metrics of a stack, which caps the classifier's temporary memory
# whatever the test set size.
_BLOCK_ELEMENTS = 2**14
# A stack of metrics is classified in chunks whose train embeddings (one
# n x d copy of train per metric) hold at most about this many floats.
_EMBED_ELEMENTS = 2**18
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
    are decided the same way. The stack is embedded in chunks of at most
    _EMBED_ELEMENTS train floats, and a block holds about _BLOCK_ELEMENTS
    distances, so memory stays bounded whatever T and the query count.

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
    per_chunk = max(1, _EMBED_ELEMENTS // (n * d))
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
    exactly as the scalar rule decides it.

    Raises DimensionMismatch when ``metric`` or ``query`` does not fit the
    data, and NotPositiveDefinite when ``metric`` is not SPD.
    """
    a = _metric_array(metric, train.n_features)
    query = np.asarray(query, dtype=float).ravel()
    if query.shape[0] != train.n_features:
        raise DimensionMismatch(
            f"query dim {query.shape[0]} vs data dim {train.n_features}"
        )
    return int(_knn_labels(train.points, train.labels, a[None], query[None, :], k)[0, 0])


def _metric_array(metric, dim: int) -> np.ndarray:
    """The matrix of a fixed ``metric`` (an array or LearnedMetric), which
    must be ``dim`` x ``dim`` (DimensionMismatch otherwise)."""
    a = as_square(metric.matrix if isinstance(metric, LearnedMetric) else metric, "metric")
    if a.shape[0] != dim:
        raise DimensionMismatch(f"metric dim {a.shape[0]} vs data dim {dim}")
    return a


def _standardize(train_pts: np.ndarray, *others: np.ndarray) -> tuple[np.ndarray, ...]:
    """``train_pts`` and every array of ``others`` z-scored by the
    statistics of ``train_pts`` alone (a constant feature is only centred)."""
    mu = train_pts.mean(axis=0)
    sigma = train_pts.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    return tuple((pts - mu) / sigma for pts in (train_pts, *others))


def _learn(
    train: LabeledDataset, points: np.ndarray, cfg: GmmlConfig, count: int, seed: int,
    fingerprint: str | None = None,
) -> LearnedMetric:
    """The closed-form learn step: sample ``count`` pairs of ``train`` with
    ``seed``, build their scatters over ``points`` (train's points, z-scored
    or not) and solve for the metric of ``cfg``."""
    pairs = sample_constraints(train, count, seed)
    return solve(scatter_matrices(points, pairs), cfg, fingerprint)


def evaluate_split(
    train: LabeledDataset,
    test: LabeledDataset,
    cfg: GmmlConfig,
    k: int,
    constraint_count: int,
    seed: int,
    metric=None,
    standardize: bool = False,
) -> SplitOutcome:
    """Learn on ``train``, classify ``test``, return the misclassified fraction.

    Constraints are sampled from the training fold only. When ``metric``
    is given (an SPD array or LearnedMetric) learning is skipped, which
    provides the plain-Euclidean baseline via an identity matrix; one that
    is not SPD raises NotPositiveDefinite, and one that is not square of the
    data's dimension DimensionMismatch. Test points are classified by the
    rule of ``knn_predict``.
    """
    if train.n_features != test.n_features:
        raise DimensionMismatch(
            f"train dim {train.n_features} vs test dim {test.n_features}"
        )
    train_pts, test_pts = train.points, test.points
    if standardize:
        train_pts, test_pts = _standardize(train_pts, test_pts)

    learned = None
    t0 = time.perf_counter()
    if metric is None:
        try:
            learned = _learn(train, train_pts, cfg, constraint_count, seed)
        except SingularScatter as exc:
            where = f" (dataset {train.name})" if train.name else ""
            raise SingularScatter(exc.which, f"while learning{where}") from exc
        a = learned.matrix
    else:
        a = _metric_array(metric, train.n_features)
    learn_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    predicted = _knn_labels(train_pts, train.labels, a[None], test_pts, k)[0]
    wrong = int(np.count_nonzero(predicted != test.labels))
    classify_time = time.perf_counter() - t1

    return SplitOutcome(
        error_rate=wrong / test.n_points,
        n_test=test.n_points,
        learn_time=learn_time,
        classify_time=classify_time,
        learned=learned,
    )


def stratified_folds(labels: np.ndarray, n_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Partition indices into n_folds folds, spreading every class across folds.

    Within-class order is shuffled; assignment deals round-robin with a
    cursor carried across classes, so fold sizes differ by at most one.
    """
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % n_folds].append(int(i))
            cursor += 1
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


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
    """Stratified train/test split holding out ``fraction`` of each class."""
    rng = np.random.default_rng(seed)
    test_parts = []
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        n_test = min(max(1, round(fraction * idx.size)), idx.size - 1)
        test_parts.append(idx[:n_test])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.setdiff1d(np.arange(data.n_points), test_idx, assume_unique=True)
    return data.subset(train_idx), data.subset(test_idx)


# Classification errors cross_validate_t records per (t, fold) and raises
# when its walk reaches that (t, fold).
_REPLAYED = (GmmlError, ValueError)


def _attempt(fn, *args):
    """``fn(*args)``, or the error it raised, which ``cross_validate_t``
    raises once its walk reaches the (t, fold) that raised it."""
    try:
        return fn(*args)
    except _REPLAYED as exc:
        return exc


def _pick_best(scored: list[TScore], singular: list[SingularScatter]) -> float:
    """The t of least mean error, ties toward 0.5. With every candidate
    disqualified, raises SingularScatter naming the scatter of the first
    singular fold, ``singular[0]``."""
    alive = [s for s in scored if not s.disqualified]
    if not alive:
        raise SingularScatter(
            singular[0].which, "every t candidate failed cross-validation"
        ) from singular[0]
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

    Step one scores the coarse grid by mean CV error; step two scores a
    fine window around the coarse winner. The overall argmin wins, with
    ties broken toward the t nearest 0.5. A candidate failing any fold
    (singular scatter) is disqualified; the scatters do not depend on t, so
    a singular fold disqualifies every candidate. With ``standardize`` every
    fold is z-scored by its own training part, as ``evaluate_split`` does.

    Every candidate is a point A_t = P diag(w^t) P^T of one geodesic, so
    each fold samples its constraints, builds its scatters and factors
    them once: one ``solve`` at the first t scored, whose ``basis`` gives
    every other A_t. A stage walks its (t, fold) pairs in the order of a
    loop over t then folds. The first time the walk reaches a fold, it fits
    the fold if no earlier stage did and classifies the fold's whole stage:
    its matrices are checked like a learned metric by one stacked
    eigenvalue guard (``check_spd`` runs only on a matrix the guard
    rejects, for its error) and classified by one ``_knn_labels`` call on
    the stack. A fitting error raises where it is met; a classification
    error is recorded per t and raised when the walk reaches its t. So the
    scores, the chosen t, the warnings and the first exception are those of
    calling ``evaluate_split`` for every (t, fold).
    """
    if constraint_count is None:
        constraint_count = default_constraint_count(train.num_classes)
    n = train.n_points
    # fold count degrades on small data, but every fold must keep >= 2 points
    n_folds = min(policy.cv_folds, n // 2)
    if n_folds < 2:
        raise ValueError(f"cross-validation needs at least 4 points, got {n}")
    rng = np.random.default_rng(seed)
    index_splits = _fold_splits(train.labels, n_folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=n_folds)
    splits = [
        (train.subset(rest), train.subset(fold), int(fold_seed))
        for (rest, fold), fold_seed in zip(index_splits, fold_seeds)
    ]

    # per fold: (train points, validation points, basis), or None when its
    # scatter is singular. Only the basis is kept, not the solved matrix, so
    # a fold holds one d x d array between stages.
    fits = []
    singular: list[SingularScatter] = []

    def fit(f: int, t: float):
        cv_train, cv_val, fold_seed = splits[f]
        train_pts, val_pts = cv_train.points, cv_val.points
        if standardize:
            train_pts, val_pts = _standardize(train_pts, val_pts)
        try:
            learned = _learn(cv_train, train_pts, replace(cfg, t=t), constraint_count, fold_seed)
        except SingularScatter as exc:
            singular.append(exc)
            return None
        return train_pts, val_pts, learned.basis

    def classify(f: int, ts: tuple[float, ...]) -> list:
        """The error rate, or the exception raised, of every t on fold f."""
        cv_train, cv_val, _ = splits[f]
        train_pts, val_pts, basis = fits[f]
        stack = np.stack([basis.matrix(t) for t in ts])
        outcomes: list = [None] * len(ts)
        passed = spd_mask(stack)
        for i in np.flatnonzero(~passed):
            outcomes[i] = _attempt(check_spd, stack[i], "learned metric")
            passed[i] = not isinstance(outcomes[i], Exception)
        keep = np.flatnonzero(passed)
        if keep.size == 0:
            return outcomes
        try:
            labels = list(_knn_labels(train_pts, cv_train.labels, stack[keep], val_pts, k))
        except _REPLAYED:
            # a matrix without a Cholesky factor, say: classifying one matrix
            # at a time finds which, and the walk raises its error at its t
            labels = [_attempt(_knn_labels, train_pts, cv_train.labels, stack[i:i + 1],
                               val_pts, k) for i in keep]
        for i, predicted in zip(keep, labels):
            outcomes[i] = predicted if isinstance(predicted, Exception) else (
                int(np.count_nonzero(predicted != cv_val.labels)) / cv_val.n_points
            )
        return outcomes

    def score(ts: tuple[float, ...], stage: str) -> list[TScore]:
        """Scores of every t of a stage, walked t by t, fold by fold. A
        singular fold stops the walk at every t, so the walk first reaches
        each fold it reaches at all at the stage's first t."""
        by_fold = []
        scores = []
        for i, t in enumerate(ts):
            errors = []
            for f in range(n_folds):
                if f == len(fits):
                    fits.append(fit(f, t))
                if fits[f] is None:
                    scores.append(TScore(t=t, mean_error=None, stage=stage, disqualified=True))
                    break
                if f == len(by_fold):
                    by_fold.append(classify(f, ts))
                if isinstance(by_fold[f][i], Exception):
                    raise by_fold[f][i]
                errors.append(by_fold[f][i])
            else:
                scores.append(TScore(t=t, mean_error=float(np.mean(errors)), stage=stage))
        return scores

    scored = score(policy.coarse_grid, "coarse")
    winner = _pick_best(scored, singular)
    already = {s.t for s in scored}
    fine = tuple(t for t in policy.fine_grid(winner) if t not in already)
    if fine:
        scored += score(fine, "fine")
    return CvResult(chosen_t=_pick_best(scored, singular), scores=tuple(scored))


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
) -> tuple[RunRecord, SplitOutcome]:
    """Cross-validate t on ``train`` when ``policy`` is given and ``metric``
    is not, then learn on ``train`` (or use the fixed ``metric``) and
    classify ``test``. The record's ``chosen_t`` is None for a fixed metric
    and its ``total_time`` runs from ``start``."""
    if metric is not None:
        chosen_t = None
    elif policy is not None:
        chosen_t = cross_validate_t(
            train, policy, cfg, k, cv_seed, constraint_count, standardize
        ).chosen_t
    else:
        chosen_t = cfg.t
    outcome = evaluate_split(
        train, test, cfg if chosen_t is None else replace(cfg, t=chosen_t), k,
        constraint_count, eval_seed, metric=metric, standardize=standardize,
    )
    record = RunRecord(
        run=run, fold=fold, error_rate=outcome.error_rate, chosen_t=chosen_t,
        learn_time=outcome.learn_time, total_time=time.perf_counter() - start,
        n_train=train.n_points, n_test=test.n_points,
    )
    return record, outcome


def _build_report(data: LabeledDataset, records, **fields) -> EvalReport:
    """The EvalReport of ``records`` on ``data``: its name, label names and
    the aggregates over the records are taken here, every other field from
    ``fields``. Failed records count only toward the total time."""
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
    given plan.rng_seed, up to wall-clock fields. Every fold must hold at
    least 2 points, so the data needs n >= 2 * plan.n_folds (ValueError
    otherwise).
    """
    if not baseline and data.num_classes < 2:
        raise ValueError("metric learning needs at least 2 classes")
    if data.n_points < 2 * plan.n_folds:
        raise ValueError(
            f"{plan.n_folds} folds need at least {2 * plan.n_folds} points, "
            f"got {data.n_points}"
        )
    if constraint_count is None:
        constraint_count = default_constraint_count(max(data.num_classes, 2))
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
        data, records, fingerprint=fingerprint, seed=plan.rng_seed, k=k,
        t_mode="identity" if baseline else "cv" if policy is not None else f"{cfg.t}",
        lam=cfg.lam, constraint_count=constraint_count, n_runs=plan.n_runs,
        n_folds=plan.n_folds, baseline=baseline, standardize=standardize,
    )
