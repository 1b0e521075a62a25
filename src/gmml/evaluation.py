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
from .spd import cholesky

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
# which caps the classifier's temporary memory whatever the test set size.
_BLOCK_ELEMENTS = 2**14
# numpy's einsum sums a two-feature row in another order when it is given
# fewer than three rows, so recomputing at least three candidates keeps every
# recomputed distance bit-identical to the one _distances_to_all gives on all
# of train (tests/test_evaluation.py has an exact tie that this decides).
_MIN_CANDIDATES = 3


def _knn_labels(
    train_pts: np.ndarray, train_labels: np.ndarray, a: np.ndarray,
    queries: np.ndarray, k: int,
) -> np.ndarray:
    """k-NN labels of the rows of ``queries``, each decided exactly as
    ``_vote(_distances_to_all(a, train_pts, q), train_labels, k)`` would.

    Train and queries are embedded once by the Cholesky factor A = L L^T,
    so that d_A(x, y) = ||xL||^2 + ||yL||^2 - 2 (xL).(yL), one GEMM per
    block of queries. That Gram distance g differs from the exact distance
    e of ``_distances_to_all`` by at most

        delta = (d + 3)^2 * eps * tr(A) * (||x||^2 + max_y ||y||^2),

    a first-order bound on the rounding of the Cholesky factor, the
    embedding, the dot products and the einsum, with tr(A) >= ||A||_2 and
    the norms taken before embedding (an ill-conditioned L can shrink the
    embedded norms far below the error of embedding). Every point whose
    exact distance is at most the row's k-th exact distance then has a Gram
    distance at most 2 delta above the row's k-th Gram distance, or above
    its _MIN_CANDIDATES-th when k is smaller. Those candidates get their
    exact distances back, and ``_vote`` on them sees the same voters as on
    all of train: duplicates, ties at the k-th distance and vote ties are
    decided the same way.

    Raises NotPositiveDefinite when ``a`` is not symmetric or has no
    Cholesky factor.
    """
    n, d = train_pts.shape
    if k > n:
        warnings.warn(f"k={k} exceeds {n} training points; clamping to {n}")
        k = n
    if not np.array_equal(a, a.T):
        raise NotPositiveDefinite("metric is not symmetric")
    low = cholesky(a)
    train_emb = train_pts @ low
    train_sq = np.einsum("ij,ij->i", train_emb, train_emb)
    max_raw = np.einsum("ij,ij->i", train_pts, train_pts).max()
    # 2 delta per unit of squared row norm
    scale = 2.0 * (d + 3) ** 2 * np.finfo(float).eps * np.trace(a)
    pick = min(n, max(k, _MIN_CANDIDATES)) - 1
    rows = max(1, _BLOCK_ELEMENTS // n)
    predicted = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], rows):
        block = queries[start:start + rows]
        emb = block @ low
        # in place: one block-sized temporary besides the partition copy
        gram = emb @ train_emb.T
        gram *= -2.0
        gram += train_sq
        gram += np.einsum("ij,ij->i", emb, emb)[:, None]
        kth = np.partition(gram, pick, axis=1)[:, pick]
        slack = scale * (np.einsum("ij,ij->i", block, block) + max_raw)
        # written as "not above" so that a Gram distance that overflowed to
        # nan makes its point a candidate, measured exactly like the rest
        near = ~(gram > (kth + slack)[:, None])
        for i, row in enumerate(block):
            cand = np.flatnonzero(near[i])
            dists = _distances_to_all(a, train_pts[cand], row)
            predicted[start + i] = _vote(dists, train_labels[cand], k)
    return predicted


def knn_predict(train: LabeledDataset, metric, query, k: int = DEFAULT_K) -> int:
    """k-NN label of a query point under a Mahalanobis metric.

    Every training point tied at the k-th smallest distance votes. A vote
    tie goes to the class whose voters have the smaller mean distance, then
    to the smaller class index. When k exceeds the training size it is
    clamped with a warning. The query runs through the same batched
    classifier as ``evaluate_split``, as a batch of one row, and is decided
    exactly as the scalar rule decides it.

    Raises NotPositiveDefinite when ``metric`` is not SPD.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = metric.matrix if isinstance(metric, LearnedMetric) else np.asarray(metric, dtype=float)
    query = np.asarray(query, dtype=float).ravel()
    if a.shape[0] != train.n_features or query.shape[0] != train.n_features:
        raise DimensionMismatch(
            f"metric dim {a.shape[0]}, query dim {query.shape[0]}, "
            f"data dim {train.n_features}"
        )
    return int(_knn_labels(train.points, train.labels, a, query[None, :], k)[0])


def _standardizer(train_points: np.ndarray):
    """Z-scoring transform fitted on the training fold only."""
    mu = train_points.mean(axis=0)
    sigma = train_points.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    return lambda pts: (pts - mu) / sigma


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
    is not SPD raises NotPositiveDefinite. Test points are classified by
    the rule of ``knn_predict``.
    """
    if train.n_features != test.n_features:
        raise DimensionMismatch(
            f"train dim {train.n_features} vs test dim {test.n_features}"
        )
    train_pts, test_pts = train.points, test.points
    if standardize:
        transform = _standardizer(train_pts)
        train_pts, test_pts = transform(train_pts), transform(test_pts)

    learned = None
    t0 = time.perf_counter()
    if metric is None:
        pairs = sample_constraints(train, constraint_count, seed)
        sc = scatter_matrices(train_pts, pairs)
        try:
            learned = solve(sc, cfg)
        except SingularScatter as exc:
            where = f" (dataset {train.name})" if train.name else ""
            raise SingularScatter(exc.which, f"while learning{where}") from exc
        a = learned.matrix
    else:
        a = metric.matrix if isinstance(metric, LearnedMetric) else np.asarray(metric, dtype=float)
        if a.shape[0] != train.n_features:
            raise DimensionMismatch(
                f"metric dim {a.shape[0]} vs data dim {train.n_features}"
            )
    learn_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    predicted = _knn_labels(train_pts, train.labels, a, test_pts, k)
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


def _pick_best(scored: list[TScore]) -> float:
    alive = [s for s in scored if not s.disqualified]
    if not alive:
        raise SingularScatter("similarity", "every t candidate failed cross-validation")
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
    (singular scatter) is disqualified. With ``standardize`` every fold is
    z-scored by its own training part, as ``evaluate_split`` does.
    """
    if constraint_count is None:
        constraint_count = default_constraint_count(train.num_classes)
    n = train.n_points
    # fold count degrades on small data, but every fold must keep >= 2 points
    n_folds = min(policy.cv_folds, n // 2)
    if n_folds < 2:
        raise ValueError(f"cross-validation needs at least 4 points, got {n}")
    rng = np.random.default_rng(seed)
    folds = stratified_folds(train.labels, n_folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=n_folds)
    splits = []
    all_idx = np.arange(n)
    for f, fold in enumerate(folds):
        rest = np.setdiff1d(all_idx, fold, assume_unique=True)
        splits.append((train.subset(rest), train.subset(fold), int(fold_seeds[f])))

    def score(t: float, stage: str) -> TScore:
        errors = []
        for cv_train, cv_val, fold_seed in splits:
            try:
                outcome = evaluate_split(
                    cv_train, cv_val, replace(cfg, t=t), k, constraint_count,
                    fold_seed, standardize=standardize,
                )
            except SingularScatter:
                return TScore(t=t, mean_error=None, stage=stage, disqualified=True)
            errors.append(outcome.error_rate)
        return TScore(t=t, mean_error=float(np.mean(errors)), stage=stage)

    scored = [score(t, "coarse") for t in policy.coarse_grid]
    winner = _pick_best(scored)
    already = {s.t for s in scored}
    for t in policy.fine_grid(winner):
        if t not in already:
            scored.append(score(t, "fine"))
    return CvResult(chosen_t=_pick_best(scored), scores=tuple(scored))


def _benchmark_unit(
    data: LabeledDataset,
    run: int,
    fold_idx: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    policy: CvPolicy | None,
    cfg: GmmlConfig,
    k: int,
    constraint_count: int,
    cv_seed: int,
    eval_seed: int,
    baseline: bool,
    standardize: bool,
) -> RunRecord:
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    t0 = time.perf_counter()
    try:
        if baseline:
            chosen_t = None
            outcome = evaluate_split(
                train, test, cfg, k, constraint_count, eval_seed,
                metric=np.eye(data.n_features), standardize=standardize,
            )
        else:
            if policy is not None:
                cv = cross_validate_t(
                    train, policy, cfg, k, cv_seed, constraint_count, standardize
                )
                chosen_t = cv.chosen_t
            else:
                chosen_t = cfg.t
            outcome = evaluate_split(
                train, test, replace(cfg, t=chosen_t), k, constraint_count,
                eval_seed, standardize=standardize,
            )
    except GmmlError as exc:
        return RunRecord(
            run=run, fold=fold_idx, error_rate=None, chosen_t=None,
            learn_time=0.0, total_time=time.perf_counter() - t0,
            n_train=len(train_idx), n_test=len(test_idx), failure=str(exc),
        )
    return RunRecord(
        run=run, fold=fold_idx, error_rate=outcome.error_rate, chosen_t=chosen_t,
        learn_time=outcome.learn_time, total_time=time.perf_counter() - t0,
        n_train=len(train_idx), n_test=len(test_idx),
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
    given plan.rng_seed, up to wall-clock fields.
    """
    if not baseline and data.num_classes < 2:
        raise ValueError("metric learning needs at least 2 classes")
    if constraint_count is None:
        constraint_count = default_constraint_count(max(data.num_classes, 2))

    master = np.random.default_rng(plan.rng_seed)
    split_seeds = master.integers(0, 2**63 - 1, size=plan.n_runs)
    unit_seeds = master.integers(0, 2**63 - 1, size=(plan.n_runs, plan.n_folds, 2))

    units = []
    all_idx = np.arange(data.n_points)
    for r in range(plan.n_runs):
        folds = stratified_folds(data.labels, plan.n_folds, np.random.default_rng(split_seeds[r]))
        for f, fold in enumerate(folds):
            rest = np.setdiff1d(all_idx, fold, assume_unique=True)
            units.append((r, f, rest, fold, int(unit_seeds[r, f, 0]), int(unit_seeds[r, f, 1])))

    def work(unit) -> RunRecord:
        r, f, train_idx, test_idx, cv_seed, eval_seed = unit
        return _benchmark_unit(
            data, r, f, train_idx, test_idx, policy, cfg, k,
            constraint_count, cv_seed, eval_seed, baseline, standardize,
        )

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(work, units))
    else:
        records = [work(u) for u in units]

    errors = [rec.error_rate for rec in records if rec.error_rate is not None]
    learn_times = [rec.learn_time for rec in records if rec.failure is None]
    total_times = [rec.total_time for rec in records]
    return EvalReport(
        dataset_name=data.name,
        fingerprint=fingerprint,
        seed=plan.rng_seed,
        k=k,
        t_mode="cv" if (policy is not None and not baseline) else f"{cfg.t}",
        lam=cfg.lam,
        constraint_count=constraint_count,
        n_runs=plan.n_runs,
        n_folds=plan.n_folds,
        baseline=baseline,
        standardize=standardize,
        records=tuple(records),
        mean_error=float(np.mean(errors)) if errors else float("nan"),
        std_error=float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0,
        mean_learn_time=float(np.mean(learn_times)) if learn_times else 0.0,
        mean_total_time=float(np.mean(total_times)) if total_times else 0.0,
        label_names=tuple(data.label_names) if data.label_names else None,
    )
