import dataclasses
import re
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmml import (
    CvPolicy,
    CvResult,
    DataError,
    DimensionMismatch,
    GmmlConfig,
    GmmlError,
    LabeledDataset,
    NotPositiveDefinite,
    RunRecord,
    EvalReport,
    SingularScatter,
    SplitPlan,
    cross_validate_t,
    default_constraint_count,
    evaluate_split,
    fit_metric,
    knn_predict,
    run_benchmark,
    sample_constraints,
    stratified_folds,
)
import gmml.evaluation as evaluation
from gmml.evaluation import (
    TIMING_FIELDS,
    _distances_to_all,
    _knn_labels,
    _one_hot,
    _vote,
    _vote_rows,
    holdout_split,
)
from gmml import spd
from gmml.learn import ScatterMatrices, scatter_matrices, solve, solve_basis
from helpers import (
    cross_validate_t_oracle,
    guards_uncertified,
    holdout_split_oracle,
    make_anisotropic,
    make_blobs,
    stratified_folds_oracle,
)


def strip_timing(report: EvalReport) -> dict:
    doc = dataclasses.asdict(report)
    doc = {k: v for k, v in doc.items() if k not in TIMING_FIELDS}
    doc["records"] = [
        {k: v for k, v in rec.items() if k not in TIMING_FIELDS}
        for rec in doc["records"]
    ]
    return doc


def degenerate_dataset(n_per_class=6):
    # feature 1 is constant, so every scatter matrix is rank-deficient
    rng = np.random.default_rng(42)
    n = 2 * n_per_class
    pts = np.zeros((n, 2))
    labels = np.repeat([0, 1], n_per_class)
    pts[:, 0] = rng.normal(0, 1, n) + 5.0 * labels
    return LabeledDataset(points=pts, labels=labels, name="degenerate")


# --------------------------------------------------- default_constraint_count

def test_default_constraint_count_values():
    assert default_constraint_count(2) == 80
    assert default_constraint_count(3) == 240
    assert default_constraint_count(26) == 26000
    assert default_constraint_count(1) == 80
    with pytest.raises(ValueError):
        default_constraint_count(0)


# ---------------------------------------------------------------- LabeledDataset

@pytest.mark.parametrize("points, labels, message", [
    (np.zeros(4), [0, 1, 0, 1], r"points must be a 2-d array, got shape \(4,\)"),
    ([[0.0]], [0], "dataset needs n >= 2 points and d >= 1 features, got n=1, d=1"),
    (np.zeros((4, 1)), [0, 1, 0], r"labels must have shape \(4,\), got \(3,\)"),
    ([[0.0], [np.inf], [1.0]], [0, 1, 0], "points contain non-finite values"),
    (np.zeros((3, 1)), [0, -1, 1], "labels must be nonnegative class codes"),
], ids=["points-1d", "one-point", "labels-short", "points-inf", "label-negative"])
def test_dataset_rejects_malformed_arrays(points, labels, message):
    # every consumer, sample_constraints included, relies on n >= 2
    with pytest.raises(DataError, match=message):
        LabeledDataset(points=points, labels=labels)


# ---------------------------------------------------------- sample_constraints

def test_sample_two_points_same_class():
    data = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 0])
    pairs = sample_constraints(data, 1, seed=0)
    assert pairs.sim_pairs.tolist() == [[0, 1]]
    assert pairs.dis_count == 0


def test_sample_two_points_different_classes():
    data = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 1])
    pairs = sample_constraints(data, 1, seed=0)
    assert pairs.dis_pairs.tolist() == [[0, 1]]
    assert pairs.sim_count == 0


def test_sample_three_class_total_count():
    rng = np.random.default_rng(0)
    data = LabeledDataset(
        points=rng.standard_normal((30, 2)),
        labels=np.repeat([0, 1, 2], 10),
    )
    pairs = sample_constraints(data, default_constraint_count(3), seed=1)
    assert pairs.sim_count + pairs.dis_count == 240
    assert pairs.sim_count > 0 and pairs.dis_count > 0


def test_sample_no_self_pairs_and_distinct_when_possible():
    rng = np.random.default_rng(1)
    data = LabeledDataset(points=rng.standard_normal((30, 2)), labels=rng.integers(0, 3, 30))
    pairs = sample_constraints(data, 200, seed=2)
    both = np.vstack([pairs.sim_pairs, pairs.dis_pairs])
    assert np.all(both[:, 0] != both[:, 1])
    codes = np.minimum(both[:, 0], both[:, 1]) * 30 + np.maximum(both[:, 0], both[:, 1])
    assert len(set(codes.tolist())) == 200


def test_sample_with_replacement_when_universe_exhausted():
    data = LabeledDataset(points=np.arange(4.0).reshape(4, 1), labels=[0, 0, 1, 1])
    pairs = sample_constraints(data, 25, seed=3)
    assert pairs.sim_count + pairs.dis_count == 25


def test_sample_large_sparse_universe_branch():
    rng = np.random.default_rng(2)
    data = LabeledDataset(points=rng.standard_normal((200, 2)), labels=rng.integers(0, 2, 200))
    pairs = sample_constraints(data, 100, seed=4)
    both = np.vstack([pairs.sim_pairs, pairs.dis_pairs])
    assert both.shape[0] == 100
    codes = np.minimum(both[:, 0], both[:, 1]) * 200 + np.maximum(both[:, 0], both[:, 1])
    assert len(set(codes.tolist())) == 100


def test_sample_deterministic_given_seed():
    rng = np.random.default_rng(3)
    data = LabeledDataset(points=rng.standard_normal((40, 3)), labels=rng.integers(0, 4, 40))
    a = sample_constraints(data, 120, seed=9)
    b = sample_constraints(data, 120, seed=9)
    assert np.array_equal(a.sim_pairs, b.sim_pairs)
    assert np.array_equal(a.dis_pairs, b.dis_pairs)


@pytest.mark.parametrize("n, count", [(n, n * (n - 1) // 2) for n in range(2, 41)]
                         + [(4, 25), (6, 40), (3, 7), (30, 200), (120, 240), (1500, 480)])
def test_sample_draws_then_decodes_the_upper_triangle(n, count):
    # with replacement only when count exceeds the universe; numpy gives
    # Generator methods no cross-version stream guarantee, so a change in
    # either draw fails here
    universe = n * (n - 1) // 2
    rng = np.random.default_rng(n + count)
    if count > universe:
        picks = rng.integers(0, universe, count)
    else:
        picks = rng.choice(universe, count, replace=False)
    expected = np.column_stack(np.triu_indices(n, 1))[picks]
    labels = np.arange(n) % 3
    pairs = sample_constraints(LabeledDataset(points=np.zeros((n, 1)), labels=labels),
                               count, seed=n + count)
    same = labels[expected[:, 0]] == labels[expected[:, 1]]
    assert np.array_equal(pairs.sim_pairs, expected[same])
    assert np.array_equal(pairs.dis_pairs, expected[~same])
    if count == universe:
        drawn = np.vstack([pairs.sim_pairs, pairs.dis_pairs])
        assert sorted(map(tuple, drawn.tolist())) == list(zip(*np.triu_indices(n, 1)))


def test_sample_rejects_bad_count():
    data = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 1])
    with pytest.raises(ValueError):
        sample_constraints(data, 0, seed=0)


# ------------------------------------------------------------------ knn_predict

def test_knn_exact_match_wins_at_k1():
    rng = np.random.default_rng(4)
    data = LabeledDataset(points=rng.standard_normal((10, 3)), labels=rng.integers(0, 3, 10))
    for i in range(10):
        assert knn_predict(data, np.eye(3), data.points[i], k=1) == data.labels[i]


def test_knn_single_class_always_wins():
    rng = np.random.default_rng(5)
    data = LabeledDataset(points=rng.standard_normal((8, 2)), labels=np.full(8, 3))
    assert knn_predict(data, np.eye(2), [100.0, -40.0], k=5) == 3


def test_knn_line_matches_brute_force_sort():
    data = LabeledDataset(
        points=np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]),
        labels=[0, 0, 1, 1, 1],
    )
    query = np.array([-1.0])
    dists = np.sum((data.points - query) ** 2, axis=1)
    order = np.argsort(dists)
    expected = Counter(data.labels[order[:3]].tolist()).most_common(1)[0][0]
    assert knn_predict(data, np.eye(1), query, k=3) == expected == 0


def test_knn_ties_at_kth_distance_admit_all():
    # three points all at distance 1; k=2 must admit all three voters
    data = LabeledDataset(
        points=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        labels=[0, 1, 1],
    )
    assert knn_predict(data, np.eye(2), [0.0, 0.0], k=2) == 1


def test_knn_vote_tie_prefers_smaller_mean_distance():
    data = LabeledDataset(
        points=np.array([[1.0, 0.0], [2.0, 0.0]]),
        labels=[1, 0],
    )
    assert knn_predict(data, np.eye(2), [0.0, 0.0], k=2) == 1


def test_knn_vote_tie_then_smaller_class_index():
    data = LabeledDataset(
        points=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        labels=[2, 1],
    )
    assert knn_predict(data, np.eye(2), [0.0, 0.0], k=2) == 1


def test_knn_k_above_n_warns_and_clamps():
    data = LabeledDataset(points=np.array([[0.0], [1.0], [2.0]]), labels=[0, 0, 1])
    with pytest.warns(UserWarning):
        label = knn_predict(data, np.eye(1), [0.1], k=7)
    assert label == 0


def test_knn_rejects_dimension_mismatch():
    data = LabeledDataset(points=np.zeros((3, 2)), labels=[0, 1, 0])
    with pytest.raises(DimensionMismatch):
        knn_predict(data, np.eye(3), [0.0, 0.0], k=1)
    with pytest.raises(DimensionMismatch):
        knn_predict(data, np.eye(2), [0.0, 0.0, 0.0], k=1)


@pytest.mark.parametrize("metric", [2.0, np.ones((2, 3)), np.eye(3)],
                         ids=["scalar", "2x3", "3x3"])
def test_fixed_metric_of_the_wrong_shape_raises_dimension_mismatch(metric):
    data = LabeledDataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=[0, 1])
    with pytest.raises(DimensionMismatch):
        knn_predict(data, metric, [0.0, 0.0], k=1)
    with pytest.raises(DimensionMismatch):
        evaluate_split(data, data, metric, k=1)


def test_evaluate_split_names_both_dimensions_of_a_mismatch():
    train = LabeledDataset(points=np.zeros((4, 2)), labels=[0, 1, 0, 1])
    test = LabeledDataset(points=np.zeros((2, 3)), labels=[0, 1])
    with pytest.raises(DimensionMismatch, match="train dim 2 vs test dim 3"):
        evaluate_split(train, test, np.eye(2), k=1)


@pytest.mark.parametrize("classify", [
    lambda data: knn_predict(data, np.eye(2), [0.0, 0.0], k=0),
    lambda data: evaluate_split(data, data, np.eye(2), k=0),
    lambda data: cross_validate_t(data, CvPolicy(), GmmlConfig(), k=0, seed=0),
    lambda data: run_benchmark(data, SplitPlan(n_runs=1), None, GmmlConfig(), k=0),
], ids=["knn_predict", "evaluate_split", "cross_validate_t", "run_benchmark"])
def test_k_below_one_raises_value_error(classify):
    data = make_blobs(np.random.default_rng(5), n_per_class=10)
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        classify(data)


def test_knn_equals_euclidean_on_whitened_points():
    # d_A(x, y) = ||L^T x - L^T y||^2 for A = L L^T, so predictions under A
    # must match plain Euclidean predictions on transformed points
    rng = np.random.default_rng(6)
    from helpers import rand_spd

    a = rand_spd(rng, 3)
    low = np.linalg.cholesky(a)
    train = LabeledDataset(
        points=rng.standard_normal((30, 3)), labels=rng.integers(0, 3, 30)
    )
    transformed = LabeledDataset(points=train.points @ low, labels=train.labels)
    for _ in range(20):
        q = rng.standard_normal(3)
        for k in (1, 3, 5):
            assert knn_predict(train, a, q, k=k) == knn_predict(
                transformed, np.eye(3), low.T @ q, k=k
            )


def test_knn_rejects_non_spd_metric():
    data = LabeledDataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=[0, 1])
    with pytest.raises(NotPositiveDefinite):
        knn_predict(data, np.diag([1.0, -1.0]), [0.0, 0.0], k=1)
    with pytest.raises(NotPositiveDefinite):
        knn_predict(data, np.array([[1.0, 0.5], [0.0, 1.0]]), [0.0, 0.0], k=1)
    with pytest.raises(NotPositiveDefinite):
        evaluate_split(data, data, np.diag([1.0, -1.0]), k=1)
    with pytest.raises(NotPositiveDefinite, match="^metric is not symmetric$"):
        evaluate_split(data, data, np.array([[1.0, 0.5], [0.0, 1.0]]), k=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_knn_rejects_a_non_finite_query(value):
    data = LabeledDataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=[0, 1])
    with pytest.raises(DataError, match="^query contains non-finite values$"):
        knn_predict(data, np.eye(2), [value, 0.0], k=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_knn_rejects_a_non_finite_metric(value):
    data = LabeledDataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=[0, 1])
    metric = np.diag([value, 1.0])
    with pytest.raises(NotPositiveDefinite, match="^metric contains non-finite values$"):
        knn_predict(data, metric, [0.0, 0.0], k=1)
    with pytest.raises(NotPositiveDefinite, match="^metric contains non-finite values$"):
        evaluate_split(data, data, metric, k=1)


# ------------------------------------------- batched k-NN against the scalar rule

def _problem(points, labels, metrics, queries, k, block_elements=evaluation._BLOCK_ELEMENTS):
    """A stacked k-NN problem; one (d, d) metric is a stack of one. The
    budget stands in for the classifier's memory cap, so that small
    problems also split into several query blocks and metric chunks."""
    metrics = np.asarray(metrics, dtype=float)
    if metrics.ndim == 2:
        metrics = metrics[None]
    return (np.asarray(points, dtype=float), np.asarray(labels), metrics,
            np.asarray(queries, dtype=float), k, block_elements)


def _tie_prone_points(draw, d):
    """Training points and queries built to tie: integer grids (exact
    arithmetic) or 0.1-spaced grids, duplicated training points, queries
    on training points, and large offsets that make the Gram expansion
    cancel."""
    n = draw(st.integers(1, 12))
    coord = st.integers(-3, 3)
    points = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                    min_size=n, max_size=n)), dtype=float)
    for i in range(n):
        if draw(st.booleans()):
            points[i] = points[draw(st.integers(0, n - 1))]
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            queries.append(points[draw(st.integers(0, n - 1))])
        else:
            queries.append(draw(st.lists(coord, min_size=d, max_size=d)))
    queries = np.array(queries, dtype=float)
    scale = draw(st.sampled_from([1.0, 0.1]))
    offset = draw(st.sampled_from([0.0, 2.0**20, 2.0**26]))
    return points * scale + offset, queries * scale + offset


def _block_elements(draw, n, d, q, t):
    """The classifier's own memory cap, or at most n max(d, q) t, so that
    one chunk and one block stay reachable and smaller caps split the
    stack into chunks and the queries into blocks."""
    return draw(st.one_of(st.just(evaluation._BLOCK_ELEMENTS),
                          st.integers(1, n * max(d, q) * t)))


def _fixed_metric(draw, rng, d):
    """An identity, ill-conditioned, near-singular or random SPD metric."""
    kind = draw(st.sampled_from(["identity", "ill", "near-singular", "random"]))
    if kind == "identity":
        return np.eye(d)
    if kind == "ill":
        return np.diag(rng.permutation(np.logspace(-8, 8, d)))
    if kind == "near-singular":
        v = rng.standard_normal(d)
        return np.outer(v, v) + 1e-8 * np.eye(d)
    m = rng.standard_normal((d, d))
    return m @ m.T + 0.1 * np.eye(d)


@st.composite
def knn_problems(draw):
    """Small tie-prone k-NN problems (``_tie_prone_points``), k up to
    n + 2, and stacks of 1 to 6 identity, ill-conditioned, near-singular or
    random metrics, under a memory cap from ``_block_elements``."""
    d = draw(st.integers(1, 4))
    points, queries = _tie_prone_points(draw, d)
    n = len(points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metrics = [_fixed_metric(draw, rng, d) for _ in range(draw(st.integers(1, 6)))]
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    block_elements = _block_elements(draw, n, d, len(queries), len(metrics))
    return _problem(points, labels, metrics, queries, draw(st.integers(1, n + 2)),
                    block_elements)


@settings(max_examples=300, deadline=None)
@given(knn_problems())
# the knn_predict tie cases: ties at the k-th distance, vote ties by mean
# distance and by class index, and k above n
@example(_problem([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [0, 1, 1], np.eye(2), [[0.0, 0.0]], 2))
@example(_problem([[1.0, 0.0], [2.0, 0.0]], [1, 0], np.eye(2), [[0.0, 0.0]], 2))
@example(_problem([[1.0, 0.0], [-1.0, 0.0]], [2, 1], np.eye(2), [[0.0, 0.0]], 2))
@example(_problem([[0.0], [1.0], [2.0]], [0, 0, 1], np.eye(1), [[0.1]], 7))
# two points tie exactly under the scalar rule's summation order, but not
# when einsum is given only those two rows
@example(_problem([[-2.9, 0.4], [-1.1, -2.8], [10.0, 10.0]], [1, 0, 1],
                  [[1.1, 0.3], [0.3, 0.7]], [[0.0, 0.0]], 1))
# squared norms that overflow: Gram distances turn into nan
@example(_problem([[1e154, 0.0], [-1e154, 0.0], [0.0, 1e154], [0.0, 0.0]], [0, 1, 1, 0],
                  np.eye(2), [[1e154, 1e154], [0.0, 1.0]], 1))
# an exact tie at the k-th distance that the Gram expansion splits
@example(_problem([[2.0**26 - 3, 2.0**26 - 2], [2.0**26 + 3, 2.0**26 + 2]], [0, 1], np.eye(2),
                  [[2.0**26, 2.0**26]], 1))
# vote ties the batched vote decides itself: by mean distance, either way
@example(_problem([[1.0], [2.0], [-3.0], [-4.0]], [0, 0, 1, 1], np.eye(1), [[0.0]], 4))
@example(_problem([[3.0], [4.0], [-1.0], [-2.0], [9.0]], [0, 0, 1, 1, 0], np.eye(1),
                  [[0.0], [0.5]], 4))
# a stack whose metrics tie on different queries: in one chunk with blocks
# of two queries, and in chunks of two metrics and one, the first in blocks
# of two queries and one
@example(_problem([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -2.0]], [0, 1, 1, 0],
                  [np.eye(2), np.diag([4.0, 1.0]), np.diag([1.0, 0.25])],
                  [[0.0, 0.0], [1.0, 1.0], [0.5, 0.0]], 2, block_elements=24))
@example(_problem([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -2.0]], [0, 1, 1, 0],
                  [np.eye(2), np.diag([4.0, 1.0]), np.diag([1.0, 0.25])],
                  [[0.0, 0.0], [1.0, 1.0], [0.5, 0.0]], 2, block_elements=16))
def test_batched_knn_matches_scalar_vote(problem):
    points, labels, metrics, queries, k, block_elements = problem
    with (mock.patch.object(evaluation, "_BLOCK_ELEMENTS", block_elements),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        ones = np.ones((1, points.shape[1]))
        got = [_knn_labels(points, labels, a[None], np.linalg.cholesky(a), ones, queries, k)[0]
               for a in metrics]
    assert (k > len(points)) == any(issubclass(w.category, UserWarning) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = [[_vote(_distances_to_all(a, points, q), labels, k) for q in queries]
                    for a in metrics]
    assert [row.tolist() for row in got] == expected


GEODESIC_TS = (0.01, 0.5, 0.99)


def _geodesic_basis(draw, rng, d):
    """The geodesic basis ``solve_basis`` factors from a scatter pair: S has
    condition number at most 100, and D = P diag(w) P^T with P = L^{-T} V
    (S = L L^T, V orthogonal), so that the whitened spectrum w spans 2e8
    to 1e9 at a random scale."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = (q * 10.0 ** rng.uniform(-1.0, 1.0, d)) @ q.T
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    p = np.linalg.inv(np.linalg.cholesky(spd.symmetrize(s))).T @ v
    w = np.geomspace(1.0, draw(st.sampled_from([2e8, 1e9])), d) * 10.0 ** rng.uniform(-3, 3)
    return solve_basis(ScatterMatrices(s_mat=s, d_mat=(p * w) @ p.T, sim_count=0, dis_count=0))[0]


@st.composite
def geodesic_knn_problems(draw):
    """Tie-prone points and queries (``_tie_prone_points``), k up to n + 2,
    and a geodesic basis (``_geodesic_basis``) whose w spans 2e8 to 1e9."""
    d = draw(st.integers(2, 4))
    points, queries = _tie_prone_points(draw, d)
    n = len(points)
    basis = _geodesic_basis(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    block_elements = _block_elements(draw, n, d, len(queries), len(GEODESIC_TS))
    return points, labels, basis, queries, draw(st.integers(1, n + 2)), block_elements


@settings(max_examples=300, deadline=None)
@given(geodesic_knn_problems())
def test_knn_under_geodesic_factors_matches_scalar_vote(problem):
    # cross-validation classifies through Z = X P weighted by w^t, whose
    # product only rounds to A_t, here with w spread over 8 to 9 decades
    points, labels, basis, queries, k, block_elements = problem
    assert basis.w[-1] >= 1e8 * basis.w[0]
    metrics, _, powers = basis.stage(GEODESIC_TS)
    with (mock.patch.object(evaluation, "_BLOCK_ELEMENTS", block_elements),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        got = _knn_labels(points, labels, metrics, basis.p, powers, queries, k)
        expected = [[_vote(_distances_to_all(a, points, q), labels, k) for q in queries]
                    for a in metrics]
    assert got.tolist() == expected


@st.composite
def offset_knn_problems(draw):
    """Tie-prone points and queries (``_tie_prone_points``) translated by
    one common offset of 1e3 to 1e6 in magnitude per coordinate, k up to
    n + 2, under one fixed metric (``_fixed_metric``, through its Cholesky
    factor with weights of ones) or at GEODESIC_TS on a geodesic whose w
    spans 2e8 to 1e9 (``_geodesic_basis``), under a memory cap from
    ``_block_elements``. Far from the origin the Gram expansion cancels, and
    the dropped row constant x^T A_t x is far larger than the distances."""
    d = draw(st.integers(2, 4))
    points, queries = _tie_prone_points(draw, d)
    magnitudes = st.sampled_from([1e3, -1e3, 1e4, 1e5, -1e5, 1e6, -1e6])
    offset = np.array(draw(st.lists(magnitudes, min_size=d, max_size=d)))
    points, queries = points + offset, queries + offset
    n = len(points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        basis = _geodesic_basis(draw, rng, d)
        metrics, _, weights = basis.stage(GEODESIC_TS)
        factor = basis.p
    else:
        metric = _fixed_metric(draw, rng, d)
        metrics, factor, weights = metric[None], np.linalg.cholesky(metric), np.ones((1, d))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    block_elements = _block_elements(draw, n, d, len(queries), len(metrics))
    return (points, labels, metrics, factor, weights, queries, draw(st.integers(1, n + 2)),
            block_elements)


@settings(max_examples=300, deadline=None)
@given(offset_knn_problems())
# a cross term that overflows to -inf while the train norms and delta stay
# finite: the exact distances are both inf, so the vote ties
@example((np.array([[1e53, 0.0], [0.0, 0.0]]), np.array([1, 0]), 1e200 * np.eye(2)[None],
          1e100 * np.eye(2), np.ones((1, 2)), np.array([[1e56, 0.0]]), 1, 2**14))
def test_knn_far_from_the_origin_matches_scalar_vote(problem):
    # the classifier drops each row's constant x^T A_t x and scales Z = X B
    # by the weights; both must leave every decision the scalar rule's
    points, labels, metrics, factor, weights, queries, k, block_elements = problem
    with (mock.patch.object(evaluation, "_BLOCK_ELEMENTS", block_elements),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        got = _knn_labels(points, labels, metrics, factor, weights, queries, k)
        expected = [[_vote(_distances_to_all(a, points, q), labels, k) for q in queries]
                    for a in metrics]
    assert got.tolist() == expected


@pytest.mark.parametrize("budget", [1, 40, 100, 1000, evaluation._BLOCK_ELEMENTS])
def test_knn_blocks_stay_within_the_budget(budget):
    # once the budget admits one train row, no block the vote sees holds more
    # than _BLOCK_ELEMENTS values, and each (t, query) row is voted once
    rng = np.random.default_rng(29)
    n, q, ts = 40, 23, tuple(np.linspace(0.05, 0.95, 9))
    data = make_blobs(rng, n_per_class=n // 2)
    queries = rng.standard_normal((q, data.n_features)) * 3.0
    pairs = sample_constraints(data, 120, seed=0)
    basis = solve_basis(scatter_matrices(data.points, pairs))[0]
    metrics, _, powers = basis.stage(ts)
    shapes = []
    vote_rows = evaluation._vote_rows

    def recording(dists, *args):
        shapes.append(dists.shape)
        return vote_rows(dists, *args)

    with (mock.patch.object(evaluation, "_BLOCK_ELEMENTS", budget),
          mock.patch.object(evaluation, "_vote_rows", recording)):
        got = _knn_labels(data.points, data.labels, metrics, basis.p, powers, queries, 5)
    assert sum(rows for rows, _ in shapes) == len(ts) * q
    assert {cols for _, cols in shapes} == {n}
    assert max(rows * cols for rows, cols in shapes) <= max(budget, n)
    expected = [[_vote(_distances_to_all(a, data.points, x), data.labels, 5) for x in queries]
                for a in metrics]
    assert got.tolist() == expected


@st.composite
def vote_problems(draw):
    """Rows of exact distances built to tie: small integers or multiples of
    0.1, with k up to the row length and two or three classes."""
    n = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1.0, 0.1]))
    rows = np.array(draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                                  min_size=1, max_size=8)), dtype=float) * scale
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return rows, labels, draw(st.integers(1, n))


def _near_tie(row, labels, k):
    """True when the scalar rule meets a tie at the k-th distance, or a vote
    tie whose two smallest mean distances, in exact rational arithmetic,
    lie within rounding of each other."""
    ordered = np.sort(row)
    if k < row.size and ordered[k] == ordered[k - 1]:
        return True
    voters = row <= ordered[k - 1]
    classes, counts = np.unique(labels[voters], return_counts=True)
    top = classes[counts == counts.max()]
    means = sorted(
        sum(map(Fraction, row[voters & (labels == c)])) / int(counts[classes == c][0])
        for c in top
    )
    return len(means) > 1 and means[1] - means[0] <= 1e-12 * row.max()


@settings(max_examples=300, deadline=None)
@given(vote_problems())
@example((np.array([[1.0, 4.0, 2.0, 3.0]]), np.array([0, 0, 1, 1]), 4))
@example((np.array([[1.0, 2.0, 2.0, 3.0]]), np.array([1, 0, 1, 0]), 2))
@example((np.array([[0.1, 0.0, 0.2, 0.3]]), np.array([0, 1, 0, 1]), 4))
def test_vote_rows_matches_scalar_vote(problem):
    # on exact distances (delta = 0) every row the batched vote decides must
    # be the scalar rule's, and only a tie or a near tie within rounding may
    # be left to the fallback
    rows, labels, k = problem
    classes, one_hot = _one_hot(labels)
    choice, unsure = _vote_rows(rows, one_hot, k, np.zeros(rows.shape[0]))
    for row, c, u in zip(rows, choice, unsure):
        if u:
            assert _near_tie(row, labels, k)
        else:
            assert classes[c] == _vote(row, labels, k)


# ----------------------------------------------------------------- evaluate_split

def test_evaluate_split_zero_error_on_self():
    data = make_blobs(np.random.default_rng(7), n_per_class=15)
    metric, _ = fit_metric(data, GmmlConfig(), None, 1, 80, 0)
    assert evaluate_split(data, data, metric, k=1) == 0.0


def test_evaluate_split_regularized_on_rank_deficient_data():
    data = degenerate_dataset()
    metric, _ = fit_metric(data, GmmlConfig(t=0.5, lam=0.1), None, 3, 40, 0)
    assert 0.0 <= evaluate_split(data, data, metric, k=3) <= 1.0


def test_evaluate_split_blobs_under_five_percent():
    rng = np.random.default_rng(8)
    data = make_blobs(rng, n_per_class=50, sigma=0.5)
    half = np.arange(0, 100, 2)
    other = np.setdiff1d(np.arange(100), half)
    train = data.subset(half)
    metric, _ = fit_metric(train, GmmlConfig(), None, 5, 80, 1)
    assert evaluate_split(train, data.subset(other), metric, k=5) <= 0.05


def test_evaluate_split_singular_error_names_dataset():
    data = degenerate_dataset()
    with pytest.raises(SingularScatter) as info:
        fit_metric(data, GmmlConfig(t=0.5, lam=0.0), None, 3, 40, 0)
    assert "degenerate" in str(info.value)
    # the context extends the solver's finding rather than replacing it
    assert re.search(r": relative min eigenvalue \S+, while learning \(dataset degenerate\);",
                     str(info.value))


def test_evaluate_split_identity_metric_matches_brute_force():
    rng = np.random.default_rng(9)
    data = make_blobs(rng, n_per_class=30, sigma=3.0)  # overlapping blobs
    train = data.subset(np.arange(0, 60, 2))
    test = data.subset(np.arange(1, 60, 2))
    error = evaluate_split(train, test, np.eye(2), k=5)

    wrong = 0
    for q, true_label in zip(test.points, test.labels):
        dists = np.sum((train.points - q) ** 2, axis=1)
        votes = train.labels[np.argsort(dists)[:5]]
        if Counter(votes.tolist()).most_common(1)[0][0] != true_label:
            wrong += 1
    assert error == wrong / test.n_points


def test_evaluate_split_standardize_uses_train_statistics():
    rng = np.random.default_rng(10)
    data = make_blobs(rng, n_per_class=20)
    scaled = LabeledDataset(points=data.points * [1.0, 1000.0], labels=data.labels)
    train = scaled.subset(np.arange(0, 40, 2))
    test = scaled.subset(np.arange(1, 40, 2))
    metric, _ = fit_metric(train, GmmlConfig(), None, 3, 80, 0, standardize=True)
    error = evaluate_split(train, test, metric, k=3, standardize=True)
    assert error <= 0.05
    # a bare matrix is z-scored by the statistics of train, as it was learned
    assert evaluate_split(train, test, metric.matrix, k=3, standardize=True) == error


def scaled_problem(seed: int, n_per_class: int) -> LabeledDataset:
    """Two classes apart along feature 0 only, beside a noise feature scaled
    by 1e3 and one offset by 1e4."""
    data = make_anisotropic(np.random.default_rng(seed), n_per_class=n_per_class, d=3,
                            noise_sigma=1.0)
    return LabeledDataset(points=data.points * [1.0, 1e3, 1.0] + [0.0, 0.0, 1e4],
                          labels=data.labels)


def test_fit_metric_standardizes_by_the_training_points():
    train = scaled_problem(11, 20)
    metric, cv = fit_metric(train, GmmlConfig(lam=0.5), None, 3, 80, 4, standardize=True)
    assert cv is None
    sigma = train.points.std(axis=0)
    z = (train.points - train.points.mean(axis=0)) / sigma
    np.testing.assert_array_equal(metric.standardizer.mu, train.points.mean(axis=0))
    np.testing.assert_array_equal(metric.standardizer.sigma, sigma)
    pairs = sample_constraints(train, 80, 4)
    expected = solve(scatter_matrices(z, pairs), GmmlConfig(lam=0.5))
    np.testing.assert_array_equal(metric.matrix, expected.matrix)
    assert fit_metric(train, GmmlConfig(lam=0.5), None, 3, 80, 4)[0].standardizer is None


def test_fit_metric_cross_validates_t_with_its_own_seed():
    train = make_anisotropic(np.random.default_rng(12), n_per_class=20, d=3)
    cfg, policy = GmmlConfig(lam=0.1), CvPolicy(cv_folds=3)
    metric, cv = fit_metric(train, cfg, policy, 3, 60, 4, cv_seed=9, standardize=True)
    assert cv == cross_validate_t(train, policy, cfg, 3, 9, 60, standardize=True)
    assert metric.config.t == cv.chosen_t
    refit = fit_metric(train, dataclasses.replace(cfg, t=cv.chosen_t), None, 3, 60, 4,
                       standardize=True)[0]
    np.testing.assert_array_equal(metric.matrix, refit.matrix)


def test_knn_predict_standardized_metric_matches_bare_matrix_on_z_scored_points():
    train, test = scaled_problem(13, 20), scaled_problem(14, 10)
    metric = fit_metric(train, GmmlConfig(lam=0.5), None, 5, 80, 0, standardize=True)[0]
    z = metric.standardizer
    z_train = LabeledDataset(points=z.apply(train.points), labels=train.labels)
    for query in test.points:
        assert knn_predict(train, metric, query) == knn_predict(z_train, metric.matrix,
                                                                z.apply(query))


def test_evaluate_split_applies_a_metric_s_own_standardizer():
    train, test = scaled_problem(15, 20), scaled_problem(16, 10)
    cfg = GmmlConfig(lam=0.5)
    learned, _ = fit_metric(train, cfg, None, 3, 80, 2, standardize=True)
    error = evaluate_split(train, test, learned, k=3, standardize=True)
    assert evaluate_split(train, test, learned, k=3) == error
    # a metric of raw points is not z-scored without ``standardize``
    assert evaluate_split(train, test, learned.matrix, k=3) != error


# -------------------------------------------------------------- stratified_folds

def test_stratified_folds_partition_and_balance():
    labels = np.array([0] * 7 + [1] * 5)
    folds = stratified_folds(labels, 3, np.random.default_rng(0))
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(12))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    for fold in folds:
        assert {0, 1} <= set(labels[fold].tolist())


def test_stratified_folds_deterministic_given_rng_seed():
    labels = np.tile([0, 1, 2], 10)
    a = stratified_folds(labels, 4, np.random.default_rng(5))
    b = stratified_folds(labels, 4, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def split_indices(split, data, fraction, seed):
    """The index arrays ``split(data, fraction, seed)`` hands to ``subset``,
    and the text of the DataError it raises (None if it raises none)."""
    seen = []
    subset = LabeledDataset.subset

    def spy(self, idx):
        seen.append(idx)
        return subset(self, idx)

    with mock.patch.object(LabeledDataset, "subset", spy):
        try:
            split(data, fraction, seed)
        except DataError as exc:
            return seen, str(exc)
    return seen, None


def assert_same_index_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=2, max_size=60),
    n_folds=st.integers(2, 12),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**64 - 1),
)
# a class of one point, which stays wholly in train
@example(labels=[0, 1, 1, 1, 1, 1, 1], n_folds=3, fraction=0.4, seed=0)
# a test part of one point, which holdout_split refuses
@example(labels=[0, 0, 0], n_folds=2, fraction=0.2, seed=0)
def test_splits_match_their_oracles(labels, n_folds, fraction, seed):
    # the per-class shuffle behind both splits makes the same draws as the
    # cursor deal and the per-class cut it replaced
    labels = np.asarray(labels, dtype=np.int64)
    assert_same_index_arrays(
        stratified_folds(labels, n_folds, np.random.default_rng(seed)),
        stratified_folds_oracle(labels, n_folds, np.random.default_rng(seed)),
    )
    data = LabeledDataset(points=np.zeros((labels.size, 1)), labels=labels)
    got, got_error = split_indices(holdout_split, data, fraction, seed)
    want, want_error = split_indices(holdout_split_oracle, data, fraction, seed)
    assert_same_index_arrays(got, want)
    assert got_error == want_error


# --------------------------------------------------------------- cross_validate_t

def test_cv_single_candidate_returns_it():
    data = make_blobs(np.random.default_rng(11), n_per_class=15)
    policy = CvPolicy(coarse_grid=(0.5,), fine_count=1)
    result = cross_validate_t(data, policy, GmmlConfig(), k=3, seed=0)
    assert result.chosen_t == 0.5


def test_cv_flat_error_tie_breaks_to_half():
    # errors are 0 at every t on well-separated blobs
    data = make_blobs(np.random.default_rng(12), n_per_class=25)
    result = cross_validate_t(data, CvPolicy(), GmmlConfig(), k=3, seed=0)
    assert result.chosen_t == 0.5
    assert all(s.mean_error == 0.0 for s in result.scores)


def test_cv_chosen_matches_exhaustive_scan_of_scores():
    data = make_anisotropic(np.random.default_rng(13), n_per_class=30)
    policy = CvPolicy()
    result = cross_validate_t(data, policy, GmmlConfig(), k=5, seed=7)

    alive = [s for s in result.scores if not s.disqualified]
    best = min(alive, key=lambda s: (s.mean_error, abs(s.t - 0.5), s.t))
    assert result.chosen_t == best.t
    assert 0.0 < result.chosen_t < 1.0

    coarse = [s for s in result.scores if s.stage == "coarse"]
    assert tuple(s.t for s in coarse) == policy.coarse_grid
    winner = min(coarse, key=lambda s: (s.mean_error, abs(s.t - 0.5), s.t)).t
    expected_fine = [t for t in policy.fine_grid(winner) if t not in {s.t for s in coarse}]
    assert [s.t for s in result.scores if s.stage == "fine"] == expected_fine


def test_cv_scores_a_repeated_coarse_value_once():
    # a repeated coarse value is kept once, at its first place, so each t
    # is scored once and the outcome is that of the grid without repeats
    data = make_anisotropic(np.random.default_rng(13), n_per_class=30)
    repeated = CvPolicy(coarse_grid=(0.5, 0.5, 0.3, 0.5, 0.7))
    assert repeated.coarse_grid == (0.5, 0.3, 0.7)
    result = cross_validate_t(data, repeated, GmmlConfig(), k=5, seed=7)
    ts = [s.t for s in result.scores]
    assert len(ts) == len(set(ts))
    assert result == cross_validate_t(data, CvPolicy(coarse_grid=(0.5, 0.3, 0.7)),
                                      GmmlConfig(), k=5, seed=7)


def test_cv_deterministic_given_seed():
    data = make_anisotropic(np.random.default_rng(14), n_per_class=20)
    a = cross_validate_t(data, CvPolicy(), GmmlConfig(), k=3, seed=3)
    b = cross_validate_t(data, CvPolicy(), GmmlConfig(), k=3, seed=3)
    assert a == b


def test_cv_singular_fold_names_its_scatter():
    # 5% of 200 points in class 1: 80 pairs hold too few dissimilar ones to
    # span d = 20, so D is singular while S is not
    rng = np.random.default_rng(0)
    labels = np.zeros(200, dtype=int)
    labels[:10] = 1
    data = LabeledDataset(points=rng.standard_normal((200, 20)), labels=labels)
    with pytest.raises(SingularScatter) as info:
        cross_validate_t(data, CvPolicy(), GmmlConfig(), k=5, seed=0, constraint_count=80)
    assert info.value.which == "dissimilarity"
    # the context extends the solver's finding rather than replacing it
    assert re.search(r": relative min eigenvalue \S+, so every t candidate failed "
                     r"cross-validation;", str(info.value))


def test_cv_rejects_tiny_datasets():
    # a data error, so a benchmark records it against its unit and goes on
    data = LabeledDataset(points=[[0.0], [1.0], [2.0]], labels=[0, 1, 0])
    with pytest.raises(DataError, match="cross-validation needs at least 4 points, got 3"):
        cross_validate_t(data, CvPolicy(), GmmlConfig(), k=1, seed=0)


def test_cv_single_class_data_defaults_its_pair_count():
    # one class still gets the default count of two classes, as on the
    # command line: all its pairs are similar, so D is zero unless lambda
    # blends in the prior
    data = make_blobs(np.random.default_rng(12), n_per_class=20, centers=((0.0, 0.0),))
    with pytest.raises(SingularScatter) as info:
        cross_validate_t(data, CvPolicy(), GmmlConfig(lam=0.0), k=3, seed=0)
    assert info.value.which == "dissimilarity"
    result = cross_validate_t(data, CvPolicy(), GmmlConfig(lam=0.5), k=3, seed=0)
    assert isinstance(result, CvResult)
    assert all(s.mean_error == 0.0 for s in result.scores)


def test_cv_policy_validation():
    with pytest.raises(ValueError):
        CvPolicy(coarse_grid=())
    with pytest.raises(ValueError):
        CvPolicy(coarse_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        CvPolicy(fine_count=0)
    for spacing in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="fine_spacing"):
            CvPolicy(fine_spacing=spacing)
    with pytest.raises(ValueError):
        CvPolicy(cv_folds=1)


def test_cv_fine_grid_window_and_clamping():
    policy = CvPolicy()
    grid = policy.fine_grid(0.5)
    assert len(grid) == 12
    np.testing.assert_allclose(grid, np.arange(0.39, 0.612, 0.02), atol=1e-9)

    low = policy.fine_grid(0.05)
    assert min(low) >= 0.01 and max(low) <= 0.99
    high = policy.fine_grid(0.95)
    assert max(high) <= 0.99


@st.composite
def cv_problems(draw):
    """Small cross-validation problems built to tie and to fail: integer or
    0.1-spaced grid points, duplicated points, equal class sizes, collinear
    or constant features (rank-deficient folds), k from 1 to above a fold's
    training size, lambda 0, tiny or large, standardize on or off, and
    small coarse and fine grids."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 16))
    coord = st.integers(-3, 3)
    points = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                    min_size=n, max_size=n)), dtype=float)
    for i in range(n):
        if draw(st.booleans()):
            points[i] = points[draw(st.integers(0, n - 1))]
    if d > 1:
        shape = draw(st.sampled_from(["full", "collinear", "constant"]))
        if shape == "collinear":
            points[:, -1] = 2.0 * points[:, 0]
        elif shape == "constant":
            points[:, -1] = 1.0
    points *= draw(st.sampled_from([1.0, 0.1]))
    n_classes = draw(st.integers(2, 3))
    if draw(st.booleans()):
        labels = np.arange(n) % n_classes
    else:
        labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    policy = CvPolicy(
        coarse_grid=draw(st.sampled_from([(0.1, 0.3, 0.5, 0.7, 0.9), (0.5,), (0.2, 0.8)])),
        fine_count=draw(st.integers(1, 5)),
        fine_spacing=draw(st.sampled_from([0.02, 0.1])),
        cv_folds=draw(st.integers(2, 5)),
    )
    cfg = GmmlConfig(lam=draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 1.0])))
    count = draw(st.one_of(st.none(), st.integers(1, 40)))
    return (LabeledDataset(points=points, labels=labels), policy, cfg,
            draw(st.integers(1, n + 2)), draw(st.integers(0, 2**32 - 1)), count,
            draw(st.booleans()))


def _cv_outcome(fn, problem):
    data, policy, cfg, k, seed, count, standardize = problem
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(data, policy, cfg, k, seed, count, standardize)
        except (GmmlError, ValueError) as exc:
            result = (type(exc), str(exc))
    return result, {str(w.message) for w in caught if issubclass(w.category, UserWarning)}


def _cv_problem(points, labels, scale, policy, lam, k, seed, count=None):
    data = LabeledDataset(points=np.asarray(points, dtype=float) * scale, labels=labels)
    return data, policy, GmmlConfig(lam=lam), k, seed, count, False


# A_t fails its SPD check at t = 0.1 on fold 1 and at t = 0.9 on fold 0
GUARD_FAILS_TWICE = _cv_problem([[-2, -1], [-2, 1], [-2, -3], [3, -2]], [0, 0, 0, 1], 1.0,
                                CvPolicy(fine_count=1, cv_folds=2), 1e-13, 2, 0)
# every fold passes at every coarse t but 0.9, whose A_t fails on fold 2
GUARD_FAILS_AT_09 = _cv_problem([[-1, -2, -2], [-3, 0, -6], [1, 0, 2], [1, 0, 2], [2, -3, 4],
                                 [-3, 0, -6], [-3, 0, -6], [1, 2, 2], [1, 2, 2], [-3, 0, -6]],
                                [1, 2, 0, 0, 1, 2, 2, 0, 1, 0], 0.1,
                                CvPolicy(fine_count=3, cv_folds=3), 1e-13, 1, 6727620)


@settings(max_examples=200, deadline=None)
@given(cv_problems())
@example(GUARD_FAILS_TWICE)
@example(GUARD_FAILS_AT_09)
# a k-th distance that ties exactly under A_t
@example(_cv_problem([[-1, -2, 3], [-1, -2, 3], [-3, 2, 1], [-1, 3, -2], [2, 1, 1], [2, 0, -1],
                      [1, 2, -1]], [0, 2, 1, 1, 0, 2, 0], 1.0,
                     CvPolicy(fine_count=1, cv_folds=2), 1e-3, 1, 939217633, count=36))
# a vote tie whose class means tie exactly under A_t
@example(_cv_problem([[1, -2], [-3, 1], [-1, -2], [3, -3], [0, -1], [0, 3], [0, 3], [1, -2],
                      [1, 2]], [0, 1, 2, 0, 1, 1, 1, 1, 1], 0.1,
                     CvPolicy(fine_count=1, cv_folds=4), 1.0, 5, 1371761907, count=39))
def test_cv_matches_per_candidate_oracle(problem):
    got, got_warnings = _cv_outcome(cross_validate_t, problem)
    expected, expected_warnings = _cv_outcome(cross_validate_t_oracle, problem)
    # the chosen t and every TScore bit for bit, or the same exception
    assert got == expected
    if isinstance(got, CvResult) and not any(s.disqualified for s in got.scores):
        # the k > n clamp warning of every fold the oracle classified
        assert got_warnings == expected_warnings


@pytest.mark.parametrize("problem, rejected, chosen", [
    (GUARD_FAILS_TWICE, {0.1, 0.9}, 0.5),
    (GUARD_FAILS_AT_09, {0.9}, 0.32),
], ids=["two-t", "one-t"])
def test_cv_disqualifies_a_t_whose_metric_fails_the_guard(problem, rejected, chosen):
    result, _ = _cv_outcome(cross_validate_t, problem)
    assert {s.t for s in result.scores if s.disqualified} == rejected
    assert result.chosen_t == chosen
    assert all(s.mean_error is None for s in result.scores if s.disqualified)


def test_cv_with_every_t_disqualified_names_the_first_rejected():
    data, policy, cfg, k, seed, count, standardize = GUARD_FAILS_AT_09
    policy = dataclasses.replace(policy, coarse_grid=(0.9,))
    with pytest.raises(NotPositiveDefinite, match=(
            r"^every t candidate failed cross-validation: the learned metric at "
            r"t = 0\.9 is not positive definite on fold 2$")):
        cross_validate_t(data, policy, cfg, k, seed, count, standardize)


def _cv_sweep_problem(rng, i):
    """CV problem i of the certificate sweep: 8-20 points of d = 2-5, one
    in three with features scaled by 1e-5 to 1e3 and one in three with
    its last feature constant within each class (a singular similarity
    scatter), lambda 0, 1e-13 or 1e-6 to 1, and a random coarse grid, fold
    count, k and seed."""
    d = int(rng.integers(2, 6))
    n = int(rng.integers(8, 21))
    labels = np.arange(n) % int(rng.integers(2, 4))
    points = rng.standard_normal((n, d))
    if i % 3 == 1:
        points *= 10.0 ** rng.uniform(-5, 3, size=d)
    elif i % 3 == 2:
        points[:, -1] = labels
    lam = (0.0, 1e-13, 10.0 ** rng.uniform(-6, 0))[i // 3 % 3]
    grid = [(0.1, 0.3, 0.5, 0.7, 0.9), (0.9,), (0.05, 0.95), (0.01, 0.5, 0.99)][i % 4]
    policy = CvPolicy(coarse_grid=grid, fine_count=int(rng.integers(1, 5)),
                      cv_folds=int(rng.integers(2, 5)))
    return _cv_problem(points, labels, 1.0, policy, lam, int(rng.integers(1, 4)),
                       int(rng.integers(2**31)))


def test_certified_cv_matches_the_eigvalsh_guard_oracle(monkeypatch):
    # cross-validation whose stages the bounds certify gives the outcome of
    # one whose every stage runs the stacked guard (the oracle): equal
    # scores, chosen t and disqualified flags, the same first rejected
    # (t, fold) handed to _pick_best, or the same exception
    picks = []
    pick_best = evaluation._pick_best
    monkeypatch.setattr(evaluation, "_pick_best",
                        lambda scored, first: picks.append(first) or pick_best(scored, first))
    masks = []
    spd_mask = spd.spd_mask
    monkeypatch.setattr(spd, "spd_mask", lambda stack: masks.append(stack.shape[0]) or spd_mask(stack))
    rng = np.random.default_rng(27)
    data, policy, *rest = GUARD_FAILS_AT_09
    every_t_fails = (data, dataclasses.replace(policy, coarse_grid=(0.9,)), *rest)
    problems = [GUARD_FAILS_TWICE, GUARD_FAILS_AT_09, every_t_fails]
    problems += [_cv_sweep_problem(rng, i) for i in range(150)]
    guarded = rejected = 0
    for problem in problems:
        picks.clear()
        masks.clear()
        got = _cv_outcome(cross_validate_t, problem)[0], list(picks)
        guarded += len(masks)
        picks.clear()
        with guards_uncertified():
            expected = _cv_outcome(cross_validate_t, problem)[0], list(picks)
        assert got == expected, problem
        rejected += any(first is not None for first in got[1])
    # some stages fall back to the guard, and some candidates are rejected
    assert guarded > 20 and rejected > 10, (guarded, rejected)


def test_cv_samples_scatters_and_solves_once_per_fold(monkeypatch):
    calls = Counter()
    for name in ("sample_constraints", "scatter_matrices", "solve_basis"):
        original = getattr(evaluation, name)
        monkeypatch.setattr(evaluation, name,
                            lambda *a, _f=original, _n=name, **kw: calls.update([_n]) or _f(*a, **kw))
    data = make_anisotropic(np.random.default_rng(16), n_per_class=20)
    result = cross_validate_t(data, CvPolicy(cv_folds=5), GmmlConfig(), k=3, seed=0)
    assert len(result.scores) > 5
    assert calls == {"sample_constraints": 5, "scatter_matrices": 5, "solve_basis": 5}


def test_cv_factors_each_fold_once(monkeypatch):
    # the one Cholesky of a fold is its S's, in solve_basis: every A_t is
    # classified through its geodesic factor, with no factorization of its own
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(np.shape(a)) or cholesky(a))
    data = make_anisotropic(np.random.default_rng(16), n_per_class=20)
    result = cross_validate_t(data, CvPolicy(cv_folds=5), GmmlConfig(), k=3, seed=0)
    assert any(s.stage == "fine" for s in result.scores)
    assert factored == [(data.n_features, data.n_features)] * 5


def test_cv_classifies_each_stage_in_one_knn_call_per_fold(monkeypatch):
    stacks = []
    checks = Counter()
    knn_labels, check_spd = evaluation._knn_labels, spd.check_spd

    def counting_knn(train_pts, train_labels, a, basis, weights, queries, k):
        stacks.append(a.shape[0])
        return knn_labels(train_pts, train_labels, a, basis, weights, queries, k)

    def counting_check(a, name="matrix"):
        checks[name] += 1
        return check_spd(a, name)

    monkeypatch.setattr(evaluation, "_knn_labels", counting_knn)
    monkeypatch.setattr(spd, "check_spd", counting_check)
    data = make_anisotropic(np.random.default_rng(16), n_per_class=20)
    result = cross_validate_t(data, CvPolicy(cv_folds=5), GmmlConfig(), k=3, seed=0)
    fine = sum(s.stage == "fine" for s in result.scores)
    assert fine > 0
    assert stacks == [5] * 5 + [fine] * 5
    assert not checks

    # A_0.9 fails the guard on fold 2 only: that fold classifies the other
    # four coarse metrics, and 0.9 is disqualified
    stacks.clear()
    result, _ = _cv_outcome(cross_validate_t, GUARD_FAILS_AT_09)
    assert [s.t for s in result.scores if s.disqualified] == [0.9]
    assert stacks == [5, 5, 4, 2, 2, 2]
    assert not checks


def test_cv_raises_a_later_folds_fitting_error_before_any_classification(monkeypatch):
    # every fold is fitted before any is classified, so fold 1's sampling
    # error raises before fold 0's stack is classified
    samples = Counter()
    stacks = []
    sample, knn_labels = evaluation.sample_constraints, evaluation._knn_labels

    def failing_sample(data, count, seed):
        samples["calls"] += 1
        if samples["calls"] == 2:
            raise ValueError("fold 1 cannot sample its pairs")
        return sample(data, count, seed)

    def counting_knn(train_pts, train_labels, a, basis, weights, queries, k):
        stacks.append(a.shape[0])
        return knn_labels(train_pts, train_labels, a, basis, weights, queries, k)

    monkeypatch.setattr(evaluation, "sample_constraints", failing_sample)
    monkeypatch.setattr(evaluation, "_knn_labels", counting_knn)
    problem = (make_anisotropic(np.random.default_rng(3), n_per_class=15),
               CvPolicy(fine_count=3, cv_folds=3), GmmlConfig(), 3, 0, None, False)
    got, _ = _cv_outcome(cross_validate_t, problem)
    assert got == (ValueError, "fold 1 cannot sample its pairs")
    assert samples["calls"] == 2 and stacks == []


def test_holdout_split_is_stratified_and_deterministic():
    labels = np.repeat([0, 1, 2], [10, 4, 2])
    data = LabeledDataset(points=np.arange(16.0)[:, None], labels=labels)
    train, test = holdout_split(data, 0.3, seed=3)
    assert Counter(test.labels.tolist()) == {0: 3, 1: 1, 2: 1}
    assert sorted(train.points[:, 0].tolist() + test.points[:, 0].tolist()) == list(range(16))
    again = holdout_split(data, 0.3, seed=3)
    assert np.array_equal(again[1].points, test.points)


@pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -2.0])
def test_holdout_split_rejects_a_fraction_outside_the_open_unit_interval(fraction):
    data = LabeledDataset(points=np.arange(20.0)[:, None], labels=np.repeat([0, 1], 10))
    with pytest.raises(ValueError, match=r"holdout fraction must lie strictly in \(0, 1\)"):
        holdout_split(data, fraction, seed=0)


# ------------------------------------------------------------------ run_benchmark

def test_benchmark_single_run_on_blobs():
    data = make_blobs(np.random.default_rng(15), n_per_class=20)
    report = run_benchmark(
        data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, GmmlConfig(), k=5
    )
    assert len(report.records) == 2
    assert all(rec.error_rate <= 0.05 for rec in report.records)
    # two-fold: every point is tested exactly once per run
    assert sum(rec.n_test for rec in report.records) == data.n_points


def test_benchmark_counting_contract():
    data = make_blobs(np.random.default_rng(16), n_per_class=20)
    report = run_benchmark(
        data, SplitPlan(n_runs=2, n_folds=2, rng_seed=1), None, GmmlConfig(), k=5
    )
    assert len(report.records) == 4
    assert report.n_runs == 2 and report.n_folds == 2


def test_benchmark_baseline_mode_skips_learning():
    data = make_blobs(np.random.default_rng(17), n_per_class=20)
    report = run_benchmark(
        data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, GmmlConfig(),
        k=5, baseline=True,
    )
    assert report.baseline
    assert all(rec.chosen_t is None for rec in report.records)
    assert all(rec.error_rate == 0.0 for rec in report.records)


def test_benchmark_deterministic_modulo_timing():
    data = make_anisotropic(np.random.default_rng(18), n_per_class=20)
    plan = SplitPlan(n_runs=2, n_folds=2, rng_seed=5)
    a = run_benchmark(data, plan, CvPolicy(), GmmlConfig(), k=3)
    b = run_benchmark(data, plan, CvPolicy(), GmmlConfig(), k=3)
    assert strip_timing(a) == strip_timing(b)


def test_benchmark_parallel_matches_serial():
    data = make_blobs(np.random.default_rng(19), n_per_class=15)
    plan = SplitPlan(n_runs=2, n_folds=2, rng_seed=2)
    serial = run_benchmark(data, plan, None, GmmlConfig(), k=3, n_jobs=1)
    parallel = run_benchmark(data, plan, None, GmmlConfig(), k=3, n_jobs=4)
    assert strip_timing(serial) == strip_timing(parallel)


def test_benchmark_records_failures_without_aborting():
    data = degenerate_dataset()
    report = run_benchmark(
        data, SplitPlan(n_runs=2, n_folds=2, rng_seed=0), None,
        GmmlConfig(t=0.5, lam=0.0), k=3, constraint_count=40,
    )
    assert report.n_failures == len(report.records) == 4
    assert all("singular" in rec.failure for rec in report.records)
    assert np.isnan(report.mean_error)


def test_benchmark_near_singular_data_completes_with_regularization():
    data = degenerate_dataset()
    report = run_benchmark(
        data, SplitPlan(n_runs=3, n_folds=2, rng_seed=0), None,
        GmmlConfig(t=0.5, lam=0.1), k=3, constraint_count=40,
    )
    assert report.n_failures == 0


def test_benchmark_cv_mode_records_chosen_t():
    data = make_blobs(np.random.default_rng(20), n_per_class=20)
    report = run_benchmark(
        data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), CvPolicy(), GmmlConfig(), k=3
    )
    assert report.t_mode == "cv"
    assert all(rec.chosen_t is not None for rec in report.records)
    assert report.chosen_ts == tuple(rec.chosen_t for rec in report.records)


def test_benchmark_rejects_single_class_unless_baseline():
    rng = np.random.default_rng(21)
    points = rng.standard_normal((10, 2))
    # labels all 1 give num_classes 2, yet only one class is present
    for label in (0, 1):
        data = LabeledDataset(points=points, labels=np.full(10, label))
        with pytest.raises(DataError, match="has 1 class; metric learning needs at least 2"):
            run_benchmark(data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, GmmlConfig())
        report = run_benchmark(
            data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, GmmlConfig(),
            baseline=True, constraint_count=10,
        )
        assert report.n_failures == 0


def test_benchmark_rejects_a_prior_of_another_dimension_unless_baseline():
    data = make_blobs(np.random.default_rng(23), n_per_class=5)
    cfg = GmmlConfig(lam=0.5, prior=np.eye(3))
    with pytest.raises(DimensionMismatch, match="prior has dimension 3, data has 2"):
        run_benchmark(data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, cfg, k=1)
    report = run_benchmark(data, SplitPlan(n_runs=1, n_folds=2, rng_seed=0), None, cfg, k=1,
                           baseline=True)
    assert report.n_failures == 0


def test_benchmark_rejects_folds_of_fewer_than_two_points():
    data = make_blobs(np.random.default_rng(22), n_per_class=5)
    with pytest.raises(ValueError, match="6 folds need at least 12 points, got 10"):
        run_benchmark(data, SplitPlan(n_runs=1, n_folds=6), None, GmmlConfig())
    # five folds of two points each are enough
    report = run_benchmark(data, SplitPlan(n_runs=1, n_folds=5), None, GmmlConfig(), k=1)
    assert report.n_failures == 0 and len(report.records) == 5


# ----------------------------------------------------------------- value checks

def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(n_runs=0)
    with pytest.raises(ValueError):
        SplitPlan(n_folds=1)


def report_of(record: RunRecord) -> EvalReport:
    return EvalReport(
        dataset_name="x", fingerprint=None, seed=0, k=5, t_mode="0.5",
        lam=0.0, constraint_count=1, n_runs=1, n_folds=1, baseline=False,
        standardize=False, records=(record,), mean_error=0.0, std_error=0.0,
        mean_learn_time=0.0, mean_total_time=0.0,
    )


def test_eval_report_rejects_out_of_range_error():
    record = RunRecord(run=0, fold=0, error_rate=1.5, chosen_t=None,
                       learn_time=0.0, total_time=0.0, n_train=1, n_test=1)
    with pytest.raises(ValueError, match=r"error rate out of \[0, 1\]: 1.5"):
        report_of(record)


def test_eval_report_rejects_a_negative_time():
    record = RunRecord(run=0, fold=0, error_rate=0.0, chosen_t=None,
                       learn_time=0.0, total_time=-1.0, n_train=1, n_test=1)
    with pytest.raises(ValueError, match="negative wall-clock time in record"):
        report_of(record)
