from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gmml import (
    DimensionMismatch,
    GmmlConfig,
    GmmlError,
    LabeledDataset,
    NotPositiveDefinite,
    PairConstraints,
    ScatterMatrices,
    SingularScatter,
    mahalanobis,
    objective,
    objective_gradient,
    riccati_residual,
    scatter_matrices,
    solve,
)
from gmml import spd
from gmml.learn import solve_basis
from gmml.spd import is_spd, riemannian_distance, spd_inverse, symmetrize
from helpers import _traced_peak, ahm_mean, rand_spd, solve_guard_oracle, solve_oracle


def rel_fro(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def random_sc(rng, d, lo=0.5, hi=2.0):
    return ScatterMatrices(
        s_mat=rand_spd(rng, d, lo, hi),
        d_mat=rand_spd(rng, d, lo, hi),
        sim_count=0,
        dis_count=0,
    )


# --------------------------------------------------------------- mahalanobis

def test_mahalanobis_identity_is_squared_euclidean():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(mahalanobis(np.eye(4), x, y) - np.sum((x - y) ** 2)) <= 1e-12


def test_mahalanobis_zero_on_equal_points():
    x = np.array([1.0, 2.0, 3.0])
    assert mahalanobis(np.eye(3), x, x) == 0.0


def test_mahalanobis_diagonal_arithmetic():
    assert mahalanobis(np.diag([2.0, 3.0]), [1.0, 1.0], [0.0, 0.0]) == 5.0


def test_mahalanobis_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        mahalanobis(np.eye(2), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


# ----------------------------------------------------------- PairConstraints

def test_pair_constraints_reject_self_pairs():
    with pytest.raises(ValueError):
        PairConstraints(sim_pairs=[[1, 1]], dis_pairs=np.empty((0, 2)))


def test_pair_constraints_reject_negative_indices():
    with pytest.raises(ValueError):
        PairConstraints(sim_pairs=[[0, -1]], dis_pairs=np.empty((0, 2)))


def test_pair_constraints_validate_for_range():
    pairs = PairConstraints(sim_pairs=[[0, 5]], dis_pairs=np.empty((0, 2)))
    with pytest.raises(IndexError):
        pairs.validate_for(4)
    pairs.validate_for(6)


# ---------------------------------------------------------- scatter_matrices

def test_scatter_single_pair_outer_product():
    pts = np.array([[1.0, 0.0], [0.0, 0.0]])
    pairs = PairConstraints(sim_pairs=[[0, 1]], dis_pairs=np.empty((0, 2)))
    sc = scatter_matrices(pts, pairs)
    assert_allclose(sc.s_mat, [[1.0, 0.0], [0.0, 0.0]])
    assert sc.sim_count == 1


def test_scatter_empty_dissimilar_set_is_zero():
    pts = np.array([[1.0, 0.0], [0.0, 0.0]])
    pairs = PairConstraints(sim_pairs=[[0, 1]], dis_pairs=np.empty((0, 2)))
    sc = scatter_matrices(pts, pairs)
    assert_allclose(sc.d_mat, np.zeros((2, 2)))
    assert sc.dis_count == 0


def test_scatter_matches_brute_force_summation():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((8, 3))
    sim = [[0, 1], [2, 3], [4, 5], [1, 2], [6, 7]]
    dis = [[0, 7], [1, 6], [2, 5], [3, 4], [0, 4]]
    sc = scatter_matrices(pts, PairConstraints(sim_pairs=sim, dis_pairs=dis))

    def brute(pair_list):
        total = np.zeros((3, 3))
        for i, j in pair_list:
            u = (pts[i] - pts[j]).reshape(-1, 1)
            total += u @ u.T
        return total

    assert_allclose(sc.s_mat, brute(sim), atol=1e-12)
    assert_allclose(sc.d_mat, brute(dis), atol=1e-12)


def test_scatter_rejects_out_of_range_pair():
    pts = np.zeros((3, 2))
    pairs = PairConstraints(sim_pairs=[[0, 5]], dis_pairs=np.empty((0, 2)))
    with pytest.raises(IndexError):
        scatter_matrices(pts, pairs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ScatterMatrices(s_mat=np.eye(2), d_mat=np.eye(3), sim_count=0, dis_count=0),
     DimensionMismatch, r"scatter matrices have mismatched shapes \(2, 2\) and \(3, 3\)"),
    # construction accepts an indefinite pair; the solver's guard refuses it
    (lambda: solve(ScatterMatrices(s_mat=np.diag([1.0, -1.0]), d_mat=np.eye(2),
                                   sim_count=0, dis_count=0)),
     SingularScatter, "similarity scatter matrix is singular or near-singular: "
                      r"relative min eigenvalue -1\.000e\+00"),
    (lambda: scatter_matrices(np.zeros(4), PairConstraints(sim_pairs=[[0, 1]], dis_pairs=[])),
     DimensionMismatch, r"points must be 2-d, got shape \(4,\)"),
], ids=["shapes", "indefinite", "points-1d"])
def test_scatter_rejects_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_scatter_accepts_dataset_argument():
    rng = np.random.default_rng(2)
    data = LabeledDataset(points=rng.standard_normal((6, 2)), labels=np.zeros(6, dtype=int))
    pairs = PairConstraints(sim_pairs=[[0, 1]], dis_pairs=[[2, 3]])
    sc = scatter_matrices(data, pairs)
    u = data.points[0] - data.points[1]
    assert_allclose(sc.s_mat, symmetrize(np.outer(u, u)), atol=1e-12)


# the rows of one block of pair differences at d = 64
_ROWS = spd._BLOCK_ELEMENTS // 64


@pytest.mark.parametrize("count", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
@pytest.mark.parametrize("kind", ["c-order", "fortran", "integer", "dataset", "repeated"])
def test_scatter_keeps_the_gather_then_subtract_bits(kind, count):
    # the blocks fill the one buffer the whole-array difference gave, so the
    # product, and every bit of S and D, is the same
    rng = np.random.default_rng(count)
    n = 40
    raw = rng.integers(-50, 50, size=(n, 64)) if kind == "integer" else rng.standard_normal((n, 64))
    first = rng.integers(n, size=count)
    idx = np.column_stack((first, (first + rng.integers(1, n, size=count)) % n))
    if kind == "repeated":
        idx = np.tile(idx[:3], (-(-count // 3), 1))[:count]
    pts = np.asarray(raw, dtype=float)
    data = {"fortran": np.asfortranarray(pts), "integer": raw,
            "dataset": LabeledDataset(pts, np.zeros(n, dtype=int))}.get(kind, pts)
    sc = scatter_matrices(data, PairConstraints(sim_pairs=idx, dis_pairs=idx[::-1]))
    for got, pairs in ((sc.s_mat, idx), (sc.d_mat, idx[::-1])):
        diffs = pts[pairs[:, 0]] - pts[pairs[:, 1]]
        assert np.array_equal(got, symmetrize(diffs.T @ diffs))


def test_scatter_holds_one_difference_buffer():
    # one (m, d) buffer, the two d x d results and one block of differences,
    # plus slack for index slices; gathering both ends of every pair before
    # subtracting holds a second (m, d) array
    rng = np.random.default_rng(5)
    n, d, m = 300, 128, 2000
    pts = rng.standard_normal((n, d))
    first = rng.integers(n, size=(2, m))
    sim, dis = (np.column_stack((f, (f + rng.integers(1, n, size=m)) % n)) for f in first)
    peak = _traced_peak(scatter_matrices, pts, PairConstraints(sim_pairs=sim, dis_pairs=dis))
    assert peak <= 8 * (m * d + 2 * d * d + spd._BLOCK_ELEMENTS) + 2**14


# ------------------------------------------------------------------ objective

def test_objective_identity_matrices():
    sc = ScatterMatrices(s_mat=np.eye(2), d_mat=np.eye(2), sim_count=0, dis_count=0)
    assert abs(objective(np.eye(2), sc) - 4.0) <= 1e-12


def test_objective_scalar_arithmetic():
    sc = ScatterMatrices(s_mat=np.diag([1.0]), d_mat=np.diag([4.0]), sim_count=0, dis_count=0)
    assert abs(objective(np.diag([2.0]), sc) - 4.0) <= 1e-12


def test_objective_minimal_at_closed_form():
    rng = np.random.default_rng(3)
    sc = random_sc(rng, 4)
    a = solve(sc).matrix
    base = objective(a, sc)
    for _ in range(20):
        probe = symmetrize(a + 0.1 * np.linalg.norm(a) * symmetrize(rng.standard_normal((4, 4))))
        if not is_spd(probe):
            continue
        assert base <= objective(probe, sc) + 1e-10


@pytest.mark.parametrize("cost", [objective, objective_gradient])
def test_cost_rejects_a_metric_of_another_dimension(cost):
    sc = ScatterMatrices(s_mat=np.eye(2), d_mat=np.eye(2), sim_count=0, dis_count=0)
    with pytest.raises(DimensionMismatch, match="metric dim 3 vs scatter dim 2"):
        cost(np.eye(3), sc)


# --------------------------------------------------------- objective_gradient

def test_gradient_vanishes_at_solution():
    rng = np.random.default_rng(4)
    sc = random_sc(rng, 5)
    a = solve(sc).matrix
    g = objective_gradient(a, sc)
    assert np.linalg.norm(g) <= 1e-8 * np.linalg.norm(sc.s_mat)


def test_gradient_at_identity_is_s_minus_d():
    rng = np.random.default_rng(5)
    sc = random_sc(rng, 3)
    assert_allclose(objective_gradient(np.eye(3), sc), sc.s_mat - sc.d_mat, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    step = 1e-5
    for _ in range(5):
        d = int(rng.integers(2, 6))
        sc = random_sc(rng, d)
        a = rand_spd(rng, d, 0.8, 1.5)
        grad = objective_gradient(a, sc)
        for _ in range(4):
            i, j = rng.integers(0, d, size=2)
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0 if i != j else 1.0
            fd = (objective(a + step * e, sc) - objective(a - step * e, sc)) / (2 * step)
            # symmetric perturbation touches both (i,j) and (j,i) entries
            expected = grad[i, j] * (2.0 if i != j else 1.0)
            assert abs(fd - expected) <= 1e-5 * max(abs(expected), 1e-6)


def test_gradient_opposition_of_pull_terms():
    # the similarity pull u u^T and dissimilarity push -A^{-1} u u^T A^{-1}
    # always have strictly negative Frobenius inner product
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rand_spd(rng, 4)
        u = rng.standard_normal(4)
        while np.linalg.norm(u) == 0:
            u = rng.standard_normal(4)
        outer = np.outer(u, u)
        a_inv = spd_inverse(a)
        push = -a_inv @ outer @ a_inv
        assert float(np.sum(outer * push)) < 0


# ------------------------------------------------------------------- solvers

def test_solve_plain_scalar_riccati():
    sc = ScatterMatrices(s_mat=[[2.0]], d_mat=[[8.0]], sim_count=0, dis_count=0)
    assert_allclose(solve(sc).matrix, [[2.0]], atol=1e-12)


def test_solve_plain_identity_fixed_point():
    sc = ScatterMatrices(s_mat=np.eye(3), d_mat=np.eye(3), sim_count=0, dis_count=0)
    assert_allclose(solve(sc).matrix, np.eye(3), atol=1e-12)


def test_solve_plain_matches_ahm_oracle():
    s = np.array([[2.0, 1.0], [1.0, 1.0]])
    d = np.array([[5.0, 0.0], [0.0, 1.0]])
    sc = ScatterMatrices(s_mat=s, d_mat=d, sim_count=0, dis_count=0)
    expected = np.array([
        [1.8396173700172551, -0.5684730304826776],
        [-0.5684730304826776, 1.3911749288722710],
    ])
    metric = solve(sc)
    assert_allclose(metric.matrix, expected, atol=1e-13)
    assert rel_fro(metric.matrix, ahm_mean(np.linalg.inv(s), d)) <= 1e-12
    assert riccati_residual(metric.matrix, s, d) <= 1e-12
    assert metric.provenance.riccati_residual <= 1e-12


def test_solve_plain_names_singular_matrix():
    rank_deficient = np.array([[1.0, 0.0], [0.0, 0.0]])
    good = np.eye(2)
    with pytest.raises(SingularScatter) as info:
        solve(ScatterMatrices(s_mat=rank_deficient, d_mat=good, sim_count=0, dis_count=0))
    assert info.value.which == "similarity"
    assert "regularized" in str(info.value)
    with pytest.raises(SingularScatter) as info:
        solve(ScatterMatrices(s_mat=good, d_mat=rank_deficient, sim_count=0, dis_count=0))
    assert info.value.which == "dissimilarity"


def test_solve_weighted_endpoints():
    rng = np.random.default_rng(8)
    sc = random_sc(rng, 4)
    assert rel_fro(solve(sc, GmmlConfig(t=0.0)).matrix, spd_inverse(sc.s_mat)) <= 1e-10
    assert rel_fro(solve(sc, GmmlConfig(t=1.0)).matrix, sc.d_mat) <= 1e-10


def test_solve_weighted_midpoint_equals_plain():
    rng = np.random.default_rng(9)
    sc = random_sc(rng, 5)
    midpoint = ahm_mean(spd_inverse(sc.s_mat), sc.d_mat)
    assert rel_fro(solve(sc, GmmlConfig(t=0.5)).matrix, midpoint) <= 1e-10


def test_solve_weighted_minimizes_weighted_distance_cost():
    rng = np.random.default_rng(11)
    sc = random_sc(rng, 3)
    t = 0.3
    a = solve(sc, GmmlConfig(t=t)).matrix
    s_inv = spd_inverse(sc.s_mat)

    def cost(m):
        return ((1 - t) * riemannian_distance(m, s_inv) ** 2
                + t * riemannian_distance(m, sc.d_mat) ** 2)

    base = cost(a)
    for _ in range(20):
        probe = symmetrize(a + 0.05 * np.linalg.norm(a) * symmetrize(rng.standard_normal((3, 3))))
        if not is_spd(probe):
            continue
        assert base <= cost(probe) + 1e-10


def test_solve_midpoint_minimizes_symmetric_distance_cost():
    rng = np.random.default_rng(12)
    sc = random_sc(rng, 3)
    a = solve(sc).matrix
    s_inv = spd_inverse(sc.s_mat)

    def cost(m):
        return riemannian_distance(m, s_inv) ** 2 + riemannian_distance(m, sc.d_mat) ** 2

    base = cost(a)
    for _ in range(20):
        probe = symmetrize(a + 0.05 * np.linalg.norm(a) * symmetrize(rng.standard_normal((3, 3))))
        if not is_spd(probe):
            continue
        assert base <= cost(probe) + 1e-10


def test_solve_regularized_large_lambda_approaches_prior():
    rng = np.random.default_rng(14)
    sc = random_sc(rng, 4)
    a = solve(sc, GmmlConfig(t=0.5, lam=1e8)).matrix
    assert riemannian_distance(a, np.eye(4)) <= 1e-3


def test_solve_regularized_pull_grows_with_lambda():
    rng = np.random.default_rng(15)
    sc = random_sc(rng, 4, lo=2.0, hi=6.0)
    near = solve(sc, GmmlConfig(t=0.5, lam=100.0)).matrix
    far = solve(sc, GmmlConfig(t=0.5, lam=0.01)).matrix
    assert riemannian_distance(near, np.eye(4)) < riemannian_distance(far, np.eye(4))


def test_solve_regularized_handles_rank_deficient_scatter():
    # one similar pair in R^2 gives a rank-1 similarity matrix
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 1.0], [0.0, 2.0]])
    pairs = PairConstraints(sim_pairs=[[0, 1]], dis_pairs=[[2, 3]])
    sc = scatter_matrices(pts, pairs)
    cfg = GmmlConfig(t=0.5, lam=0.1)
    metric = solve(sc, cfg)
    assert is_spd(metric.matrix)
    s_mod = sc.s_mat + 0.1 * np.eye(2)
    d_mod = sc.d_mat + 0.1 * np.eye(2)
    assert riccati_residual(metric.matrix, s_mod, d_mod) <= 1e-8
    assert metric.provenance.riccati_residual <= 1e-8


def test_solve_regularized_stationarity_at_midpoint():
    # gradient of lam * sld(A, A0) + trace(A S) + trace(A^{-1} D) vanishes
    rng = np.random.default_rng(16)
    sc = random_sc(rng, 4)
    lam = 0.7
    a = solve(sc, GmmlConfig(t=0.5, lam=lam)).matrix
    a_inv = spd_inverse(a)
    grad = lam * (np.eye(4) - a_inv @ a_inv) + sc.s_mat - a_inv @ sc.d_mat @ a_inv
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(sc.s_mat)


def test_solve_regularized_custom_prior():
    rng = np.random.default_rng(17)
    sc = random_sc(rng, 3)
    prior = rand_spd(rng, 3, 0.8, 1.2)
    a = solve(sc, GmmlConfig(t=0.5, lam=1e8, prior=prior)).matrix
    assert riemannian_distance(a, prior) <= 1e-3


def test_riccati_residual_is_absolute_when_d_is_zero():
    a, s = 2.0 * np.eye(2), np.eye(2)
    assert riccati_residual(a, s, np.zeros((2, 2))) == np.linalg.norm(4.0 * np.eye(2))


def spd_with_cond(rng, d, cond, scale=1.0):
    """Random SPD matrix whose eigenvalues span exactly [scale / cond, scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = 10.0 ** rng.uniform(-np.log10(cond), 0.0, d)
    if d > 1:
        w[0], w[-1] = 1.0, 1.0 / cond
    m = scale * (q * w) @ q.T
    return (m + m.T) / 2


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    log_cond_s=st.floats(0.0, 4.0),
    log_cond_d=st.floats(0.0, 4.0),
    log_scale=st.integers(-6, 6),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    lam=st.one_of(st.just(0.0), st.floats(1e-4, 1e4)),
    custom_prior=st.booleans(),
)
@example(seed=0, d=12, log_cond_s=4.0, log_cond_d=4.0, log_scale=0, t=0.0, lam=0.0,
         custom_prior=False)
@example(seed=1, d=12, log_cond_s=4.0, log_cond_d=4.0, log_scale=0, t=1.0, lam=0.0,
         custom_prior=False)
@example(seed=2, d=7, log_cond_s=4.0, log_cond_d=0.0, log_scale=3, t=0.5, lam=0.1,
         custom_prior=True)
def test_solve_matches_inverse_then_geodesic_oracle(
    seed, d, log_cond_s, log_cond_d, log_scale, t, lam, custom_prior
):
    rng = np.random.default_rng(seed)
    sc = ScatterMatrices(
        s_mat=spd_with_cond(rng, d, 10.0**log_cond_s, 10.0**log_scale),
        d_mat=spd_with_cond(rng, d, 10.0**log_cond_d),
        sim_count=0,
        dis_count=0,
    )
    prior = spd_with_cond(rng, d, 10.0) if custom_prior else None
    cfg = GmmlConfig(t=t, lam=lam, prior=prior)
    assert rel_fro(solve(sc, cfg).matrix, solve_oracle(sc, cfg)) <= 1e-9


def _rank_two(seed, d=4):
    x = np.random.default_rng(seed).standard_normal((2, d))
    return x.T @ x


@pytest.mark.parametrize("s_mat, d_mat, which", [
    (_rank_two(30), np.eye(4), "similarity"),
    (np.eye(4), _rank_two(31), "dissimilarity"),
    (_rank_two(32), _rank_two(33), "similarity"),
    (np.diag([1.0, 1e-14]), np.eye(2), "similarity"),
], ids=["rank-deficient-S", "rank-deficient-D", "both-rank-deficient", "S-diag-1e-14"])
def test_solve_rejects_singular_scatter_like_oracle(s_mat, d_mat, which):
    sc = ScatterMatrices(s_mat=s_mat, d_mat=d_mat, sim_count=0, dis_count=0)
    with pytest.raises(SingularScatter) as want:
        solve_oracle(sc, GmmlConfig())
    with pytest.raises(SingularScatter) as got:
        solve(sc)
    assert got.value.which == want.value.which == which


def test_solve_factors_ill_conditioned_pair_the_oracle_rejects():
    # cond(S) = cond(D) = 1e11 passes the 1e-12 relative guard. Inverting S
    # and factoring S^{-1} again loses the small whitened eigenvalue;
    # factoring S once keeps it.
    def ill_conditioned(seed):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
        return symmetrize(q @ np.diag(np.geomspace(1.0, 1e-11, 6)) @ q.T)

    sc = ScatterMatrices(s_mat=ill_conditioned(0), d_mat=ill_conditioned(1),
                         sim_count=0, dis_count=0)
    with pytest.raises(NotPositiveDefinite):
        solve_oracle(sc, GmmlConfig())
    metric = solve(sc)
    assert metric.provenance.riccati_residual <= 1e-12
    assert riccati_residual(metric.matrix, sc.s_mat, sc.d_mat) <= 1e-12


def _counting(monkeypatch, names=("cholesky", "eigh", "eigvalsh")):
    """The list every call of numpy.linalg's ``names`` appends its name to."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _f=original, _n=name: calls.append(_n) or _f(a))
    return calls


def test_solve_factors_once(monkeypatch):
    # a whole fit, scatter build plus solve: one Cholesky of S and one
    # eigendecomposition, and no eigvalsh at lam = 0 or above: the factors'
    # bounds prove that the singular-scatter guard and the metric's SPD
    # check pass, so neither guard eigendecomposes
    rng = np.random.default_rng(22)
    pts = rng.standard_normal((12, 5))
    pairs = PairConstraints(sim_pairs=[[i, i + 1] for i in range(0, 12, 2)],
                            dis_pairs=[[i, i + 6] for i in range(6)])
    calls = _counting(monkeypatch)
    for lam in (0.0, 0.5):
        calls.clear()
        solve(scatter_matrices(pts, pairs), GmmlConfig(lam=lam))
        assert sorted(calls) == ["cholesky", "eigh"], lam


def test_solve_runs_the_guards_where_the_bounds_are_inconclusive(monkeypatch):
    # lambda_min / lambda_max of S is 4e-12, which passes the 1e-12 guard,
    # but the bound 1 / (tr(S) ||P||_F^2) reads 1e-12, below the margin; the
    # D and metric bounds, loose by about cond(S), are inconclusive too. So
    # all three guards run their eigvalsh, as they did before the
    # certificates, and the solve gives the oracle's bits
    sc = ScatterMatrices(s_mat=np.diag([4e-12, 1.0, 1.0, 1.0, 1.0]), d_mat=np.eye(5),
                         sim_count=0, dis_count=0)
    expected = solve_guard_oracle(sc, GmmlConfig())
    calls = _counting(monkeypatch)
    metric = solve(sc)
    assert sorted(calls) == ["cholesky", "eigh", "eigvalsh", "eigvalsh", "eigvalsh"]
    assert metric.matrix.tobytes() == expected[0].tobytes()
    assert metric.provenance.riccati_residual == expected[1]


def _sweep_pair(rng, i):
    """Pair i of the certificate sweep: d = 2-7, two pairs in three with
    features scaled by 1e-5 to 1e3, every fifth pair rank-deficient (S, or
    D when i ends in 5), a random t, lam = 0 for even i and else
    1e-12 to 10, with a random SPD prior for every fourth pair."""
    d = int(rng.integers(2, 8))
    n = int(rng.integers(d + 2, 3 * d + 6))
    pts = rng.standard_normal((n, d))
    if i % 3:
        pts *= 10.0 ** rng.uniform(-5, 3, size=d)
    counts = [3 * d, 3 * d]
    if i % 5 == 0:
        counts[i % 10 == 5] = int(rng.integers(1, d))

    def pairs(m):
        first = rng.integers(0, n, size=m)
        return np.stack([first, (first + rng.integers(1, n, size=m)) % n], axis=1)

    sc = scatter_matrices(pts, PairConstraints(pairs(counts[0]), pairs(counts[1])))
    lam = 0.0 if i % 2 == 0 else 10.0 ** rng.uniform(-12, 1)
    prior = rand_spd(rng, d, 0.1, 10.0) if i % 4 == 3 else None
    return sc, GmmlConfig(t=float(rng.uniform()), lam=lam, prior=prior)


def _solve_outcome(fn, sc, cfg):
    try:
        matrix, residual = fn(sc, cfg)
    except GmmlError as exc:
        return type(exc), str(exc)
    return matrix.tobytes(), residual


def _certified_solve(sc, cfg):
    metric = solve(sc, cfg)
    return metric.matrix, metric.provenance.riccati_residual


def test_certified_solve_matches_the_eigvalsh_guard_oracle(monkeypatch):
    # 600 seeded pairs: the metric's bits and residual, or the exception's
    # class and message, equal those of the solver that always runs its
    # guards. The sweep reaches every path: solves the bounds certify,
    # solves that fall back to a guard, singular scatters (most found by a
    # failed factorization) and refused metrics
    rng = np.random.default_rng(27)
    calls = _counting(monkeypatch, ("eigvalsh",))
    kinds = Counter()
    for i in range(600):
        sc, cfg = _sweep_pair(rng, i)
        calls.clear()
        got = _solve_outcome(_certified_solve, sc, cfg)
        guarded = bool(calls)
        assert got == _solve_outcome(solve_guard_oracle, sc, cfg), (i, cfg)
        kinds[got[0] if isinstance(got[0], type) else ("solved", guarded)] += 1
    assert kinds[("solved", False)] > 200 and kinds[("solved", True)] > 50, kinds
    assert kinds[SingularScatter] > 50 and kinds[NotPositiveDefinite] > 50, kinds


def test_solve_identity_prior_factors_once(monkeypatch):
    # lambda > 0 with the default identity prior blends in I itself, with no
    # Cholesky of the prior; the result equals the explicit-identity solve
    rng = np.random.default_rng(23)
    sc = random_sc(rng, 5)
    explicit = solve(sc, GmmlConfig(lam=0.5, prior=np.eye(5))).matrix
    calls = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or original(a))
    metric = solve(sc, GmmlConfig(lam=0.5))
    assert len(calls) == 1
    assert np.array_equal(metric.matrix, explicit)


def test_solve_holds_four_d_by_d_arrays():
    # L, V and the back substitution's result and its Fortran-ordered copy,
    # plus slack for the O(d) vectors: the whitened L^T D L is released once
    # eigh returns, and the midpoint's stack and residual need no more
    d = 128
    sc = random_sc(np.random.default_rng(24), d)
    assert _traced_peak(solve, sc) <= 4 * 8 * d * d + 2**14


def test_solve_basis_gives_the_metric_at_every_t():
    # solve builds one or two matrices, so a slice of a five-t stack equal
    # to its metric also shows that a slice does not depend on its batch
    rng = np.random.default_rng(24)
    sc = random_sc(rng, 4)
    ts = (0.0, 0.1, 0.5, 0.93, 1.0)
    for t, a in zip(ts, solve_basis(sc)[0].stage(ts)[0], strict=True):
        assert np.array_equal(a, solve(sc, GmmlConfig(t=t)).matrix)


def test_solution_invariant_to_joint_scatter_scaling():
    rng = np.random.default_rng(18)
    s, d = rand_spd(rng, 4), rand_spd(rng, 4)
    base = solve(ScatterMatrices(s_mat=s, d_mat=d, sim_count=0, dis_count=0)).matrix
    alpha = 7.3
    scaled = solve(
        ScatterMatrices(s_mat=alpha * s, d_mat=alpha * d, sim_count=0, dis_count=0)
    ).matrix
    assert rel_fro(scaled, base) <= 1e-10


def test_data_scaling_scales_scatters_quadratically():
    rng = np.random.default_rng(19)
    pts = rng.standard_normal((6, 3))
    pairs = PairConstraints(sim_pairs=[[0, 1], [2, 3]], dis_pairs=[[4, 5]])
    sc1 = scatter_matrices(pts, pairs)
    sc2 = scatter_matrices(2.0 * pts, pairs)
    assert_allclose(sc2.s_mat, 4.0 * sc1.s_mat, atol=1e-12)
    assert_allclose(sc2.d_mat, 4.0 * sc1.d_mat, atol=1e-12)


def test_geodesic_midpoint_objective_strictly_convex():
    from gmml.spd import geodesic

    rng = np.random.default_rng(20)
    sc = random_sc(rng, 4)
    a, b = rand_spd(rng, 4), rand_spd(rng, 4)
    mid = geodesic(a, b, 0.5)
    assert objective(mid, sc) < 0.5 * objective(a, sc) + 0.5 * objective(b, sc)


def test_euclidean_midpoint_objective_convex():
    rng = np.random.default_rng(21)
    sc = random_sc(rng, 4)
    a, b = rand_spd(rng, 4), rand_spd(rng, 4)
    lhs = objective((a + b) / 2, sc)
    rhs = 0.5 * objective(a, sc) + 0.5 * objective(b, sc)
    assert lhs < rhs


def test_config_validation():
    with pytest.raises(ValueError):
        GmmlConfig(t=1.5)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda"):
            GmmlConfig(lam=lam)
    from gmml import NotPositiveDefinite
    with pytest.raises(NotPositiveDefinite):
        GmmlConfig(prior=np.diag([1.0, -1.0]))


def test_provenance_counts_and_fingerprint():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pairs = PairConstraints(sim_pairs=[[0, 1], [2, 3]], dis_pairs=[[0, 2], [1, 3], [0, 3]])
    sc = scatter_matrices(pts, pairs)
    metric = solve(sc, GmmlConfig(lam=0.5), fingerprint="abc123")
    assert metric.provenance.sim_count == 2
    assert metric.provenance.dis_count == 3
    assert metric.provenance.fingerprint == "abc123"
