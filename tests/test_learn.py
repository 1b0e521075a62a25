import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gmml import (
    DimensionMismatch,
    GmmlConfig,
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
from gmml.spd import is_spd, riemannian_distance, spd_inverse, symmetrize
from helpers import ahm_mean, rand_spd, solve_oracle


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


def test_scatter_accepts_dataset_argument():
    rng = np.random.default_rng(2)
    data = LabeledDataset(points=rng.standard_normal((6, 2)), labels=np.zeros(6, dtype=int))
    pairs = PairConstraints(sim_pairs=[[0, 1]], dis_pairs=[[2, 3]])
    sc = scatter_matrices(data, pairs)
    u = data.points[0] - data.points[1]
    assert_allclose(sc.s_mat, symmetrize(np.outer(u, u)), atol=1e-12)


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


def test_solve_factors_once(monkeypatch):
    # one Cholesky of S and one eigendecomposition; the only eigvalsh is the
    # SPD check of the result, since the scatter guard reuses the extreme
    # eigenvalues ScatterMatrices found
    rng = np.random.default_rng(22)
    sc = random_sc(rng, 5)
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _f=original, _n=name: calls.append(_n) or _f(a))
    solve(sc)
    assert sorted(calls) == ["cholesky", "eigh", "eigvalsh"]


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
    with pytest.raises(ValueError):
        GmmlConfig(lam=-0.1)
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
