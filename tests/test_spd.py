import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmml import DimensionMismatch, NotPositiveDefinite
from gmml.spd import (
    SPD_TOLERANCE,
    check_spd,
    cholesky,
    geodesic,
    is_spd,
    loewner_less,
    riemannian_distance,
    sld_divergence,
    spd_inverse,
    spd_power,
    sym_eigen,
    symmetrize,
)
from helpers import ahm_mean, rand_spd, spd_sqrt


def rel_fro(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


# ---------------------------------------------------------------- symmetrize

def test_symmetrize_upper_triangular():
    assert_allclose(symmetrize([[1, 2], [0, 1]]), [[1, 1], [1, 1]])


def test_symmetrize_identity_fixed_point():
    assert_allclose(symmetrize(np.eye(3)), np.eye(3))


def test_symmetrize_arithmetic():
    assert_allclose(symmetrize([[0, 4], [2, 0]]), [[0, 3], [3, 0]])


def test_symmetrize_is_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = symmetrize(rng.standard_normal((6, 6)))
        assert np.array_equal(s, s.T)


def test_symmetrize_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 3)))


# ------------------------------------------------------------------ cholesky

def test_cholesky_identity():
    assert_allclose(cholesky(np.eye(4)), np.eye(4))


def test_cholesky_diagonal():
    assert_allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cholesky_2x2_reconstruction():
    a = np.array([[4.0, 2.0], [2.0, 5.0]])
    low = cholesky(a)
    assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
    assert rel_fro(low @ low.T, a) <= 1e-12
    assert np.all(np.diag(low) > 0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, -1.0]))


# ----------------------------------------------------------------- sym_eigen

def test_sym_eigen_diagonal_sorted_ascending():
    w, v = sym_eigen(np.diag([3.0, 1.0]))
    assert_allclose(w, [1.0, 3.0])
    assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sym_eigen_reflection():
    w, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_sym_eigen_reconstruction_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = symmetrize(rng.standard_normal((5, 5)))
        w, v = sym_eigen(m)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(v.T @ v - np.eye(5)) <= 1e-10 * np.sqrt(5)


# ----------------------------------------------------------------- spd_power

def test_spd_power_zero_gives_identity():
    rng = np.random.default_rng(2)
    a = rand_spd(rng, 4)
    assert_allclose(spd_power(a, 0.0), np.eye(4), atol=1e-12)


def test_spd_power_diagonal_sqrt():
    assert_allclose(spd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13)


def test_spd_power_half_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rand_spd(rng, 5)
        r = spd_power(a, 0.5)
        assert rel_fro(r @ r, a) <= 1e-10


def test_spd_power_negative_one_is_inverse():
    rng = np.random.default_rng(4)
    a = rand_spd(rng, 4)
    assert_allclose(spd_power(a, -1.0), np.linalg.inv(a), atol=1e-10)


def test_spd_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        spd_power(np.diag([1.0, -2.0]), 0.5)


# ------------------------------------------------------------------ geodesic

def test_geodesic_endpoints_exact():
    rng = np.random.default_rng(5)
    a, b = rand_spd(rng, 4), rand_spd(rng, 4)
    assert rel_fro(geodesic(a, b, 0.0), a) <= 1e-12
    assert rel_fro(geodesic(a, b, 1.0), b) <= 1e-12


def test_geodesic_commuting_diagonal_midpoint():
    assert_allclose(geodesic(np.eye(2), np.diag([4.0, 9.0]), 0.5),
                    np.diag([2.0, 3.0]), atol=1e-12)


def test_geodesic_midpoint_matches_ahm_oracle():
    # frozen oracle: arithmetic-harmonic mean iteration on these inputs
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[3.0, 0.0], [0.0, 1.0]])
    expected = np.array([
        [2.2218653725095283, 0.5953470322546037],
        [0.5953470322546037, 0.9390708015880440],
    ])
    got = geodesic(a, b, 0.5)
    assert_allclose(got, expected, atol=1e-13)
    assert rel_fro(got, ahm_mean(a, b)) <= 1e-12


def test_geodesic_rejects_t_out_of_range():
    a = np.eye(2)
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            geodesic(a, a, t)


def test_geodesic_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        geodesic(np.eye(2), np.eye(3), 0.5)


def test_geodesic_rejects_indefinite_b():
    with pytest.raises(NotPositiveDefinite):
        geodesic(np.eye(2), np.diag([1.0, -1.0]), 0.5)


def test_geodesic_inverse_identity():
    # (a #_t b)^{-1} == a^{-1} #_t b^{-1}
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        for t in (0.25, 0.5, 0.9):
            lhs = np.linalg.inv(geodesic(a, b, t))
            rhs = geodesic(spd_inverse(a), spd_inverse(b), t)
            assert rel_fro(lhs, rhs) <= 1e-8


def test_geodesic_midpoint_below_arithmetic_mean():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        assert loewner_less(geodesic(a, b, 0.5), (a + b) / 2)


def test_geodesic_arclength_proportionality():
    rng = np.random.default_rng(8)
    a, b = rand_spd(rng, 5), rand_spd(rng, 5)
    full = riemannian_distance(a, b)
    for t in (0.0, 0.3, 0.5, 1.0):
        assert abs(riemannian_distance(a, geodesic(a, b, t)) - t * full) <= 1e-8 * full


def test_geodesic_from_identity_matches_power():
    rng = np.random.default_rng(9)
    a = rand_spd(rng, 5)
    assert np.linalg.norm(geodesic(np.eye(5), a, 0.5) - spd_power(a, 0.5)) <= 1e-10


def test_geodesic_matches_explicit_sqrt_formula():
    # a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2}, assembled independently
    rng = np.random.default_rng(10)
    for _ in range(5):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        ra = spd_sqrt(a)
        rai = np.linalg.inv(ra)
        explicit = ra @ spd_sqrt((rai @ b @ rai + (rai @ b @ rai).T) / 2) @ ra
        assert rel_fro(geodesic(a, b, 0.5), explicit) <= 1e-10


# -------------------------------------------------------- riemannian_distance

def test_riemannian_distance_identity_is_zero():
    assert riemannian_distance(np.eye(3), np.eye(3)) == 0.0


def test_riemannian_distance_diagonal_value():
    e2 = np.e ** 2
    assert abs(riemannian_distance(np.diag([e2, e2]), np.eye(2)) - 2 * np.sqrt(2)) <= 1e-12


def test_riemannian_distance_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rand_spd(rng, 4), rand_spd(rng, 4)
        assert abs(riemannian_distance(x, y) - riemannian_distance(y, x)) <= 1e-10


def test_riemannian_distance_congruence_invariance():
    rng = np.random.default_rng(12)
    x, y = rand_spd(rng, 4), rand_spd(rng, 4)
    base = riemannian_distance(x, y)
    for _ in range(5):
        m = rng.standard_normal((4, 4))
        while abs(np.linalg.det(m)) < 1e-3:
            m = rng.standard_normal((4, 4))
        dx, dy = symmetrize(m.T @ x @ m), symmetrize(m.T @ y @ m)
        assert abs(riemannian_distance(dx, dy) - base) <= 1e-8 * base


# -------------------------------------------------------------- sld_divergence

def test_sld_divergence_zero_on_equal():
    rng = np.random.default_rng(13)
    a0 = rand_spd(rng, 3)
    assert sld_divergence(a0, a0) <= 1e-12


def test_sld_divergence_scalar_case():
    assert abs(sld_divergence(np.diag([2.0]), np.diag([1.0])) - 0.5) <= 1e-14


def test_sld_divergence_diagonal_case():
    assert abs(sld_divergence(np.diag([4.0, 1.0]), np.eye(2)) - 2.25) <= 1e-14


def test_sld_divergence_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(10):
        assert sld_divergence(rand_spd(rng, 4), rand_spd(rng, 4)) >= 0.0


# ---------------------------------------------------------------- loewner_less

def test_loewner_less_scaled_identity():
    assert loewner_less(np.eye(3), 2 * np.eye(3))
    assert not loewner_less(2 * np.eye(3), np.eye(3))


def test_loewner_less_indefinite_difference():
    assert not loewner_less(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))


def test_loewner_inversion_reverses_order():
    # b strictly below a implies a^{-1} strictly below b^{-1}
    rng = np.random.default_rng(15)
    for _ in range(10):
        b = rand_spd(rng, 4)
        a = symmetrize(b + rand_spd(rng, 4, lo=0.1, hi=0.5))
        assert loewner_less(b, a)
        assert loewner_less(spd_inverse(a), spd_inverse(b))


# ------------------------------------------------------------------ check_spd

def test_check_spd_rejects_asymmetric():
    with pytest.raises(NotPositiveDefinite):
        check_spd(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_check_spd_relative_tolerance_guard():
    # min/max eigenvalue ratio below SPD_TOLERANCE counts as singular
    bad = np.diag([1.0, 0.5 * SPD_TOLERANCE])
    assert not is_spd(bad)
    with pytest.raises(NotPositiveDefinite):
        check_spd(bad)
    assert is_spd(np.diag([1.0, 1e-6]))


def test_spd_inverse_matches_numpy():
    rng = np.random.default_rng(16)
    a = rand_spd(rng, 5)
    inv = spd_inverse(a)
    assert np.array_equal(inv, inv.T)
    assert rel_fro(inv, np.linalg.inv(a)) <= 1e-10


@pytest.mark.parametrize("call", [
    spd_inverse,
    lambda m: geodesic(m, np.eye(3), 0.5),
    lambda m: geodesic(np.eye(3), m, 0.5),
    lambda m: riemannian_distance(m, np.eye(3)),
    lambda m: riemannian_distance(np.eye(3), m),
], ids=["spd_inverse", "geodesic-a", "geodesic-b", "distance-x", "distance-y"])
def test_non_finite_operand_raises_value_error(call):
    m = np.eye(3)
    m[0, 1] = m[1, 0] = np.nan
    # np.linalg.cholesky returns NaN for a NaN input instead of failing
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        call(m)
