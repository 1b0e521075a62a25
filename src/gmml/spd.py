"""Dense symmetric / SPD linear algebra.

Factorizations, matrix powers, geodesics on the SPD manifold, and two
divergences between SPD matrices (the Riemannian distance and the
symmetrized LogDet divergence) for measuring learned metrics; no solver
calls them. All functions are pure: they validate
their inputs, never mutate them, and return freshly allocated arrays.
Everything runs on numpy's LAPACK: Cholesky, symmetric eigensolvers, and
triangular solves as back substitution (:func:`_back_solve`).

Matrices are plain float64 ``numpy`` arrays. A "symmetric" matrix here is
exactly symmetric (``m[i, j] == m[j, i]``); :func:`symmetrize` produces one
and every operation whose result is mathematically symmetric re-symmetrizes
before returning, so floating-point asymmetry never accumulates.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, DimensionMismatch, NotPositiveDefinite

# Relative positive-definiteness guard: min eigenvalue must exceed
# SPD_TOLERANCE times the max eigenvalue.
SPD_TOLERANCE = 1e-12
_EPS = np.finfo(float).eps
# The package's one memory budget, in floats, for work done a block at a
# time: the classifier's query x train blocks and the scatter's blocks of
# pair differences each hold about this many values.
_BLOCK_ELEMENTS = 2**14


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square float64 array, raising DimensionMismatch otherwise."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch(f"{name} must have dimension >= 1")
    return a


def _require_same_dim(a: np.ndarray, b: np.ndarray, names: str = "operands") -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"{names} have mismatched shapes {a.shape} and {b.shape}"
        )


def symmetrize(m) -> np.ndarray:
    """Return (m + m^T) / 2.

    The result is exactly symmetric, entry by entry. Raises
    DimensionMismatch for non-square input.
    """
    a = as_square(m)
    return (a + a.T) / 2


def is_spd(a: np.ndarray) -> bool:
    """True iff ``a`` is symmetric with min eigenvalue > SPD_TOLERANCE * max eigenvalue
    (False when the eigensolver fails), as :func:`spd_mask` decides it."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(spd_mask(a[None])[0])


def check_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is SPD and return it as a float64 array.

    Symmetry must hold exactly (construct inputs with :func:`symmetrize`);
    positive definiteness is checked through the relative eigenvalue guard.
    ``solve`` skips this check for a metric its stage's guard has accepted
    (``GeodesicBasis.stage``: its factors' bound, :func:`_guard_certified`,
    or :func:`spd_mask`); a loaded metric file and a prior, which carry no
    factors, always run it.
    """
    a = as_square(a, name)
    if not np.array_equal(a, a.T):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    w = _sym_eigvals(a)
    if not _relative_guard(w):
        raise NotPositiveDefinite(
            f"{name} is not positive definite "
            f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})"
        )
    return a


def _relative_guard(w: np.ndarray) -> np.ndarray:
    """The positive-definiteness guard on ascending eigenvalues (..., d)."""
    return (w[..., -1] > 0) & (w[..., 0] > SPD_TOLERANCE * w[..., -1])


def _guard_certified(bound, d: int):
    """Whether ``bound``, a lower bound on a d x d matrix's relative min
    eigenvalue taken from the factors of a solve (``GeodesicBasis``),
    proves that :func:`_relative_guard` accepts the eigenvalues
    ``eigvalsh`` would compute for it: True where

        bound > SPD_TOLERANCE + 3 mu,  mu = 2 (d + 1)^2 eps.

    NaN reads as not certified. The margin, to first order in eps, as
    ``_knn_labels`` derives its delta. Model: LAPACK bounds the backward
    error of its symmetric eigensolvers by p(d) eps ||X||_2, and the
    departure of ``eigh``'s eigenvectors from orthonormality likewise,
    with p "a modestly growing function"; take eta = d^2 eps, the order of
    a worst-case Householder reduction. A sum of n terms rounds by at most
    n eps/2 of their magnitudes, so a Cholesky factor L L^T = S + E has
    ||E||_2 <= (d + 1)/2 eps ||L||_F^2, and ||L||_F^2 = tr(S) + tr(E).

    - The guard: the computed eigenvalues of X lie within eta ||X||_2 of
      the exact ones (Weyl), so it accepts X when
      lambda_min(X) > g lambda_max(X), g = SPD_TOLERANCE + eta (1 + SPD_TOLERANCE).
    - S (``solve_basis``): column j of P = L^{-T} V solves
      (L^T + F_j) p_j = v_j with ||F_j||_2 <= d/2 eps ||L||_F, so
      ||p_j||^2 >= v_j^T (S + delta I)^{-1} v_j, delta = (3d + 1)/2 eps
      ||L||_F^2, and with V V^T >= (1 - eta) I,
      lambda_min(S) >= (1 - eta) / ||P||_F^2 - delta; lambda_max(S) <= tr(S)
      once S is PD. Bound: 1 / (tr(S) ||P||_F^2).
    - D: the whitened L^T D L is formed within (d + 1/2) eps
      ||L||_F^2 ||D||_F and ``eigh`` finds its least eigenvalue w[0] within
      eta of that scale, so lambda_min(L^T D L) >= w[0] - (eta + (d + 1/2)
      eps) ||L||_F^2 ||D||_F; when positive, D is PD and lambda_min(D) is at
      least that over lambda_max(L L^T) <= ||L||_F^2. lambda_max(D) <=
      ||D||_F for any symmetric D (tr(D) only for a PSD one). Bound:
      w[0] / (tr(S) ||D||_F).
    - A_t: the checked matrix, built exactly symmetric, is M + E_t,
      M = P diag(w^t) P^T for the computed w^t, ||E_t||_2 <= (d + 2)/2 eps
      tr(M) (as in ``_knn_labels``), and M is PSD, so
      lambda_max(M + E_t) <= (1 + (d + 2)/2 eps) tr(M). L^T P = V - [F_j p_j]
      with ||[F_j p_j]||_2 <= d/2 eps ||L||_F ||P||_F, so sigma_min(P)^2 >=
      (1 - eta) rho / ||L||_F^2, rho = 1 - d eps sqrt(tr(S) ||P||_F^2), and
      lambda_min(M) >= min(w^t) sigma_min(P)^2. Bound: rho min(w^t) /
      (tr(S) tr(M)).

    Each bound is computed from sums of non-negative terms (traces, squared
    norms, sum_j w_j^t ||p_j||^2), within (d^2/4 + d + 1) eps of its value.
    Gathered, each case needs beta (1 - r) > SPD_TOLERANCE (1 + r) + a for
    its computed bound beta, with a relative error r <= (d^2 + 2d) eps and
    an additive one a <= (2 d^2 + d + 1) eps (D's two eigensolvers), both
    within mu; beta > SPD_TOLERANCE + 3 mu implies it when mu <= 1/2, and
    no bound exceeds 1 when mu is larger.
    """
    mu = 2.0 * (d + 1) ** 2 * _EPS
    return bound > SPD_TOLERANCE + 3.0 * mu


def spd_mask(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (T, d, d) stack :func:`check_spd` accepts, from
    one stacked ``eigvalsh``: the same exact-symmetry test and relative
    guard. A stack the eigensolver fails on reads as all rejected.
    ``GeodesicBasis.stage`` runs it only on a stage whose factors leave
    some matrix unproved, for ``solve`` and ``cross_validate_t`` alike.
    """
    symmetric = (stack == stack.swapaxes(1, 2)).all(axis=(1, 2))
    try:
        w = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError:
        return np.zeros(stack.shape[0], dtype=bool)
    return symmetric & _relative_guard(w)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = a, for one square matrix a.

    Raises NotPositiveDefinite when a pivot fails (a is not SPD).
    """
    a = as_square(a, "cholesky input")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a symmetric matrix: numpy's ``eigh``
    result, eigenvalues ``w`` ascending, column ``v[:, i]`` paired with
    ``w[i]``.

    Raises ConvergenceError if the underlying symmetric solver fails to
    converge (a sign of numerical pathology in the input).
    """
    a = as_square(m, "eigen input")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def _sym_eigvals(m) -> np.ndarray:
    """numpy's ``eigvalsh`` (ascending), raising ConvergenceError as
    :func:`sym_eigen` does when the solver fails to converge."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _back_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-T} b for a lower-triangular Cholesky factor L. L^T is upper
    triangular with a positive diagonal, so numpy's LU solve pivots nowhere
    and is plain back substitution. ValueError when L or b holds an inf or
    NaN: ``np.linalg.cholesky`` of a NaN matrix returns NaN, not an error.
    """
    _require_finite(low, b)
    # Fortran order: products of the result round differently in C order
    return np.asfortranarray(np.linalg.solve(low.T, b))


def spd_power(a, t: float) -> np.ndarray:
    """Matrix power a^t of an SPD matrix through its eigendecomposition.

    Any real exponent is accepted: t = -1 gives the inverse, 0 the
    identity, 1/2 the principal square root.
    """
    a = as_square(a, "power input")
    w, v = sym_eigen(symmetrize(a))
    if not _relative_guard(w):
        raise NotPositiveDefinite(
            f"power input is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return symmetrize((v * w**t) @ v.T)


def spd_inverse(a) -> np.ndarray:
    """Inverse of an SPD matrix a = L L^T as U U^T with U = L^{-T},
    symmetrized."""
    a = as_square(a, "inverse input")
    u = _back_solve(cholesky(a), np.eye(a.shape[0]))
    return symmetrize(u @ u.T)


def _whiten(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^{-1} x L^{-T}) for y = L L^T, the second symmetrized."""
    low = cholesky(y)
    _require_finite(x)
    u = _back_solve(low, np.eye(y.shape[0]))
    return low, symmetrize(u.T @ x @ u)


def _require_whitened_pd(w: np.ndarray, subject: str) -> None:
    """NotPositiveDefinite naming ``subject`` unless the least of the
    ascending eigenvalues ``w`` of a whitened matrix is > 0."""
    if w[0] <= 0:
        raise NotPositiveDefinite(
            f"{subject} is not positive definite (whitened min eigenvalue {w[0]:.3e})"
        )


def geodesic(a, b, t: float) -> np.ndarray:
    """Point at parameter t on the SPD geodesic from a to b.

    Computed by the Cholesky-Schur path: factor a = L L^T, form the
    whitened matrix M = L^{-1} b L^{-T} (whose Schur form, being symmetric,
    is its eigendecomposition M = V diag(w) V^T), and return
    L V diag(w^t) V^T L^T. Endpoints are exact: t=0 gives a, t=1 gives b.

    t must lie in [0, 1]; a and b must be SPD of equal dimension.
    """
    a = as_square(a, "geodesic endpoint a")
    b = as_square(b, "geodesic endpoint b")
    _require_same_dim(a, b, "geodesic endpoints")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter t must be in [0, 1], got {t}")
    low, m = _whiten(a, b)
    w, v = sym_eigen(m)
    _require_whitened_pd(w, "geodesic endpoint b")
    inner = (v * w**t) @ v.T
    return symmetrize(low @ inner @ low.T)


def riemannian_distance(x, y) -> float:
    """Riemannian (affine-invariant) distance between SPD matrices.

    Equals the Frobenius norm of log(y^{-1/2} x y^{-1/2}), computed as the
    root sum of squared logs of the eigenvalues of the whitened matrix.
    Symmetric in its arguments and zero iff x == y.
    """
    x = as_square(x, "distance operand x")
    y = as_square(y, "distance operand y")
    _require_same_dim(x, y, "distance operands")
    w = _sym_eigvals(_whiten(y, x)[1])
    _require_whitened_pd(w, "distance operand")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def sld_divergence(a, a0) -> float:
    """Symmetrized LogDet divergence trace(a a0^{-1}) + trace(a^{-1} a0) - 2d.

    Nonnegative, zero iff a == a0.
    """
    a = as_square(a, "divergence operand a")
    a0 = as_square(a0, "divergence operand a0")
    _require_same_dim(a, a0, "divergence operands")
    a_inv = spd_inverse(a)
    # trace(a a0^{-1}) as the elementwise product with the explicit inverse
    t1 = float(np.sum(a * spd_inverse(a0)))
    t2 = float(np.sum(a0 * a_inv))
    return max(t1 + t2 - 2 * a.shape[0], 0.0)


def loewner_less(a, b) -> bool:
    """True iff a is strictly below b in the Loewner order (b - a is PD)."""
    a = as_square(a, "order operand a")
    b = as_square(b, "order operand b")
    _require_same_dim(a, b, "order operands")
    w = _sym_eigvals(symmetrize(b - a))
    return bool(w[0] > 0)
