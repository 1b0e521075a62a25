"""Dense symmetric / SPD linear algebra.

Factorizations, matrix powers, geodesics on the SPD manifold, and the two
divergences used by the solvers. All functions are pure: they validate
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


def is_spd(a: np.ndarray, tol: float = SPD_TOLERANCE) -> bool:
    """True iff ``a`` is symmetric with min eigenvalue > tol * max eigenvalue
    (False when the eigensolver fails), as :func:`spd_mask` decides it."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(spd_mask(a[None], tol)[0])


def check_spd(a, name: str = "matrix", tol: float = SPD_TOLERANCE) -> np.ndarray:
    """Validate that ``a`` is SPD and return it as a float64 array.

    Symmetry must hold exactly (construct inputs with :func:`symmetrize`);
    positive definiteness is checked through the relative eigenvalue guard.
    """
    a = as_square(a, name)
    if not np.array_equal(a, a.T):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    w = _sym_eigvals(a)
    if not _relative_guard(w, tol):
        raise NotPositiveDefinite(
            f"{name} is not positive definite "
            f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})"
        )
    return a


def _relative_guard(w: np.ndarray, tol: float) -> np.ndarray:
    """The positive-definiteness guard on ascending eigenvalues (..., d)."""
    return (w[..., -1] > 0) & (w[..., 0] > tol * w[..., -1])


def spd_mask(stack: np.ndarray, tol: float = SPD_TOLERANCE) -> np.ndarray:
    """Which matrices of a (T, d, d) stack :func:`check_spd` accepts, from
    one stacked ``eigvalsh``: the same exact-symmetry test and relative
    guard. A stack the eigensolver fails on reads as all rejected, so that
    ``check_spd`` of each matrix gives its own outcome.
    """
    symmetric = (stack == stack.swapaxes(1, 2)).all(axis=(1, 2))
    try:
        w = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError:
        return np.zeros(stack.shape[0], dtype=bool)
    return symmetric & _relative_guard(w, tol)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = a, or for a (T, d, d) stack of
    matrices the stack of their factors.

    Raises NotPositiveDefinite when a pivot fails (a matrix is not SPD).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
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
    if not _relative_guard(w, SPD_TOLERANCE):
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
    if w[0] <= 0:
        raise NotPositiveDefinite(
            f"geodesic endpoint b is not positive definite "
            f"(whitened min eigenvalue {w[0]:.3e})"
        )
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
    if w[0] <= 0:
        raise NotPositiveDefinite(
            f"distance operand is not positive definite "
            f"(whitened min eigenvalue {w[0]:.3e})"
        )
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
