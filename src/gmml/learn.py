"""Scatter-matrix construction and the closed-form metric solver.

The learned Mahalanobis matrix is the point at parameter ``t`` on the SPD
geodesic from the inverse of the similarity scatter matrix S to the
dissimilarity scatter matrix D, optionally after blending both with a
prior. :func:`solve` computes it from one Cholesky factorization
S = L L^T and one symmetric eigendecomposition L^T D L = V diag(w) V^T as
A = P diag(w^t) P^T with P = L^{-T} V. At ``t = 1/2`` this point is the
unique SPD solution of ``A S A = D``, so every solve records the relative
residual of that equation as a built-in self check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spd
from .exceptions import DimensionMismatch, NotPositiveDefinite, SingularScatter


@dataclass(frozen=True)
class PairConstraints:
    """Index pairs of similar and dissimilar points.

    Both arrays have shape (m, 2) and index rows of a dataset. Pairs are
    unordered; no pair may relate a point to itself.
    """

    sim_pairs: np.ndarray
    dis_pairs: np.ndarray

    def __post_init__(self):
        for attr in ("sim_pairs", "dis_pairs"):
            arr = np.asarray(getattr(self, attr), dtype=np.int64).reshape(-1, 2)
            if arr.size and arr.min() < 0:
                raise ValueError(f"{attr} contains negative indices")
            if arr.size and np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError(f"{attr} contains self-pairs")
            object.__setattr__(self, attr, arr)

    @property
    def sim_count(self) -> int:
        return self.sim_pairs.shape[0]

    @property
    def dis_count(self) -> int:
        return self.dis_pairs.shape[0]

    def validate_for(self, n_points: int) -> None:
        """Check every index against the dataset size."""
        for attr in ("sim_pairs", "dis_pairs"):
            arr = getattr(self, attr)
            if arr.size and arr.max() >= n_points:
                raise IndexError(
                    f"{attr} indexes point {int(arr.max())} but dataset has "
                    f"{n_points} points"
                )


@dataclass(frozen=True)
class ScatterMatrices:
    """Similarity and dissimilarity scatter matrices with pair counts.

    ``extreme_eigenvalues`` maps "similarity" and "dissimilarity" to the
    (min, max) eigenvalues found by the positive semi-definiteness check.
    """

    s_mat: np.ndarray
    d_mat: np.ndarray
    sim_count: int
    dis_count: int
    extreme_eigenvalues: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = spd.symmetrize(self.s_mat)
        d = spd.symmetrize(self.d_mat)
        if s.shape != d.shape:
            raise DimensionMismatch(
                f"scatter matrices have mismatched shapes {s.shape} and {d.shape}"
            )
        extremes = {}
        for name, m in (("similarity", s), ("dissimilarity", d)):
            if not np.isfinite(m).all():
                raise NotPositiveDefinite(
                    f"{name} scatter matrix is not finite: the features are too "
                    "large for its sums; rescale them, for example with --standardize"
                )
            w = spd._sym_eigvals(m)
            if w[0] < -1e-10 * max(w[-1], 0.0):
                raise ValueError(f"{name} scatter matrix is not positive semi-definite")
            extremes[name] = (w[0], w[-1])
        object.__setattr__(self, "extreme_eigenvalues", extremes)
        object.__setattr__(self, "s_mat", s)
        object.__setattr__(self, "d_mat", d)

    @property
    def dim(self) -> int:
        return self.s_mat.shape[0]


@dataclass(frozen=True)
class GmmlConfig:
    """Solver hyper-parameters.

    ``t`` is the geodesic step in [0, 1], ``lam`` the regularization weight,
    finite and >= 0 (zero disables the prior), ``prior`` the SPD prior matrix (None means
    the identity, resolved against the data dimension at solve time).
    """

    t: float = 0.5
    lam: float = 0.0
    prior: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be in [0, 1], got {self.t}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.prior is not None:
            object.__setattr__(self, "prior", spd.check_spd(self.prior, "prior"))

    def prior_for_dim(self, dim: int) -> np.ndarray:
        if self.prior is None:
            return np.eye(dim)
        if self.prior.shape[0] != dim:
            raise DimensionMismatch(
                f"prior has dimension {self.prior.shape[0]}, data has {dim}"
            )
        return self.prior


@dataclass(frozen=True)
class MetricProvenance:
    """How a metric was produced: pair counts, self-check residual, data hash."""

    sim_count: int
    dis_count: int
    riccati_residual: float
    fingerprint: str | None = None


@dataclass(frozen=True)
class GeodesicBasis:
    """The factored scatter pair behind a solve: with S = L L^T and
    L^T D L = V diag(w) V^T, ``p`` is P = L^{-T} V and ``w`` holds the
    eigenvalues, ascending. Every point of the geodesic is then
    A_t = P diag(w^t) P^T.
    """

    p: np.ndarray
    w: np.ndarray

    def matrix(self, t: float) -> np.ndarray:
        """A_t, built exactly as :func:`solve` builds its metric."""
        return spd.symmetrize((self.p * self.w**t) @ self.p.T)


@dataclass(frozen=True)
class LearnedMetric:
    """An SPD Mahalanobis matrix together with its solver configuration.

    ``provenance.riccati_residual`` is the relative residual of
    ``A S A = D`` for the (possibly regularized) scatter pair the solver
    used; it sits at machine precision when ``t = 1/2`` and is recorded
    as-is for other ``t``. ``basis`` is the factorization :func:`solve`
    derived the matrix from (None for a metric read from a file), which
    gives the metric at any other ``t`` without factoring again.
    """

    matrix: np.ndarray
    config: GmmlConfig
    provenance: MetricProvenance
    basis: GeodesicBasis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", spd.check_spd(self.matrix, "learned metric"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def mahalanobis(a, x, y) -> float:
    """Squared Mahalanobis distance (x - y)^T a (x - y) under SPD matrix a."""
    a = spd.as_square(a, "metric")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape or x.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"metric dim {a.shape[0]} vs point dims {x.shape[0]} and {y.shape[0]}"
        )
    u = x - y
    return max(float(u @ a @ u), 0.0)


def scatter_matrices(data, pairs: PairConstraints) -> ScatterMatrices:
    """Sum outer products of point differences over each constraint set.

    ``data`` is a LabeledDataset or an (n, d) point array. The similarity
    matrix sums (x_i - x_j)(x_i - x_j)^T over similar pairs, the
    dissimilarity matrix over dissimilar pairs; an empty pair set yields
    the zero matrix.
    """
    pts = np.asarray(getattr(data, "points", data), dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {pts.shape}")
    pairs.validate_for(pts.shape[0])
    d = pts.shape[1]

    def accumulate(idx: np.ndarray) -> np.ndarray:
        if idx.shape[0] == 0:
            return np.zeros((d, d))
        diffs = pts[idx[:, 0]] - pts[idx[:, 1]]
        return diffs.T @ diffs

    return ScatterMatrices(
        s_mat=accumulate(pairs.sim_pairs),
        d_mat=accumulate(pairs.dis_pairs),
        sim_count=pairs.sim_count,
        dis_count=pairs.dis_count,
    )


def objective(a, sc: ScatterMatrices) -> float:
    """Cost trace(a S) + trace(a^{-1} D) of a candidate SPD metric."""
    a = spd.as_square(a, "metric")
    if a.shape[0] != sc.dim:
        raise DimensionMismatch(f"metric dim {a.shape[0]} vs scatter dim {sc.dim}")
    a_inv = spd.spd_inverse(spd.symmetrize(a))
    return float(np.sum(a * sc.s_mat) + np.sum(a_inv * sc.d_mat))


def objective_gradient(a, sc: ScatterMatrices) -> np.ndarray:
    """Gradient S - a^{-1} D a^{-1} of the cost, symmetrized."""
    a = spd.as_square(a, "metric")
    if a.shape[0] != sc.dim:
        raise DimensionMismatch(f"metric dim {a.shape[0]} vs scatter dim {sc.dim}")
    a_inv = spd.spd_inverse(spd.symmetrize(a))
    return spd.symmetrize(sc.s_mat - a_inv @ sc.d_mat @ a_inv)


def riccati_residual(a: np.ndarray, s: np.ndarray, d: np.ndarray) -> float:
    """Relative Frobenius residual of A S A = D."""
    denom = np.linalg.norm(d)
    if denom == 0:
        return float(np.linalg.norm(a @ s @ a))
    return float(np.linalg.norm(a @ s @ a - d) / denom)


def solve(
    sc: ScatterMatrices, cfg: GmmlConfig = GmmlConfig(), fingerprint: str | None = None
) -> LearnedMetric:
    """Metric at parameter ``cfg.t`` on the geodesic from S^{-1} to D.

    ``t`` balances the two terms of the cost trace(A S) + trace(A^{-1} D):
    t=0 returns S^{-1}, t=1 returns D, and the default t=1/2 is the unique
    SPD solution of A S A = D. With ``cfg.lam > 0`` the solve uses
    S + lam * prior^{-1} and D + lam * prior instead, which keeps both SPD
    when the raw scatters are merely positive semi-definite; large ``lam``
    pulls the result toward the prior. With ``lam = 0`` both scatters must
    be strictly SPD, otherwise SingularScatter names the first that is not.

    The S used is factored once as S = L L^T. With the eigendecomposition
    L^T D L = V diag(w) V^T and P = L^{-T} V, the metric is
    A = P diag(w^t) P^T; the result keeps (P, w) as its ``basis``.
    """
    if cfg.lam == 0.0:
        for which, (lo, hi) in sc.extreme_eigenvalues.items():
            if not spd._relative_guard(np.array((lo, hi))):
                ratio = lo / hi if hi > 0 else lo
                raise SingularScatter(which, f"relative min eigenvalue {ratio:.3e}")
        s_used, d_used = sc.s_mat, sc.d_mat
    else:
        a0 = cfg.prior_for_dim(sc.dim)
        # the identity is its own inverse, bit for bit
        a0_inv = a0 if cfg.prior is None else spd.spd_inverse(a0)
        with np.errstate(over="ignore"):
            s_used = sc.s_mat + cfg.lam * a0_inv
            d_used = sc.d_mat + cfg.lam * a0
    whitened = None
    if np.isfinite(s_used).all() and np.isfinite(d_used).all():
        low = spd.cholesky(s_used)
        with np.errstate(over="ignore", invalid="ignore"):
            whitened = spd.symmetrize(low.T @ d_used @ low)
    if whitened is None or not np.isfinite(whitened).all():
        hint = (f" with lambda {cfg.lam!r}; use a smaller lambda or rescale the features"
                if cfg.lam > 0 else "; rescale the features, for example with --standardize")
        raise NotPositiveDefinite(f"the whitened dissimilarity scatter overflows float64{hint}")
    w, v = spd.sym_eigen(whitened)
    if w[0] <= 0:
        raise NotPositiveDefinite(
            f"dissimilarity scatter is not positive definite "
            f"(whitened min eigenvalue {w[0]:.3e})"
        )
    basis = GeodesicBasis(p=spd._back_solve(low, v), w=w)
    a = basis.matrix(cfg.t)
    return LearnedMetric(
        matrix=a,
        config=cfg,
        provenance=MetricProvenance(
            sim_count=sc.sim_count,
            dis_count=sc.dis_count,
            riccati_residual=riccati_residual(a, s_used, d_used),
            fingerprint=fingerprint,
        ),
        basis=basis,
    )
