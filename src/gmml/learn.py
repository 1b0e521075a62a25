"""Scatter-matrix construction and the closed-form metric solver.

The learned Mahalanobis matrix is the point at parameter ``t`` on the SPD
geodesic from the inverse of the similarity scatter matrix S to the
dissimilarity scatter matrix D, optionally after blending both with a
prior. :func:`solve` computes it from one Cholesky factorization
S = L L^T and one symmetric eigendecomposition L^T D L = V diag(w) V^T as
A = P diag(w^t) P^T with P = L^{-T} V. At ``t = 1/2`` this point is the
unique SPD solution of ``A S A = D``, so every solve records the relative
residual of that equation at the geodesic's midpoint, whatever its ``t``,
as a built-in self check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import spd
from .exceptions import ConvergenceError, DimensionMismatch, NotPositiveDefinite, SingularScatter


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

    Construction symmetrizes both and checks only shape and finiteness, so
    an indefinite pair is accepted here. :func:`solve` refuses it: at
    ``lam = 0`` as SingularScatter; at ``lam > 0`` the blended pair must
    factor, whiten positive definite and give an SPD metric.
    """

    s_mat: np.ndarray
    d_mat: np.ndarray
    sim_count: int
    dis_count: int

    def __post_init__(self):
        s = spd.symmetrize(self.s_mat)
        d = spd.symmetrize(self.d_mat)
        if s.shape != d.shape:
            raise DimensionMismatch(
                f"scatter matrices have mismatched shapes {s.shape} and {d.shape}"
            )
        for name, m in (("similarity", s), ("dissimilarity", d)):
            if not np.isfinite(m).all():
                raise NotPositiveDefinite(
                    f"{name} scatter matrix is not finite: the features are too "
                    "large for its sums; rescale them, for example with --standardize"
                )
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
    # set by a caller whose prior has passed check_spd already
    _prior_checked: InitVar[bool] = False

    def __post_init__(self, _prior_checked):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be in [0, 1], got {self.t}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.prior is not None and not _prior_checked:
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
    L^T D L = V diag(w) V^T, ``p`` is P = L^{-T} V and ``w`` the eigenvalues,
    ascending. Every point of the geodesic is A_t = P diag(w^t) P^T, so one
    factorization serves every t (``stage``); under Z = X P only the weights
    w^t of a distance change with t. ``s_trace`` is tr(S), which with P and
    w bounds the eigenvalues of S, D and every A_t (``proves_scatters``)."""

    p: np.ndarray
    w: np.ndarray
    s_trace: float
    # the squared column norms ||p_j||^2: tr(A_t) = sum_j w_j^t ||p_j||^2
    col_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "col_sq", np.einsum("ij,ij->j", self.p, self.p))

    def stage(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (T, d, d) stack of A_t, one per t of ``ts`` from one stacked
        product, each slice symmetrized and independent of the other ts,
        which of them the SPD guard of a learned metric accepts, and the
        (T, d) powers w^t, each taken once with a scalar exponent (numpy's
        power over an array of exponents rounds some values differently).
        The bound rho min(w^t) / (tr(S) tr(A_t)) of ``spd._guard_certified``
        decides, with tr(A_t) = w^t . ``col_sq``; where it leaves some t
        unproved, ``spd.spd_mask`` on the whole stack decides instead."""
        powers = np.stack([self.w**t for t in ts])
        a = (self.p * powers[:, None, :]) @ self.p.T
        stack = (a + a.swapaxes(1, 2)) / 2
        d = self.w.size
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = 1.0 - d * spd._EPS * np.sqrt(self.s_trace * self.col_sq.sum())
            bound = rho * powers.min(axis=1) / (self.s_trace * (powers @ self.col_sq))
        accepted = spd._guard_certified(bound, d)
        return stack, accepted if accepted.all() else spd.spd_mask(stack), powers

    def proves_scatters(self, d_mat: np.ndarray) -> np.ndarray:
        """Whether the singular-scatter guard provably accepts S and D =
        ``d_mat``, the pair this basis factors, by the bounds
        1 / (tr(S) ||P||_F^2) and w[0] / (tr(S) ||D||_F) of
        ``spd._guard_certified``, in O(d^2)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bounds = np.array([1.0 / (self.s_trace * self.col_sq.sum()),
                               self.w[0] / (self.s_trace * np.linalg.norm(d_mat))])
        return spd._guard_certified(bounds, self.w.size)


@dataclass(frozen=True)
class Standardizer:
    """The per-feature z-score ``(x - mu) / sigma`` of a metric's points."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, points: np.ndarray) -> Standardizer:
        """The statistics of ``points``' rows; a constant feature gets sigma 1,
        so it is only centred."""
        sigma = points.std(axis=0)
        return cls(points.mean(axis=0), np.where(sigma > 0, sigma, 1.0))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (points - self.mu) / self.sigma


@dataclass(frozen=True)
class LearnedMetric:
    """An SPD Mahalanobis matrix together with its solver configuration.

    ``provenance.riccati_residual`` is the relative residual of
    ``A S A = D`` at the midpoint ``t = 1/2`` of the solved geodesic, for
    the (possibly regularized) scatter pair the solver used; it sits at
    machine precision whatever ``t`` the metric was solved at.
    ``standardizer`` is the z-score of the points the metric was learned
    on, so the metric measures distances between standardized points; it
    is None for a metric of raw points.
    """

    matrix: np.ndarray
    config: GmmlConfig
    provenance: MetricProvenance
    standardizer: Standardizer | None = None
    # set by solve when the guard of ``GeodesicBasis.stage`` accepts ``matrix``
    _spd_checked: InitVar[bool] = False

    def __post_init__(self, _spd_checked):
        if not _spd_checked:
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

    Memory: each pair set's differences go into one C-ordered (m, d)
    buffer, filled in blocks of about ``spd._BLOCK_ELEMENTS`` values, and
    one product ``diffs.T @ diffs`` sums it. Besides the points and the two
    d x d results, the larger set's buffer and one block are held at once.
    """
    pts = np.asarray(getattr(data, "points", data), dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {pts.shape}")
    pairs.validate_for(pts.shape[0])
    d = pts.shape[1]
    rows = max(1, spd._BLOCK_ELEMENTS // max(d, 1))

    def accumulate(idx: np.ndarray) -> np.ndarray:
        if idx.shape[0] == 0:
            return np.zeros((d, d))
        # one product over the whole buffer: summing per-block products
        # would round S and D differently
        diffs = np.empty((idx.shape[0], d))
        for start in range(0, idx.shape[0], rows):
            block, out = idx[start:start + rows], diffs[start:start + rows]
            # PairConstraints and validate_for have checked the indices;
            # "wrap" reads each as indexing does and, unlike the default
            # mode, fills ``out`` without a buffer
            np.take(pts, block[:, 0], axis=0, out=out, mode="wrap")
            out -= pts[block[:, 1]]
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


def _scatter_guard(sc: ScatterMatrices, proved=(False, False)) -> None:
    """The singular-scatter guard of a ``lam = 0`` solve: the relative
    eigenvalue guard on S, then on D, each skipped where ``proved`` says
    the solve's factors already prove that it passes. SingularScatter
    names the first scatter that fails."""
    for which, m, skip in zip(("similarity", "dissimilarity"), (sc.s_mat, sc.d_mat), proved):
        if skip:
            continue
        w = spd._sym_eigvals(m)
        if not spd._relative_guard(w):
            ratio = w[0] / w[-1] if w[-1] > 0 else w[0]
            raise SingularScatter(which, f"relative min eigenvalue {ratio:.3e}")


def _factor_pair(s_used: np.ndarray, d_used: np.ndarray, lam: float) -> GeodesicBasis:
    """The ``GeodesicBasis`` of the pair (S, D) = (``s_used``, ``d_used``):
    one Cholesky S = L L^T and one eigendecomposition of L^T D L."""
    whitened = None
    if np.isfinite(s_used).all() and np.isfinite(d_used).all():
        low = spd.cholesky(s_used)
        with np.errstate(over="ignore", invalid="ignore"):
            whitened = spd.symmetrize(low.T @ d_used @ low)
    if whitened is None or not np.isfinite(whitened).all():
        hint = (f" with lambda {lam!r}; use a smaller lambda or rescale the features"
                if lam > 0 else "; rescale the features, for example with --standardize")
        raise NotPositiveDefinite(f"the whitened dissimilarity scatter overflows float64{hint}")
    w, v = spd.sym_eigen(whitened)
    del whitened  # so the back substitution does not hold it too
    spd._require_whitened_pd(w, "dissimilarity scatter")
    return GeodesicBasis(p=spd._back_solve(low, v), w=w, s_trace=float(np.trace(s_used)))


def solve_basis(
    sc: ScatterMatrices, cfg: GmmlConfig = GmmlConfig()
) -> tuple[GeodesicBasis, np.ndarray, np.ndarray]:
    """The geodesic of :func:`solve`, which does not depend on ``cfg.t``:
    its ``GeodesicBasis`` and the S and D it factored (prior-blended when
    ``cfg.lam > 0``). Raises every error of :func:`solve` except the check
    of the metric at ``cfg.t``.

    At ``lam = 0`` the pair is factored first, and the singular-scatter
    guard's ``eigvalsh`` runs on S, then on D, only where the factors'
    own bound (``GeodesicBasis.proves_scatters``) cannot prove that it
    passes. When the factoring fails (a failed Cholesky, an overflow, a
    non-convergent ``eigh``, a non-positive whitened eigenvalue or a
    non-finite back substitution), both guards run in that order before
    the error is re-raised, so a singular scatter is still named by
    SingularScatter, as when the guard ran first.
    """
    if cfg.prior is not None:
        cfg.prior_for_dim(sc.dim)  # a prior of the wrong size fails whatever lam is
    if cfg.lam == 0.0:
        s_used, d_used = sc.s_mat, sc.d_mat
    else:
        a0 = cfg.prior_for_dim(sc.dim)
        # the identity is its own inverse, bit for bit
        a0_inv = a0 if cfg.prior is None else spd.spd_inverse(a0)
        with np.errstate(over="ignore"):
            s_used = sc.s_mat + cfg.lam * a0_inv
            d_used = sc.d_mat + cfg.lam * a0
    try:
        basis = _factor_pair(s_used, d_used, cfg.lam)
    except (NotPositiveDefinite, ConvergenceError, ValueError):
        if cfg.lam == 0.0:
            _scatter_guard(sc)
        raise
    if cfg.lam == 0.0:
        _scatter_guard(sc, basis.proves_scatters(d_used))
    return basis, s_used, d_used


def solve(
    sc: ScatterMatrices, cfg: GmmlConfig = GmmlConfig(), fingerprint: str | None = None,
    standardizer: Standardizer | None = None,
) -> LearnedMetric:
    """Metric at parameter ``cfg.t`` on the geodesic from S^{-1} to D.

    ``t`` balances the two terms of the cost trace(A S) + trace(A^{-1} D):
    t=0 returns S^{-1}, t=1 returns D, and the default t=1/2 is the unique
    SPD solution of A S A = D. With ``cfg.lam > 0`` the solve uses
    S + lam * prior^{-1} and D + lam * prior instead, which keeps both SPD
    when the raw scatters are merely positive semi-definite; large ``lam``
    pulls the result toward the prior. With ``lam = 0`` both scatters must
    be strictly SPD, otherwise SingularScatter names the first that is not.
    A given prior must match the scatters' dimension, whatever ``lam`` is
    (DimensionMismatch otherwise).

    The S used is factored once as S = L L^T. With the eigendecomposition
    L^T D L = V diag(w) V^T and P = L^{-T} V, the metric is
    A = P diag(w^t) P^T, where (P, w) is the ``GeodesicBasis`` of
    :func:`solve_basis`. The recorded residual is that of the midpoint
    A_{1/2}, built in the same ``GeodesicBasis.stage`` as A_t when
    ``cfg.t`` is not 1/2; a metric that stage's guard rejects goes through
    ``check_spd``, which raises its usual NotPositiveDefinite.
    ``standardizer``, the z-score of the points behind ``sc``, if any, is
    attached to the metric.
    """
    basis, s_used, d_used = solve_basis(sc, cfg)
    built, accepted, _ = basis.stage((cfg.t,) if cfg.t == 0.5 else (cfg.t, 0.5))
    return LearnedMetric(
        matrix=built[0],
        config=cfg,
        provenance=MetricProvenance(
            sim_count=sc.sim_count,
            dis_count=sc.dis_count,
            riccati_residual=riccati_residual(built[-1], s_used, d_used),
            fingerprint=fingerprint,
        ),
        standardizer=standardizer,
        _spd_checked=bool(accepted[0]),
    )
