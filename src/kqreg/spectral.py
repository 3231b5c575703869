"""Exact integral-operator calculus on finitely supported measures.

For a base kernel k and a measure mu = sum_p w_p delta_{x_p}, the operator
(T f)(x) = sum_p k(x, x_p) f(x_p) w_p restricted to the support is the m x m
matrix K W.  Its symmetrization W^{1/2} K W^{1/2} shares the eigenvalues and
yields eigenfunctions that are orthonormal in L2(mu), so fractional powers,
spectral filters, and RKHS norms are all finite linear algebra here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import solver as _solver
from .kernels import Additive, BlockLayout, KernelSpec, gram

__all__ = [
    "DiscreteMeasure",
    "OperatorDecomposition",
    "BlockFunction",
    "operator_matrix",
    "decompose",
    "power_apply",
    "intermediate",
    "filter_error_bound",
    "approx_error",
]

_NULL_EIG_REL = 1e-12  # eigenvalues below this fraction of the largest count as 0


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on one coordinate block."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.points, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        w = np.asarray(self.weights, dtype=float).ravel()
        if X.shape[0] != w.shape[0]:
            raise ValueError(f"{X.shape[0]} points but {w.shape[0]} weights")
        if not np.all(np.isfinite(X)):
            raise ValueError("support points must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _solver.WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
        object.__setattr__(self, "points", X)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        X = np.asarray(points, dtype=float)
        m = X.shape[0]
        w = np.full(m, 1.0 / m)
        w[-1] = 1.0 - w[:-1].sum()
        return cls(points=X, weights=w)


@dataclass(frozen=True)
class BlockFunction:
    """Function on a measure's support, stored as values and eigen-coefficients.

    ``rkhs_norm_sq`` is None when the function has mass on the operator's
    null space and therefore lies outside the RKHS (restricted to the
    support).
    """

    values: np.ndarray
    coeffs: np.ndarray
    rkhs_norm_sq: float | None

    @property
    def l2_norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)


@dataclass(frozen=True)
class OperatorDecomposition:
    """Eigenvalues (nonincreasing) and L2(mu)-orthonormal eigenfunctions."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray = field(repr=False)  # column l = psi_l on support
    weights: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]

    def null_mask(self) -> np.ndarray:
        lam_max = self.eigenvalues[0] if self.m else 0.0
        return self.eigenvalues <= _NULL_EIG_REL * lam_max

    def project(self, values) -> np.ndarray:
        """Eigen-coefficients c_l = <f, psi_l>_{L2(mu)} of point values."""
        v = np.asarray(values, dtype=float).ravel()
        if v.shape[0] != self.m:
            raise ValueError(f"expected {self.m} values, got {v.shape[0]}")
        return self.eigenfunctions.T @ (self.weights * v)

    def synthesize(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float).ravel()
        return self.eigenfunctions @ c

    def function(self, coeffs) -> BlockFunction:
        """Build a BlockFunction from eigen-coefficients, with its RKHS norm."""
        c = np.asarray(coeffs, dtype=float).ravel()
        null = self.null_mask()
        if np.any(np.abs(c[null]) > 1e-10 * max(1.0, np.linalg.norm(c))):
            rkhs = None
        else:
            pos = ~null
            with np.errstate(divide="ignore"):
                rkhs = float(np.sum(c[pos] ** 2 / self.eigenvalues[pos])) if pos.any() else 0.0
        return BlockFunction(values=self.synthesize(c), coeffs=c, rkhs_norm_sq=rkhs)

    def function_from_values(self, values) -> BlockFunction:
        return self.function(self.project(values))


def operator_matrix(spec: KernelSpec, mu: DiscreteMeasure) -> np.ndarray:
    """Symmetrized operator W^{1/2} K W^{1/2} on the measure's support."""
    K = gram(spec, mu.points).entries
    sq = np.sqrt(mu.weights)
    return sq[:, None] * K * sq[None, :]


def decompose(matrix: np.ndarray, weights) -> OperatorDecomposition:
    """Eigen-decompose a symmetrized operator matrix.

    ``weights`` are the measure weights used to build the matrix; they turn
    the orthonormal eigenvectors into point values of L2(mu)-orthonormal
    eigenfunctions (psi_l = v_l / sqrt(w)).
    """
    M = np.asarray(matrix, dtype=float)
    w = np.asarray(weights, dtype=float).ravel()
    if M.shape != (w.shape[0], w.shape[0]):
        raise ValueError(f"matrix {M.shape} does not match {w.shape[0]} weights")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError("operator matrix must be symmetric")
    vals, vecs = np.linalg.eigh(M)
    if vals.min() < -1e-10 * max(1.0, vals.max()):
        raise ValueError(f"operator matrix is not PSD (min eigenvalue {vals.min()})")
    order = np.argsort(vals)[::-1]
    vals = np.clip(vals[order], 0.0, None)
    vecs = vecs[:, order]
    psi = vecs / np.sqrt(w)[:, None]
    return OperatorDecomposition(eigenvalues=vals, eigenfunctions=psi, weights=w)


def _as_coeffs(decomp: OperatorDecomposition, g) -> np.ndarray:
    if isinstance(g, BlockFunction):
        return g.coeffs
    return decomp.project(g)


def power_apply(decomp: OperatorDecomposition, r: float, g) -> BlockFunction:
    """Apply the r-th operator power: coefficients scale by lambda_l^r.

    Components on null eigenvalues are annihilated (0^r := 0), so the result
    always lies in the operator's range.
    """
    if not (r > 0):
        raise ValueError(f"power must be positive, got {r}")
    c = _as_coeffs(decomp, g)
    null = decomp.null_mask()
    scale = np.where(null, 0.0, decomp.eigenvalues**r)
    return decomp.function(c * scale)


def intermediate(decomp: OperatorDecomposition, fstar, lam: float) -> BlockFunction:
    """Spectral ridge filter (T + lam I)^{-1} T applied to fstar.

    Coefficients scale by lambda_l / (lambda_l + lam), which lies in [0, 1).
    """
    if not (lam > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    c = _as_coeffs(decomp, fstar)
    filt = decomp.eigenvalues / (decomp.eigenvalues + lam)
    return decomp.function(c * filt)


def filter_error_bound(
    decomp: OperatorDecomposition, gstar, r: float, lam: float
) -> tuple[float, float]:
    """Two sides of the ridge-filter approximation inequality.

    With f* the r-th power of the operator applied to g* and f_lam its ridge
    filtering, returns

        lhs = ||f_lam - f*||_{L2}^2 + lam ||f_lam||_H^2
        rhs = lam^{2r} ||g*||_{L2}^2

    The caller asserts lhs <= rhs (holds for r in (0, 1/2], lam in (0, 1]).
    """
    if not (0 < r <= 0.5):
        raise ValueError(f"power must lie in (0, 1/2], got {r}")
    g = decomp.function(_as_coeffs(decomp, gstar))
    fstar = power_apply(decomp, r, g)
    flam = intermediate(decomp, fstar, lam)
    diff = flam.coeffs - fstar.coeffs
    lhs = float(diff @ diff) + lam * float(flam.rkhs_norm_sq)
    rhs = lam ** (2.0 * r) * g.l2_norm_sq
    return lhs, rhs


def approx_error(
    block_specs: list[KernelSpec],
    block_measures: list[DiscreteMeasure],
    gstars: list[np.ndarray],
    r: float,
    lam: float,
    tau: float,
    gap_tol: float = 1e-10,
) -> tuple[float, float]:
    """Measured vs predicted regularized approximation error of an additive target.

    Builds the additive target f* = sum_j (T_j^r g*_j) on the product of the
    block measures, sets responses y = f*(x) (so f* is the exact tau-quantile
    and has zero risk), minimizes the weighted pinball risk plus lam * norm^2
    over the additive RKHS with the exact-weights solver, and compares the
    achieved minimum against the closed-form bound

        C_r lam^r,   C_r = sum_j (max(tau, 1-tau) ||g*_j|| + ||g*_j||^2).
    """
    if len(block_specs) != len(block_measures) or len(block_specs) != len(gstars):
        raise ValueError("need one spec, measure, and g* per block")
    fstars, g_norms = [], []
    for spec, mu, g in zip(block_specs, block_measures, gstars):
        decomp = decompose(operator_matrix(spec, mu), mu.weights)
        gfun = decomp.function(decomp.project(g))
        fstars.append(power_apply(decomp, r, gfun))
        g_norms.append(np.sqrt(gfun.l2_norm_sq))

    # tensor the block supports into one dataset: x rows concatenate block
    # points, weights multiply, responses add the block targets
    sizes = [mu.m for mu in block_measures]
    grids = np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")
    flat = [g.ravel() for g in grids]
    X = np.hstack([mu.points[idx] for mu, idx in zip(block_measures, flat)])
    w = np.ones(flat[0].shape[0])
    y = np.zeros(flat[0].shape[0])
    for mu, fs, idx in zip(block_measures, fstars, flat):
        w *= mu.weights[idx]
        y += fs.values[idx]
    w /= w.sum()

    layout = BlockLayout([mu.points.shape[1] for mu in block_measures])
    add_spec = Additive(layout, block_specs)
    data = _solver.DataSet(inputs=X, responses=y, weights=w)
    model = _solver.fit(add_spec, data, lam=lam, tau=tau,
                        opts=_solver.FitOptions(gap_tol=gap_tol))
    _, d_measured = _solver.objective(model, data)

    lip = max(tau, 1.0 - tau)
    c_r = sum(lip * gn + gn**2 for gn in g_norms)
    return d_measured, float(c_r * lam**r)
