"""Seeded verification suites bundling the library's checkable guarantees.

Each suite returns (rows, passed).  Row dicts use the fixed report columns
(case, lhs, rhs, pass) except the capacity suite, which uses
(eps, block_id, log_count, bound, pass).  The suites are deterministic for a
given seed; the CLI exposes them under ``kqreg verify <suite>``.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity, experiments, solver, spectral
from .kernels import BlockLayout, Gaussian, KernelSpec, SobolevMin, gram
from .solver import DataSet, FitOptions

__all__ = [
    "dual_grid_oracle",
    "verify_filter_bound",
    "verify_approx",
    "verify_capacity",
    "verify_series",
    "verify_solver",
    "SUITES",
]


def dual_grid_oracle(
    spec: KernelSpec, data: DataSet, lam: float, tau: float, steps: int = 201
) -> float:
    """Best dual objective found by exhaustive box-grid search plus one local
    refinement.  Independent of the Newton solver; every primal
    objective must dominate this value (weak duality)."""
    K = gram(spec, data.inputs).entries
    y = data.responses
    w = data.weight_vector()
    n = data.n
    if n > 3:
        raise ValueError("grid oracle is exponential in n; use n <= 3")
    lo, hi = -tau, 1.0 - tau

    def grid_max(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=1)
        C = U * w[None, :]
        vals = -C @ y - np.einsum("ij,ij->i", C @ K, C) / (4.0 * lam)
        best = int(np.argmax(vals))
        return float(vals[best]), U[best]

    coarse_axes = [np.linspace(lo, hi, steps)] * n
    best_val, best_u = grid_max(coarse_axes)
    cell = (hi - lo) / (steps - 1)
    fine_axes = [
        np.linspace(max(lo, u - cell), min(hi, u + cell), 41) for u in best_u
    ]
    fine_val, _ = grid_max(fine_axes)
    return max(best_val, fine_val)


def verify_filter_bound(seed: int = 0, n_cases: int = 100) -> tuple[list[dict], bool]:
    """Randomized ridge-filter inequality checks on discrete measures."""
    rows = []
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        if rng.random() < 0.5:
            spec: KernelSpec = Gaussian(sigma=float(rng.uniform(0.5, 2.0)))
        else:
            spec = SobolevMin()
        m = int(rng.integers(1, 11))
        points = rng.random((m, 1))
        w = rng.uniform(0.1, 1.0, size=m)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        mu = spectral.DiscreteMeasure(points=points, weights=w)
        decomp = spectral.decompose(spectral.operator_matrix(spec, mu), mu.weights)
        gstar = rng.normal(size=m)
        r = float(rng.uniform(0.01, 0.5))
        lam = float(rng.uniform(1e-4, 1.0))
        lhs, rhs = spectral.filter_error_bound(decomp, gstar, r, lam)
        rows.append({"case": f"case{case}", "lhs": lhs, "rhs": rhs,
                     "pass": lhs <= rhs + 1e-9})
    return rows, all(r["pass"] for r in rows)


def verify_approx(
    seed: int = 0,
    n_problems: int = 10,
    lam_grid: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01),
) -> tuple[list[dict], bool]:
    """Measured additive approximation error against the closed-form bound."""
    taus = (0.5, 0.3, 0.7)
    rows = []
    for p in range(n_problems):
        rng = np.random.default_rng([seed, p])
        specs, measures, gstars = [], [], []
        for _ in range(2):
            specs.append(Gaussian(sigma=float(rng.uniform(0.7, 1.5))))
            pts = rng.random((6, 1))
            w = rng.uniform(0.2, 1.0, size=6)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            measures.append(spectral.DiscreteMeasure(points=pts, weights=w))
            gstars.append(rng.normal(size=6))
        tau = taus[p % len(taus)]
        for lam in lam_grid:
            measured, bound = spectral.approx_error(
                specs, measures, gstars, r=0.5, lam=lam, tau=tau
            )
            rows.append({"case": f"p{p}-lam{lam}", "lhs": measured, "rhs": bound,
                         "pass": measured <= bound + 1e-6})
    return rows, all(r["pass"] for r in rows)


def verify_capacity(
    seed: int = 0,
    eps_grid: tuple[float, ...] = (0.5, 0.25, 0.125),
    n_points: int = 10,
    n_fresh: int = 1000,
) -> tuple[list[dict], bool]:
    """Product-net coverage of fresh additive-ball samples at twice the
    block radius, plus the exact product-count identity."""
    layout = BlockLayout([1, 1])
    specs = [Gaussian(sigma=1.0), Gaussian(sigma=1.0)]
    rng = np.random.default_rng(seed)
    points = rng.random((n_points, 2))
    block_samples = capacity.sample_additive_ball(
        specs, layout, points, n=n_fresh, seed=seed + 7919
    )
    added = sum(block_samples)
    rows = []
    for eps in eps_grid:
        nets = [
            capacity.cover_ball(spec, points[:, sl], R=1.0, eps=eps, seed=seed + j)
            for j, (spec, sl) in enumerate(zip(specs, layout.slices()))
        ]
        # blockwise-nearest product center; its distance bounds the true
        # nearest-product-center distance from above
        combined = np.zeros_like(added)
        for net, vals in zip(nets, block_samples):
            idx, _ = capacity.nearest_center(net, vals)
            combined += net.centers[idx]
        dists = np.linalg.norm(added - combined, axis=1) / math.sqrt(n_points)
        worst = float(dists.max())
        rows.append({"eps": eps, "block_id": "coverage", "log_count": worst,
                     "bound": 2.0 * eps, "pass": worst <= 2.0 * eps})
        product = capacity.additive_net(nets, full_points=points)
        log_prod = float(np.log(product.size))
        log_sum = float(sum(np.log(net.size) for net in nets))
        rows.append({"eps": eps, "block_id": "additive", "log_count": log_prod,
                     "bound": log_sum, "pass": abs(log_prod - log_sum) <= 1e-12})
    return rows, all(r["pass"] for r in rows)


def verify_series(seed: int = 0, M: int = 10000) -> tuple[list[dict], bool]:
    """Divergence of the bump's product-space norm series vs its additive norm."""
    report = experiments.bump_membership_report(sigma=1.0, grid_m=M)
    rows = [{
        "case": "additive_norm",
        "lhs": report["additive_norm"],
        "rhs": 1.0,
        "pass": report["additive_norm"] == 1.0,
    }]
    sums = experiments.product_norm_partial_sums(M)
    lower = experiments.series_lower_bounds(M)
    margin = float(np.min(sums[1:] - lower))
    rows.append({"case": f"partial_sums_dominate_bound_M<={M}", "lhs": margin,
                 "rhs": 0.0, "pass": margin >= 0.0})
    asym = 2.0 * math.sqrt(M / math.pi)
    rel = abs(float(sums[-1]) - asym) / asym
    rows.append({"case": f"S_{M}_asymptote", "lhs": float(sums[-1]), "rhs": asym,
                 "pass": rel <= 0.02})
    return rows, all(r["pass"] for r in rows)


def verify_solver(seed: int = 0) -> tuple[list[dict], bool]:
    """Grid-oracle optimality (n <= 3), gap targets (n <= 200), norm bound."""
    rows = []
    spec = Gaussian(sigma=1.0)

    case = 0
    for n in (1, 2, 3):
        for rep in range(3):
            rng = np.random.default_rng([seed, 100 + case])
            X = rng.random((n, 2))
            y = rng.normal(size=n)
            tau = float(rng.uniform(0.15, 0.85))
            lam = float(rng.uniform(0.05, 1.0))
            data = DataSet(inputs=X, responses=y)
            model = solver.fit(spec, data, lam=lam, tau=tau,
                               opts=FitOptions(gap_tol=1e-10))
            _, obj = solver.objective(model, data)
            oracle = dual_grid_oracle(spec, data, lam, tau)
            rows.append({"case": f"oracle-n{n}-{rep}", "lhs": obj,
                         "rhs": oracle + 1e-3, "pass": obj <= oracle + 1e-3})
            case += 1

    for n in (20, 50, 100, 200):
        rng = np.random.default_rng([seed, 200 + n])
        X = rng.random((n, 3))
        y = np.sin(2 * np.pi * X[:, 0]) + rng.normal(scale=0.3, size=n)
        data = DataSet(inputs=X, responses=y)
        model = solver.fit(spec, data, lam=1.0 / n, tau=0.7,
                           opts=FitOptions(gap_tol=1e-9))
        gap = max(model.gap, solver.duality_gap(model, data))
        rows.append({"case": f"gap-n{n}", "lhs": gap, "rhs": 1e-8,
                     "pass": gap <= 1e-8})

    for rep in range(20):
        rng = np.random.default_rng([seed, 300 + rep])
        n = int(rng.integers(5, 40))
        X = rng.random((n, 2))
        y = rng.uniform(-2.0, 2.0, size=n)
        lam = float(rng.uniform(0.01, 1.0))
        tau = float(rng.uniform(0.1, 0.9))
        data = DataSet(inputs=X, responses=y)
        model = solver.fit(spec, data, lam=lam, tau=tau,
                           opts=FitOptions(gap_tol=1e-10))
        hnorm = math.sqrt(model.norm_sq())
        bound = math.sqrt(float(np.max(np.abs(y))) / lam)
        rows.append({"case": f"norm-{rep}", "lhs": hnorm, "rhs": bound + 1e-6,
                     "pass": hnorm <= bound + 1e-6})
    return rows, all(r["pass"] for r in rows)


SUITES = {
    "lemma2": verify_filter_bound,
    "capacity": verify_capacity,
    "approx": verify_approx,
    "example1": verify_series,
    "solver": verify_solver,
}
