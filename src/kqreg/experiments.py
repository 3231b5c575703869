"""Synthetic additive-model experiments measuring empirical convergence rates.

Data are drawn with X uniform on [0,1]^d and Y = f*(X) + noise, where the
uniform noise is re-centered so the conditional tau-quantile of Y given X is
exactly f*(X).  For that noise the conditional pinball risk has a closed
form, so the excess risk of a predictor needs Monte Carlo only over X:

    excess(x) = delta^2 / (4a)                       for delta in the band,
                (1-tau)(delta - mu) - a tau (1-tau)  above it,
                tau (mu - delta)    - a tau (1-tau)  below it,

with delta = f(x) - f*(x), band [-2 a tau, 2 a (1-tau)], mu = a (1 - 2 tau).
Every term is nonnegative, so measured excess risks are exact zeros at the
target and never spuriously negative.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels, solver
from .kernels import BlockLayout, KernelSpec
from .loss import clip
from .solver import ConvergenceError, DataSet, FitOptions, Model

__all__ = [
    "BlockTarget",
    "ExperimentSpec",
    "ExperimentResult",
    "SlopeFit",
    "target_values",
    "generate",
    "true_excess_risk",
    "conditional_excess",
    "rate_experiment",
    "fit_slope",
    "product_norm_partial_sums",
    "series_lower_bounds",
    "bump_membership_report",
]


@dataclass(frozen=True)
class BlockTarget:
    """Closed-form target on one width-1 coordinate block.

    kinds: 'kernel_bump' (exp(-(x-center)^2/sigma^2)), 'sine'
    (amp * sin(2 pi freq x)), 'poly' (coefficients, lowest order first).
    """

    kind: str
    center: float = 0.0
    sigma: float = 1.0
    freq: float = 1.0
    amp: float = 1.0
    coeffs: tuple[float, ...] = (0.0,)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "kernel_bump":
            return np.exp(-((x - self.center) ** 2) / self.sigma**2)
        if self.kind == "sine":
            return self.amp * np.sin(2.0 * math.pi * self.freq * x)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        raise ValueError(f"unknown target kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "kernel_bump":
            return {"kind": self.kind, "center": self.center, "sigma": self.sigma}
        if self.kind == "sine":
            return {"kind": self.kind, "freq": self.freq, "amp": self.amp}
        return {"kind": self.kind, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, obj: dict) -> "BlockTarget":
        kind = obj["kind"]
        if kind == "kernel_bump":
            return cls(kind=kind, center=float(obj["center"]), sigma=float(obj.get("sigma", 1.0)))
        if kind == "sine":
            return cls(kind=kind, freq=float(obj.get("freq", 1.0)), amp=float(obj.get("amp", 1.0)))
        if kind == "poly":
            return cls(kind=kind, coeffs=tuple(float(c) for c in obj["coeffs"]))
        raise ValueError(f"unknown target kind {kind!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one convergence-rate experiment."""

    layout: BlockLayout
    targets: tuple[BlockTarget, ...]
    noise_halfwidth: float
    tau: float
    kernel_a: KernelSpec
    kernel_b: KernelSpec | None
    n_grid: tuple[int, ...]
    beta: float
    seeds: tuple[int, ...]
    risk_eval: int = 8192
    beta_b: float | None = None  # schedule for kernel_b; defaults to beta
    gap_tol: float = FitOptions.gap_tol
    max_epochs: int = FitOptions.max_epochs

    def __post_init__(self):
        if len(self.targets) != self.layout.n_blocks:
            raise ValueError("need one target per block")
        if any(d != 1 for d in self.layout.dims):
            raise ValueError("targets are defined on width-1 blocks")
        if not (self.noise_halfwidth > 0):
            raise ValueError("noise halfwidth must be positive")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if self.risk_eval < 1:
            raise ValueError("risk_eval must be >= 1")

    def to_dict(self) -> dict:
        out = {
            "layout": {"dims": list(self.layout.dims)},
            "targets": [t.to_dict() for t in self.targets],
            "noise": {"kind": "uniform", "halfwidth": self.noise_halfwidth},
            "tau": self.tau,
            "kernel_a": kernels.spec_to_dict(self.kernel_a),
            "kernel_b": kernels.spec_to_dict(self.kernel_b) if self.kernel_b else None,
            "n_grid": list(self.n_grid),
            "beta": self.beta,
            "seeds": list(self.seeds),
            "risk_eval": self.risk_eval,
            "gap_tol": self.gap_tol,
            "max_epochs": self.max_epochs,
        }
        if self.beta_b is not None:
            out["beta_b"] = self.beta_b
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentSpec":
        noise = obj.get("noise", {})
        if noise.get("kind", "uniform") != "uniform":
            raise ValueError(f"unknown noise kind {noise.get('kind')!r}")
        return cls(
            layout=BlockLayout(obj["layout"]["dims"]),
            targets=tuple(BlockTarget.from_dict(t) for t in obj["targets"]),
            noise_halfwidth=float(noise["halfwidth"]),
            tau=float(obj["tau"]),
            kernel_a=kernels.spec_from_dict(obj["kernel_a"]),
            kernel_b=kernels.spec_from_dict(obj["kernel_b"]) if obj.get("kernel_b") else None,
            n_grid=tuple(int(n) for n in obj["n_grid"]),
            beta=float(obj["beta"]),
            seeds=tuple(int(s) for s in obj["seeds"]),
            risk_eval=int(obj.get("risk_eval", 8192)),
            beta_b=float(obj["beta_b"]) if obj.get("beta_b") is not None else None,
            gap_tol=float(obj.get("gap_tol", FitOptions.gap_tol)),
            max_epochs=int(obj.get("max_epochs", FitOptions.max_epochs)),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def target_values(spec: ExperimentSpec, X: np.ndarray) -> np.ndarray:
    """Additive target f*(x) = sum_j f_j(x_j) on rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    for target, sl in zip(spec.targets, spec.layout.slices()):
        out += target(X[:, sl.start])
    return out


def _noise_shift(spec: ExperimentSpec) -> float:
    # tau-quantile of U[-a, a]; subtracting it zeroes the noise quantile
    return spec.noise_halfwidth * (2.0 * spec.tau - 1.0)


def generate(spec: ExperimentSpec, n: int, seed) -> DataSet:
    """Draw n points: X uniform on the cube, Y = f*(X) + centered noise."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    X = rng.random((n, spec.layout.total_dim))
    a = spec.noise_halfwidth
    eps = rng.uniform(-a, a, size=n) - _noise_shift(spec)
    return DataSet(inputs=X, responses=target_values(spec, X) + eps)


def conditional_excess(spec: ExperimentSpec, delta) -> np.ndarray:
    """Closed-form excess conditional risk of predicting f* + delta."""
    a, tau = spec.noise_halfwidth, spec.tau
    d = np.asarray(delta, dtype=float)
    lo, hi = -2.0 * a * tau, 2.0 * a * (1.0 - tau)
    mu = a * (1.0 - 2.0 * tau)
    floor = a * tau * (1.0 - tau)
    inside = d**2 / (4.0 * a)
    above = (1.0 - tau) * (d - mu) - floor
    below = tau * (mu - d) - floor
    return np.where(d > hi, above, np.where(d < lo, below, inside))


def true_excess_risk(predictor, spec: ExperimentSpec, M: int, seed) -> float:
    """Monte Carlo (over X only) estimate of the predictor's excess risk."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    rng = np.random.default_rng(seed)
    X = rng.random((M, spec.layout.total_dim))
    preds = predictor.predict(X) if isinstance(predictor, Model) else predictor(X)
    delta = np.asarray(preds, dtype=float) - target_values(spec, X)
    return float(np.mean(conditional_excess(spec, delta)))


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(excess) against log(n)."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_slope(points) -> SlopeFit:
    """Least-squares slope of log(excess) vs log(n); drops nonpositive excess."""
    usable = [(n, e) for n, e in points if e > 0 and np.isfinite(e)]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 positive excess points, got {len(usable)}")
    x = np.log([n for n, _ in usable])
    y = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    r_squared=r2, n_used=len(usable))


@dataclass(frozen=True)
class ExperimentResult:
    """Per-job rows plus per-kernel slope fits (clipped excess)."""

    rows: list[dict] = field(repr=False)  # kernel, n, seed, excess, lambda, gap
    raw_rows: list[dict] = field(repr=False)  # same schema, unclipped excess
    summaries: dict[str, SlopeFit]
    notices: list[str]


def _job_kernels(spec: ExperimentSpec) -> list[tuple[str, KernelSpec, float]]:
    jobs = [("additive", spec.kernel_a, spec.beta)]
    if spec.kernel_b is not None:
        jobs.append(("product", spec.kernel_b, spec.beta_b if spec.beta_b is not None else spec.beta))
    return jobs


def _run_job(args) -> dict:
    spec, kernel_name, kernel_spec, beta, kidx, n, seed = args
    lam = float(n) ** (-beta)
    data = generate(spec, n, seed=[seed, n, kidx])
    opts = FitOptions(gap_tol=spec.gap_tol, max_epochs=spec.max_epochs)
    out = {"kernel": kernel_name, "n": n, "seed": seed, "lambda": lam}
    try:
        model = solver.fit(kernel_spec, data, lam=lam, tau=spec.tau, opts=opts)
    except ConvergenceError as err:
        out.update(excess=math.nan, excess_raw=math.nan, gap=err.gap, failed=True)
        return out
    bound = float(np.max(np.abs(data.responses)))
    rng = np.random.default_rng([seed, n, kidx, 1])
    X_eval = rng.random((spec.risk_eval, spec.layout.total_dim))
    preds = model.predict(X_eval)
    delta_raw = preds - target_values(spec, X_eval)
    delta_clip = clip(bound, preds) - target_values(spec, X_eval)
    out.update(
        excess=float(np.mean(conditional_excess(spec, delta_clip))),
        excess_raw=float(np.mean(conditional_excess(spec, delta_raw))),
        gap=model.gap,
        failed=False,
    )
    return out


def rate_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the full (kernel, n, seed) grid and fit log-log slopes.

    A kernel with fewer than three usable n-values gets a notice instead of
    a slope and is left out of ``summaries``.  Jobs are independent and
    deterministic (per-job seeds are derived from the job coordinates), so
    worker count does not affect the results.
    """
    jobs = [
        (spec, name, kspec, beta, kidx, n, seed)
        for kidx, (name, kspec, beta) in enumerate(_job_kernels(spec))
        for n in spec.n_grid
        for seed in spec.seeds
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]

    results.sort(key=lambda r: (r["kernel"], r["n"], r["seed"]))
    notices = [
        f"{r['kernel']} n={r['n']} seed={r['seed']}: solver did not converge (gap {r['gap']:.3e}); excluded"
        for r in results
        if r["failed"]
    ]
    rows = [
        {"kernel": r["kernel"], "n": r["n"], "seed": r["seed"],
         "excess": r["excess"], "lambda": r["lambda"], "gap": r["gap"]}
        for r in results
    ]
    raw_rows = [
        {"kernel": r["kernel"], "n": r["n"], "seed": r["seed"],
         "excess": r["excess_raw"], "lambda": r["lambda"], "gap": r["gap"]}
        for r in results
    ]
    summaries = {}
    for name, _, _ in _job_kernels(spec):
        per_n = []
        for n in spec.n_grid:
            vals = [r["excess"] for r in rows
                    if r["kernel"] == name and r["n"] == n and np.isfinite(r["excess"])]
            if vals:
                per_n.append((n, float(np.mean(vals))))
        try:
            summaries[name] = fit_slope(per_n)
        except ValueError as err:
            notices.append(f"{name}: no slope fitted ({err})")
    return ExperimentResult(rows=rows, raw_rows=raw_rows, summaries=summaries, notices=notices)


def product_norm_partial_sums(M: int) -> np.ndarray:
    """Partial sums S_0..S_M of the bump's squared-norm series in the
    product-kernel space: terms t_m = (2m)! / (2^{2m} (m!)^2), via the stable
    recurrence t_{m+1} = t_m (2m+1)/(2m+2)."""
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    terms = np.empty(M + 1)
    terms[0] = 1.0
    for m in range(M):
        terms[m + 1] = terms[m] * (2 * m + 1) / (2 * m + 2)
    return np.cumsum(terms)


def series_lower_bounds(M: int) -> np.ndarray:
    """Divergent lower bounds 1 + (2 sqrt(pi)/e^2) sum_{k<=m} k^(-1/2) on the
    partial sums S_m, for m = 1..M."""
    ms = np.arange(1, M + 1, dtype=float)
    return 1.0 + 2.0 * math.sqrt(math.pi) / math.e**2 * np.cumsum(ms**-0.5)


def bump_membership_report(sigma: float, grid_m: int) -> dict:
    """The bump k_1(., 0) seen from both kernel compositions.

    In the additive space its norm is exactly sqrt(k_1(0,0)) = 1 (reproducing
    property of the canonical block decomposition); in the product space the
    squared-norm series diverges, demonstrated by partial sums against their
    growing lower bounds.
    """
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    block = kernels.Gaussian(sigma=sigma)
    gram_00 = kernels.gram(block, np.array([[0.0]]))
    additive_norm = math.sqrt(kernels.rkhs_norm_sq(np.array([1.0]), gram_00))
    checkpoints = sorted({1, 10, 100, 1000, grid_m})
    checkpoints = [m for m in checkpoints if m <= grid_m]
    sums = product_norm_partial_sums(grid_m)
    lower = series_lower_bounds(grid_m)
    table = [
        {"M": m, "partial_sum": float(sums[m]), "lower_bound": float(lower[m - 1])}
        for m in checkpoints
    ]
    return {"additive_norm": additive_norm, "partial_sums": table}
