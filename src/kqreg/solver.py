"""Regularized kernel quantile regression by finite smoothing and Newton steps.

The primal problem over the RKHS H of a kernel spec is

    min_f  sum_i w_i L(y_i, f(x_i)) + lambda ||f||_H^2

with L the pinball loss at level tau.  Writing the loss through its max
representation  L(y, t) = max_{u in [-tau, 1-tau]} u (t - y)  and swapping
min/max gives the box-constrained concave dual

    max_{u in [-tau, 1-tau]^n}  D(u) = -sum_i w_i u_i y_i - (1/(4 lambda)) u' W K W u

with primal recovery alpha = -W u / (2 lambda), f = sum_i alpha_i k(x_i, .).
``fit`` is Chen's finite smoothing (JCGS 16:136-164, 2007) in kernel space:
Newton steps on the check loss smoothed to width h, then the dual
u = -clip((y - f) / h, tau - 1, tau) is certified by the exact relative
duality gap J(alpha(u)) - D(u), and h shrinks tenfold until it passes.  Once
the band (points with u strictly inside the box) repeats across widths, its
h -> 0 limit, in which band points interpolate, is solved and certified too.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import KernelSpec, cross_gram, gram
from .loss import pinball

__all__ = [
    "DataSet",
    "FitOptions",
    "Model",
    "ConvergenceError",
    "read_inputs",
    "fit",
    "duality_gap",
    "objective",
]

# weights of a DataSet or a spectral.DiscreteMeasure must sum to 1 within this
WEIGHT_SUM_TOL = 1e-9

# Model.predict evaluates the cross-Gram this many entries (2 MB) at a time,
# so a block stays in cache and memory does not grow with the rows predicted
PREDICT_BLOCK_ENTRIES = 2**18


class ConvergenceError(RuntimeError):
    """Raised when the duality gap did not reach tolerance; carries the smallest gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class DataSet:
    """n training points in d coordinates with responses and optional weights.

    Weights, when present, must be nonnegative and sum to one; they default
    to the uniform 1/n.
    """

    inputs: np.ndarray
    responses: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(self.responses, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"inputs {X.shape} do not match responses {y.shape}")
        if X.shape[1] < 1:
            raise ValueError("dataset needs at least one input column")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "responses", y)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.shape != y.shape:
                raise ValueError(f"weights {w.shape} do not match responses {y.shape}")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite and nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError(f"weights must sum to 1, got {w.sum()}")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def weight_vector(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return np.full(self.n, 1.0 / self.n)

    @classmethod
    def from_csv(cls, path) -> "DataSet":
        """Read 'x1,...,xd,y[,w]' rows."""
        header, arr = _read_csv(path)
        has_w = header[-1] == "w"
        y_col = len(header) - (2 if has_w else 1)
        expected = [f"x{i + 1}" for i in range(y_col)] + ["y"] + (["w"] if has_w else [])
        if header != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        return cls(
            inputs=arr[:, :y_col],
            responses=arr[:, y_col],
            weights=arr[:, y_col + 1] if has_w else None,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            cols = [f"x{i + 1}" for i in range(self.d)] + ["y"]
            if self.weights is not None:
                cols.append("w")
            writer.writerow(cols)
            for i in range(self.n):
                row = [repr(float(v)) for v in self.inputs[i]] + [repr(float(self.responses[i]))]
                if self.weights is not None:
                    row.append(repr(float(self.weights[i])))
                writer.writerow(row)


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Stripped header and the rows as floats, one field per header column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {arr.shape[1]} fields, header has {len(header)}")
    return header, arr


def read_inputs(path, d: int) -> np.ndarray:
    """Input rows of a CSV whose header is 'x1,...,xd[,y[,w]]'; y and w are ignored."""
    header, arr = _read_csv(path)
    xs = [f"x{i + 1}" for i in range(d)]
    if header not in (xs, xs + ["y"], xs + ["y", "w"]):
        raise ValueError(f"{path}: expected header {','.join(xs)}[,y[,w]], got {','.join(header)}")
    X = arr[:, :d]
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: inputs contain non-finite entries")
    return X


@dataclass(frozen=True)
class FitOptions:
    """Stopping rule: relative duality gap and a cap on Newton steps."""

    gap_tol: float = 1e-8
    max_epochs: int = 10000

    def __post_init__(self):
        if not (self.gap_tol > 0):
            raise ValueError("gap_tol must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class Model:
    """Fitted quantile SVM: support points, dual box variables, and kernel."""

    spec: KernelSpec
    support: np.ndarray = field(repr=False)
    dual: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    lam: float
    tau: float
    gap: float

    def predict(self, x) -> float | np.ndarray:
        """Representer evaluation sum_i alpha_i k(x_i, x), in blocks of rows."""
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        X = kernels._as_points(X[None, :] if single else X, self.spec)
        rows = max(1, PREDICT_BLOCK_ENTRIES // self.support.shape[0])
        out = np.concatenate([
            cross_gram(self.spec, X[start:start + rows], self.support) @ self.alpha
            for start in range(0, X.shape[0], rows)
        ])
        return float(out[0]) if single else out

    def norm_sq(self) -> float:
        """Squared RKHS norm alpha' K alpha of the fitted function."""
        K = gram(self.spec, self.support).entries
        return kernels.rkhs_norm_sq(self.alpha, K)

    def to_dict(self) -> dict:
        return {
            "kernel": kernels.spec_to_dict(self.spec),
            "support": {
                "points": [float(v) for v in self.support.ravel()],
                "n": int(self.support.shape[0]),
                "d": int(self.support.shape[1]),
            },
            "alpha": [float(v) for v in self.alpha],
            "dual": [float(v) for v in self.dual],
            "lambda": self.lam,
            "tau": self.tau,
            "gap": self.gap,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, obj: dict) -> "Model":
        spec = kernels.spec_from_dict(obj["kernel"])
        sup = obj["support"]
        X = np.asarray(sup["points"], dtype=float).reshape(sup["n"], sup["d"])
        alpha = np.asarray(obj["alpha"], dtype=float)
        lam = float(obj["lambda"])
        tau = float(obj["tau"])
        # files without a dual: recovered from alpha, right for uniform weights only
        dual = np.asarray(obj["dual"], dtype=float) if "dual" in obj else -2.0 * lam * alpha * sup["n"]
        return cls(
            spec=spec,
            support=X,
            dual=dual,
            alpha=alpha,
            lam=lam,
            tau=tau,
            gap=float(obj.get("gap", np.nan)),
        )

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _primal_dual(K, y, w, u, alpha, tau, lam):
    """Exact primal objective (unshifted loss), dual objective, and gap."""
    f = K @ alpha
    reg = float(alpha @ f)
    primal = float(np.sum(w * pinball(tau, y, f)) + lam * reg)
    dual_obj = float(-np.sum(w * u * y) - lam * reg)
    return primal, dual_obj, primal - dual_obj, f


def _smoothed(r, h, tau):
    """psi_h(r) = clip(r / h, tau - 1, tau) and the smoothed check loss
    rho_h(r) = psi_h r - h psi_h^2 / 2, which is r^2 / (2h) inside the band."""
    psi = np.clip(r / h, tau - 1.0, tau)
    return psi, psi * r - 0.5 * h * psi**2


def fit(
    spec: KernelSpec,
    data: DataSet,
    lam: float,
    tau: float,
    opts: FitOptions = FitOptions(),
) -> Model:
    """Solve the regularized pinball ERM; deterministic.

    Raises :class:`ConvergenceError` if the relative duality gap does not
    reach ``opts.gap_tol`` within ``opts.max_epochs`` Newton steps, or
    before the smoothing width falls to round-off.
    """
    if not (lam > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    K = gram(spec, data.inputs).entries
    y = data.responses
    w = data.weight_vector()

    def certify(u):
        alpha = -w * u / (2.0 * lam)
        _, dual_obj, gap, _ = _primal_dual(K, y, w, u, alpha, tau, lam)
        return alpha, gap, gap <= opts.gap_tol * (1.0 + abs(dual_obj))

    u = np.zeros_like(y)
    alpha_u, gap, ok = certify(u)
    best, steps, prev_band = gap, 0, None
    alpha, f = np.zeros_like(y), np.zeros_like(y)
    h = h0 = float(np.max(np.abs(y)))
    while not ok and steps < opts.max_epochs and h > h0 * np.finfo(float).eps:
        # Armijo-damped Newton on F = sum_i w_i rho_h(y_i - f_i) + lambda alpha' K alpha,
        # gradient K g with g = 2 lambda alpha - W psi: d solves (D K + 2 lambda I) d = -g,
        # D = diag(w / h) on the band B and 0 elsewhere, so that g' K d = -d' H d.
        prev_key, full_step = None, False
        while True:
            r = y - f
            psi, rho = _smoothed(r, h, tau)
            key = (psi >= tau).astype(np.int8) - (psi <= tau - 1.0)
            band = (key == 0) & (w > 0)
            if steps >= opts.max_epochs or (full_step and np.array_equal(key, prev_key)):
                break  # capped, or a full step stayed on one quadratic piece: exact minimum
            g = 2.0 * lam * alpha - w * psi
            d = -g / (2.0 * lam)
            B = np.flatnonzero(band)
            if B.size:
                d[B] = 0.0
                A = K[np.ix_(B, B)]
                A[np.diag_indices_from(A)] += 2.0 * lam * h / w[B]
                d[B] = np.linalg.solve(A, -(h / w[B]) * g[B] - K[B] @ d)
            Kd = K @ d
            slope = float(g @ Kd)
            F0 = float(w @ rho) + lam * float(alpha @ f)
            if not (-slope > np.finfo(float).eps * F0):
                break  # the predicted decrease is below round-off of F
            t = 1.0
            while t > 1e-12:
                _, rho_t = _smoothed(r - t * Kd, h, tau)
                F_t = float(w @ rho_t) + lam * float((alpha + t * d) @ (f + t * Kd))
                if F_t <= F0 + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break  # no decrease along d: the width's minimum up to round-off
            alpha += t * d
            f += t * Kd
            steps += 1
            prev_key, full_step = key, t == 1.0

        u = -psi
        alpha_u, gap, ok = certify(u)
        best = min(best, gap)
        if not ok and band.any() and np.array_equal(band, prev_band):
            # The band repeated across widths: take its h -> 0 limit, where band
            # points interpolate, (K alpha)_B = y_B, and the rest stay at bounds.
            # The least-norm change to the smoothed dual keeps it inside the box
            # where K_BB is singular and many duals interpolate.
            B, N = np.flatnonzero(band), np.flatnonzero(~band)
            M = K[np.ix_(B, B)] * w[B]
            rhs = -2.0 * lam * y[B] - K[np.ix_(B, N)] @ (w[N] * u[N]) - M @ u[B]
            u[B] += np.linalg.lstsq(M, rhs, rcond=None)[0]
            u = np.clip(u, -tau, 1.0 - tau)
            alpha_u, gap, ok = certify(u)
            best = min(best, gap)
        prev_band = band
        h /= 10.0

    if not ok:
        raise ConvergenceError(
            f"duality gap {best:.3e} above tolerance after {steps} Newton steps", gap=best
        )
    return Model(spec=spec, support=data.inputs, dual=u, alpha=alpha_u,
                 lam=lam, tau=tau, gap=gap)


def duality_gap(model: Model, data: DataSet) -> float:
    """Primal minus dual objective of the model's dual variables on data."""
    K = gram(model.spec, data.inputs).entries
    w = data.weight_vector()
    _, _, gap, _ = _primal_dual(K, data.responses, w, model.dual, model.alpha,
                                model.tau, model.lam)
    return gap


def objective(model: Model, data: DataSet) -> tuple[float, float]:
    """(shifted-loss objective, unshifted objective) of the model on data.

    The two differ by the zero predictor's risk, so they share the argmin.
    """
    w = data.weight_vector()
    f = model.predict(data.inputs)
    reg = model.lam * model.norm_sq()
    unshifted = float(np.sum(w * pinball(model.tau, data.responses, f))) + reg
    at_zero = float(np.sum(w * pinball(model.tau, data.responses, 0.0)))
    return unshifted - at_zero, unshifted
