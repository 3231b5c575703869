"""Output checks that share no code with kqreg.

Every check here recomputes what the program claims from first principles:
its own Gaussian and ``1 + min`` kernels (direct ``exp(-(a - b)^2 / s^2)``
per coordinate, not the program's expanded ``|a|^2 + |b|^2 - 2ab`` form), its
own pinball loss, its own least-squares slope and its own log-gamma form of
the Example's series.  Each check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

BOX_SLACK = 1e-12  # round-off allowed when a dual recovered from alpha is box-checked
GAP_FLOOR = -1e-12  # weak duality: primal - dual may undershoot zero only by round-off


# --- kernels, read from the model file's kernel JSON --------------------------

def _block_matrix(spec: dict, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    kind = spec["type"]
    if kind == "gaussian":
        sq = np.zeros((A.shape[0], B.shape[0]))
        for c in range(A.shape[1]):
            sq += (A[:, c][:, None] - B[:, c][None, :]) ** 2
        return np.exp(-sq / float(spec["sigma"]) ** 2)
    if kind == "sobolev_min":
        return 1.0 + np.minimum(A[:, 0][:, None], B[:, 0][None, :])
    if kind in ("additive", "product"):
        out = None
        start = 0
        for width, comp in zip(spec["dims"], spec["components"]):
            blk = _block_matrix(comp, A[:, start:start + width], B[:, start:start + width])
            start += width
            if out is None:
                out = blk
            elif kind == "additive":
                out = out + blk
            else:
                out = out * blk
        return out
    raise ValueError(f"unknown kernel type {kind!r}")


def kernel_matrix(spec: dict, A, B) -> np.ndarray:
    """k(a_i, b_l) for a kernel spec in the model-file JSON schema."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return _block_matrix(spec, A, B)


def pinball(tau: float, y, t) -> np.ndarray:
    """Check loss rho_tau(y - t), written as max((tau - 1)(y - t), tau (y - t))."""
    r = np.asarray(y, dtype=float) - np.asarray(t, dtype=float)
    return np.maximum((tau - 1.0) * r, tau * r)


def model_arrays(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """(support points, alpha) of a model file."""
    sup = model["support"]
    X = np.asarray(sup["points"], dtype=float).reshape(sup["n"], sup["d"])
    return X, np.asarray(model["alpha"], dtype=float)


# --- csv_roundtrip -------------------------------------------------------------

def check_predictions(models: list[dict], X, preds: list, rtol: float = 1e-10,
                      chunk: int = 512) -> list[str]:
    """Each model's predictions on X equal sum_i alpha_i k(x_i, x) to rtol,
    relative to sum_i |alpha_i k(x_i, x)| (the sum's own scale, so cancellation
    is fair).  Models that share kernel and support share one kernel matrix.
    Rows go in small chunks so that the check's memory stays well below the
    program's and does not set the run's peak."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    problems = []
    groups: dict[str, list[int]] = {}
    for i, model in enumerate(models):
        p = np.asarray(preds[i], dtype=float)
        if p.shape != (X.shape[0],):
            problems.append(f"model {i}: {p.shape[0]} predictions for {X.shape[0]} rows")
            continue
        key = json.dumps([model["kernel"], model["support"]], sort_keys=True)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        support, _ = model_arrays(models[members[0]])
        alphas = np.stack([model_arrays(models[i])[1] for i in members], axis=1)
        got = np.stack([np.asarray(preds[i], dtype=float) for i in members], axis=1)
        worst = np.zeros(len(members))
        worst_row = np.full(len(members), -1)
        for start in range(0, X.shape[0], chunk):
            K = kernel_matrix(models[members[0]]["kernel"], X[start:start + chunk], support)
            ref = K @ alphas
            scale = np.abs(K) @ np.abs(alphas)
            err = np.abs(got[start:start + chunk] - ref) / np.maximum(scale, 1e-300)
            err[~np.isfinite(got[start:start + chunk])] = np.inf
            rows = np.argmax(err, axis=0)
            for j, r in enumerate(rows):
                if err[r, j] > worst[j]:
                    worst[j], worst_row[j] = err[r, j], start + r
        for j, i in enumerate(members):
            if worst[j] > rtol:
                problems.append(f"model {i}: prediction row {worst_row[j]} off by "
                                f"{worst[j]:.3e} relative (limit {rtol:g})")
    return problems


def primal_dual(model: dict, X, y, w, u) -> tuple[float, float]:
    """(primal, dual) objectives of the model's alpha and dual u on weighted data."""
    support, alpha = model_arrays(model)
    lam, tau = float(model["lambda"]), float(model["tau"])
    K = kernel_matrix(model["kernel"], X, support)
    f = K @ alpha
    reg = lam * float(alpha @ kernel_matrix(model["kernel"], support, support) @ alpha)
    primal = float(np.sum(w * pinball(tau, y, f))) + reg
    dual = float(-np.sum(w * u * y)) - reg
    return primal, dual


def _box_problems(u, tau: float, what: str) -> list[str]:
    u = np.asarray(u, dtype=float)
    lo, hi = float(np.min(u)), float(np.max(u))
    if lo < -tau - BOX_SLACK or hi > 1.0 - tau + BOX_SLACK:
        return [f"{what} spans [{lo:.6g}, {hi:.6g}], outside the box "
                f"[{-tau:g}, {1.0 - tau:g}]"]
    return []


def _gap_problems(primal: float, dual: float, gap_tol: float, what: str) -> list[str]:
    gap = primal - dual
    limit = gap_tol * (1.0 + abs(dual))
    if not (GAP_FLOOR <= gap <= limit):
        return [f"{what}: primal - dual = {gap:.3e}, outside [{GAP_FLOOR:g}, {limit:.3e}]"]
    return []


def check_certificate(model: dict, X, y, w, gap_tol: float) -> list[str]:
    """Recompute a fit's certificate from the model file and its training data:
    u = -2 lambda alpha / w lies in the box and primal - dual is within tolerance."""
    _, alpha = model_arrays(model)
    lam, tau = float(model["lambda"]), float(model["tau"])
    w = np.asarray(w, dtype=float)
    u = -2.0 * lam * alpha / w
    problems = _box_problems(u, tau, "recovered dual")
    primal, dual = primal_dual(model, X, y, w, u)
    return problems + _gap_problems(primal, dual, gap_tol, "certificate")


def check_recertification(model: dict, X, y, w, loaded_dual, program_gap: float,
                          gap_tol: float) -> list[str]:
    """The program's own recertification of a loaded model: its dual lies in the
    box and the gap it reports is the one this module computes for that dual,
    within [-1e-12, gap_tol (1 + |D|)]."""
    tau = float(model["tau"])
    problems = _box_problems(loaded_dual, tau, "loaded dual")
    primal, dual = primal_dual(model, X, y, w, np.asarray(loaded_dual, dtype=float))
    problems += _gap_problems(primal, dual, gap_tol, "recertified gap")
    if not abs(program_gap - (primal - dual)) <= 1e-9 * (1.0 + abs(dual)):
        problems.append(f"program gap {program_gap:.6e} differs from recomputed "
                        f"{primal - dual:.6e}")
    return problems


# --- rate_experiment -----------------------------------------------------------

def ols_slope(x, y) -> float:
    """Least-squares slope of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def check_rate_results(rows: list[dict], raw_rows: list[dict], summary: list[dict],
                       kernels: tuple[str, ...], n_grid: tuple[int, ...],
                       slope_gate: float = -0.3) -> list[str]:
    """Rows of results.csv / results_raw.csv and summary.csv as read by csv.DictReader."""
    problems = []
    want = len(kernels) * len(n_grid)
    if len(rows) != want or len(raw_rows) != want:
        problems.append(f"expected {want} rows, got {len(rows)} clipped and {len(raw_rows)} raw")
    for r, raw in zip(rows, raw_rows):
        tag = f"{r['kernel']} n={r['n']} seed={r['seed']}"
        clipped, unclipped = float(r["excess"]), float(raw["excess"])
        if not (math.isfinite(clipped) and math.isfinite(unclipped)):
            problems.append(f"{tag}: excess not finite (job did not converge)")
        elif clipped < 0 or unclipped < 0:
            problems.append(f"{tag}: negative excess {clipped!r} / {unclipped!r}")
        elif clipped > unclipped:
            problems.append(f"{tag}: clipped excess {clipped!r} above raw {unclipped!r}")
    slopes = {s["kernel"]: float(s["slope"]) for s in summary}
    for kernel in kernels:
        means = []
        for n in n_grid:
            vals = [float(r["excess"]) for r in rows
                    if r["kernel"] == kernel and int(r["n"]) == n]
            vals = [v for v in vals if math.isfinite(v)]
            if vals and sum(vals) > 0:
                means.append((n, sum(vals) / len(vals)))
        if kernel not in slopes:
            problems.append(f"summary.csv has no {kernel} slope")
            continue
        if len(means) < 3:
            problems.append(f"{kernel}: only {len(means)} n-values with positive excess")
            continue
        mine = ols_slope([math.log(n) for n, _ in means], [math.log(e) for _, e in means])
        if not abs(slopes[kernel] - mine) <= 1e-9 * max(1.0, abs(mine)):
            problems.append(f"{kernel}: summary slope {slopes[kernel]!r} but OLS on "
                            f"per-n means gives {mine!r}")
    if "additive" in slopes and not slopes["additive"] <= slope_gate:
        problems.append(f"additive slope {slopes['additive']:.4f} above {slope_gate}")
    return problems


# --- verify_suites -------------------------------------------------------------

def series_partial_sum(M: int) -> float:
    """S_M = sum_{m=0}^{M} Gamma(2m+1) / (4^m Gamma(m+1)^2), term by term in log space."""
    log4 = math.log(4.0)
    return math.fsum(
        math.exp(math.lgamma(2 * m + 1) - m * log4 - 2.0 * math.lgamma(m + 1))
        for m in range(M + 1)
    )


def check_series(rows: list[dict], M: int) -> list[str]:
    """The example1 report's S_M (row 'S_<M>_asymptote') against series_partial_sum."""
    case = f"S_{M}_asymptote"
    hit = [r for r in rows if r["case"] == case]
    if len(hit) != 1:
        return [f"example1 report has no row {case}"]
    got, ref = float(hit[0]["lhs"]), series_partial_sum(M)
    if not abs(got - ref) <= 1e-9 * abs(ref):
        return [f"example1 S_{M} = {got!r}, log-gamma sum gives {ref!r}"]
    return []


def _example1_row_ok(r: dict) -> bool:
    lhs, rhs = float(r["lhs"]), float(r["rhs"])
    if r["case"] == "additive_norm":
        return lhs == 1.0
    if r["case"].startswith("partial_sums_dominate"):
        return lhs >= 0.0
    return abs(lhs - rhs) <= 0.02 * rhs


def _capacity_row_ok(r: dict) -> bool:
    count, bound = float(r["log_count"]), float(r["bound"])
    if r["block_id"] == "coverage":
        return count <= bound
    return abs(count - bound) <= 1e-12


# Each suite's pass rule on its report columns, as the suite documents it.
_ROW_RULES = {
    "lemma2": lambda r: float(r["lhs"]) <= float(r["rhs"]) + 1e-9,
    "approx": lambda r: float(r["lhs"]) <= float(r["rhs"]) + 1e-6,
    "solver": lambda r: float(r["lhs"]) <= float(r["rhs"]),
    "example1": _example1_row_ok,
    "capacity": _capacity_row_ok,
}


def check_suite_report(suite: str, rows: list[dict], expected_rows: int) -> list[str]:
    """Every row of a verification report passes its documented rule, and says so."""
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{suite}: {len(rows)} rows, expected {expected_rows}")
    rule = _ROW_RULES[suite]
    for r in rows:
        label = r.get("case") or f"{r['block_id']}@{r['eps']}"
        if r["pass"] != "True" or not rule(r):
            problems.append(f"{suite}: row {label} fails ({r})")
    return problems
