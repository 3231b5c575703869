"""Fit conditional quantiles of a noisy additive model.

Draws data from y = f1(x1) + f2(x2) + noise, fits three quantile levels with
an additive Gaussian kernel, and checks the defining property of a quantile
fit: roughly a tau-fraction of responses fall below the fitted surface.
"""

import numpy as np

from kqreg import (
    Additive,
    BlockLayout,
    DataSet,
    Gaussian,
    empirical_risk,
    fit,
)

rng = np.random.default_rng(0)
n = 300
X = rng.random((n, 2))
target = np.exp(-((X[:, 0] - 0.3) ** 2)) + 0.5 * np.sin(2 * np.pi * X[:, 1])
y = target + rng.uniform(-0.4, 0.4, size=n)
data = DataSet(inputs=X, responses=y)

layout = BlockLayout([1, 1])
spec = Additive(layout, [Gaussian(sigma=1.0), Gaussian(sigma=1.0)])
lam = n ** (-4.0 / 3.0)

print(f"n = {n}, lambda = {lam:.2e}")
print(f"{'tau':>5} {'below fit':>10} {'pinball risk':>13} {'norm':>8} {'gap':>9}")
for tau in (0.1, 0.5, 0.9):
    model = fit(spec, data, lam=lam, tau=tau)
    preds = model.predict(X)
    frac_below = np.mean(y <= preds)
    risk = empirical_risk(tau, preds, data)
    print(
        f"{tau:5.2f} {frac_below:10.3f} {risk:13.5f} "
        f"{model.norm_sq() ** 0.5:8.3f} {model.gap:9.1e}"
    )

print()
print("The fitted surfaces nest: higher tau lies above lower tau on a grid.")
grid = rng.random((5, 2))
curves = {
    tau: fit(spec, data, lam=lam, tau=tau).predict(grid)
    for tau in (0.1, 0.5, 0.9)
}
for i, x in enumerate(grid):
    q10, q50, q90 = curves[0.1][i], curves[0.5][i], curves[0.9][i]
    print(f"  x = ({x[0]:.2f}, {x[1]:.2f}):  q10 = {q10:+.3f}  q50 = {q50:+.3f}  q90 = {q90:+.3f}")
