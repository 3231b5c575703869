"""Empirical covering nets for RKHS balls on finite point sets.

On m fixed points, the trace of the ball {f : ||f||_H <= R} is the ellipsoid
{K c : c' K c <= R^2} of value-vectors, equivalently the image of the
Euclidean R-ball under V diag(sqrt(eig)) from the Gram eigendecomposition.
Nets are built greedily (farthest-point insertion) over a dense seeded sample
of that ellipsoid, so per-block net sizes are estimates, not exact covering
numbers.  What is exact is the combination step: summing one center per block
covers the additive ball at the summed radius, and the product-count identity
|additive net| = prod_j |block net_j| holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import BlockLayout, KernelSpec, gram

__all__ = [
    "EmpiricalNet",
    "empirical_distance",
    "cover_ball",
    "additive_net",
    "sample_ball_values",
    "sample_additive_ball",
    "nearest_center",
]

_DEFAULT_SAMPLES = 20000
# greedy insertion runs at this fraction of the claimed radius so that fresh
# draws (not part of the generating sample) still land within the net
_DEFAULT_MARGIN = 0.7


@dataclass(frozen=True)
class EmpiricalNet:
    """Centers (value-vectors on the evaluation points) covering a ball."""

    centers: np.ndarray = field(repr=False)  # (n_centers, m)
    radius: float
    points: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def empirical_distance(f_vals, g_vals) -> float:
    """Root-mean-square difference of two value vectors."""
    f = np.asarray(f_vals, dtype=float).ravel()
    g = np.asarray(g_vals, dtype=float).ravel()
    if f.shape != g.shape:
        raise ValueError(f"value vectors differ in length: {f.shape} vs {g.shape}")
    return float(np.sqrt(np.mean((f - g) ** 2)))


def _ball_factor(spec: KernelSpec, points) -> np.ndarray:
    """Map a -> values taking the Euclidean unit ball onto the unit-ball trace."""
    K = gram(spec, points).entries
    vals, vecs = np.linalg.eigh(K)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > 1e-12 * max(vals[0], 1.0)
    return vecs[:, keep] * np.sqrt(vals[keep])[None, :]


def _unit_ball_coeffs(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the Euclidean unit ball of the given dimension."""
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.random((n, 1)) ** (1.0 / dim)
    return g / norms * radii


def sample_ball_values(
    spec: KernelSpec, points, R: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Value-vectors of n functions drawn uniformly from the R-ball's trace."""
    factor = _ball_factor(spec, points)
    if R == 0 or factor.shape[1] == 0:
        return np.zeros((n, np.asarray(points).shape[0]))
    return R * (_unit_ball_coeffs(factor.shape[1], n, rng) @ factor.T)


def _greedy_net(values: np.ndarray, target: float) -> np.ndarray:
    """Farthest-point insertion until every sample is within target (RMS)."""
    n, m = values.shape
    scale = np.sqrt(m)
    centers = [0]
    dist = np.linalg.norm(values - values[0], axis=1) / scale
    while True:
        far = int(np.argmax(dist))
        if dist[far] <= target:
            break
        centers.append(far)
        new = np.linalg.norm(values - values[far], axis=1) / scale
        np.minimum(dist, new, out=dist)
    return values[np.asarray(centers, dtype=int)]


def cover_ball(
    spec: KernelSpec,
    points,
    R: float,
    eps: float,
    seed: int = 0,
    n_samples: int = _DEFAULT_SAMPLES,
    margin: float = _DEFAULT_MARGIN,
) -> EmpiricalNet:
    """Greedy net over a seeded sample of the R-ball's trace on ``points``.

    The net is built at ``margin * eps`` over the sample and claims radius
    ``eps``; the size is a covering-number estimate.  Scaling is exact by
    construction: the (R, eps) net has the same size as the unit-ball net at
    eps / R for the same seed.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if R < 0:
        raise ValueError(f"radius must be nonnegative, got {R}")
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if R == 0:
        return EmpiricalNet(centers=np.zeros((1, P.shape[0])), radius=eps, points=P)
    rng = np.random.default_rng(seed)
    unit_values = sample_ball_values(spec, P, 1.0, n_samples, rng)
    centers = R * _greedy_net(unit_values, margin * eps / R)
    return EmpiricalNet(centers=centers, radius=eps, points=P)


def additive_net(nets: list[EmpiricalNet], full_points=None) -> EmpiricalNet:
    """Combine per-block nets: every sum of one center per block.

    Covers the additive ball at the summed radius; the center count is the
    exact product of the block counts.
    """
    if not nets:
        raise ValueError("need at least one block net")
    m = nets[0].centers.shape[1]
    for net in nets[1:]:
        if net.centers.shape[1] != m:
            raise ValueError("block nets evaluate on different point counts")
    combined = nets[0].centers
    for net in nets[1:]:
        combined = (combined[:, None, :] + net.centers[None, :, :]).reshape(-1, m)
    radius = float(sum(net.radius for net in nets))
    points = nets[0].points if full_points is None else np.asarray(full_points, dtype=float)
    return EmpiricalNet(centers=combined, radius=radius, points=points)


def sample_additive_ball(
    specs: list[KernelSpec],
    layout: BlockLayout,
    points,
    n: int,
    seed: int = 0,
    radii: list[float] | None = None,
) -> list[np.ndarray]:
    """Per-block value-vectors of n functions f = sum_j f_j with block norms
    at most the given radii (default 1).  Sum the list to get the additive
    function values."""
    P = np.asarray(points, dtype=float)
    if radii is None:
        radii = [1.0] * layout.n_blocks
    rng = np.random.default_rng(seed)
    out = []
    for spec, sl, R in zip(specs, layout.slices(), radii):
        out.append(sample_ball_values(spec, P[:, sl], R, n, rng))
    return out


def nearest_center(net: EmpiricalNet, values) -> tuple[np.ndarray, np.ndarray]:
    """Index of each row's nearest center (the first on ties) and the
    empirical distance to it."""
    V = np.atleast_2d(np.asarray(values, dtype=float))
    rows = np.arange(V.shape[0])
    index = np.zeros(V.shape[0], dtype=int)
    best = np.full(V.shape[0], np.inf)
    # chunk the centers to bound the (rows, centers, m) difference array
    step = max(1, int(4e6) // max(V.size, 1))
    for start in range(0, net.size, step):
        diffs = V[:, None, :] - net.centers[None, start : start + step, :]
        norms = np.linalg.norm(diffs, axis=2)
        j = np.argmin(norms, axis=1)
        near = norms[rows, j]
        closer = near < best
        index[closer] = start + j[closer]
        best[closer] = near[closer]
    return index, best / np.sqrt(V.shape[1])
