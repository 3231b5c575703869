"""Mercer kernels with additive/product composition over coordinate blocks.

A kernel spec is a small declarative object: either a base kernel acting on
one coordinate block, or a composite (sum or product of per-block kernels)
acting on the concatenation of the blocks.  Points are flat row-major float
arrays; block ``j`` owns the contiguous coordinate range given by the layout.

Specs serialize to/from JSON with fixed field names so that model files are
stable:

    {"type": "gaussian", "sigma": 1.0}
    {"type": "sobolev_min"}
    {"type": "additive", "dims": [1, 1], "components": [...]}
    {"type": "product",  "dims": [1, 1], "components": [...]}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "BlockLayout",
    "KernelSpec",
    "Gaussian",
    "SobolevMin",
    "Additive",
    "Product",
    "GramMatrix",
    "gram",
    "cross_gram",
    "rkhs_norm_sq",
    "spec_to_dict",
    "spec_from_dict",
]


@dataclass(frozen=True)
class BlockLayout:
    """Contiguous partition of ``d`` coordinates into ``s`` ordered blocks."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise ValueError("layout needs at least one block")
        if any(d < 1 for d in dims):
            raise ValueError(f"block widths must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def slices(self) -> list[slice]:
        """Column slice of each block in a row-major point array."""
        out, start = [], 0
        for d in self.dims:
            out.append(slice(start, start + d))
            start += d
        return out


class KernelSpec:
    """Base class for kernel specs.  Subclasses implement the hooks below."""

    def eval(self, x, xp) -> float:
        """Kernel value k(x, xp) for two single points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xp = np.atleast_1d(np.asarray(xp, dtype=float))
        if x.shape != xp.shape:
            raise ValueError(f"point dimensions differ: {x.shape} vs {xp.shape}")
        return float(self._cross(_as_points(x[None, :], self), _as_points(xp[None, :], self))[0, 0])

    def __call__(self, x, xp) -> float:
        return self.eval(x, xp)

    def kappa(self) -> float:
        """Sum over blocks of sup_x sqrt(k_j(x, x)); bounds sup |k| by kappa^2."""
        raise NotImplementedError

    def dim(self) -> int | None:
        """Required input dimension, or None if any dimension is accepted."""
        raise NotImplementedError

    def _cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel matrix between rows of A (n x d) and rows of B (m x d).

        Points are finite (see ``_as_points``); ``B is A`` asks for a Gram matrix.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(KernelSpec):
    """k(u, v) = exp(-|u - v|^2 / sigma^2) on any-dimensional inputs."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def kappa(self) -> float:
        return 1.0

    def dim(self) -> int | None:
        return None

    def _cross(self, A, B):
        if A.shape[1] == 1:
            # (a - b)^2: one pass, exactly symmetric for a Gram, and exactly 0
            # (so k = 1) on its diagonal
            sq = np.subtract.outer(A[:, 0], B[:, 0])
            sq *= sq
        else:
            # |a|^2 + |b|^2 - 2 a.b: one dgemm and four passes whatever d is,
            # where differences would take three passes per coordinate
            sq = -2.0 * (A @ B.T)
            sq += np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
            np.maximum(sq, 0.0, out=sq)
            if B is A:  # the dgemm need not round a Gram symmetrically
                sq = 0.5 * (sq + sq.T)
        sq /= -self.sigma**2
        return np.exp(sq, out=sq)


@dataclass(frozen=True)
class SobolevMin(KernelSpec):
    """k(u, v) = 1 + min(u, v), the first-order Sobolev kernel on [0, 1]."""

    def kappa(self) -> float:
        return np.sqrt(2.0)

    def dim(self) -> int | None:
        return 1

    def _cross(self, A, B):
        if A.shape[1] != 1:
            raise ValueError("sobolev_min kernel is univariate")
        return 1.0 + np.minimum(A[:, 0][:, None], B[:, 0][None, :])


class _Composite(KernelSpec):
    layout: BlockLayout
    components: tuple[KernelSpec, ...]

    def _validate(self):
        if len(self.components) != self.layout.n_blocks:
            raise ValueError(
                f"{self.layout.n_blocks} blocks but {len(self.components)} components"
            )
        for spec, width in zip(self.components, self.layout.dims):
            want = spec.dim()
            if want is not None and want != width:
                raise ValueError(
                    f"component {type(spec).__name__} needs dimension {want}, "
                    f"block has width {width}"
                )

    def dim(self) -> int | None:
        return self.layout.total_dim

    def _block_crosses(self, A, B):
        for spec, sl in zip(self.components, self.layout.slices()):
            a = A[:, sl]
            yield spec._cross(a, a if B is A else B[:, sl])


@dataclass(frozen=True)
class Additive(_Composite):
    """Sum of per-block kernels: k(x, x') = sum_j k_j(x_j, x'_j)."""

    layout: BlockLayout
    components: tuple[KernelSpec, ...]

    def __init__(self, layout: BlockLayout, components: Sequence[KernelSpec]):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "components", tuple(components))
        self._validate()

    def kappa(self) -> float:
        return sum(c.kappa() for c in self.components)

    def _cross(self, A, B):
        out = None
        for blk in self._block_crosses(A, B):
            out = blk if out is None else np.add(out, blk, out=out)
        return out


@dataclass(frozen=True)
class Product(_Composite):
    """Product of per-block kernels: k(x, x') = prod_j k_j(x_j, x'_j)."""

    layout: BlockLayout
    components: tuple[KernelSpec, ...]

    def __init__(self, layout: BlockLayout, components: Sequence[KernelSpec]):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "components", tuple(components))
        self._validate()

    def kappa(self) -> float:
        out = 1.0
        for c in self.components:
            out *= c.kappa()
        return out

    def _cross(self, A, B):
        out = None
        for blk in self._block_crosses(A, B):
            out = blk if out is None else np.multiply(out, blk, out=out)
        return out


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD matrix of pairwise kernel values on a point set."""

    entries: np.ndarray
    spec: KernelSpec
    points: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_points(points, spec: KernelSpec) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"expected an n x d point array, got shape {X.shape}")
    if X.shape[1] < 1:
        raise ValueError("points need at least one coordinate")
    want = spec.dim()
    if want is not None and X.shape[1] != want:
        raise ValueError(f"kernel expects dimension {want}, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite coordinates")
    return X


def cross_gram(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Kernel matrix between two point sets (rows of a vs rows of b)."""
    A = _as_points(points_a, spec)
    B = _as_points(points_b, spec)
    if A.shape[1] != B.shape[1]:
        raise ValueError("point sets have different dimensions")
    K = spec._cross(A, B)
    # finite points can still overflow, e.g. a sum of 1 + min blocks at -1e308
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel matrix has non-finite entries")
    return K


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix K[i, l] = k(x_i, x_l), exactly symmetric."""
    X = _as_points(points, spec)
    K = spec._cross(X, X)
    if not np.all(np.isfinite(K)):
        raise ValueError("gram matrix has non-finite entries")
    return GramMatrix(entries=K, spec=spec, points=X)


def rkhs_norm_sq(coeffs, gram_matrix: GramMatrix | np.ndarray) -> float:
    """Squared norm c'Kc of the expansion f = sum_i c_i k(x_i, .).

    Tiny negative values from round-off are clamped to zero.
    """
    K = gram_matrix.entries if isinstance(gram_matrix, GramMatrix) else np.asarray(gram_matrix)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (K.shape[0],):
        raise ValueError(f"coefficient length {c.shape} does not match gram size {K.shape[0]}")
    q = float(c @ K @ c)
    if q < -1e-8:
        raise ValueError(f"expansion norm came out negative ({q}); gram is not PSD")
    return max(q, 0.0)


def spec_to_dict(spec: KernelSpec) -> dict:
    """JSON-ready dict with the fixed on-disk field names."""
    if isinstance(spec, Gaussian):
        return {"type": "gaussian", "sigma": spec.sigma}
    if isinstance(spec, SobolevMin):
        return {"type": "sobolev_min"}
    if isinstance(spec, (Additive, Product)):
        return {
            "type": "additive" if isinstance(spec, Additive) else "product",
            "dims": list(spec.layout.dims),
            "components": [spec_to_dict(c) for c in spec.components],
        }
    raise ValueError(f"unknown kernel spec {type(spec).__name__}")


def spec_from_dict(obj: dict) -> KernelSpec:
    """Inverse of :func:`spec_to_dict`."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("kernel spec must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "gaussian":
        return Gaussian(sigma=float(obj.get("sigma", 1.0)))
    if kind == "sobolev_min":
        return SobolevMin()
    if kind in ("additive", "product"):
        layout = BlockLayout(obj["dims"])
        components = [spec_from_dict(c) for c in obj["components"]]
        cls = Additive if kind == "additive" else Product
        return cls(layout, components)
    raise ValueError(f"unknown kernel type {kind!r}")
