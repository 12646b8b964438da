"""Finite random feature maps, empirical kernels and Jacobians.

A :class:`RandomFeatureMap` is a frozen draw of ``N`` weight rows and
biases; evaluation at ``x`` is ``(1 / sqrt(N)) s(W x + b)``.  All
evaluations are pure, so grids may be processed concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .kernels import (
    Activation,
    BiasDistribution,
    WeightDistribution,
    sample_weights,
)
from .numerics import spectral_norm

__all__ = [
    "RandomFeatureMap",
    "build_feature_map",
    "empirical_kernel",
    "jacobian",
    "empirical_lipschitz",
    "default_grid_1d",
]

#: Floats per temporary of :func:`empirical_lipschitz` (64 KiB).  Under
#: glibc's 128 KiB mmap threshold a temporary reuses heap memory; above
#: it, every allocation maps fresh pages and pays a fault for each one.
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen draw ``(W, b, s, N)`` of a random feature map."""

    weights: np.ndarray
    biases: np.ndarray
    activation: Activation

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Feature vector at a single point ``x``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise InvalidArgumentError(f"x has shape {x.shape}, expected ({self.d},)")
        pre = self.weights @ x + self.biases
        return self.activation.value(pre) / np.sqrt(self.n_features)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Feature matrix (n_points x N) for a batch of points."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        pre = xs @ self.weights.T + self.biases
        return self.activation.value(pre) / np.sqrt(self.n_features)


def build_feature_map(dist: WeightDistribution, bias: BiasDistribution,
                      act: Activation, n: int, seed: int) -> RandomFeatureMap:
    """Draw a feature map; bit-reproducible given the same seed."""
    w, b = sample_weights(dist, bias, n, seed)
    return RandomFeatureMap(weights=w, biases=b, activation=act)


def empirical_kernel(fm: RandomFeatureMap, x: np.ndarray, x2: np.ndarray) -> float:
    """Inner product ``k_N(x, x') = theta_N(x)^T theta_N(x')``."""
    return float(fm(x) @ fm(x2))


def jacobian(fm: RandomFeatureMap, x: np.ndarray) -> np.ndarray:
    """Exact analytic Jacobian at ``x`` (N x d).

    Row ``i`` is ``(1 / sqrt(N)) s'(w_i^T x + b_i) w_i``; the derivative
    is 0 at activation kinks by convention.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pre = fm.weights @ x + fm.biases
    slope = fm.activation.derivative(pre) / np.sqrt(fm.n_features)
    return slope[:, None] * fm.weights


def empirical_lipschitz(fm: RandomFeatureMap,
                        grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Grid maximum of the Jacobian operator norm.

    Ties break to the lowest grid index.  The value is a lower bound on
    the true Lipschitz constant of the map.  The grid is processed in
    row blocks whose temporaries hold about ``_BLOCK_ELEMENTS`` floats;
    every norm has the bits that one unblocked pass over the grid gives.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidArgumentError("grid must be nonempty")
    if grid.ndim != 2 or grid.shape[1] != fm.d:
        raise InvalidArgumentError(f"grid has shape {grid.shape}, expected (n_points, {fm.d}) "
                                   f"for weights of shape {fm.weights.shape}")
    if not np.isfinite(grid).all():
        raise InvalidArgumentError(f"grid of shape {grid.shape} has non-finite entries")
    n_points, n, d = grid.shape[0], fm.n_features, fm.d
    norms = np.empty(n_points)
    if d == 1:
        # Each block ends in one gemv.  OpenBLAS sums its rows in groups
        # of four, so blocks start at multiples of four: every row is
        # then summed as in one gemv over the whole grid.
        rows = max(4, _BLOCK_ELEMENTS // n // 4 * 4)
        w = fm.weights[:, 0]
        w_sq = w**2
        for lo, hi in _row_blocks(n_points, rows):
            slopes = fm.activation.derivative(grid[lo:hi] * w + fm.biases)
            np.matmul(slopes**2, w_sq, out=norms[lo:hi])
        # Operator norm of an N x 1 Jacobian is its Euclidean norm.
        norms = np.sqrt(norms / n)
    else:
        for lo, hi in _row_blocks(n_points, max(1, _BLOCK_ELEMENTS // (n * d))):
            # One gemv per point, as jacobian() does, so the bits match it.
            pre = np.matmul(fm.weights, grid[lo:hi, :, None])[..., 0] + fm.biases
            slopes = fm.activation.derivative(pre) / np.sqrt(n)
            norms[lo:hi] = spectral_norm(slopes[:, :, None] * fm.weights)
    best = int(np.argmax(norms))
    return float(norms[best]), grid[best]


def _row_blocks(n_points: int, rows: int):
    """``(lo, hi)`` bounds of consecutive blocks of ``rows`` grid rows.

    A lone last row joins the block before it: numpy computes a one-row
    matrix-vector product as a dot, which sums in another order.
    """
    starts = list(range(0, n_points, rows))
    if len(starts) > 1 and n_points - starts[-1] == 1:
        starts.pop()
    return zip(starts, [*starts[1:], n_points])


def default_grid_1d() -> np.ndarray:
    """The 99-point grid ``-1 + 2 j / 100`` for ``j = 1, ..., 99``."""
    j = np.arange(1, 100)
    return (-1.0 + 2.0 * j / 100.0)[:, None]
