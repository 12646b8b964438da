"""Finite random feature maps, empirical kernels and Jacobians.

A :class:`RandomFeatureMap` is a frozen draw of ``N`` weight rows and
biases; evaluation at ``x`` is ``(1 / sqrt(N)) s(W x + b)``.  All
evaluations are pure, so grids may be processed concurrently.
"""

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen draw ``(W, b, s, N)`` of a random feature map."""

    weights: np.ndarray
    biases: np.ndarray
    activation: Activation
    source: Optional[tuple[WeightDistribution, BiasDistribution, int]] = None

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
    return RandomFeatureMap(weights=w, biases=b, activation=act,
                            source=(dist, bias, int(seed)))


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
    the true Lipschitz constant of the map.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidArgumentError("grid must be nonempty")
    if fm.d == 1:
        # Operator norm of an N x 1 Jacobian is its Euclidean norm;
        # vectorized over the whole grid.
        pre = grid @ fm.weights.T + fm.biases
        slopes = fm.activation.derivative(pre)
        norms = np.sqrt((slopes**2 @ fm.weights[:, 0] ** 2) / fm.n_features)
        best = int(np.argmax(norms))
        return float(norms[best]), grid[best]
    best_value = -np.inf
    best_point = grid[0]
    for point in grid:
        value = spectral_norm(jacobian(fm, point))
        if value > best_value:
            best_value = value
            best_point = point
    return float(best_value), best_point


def default_grid_1d() -> np.ndarray:
    """The 99-point grid ``-1 + 2 j / 100`` for ``j = 1, ..., 99``."""
    j = np.arange(1, 100)
    return (-1.0 + 2.0 * j / 100.0)[:, None]
