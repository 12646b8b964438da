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

#: Most grid rows the rotation route carries between two direct
#: ``np.exp`` evaluations of the phases; each carried row adds about one
#: unit of round-off to every sine.
_ANCHOR_ROWS = 128


@dataclass(frozen=True, eq=False)
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
    row blocks whose temporaries hold about ``_BLOCK_ELEMENTS`` floats.

    Two routes serve ``d = 1``:

    - the rotation route, taken when the activation is a sinusoid
      (``s'(u) = -a sin u``, so ``activation.sine_amplitude`` is set)
      and the grid is uniform to round-off: ``|x_j - (x_0 + j h)| <=
      4 eps max|x|`` with ``h = (x_last - x_0) / (n_points - 1)``.  It
      evaluates the norm at ``x_0 + j h`` and reads each ``a sin(u)`` as
      the imaginary part of ``a exp(i u)``.  Those phases are complex
      products, not ``np.sin`` calls: a direct ``np.exp`` at least every
      ``_ANCHOR_ROWS`` rows, a table ``exp(i k h w)`` built by repeated
      squaring, and each block's first row carried from the block
      before.  Each sine is off by at most about ``_ANCHOR_ROWS``
      round-off units, so a norm agrees with the ``np.sin`` route to
      about 1e-15 relative (1e-14 at worst on 5,000-point grids).  Only
      a maximum whose sines are all near 0 loses relative accuracy, and
      there the ``np.sin`` route's own argument round-off does too;
    - the derivative route, for every other activation and grid: it
      calls ``activation.derivative`` (``np.sin`` for cosine features),
      and each norm has the bits that one unblocked pass gives.

    ``d >= 2`` makes one stacked ``spectral_norm`` call per block.
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
        w = fm.weights[:, 0]
        w_sq = w**2
        amp = fm.activation.sine_amplitude
        h = _uniform_step(grid[:, 0]) if amp is not None else None
        if h is not None:
            _rotated_sine_norms(w, fm.biases, amp, grid[0, 0], h, w_sq, norms)
        else:
            # Each block ends in one gemv.  OpenBLAS sums its rows in groups
            # of four, so blocks start at multiples of four: every row is
            # then summed as in one gemv over the whole grid.
            rows = max(4, _BLOCK_ELEMENTS // n // 4 * 4)
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


def _uniform_step(x: np.ndarray):
    """Spacing ``h`` of a grid with ``x_j = x_0 + j h`` to round-off, else None."""
    if x.size < 2:
        return None
    x0, x_last = float(x[0]), float(x[-1])
    h = (x_last - x0) / (x.size - 1)
    deviation = np.abs(x - (np.arange(x.size) * h + x0)).max()
    # On a uniform grid max|x| sits at an end; elsewhere this bound is tighter.
    return h if deviation <= 4.0 * np.finfo(float).eps * max(abs(x0), abs(x_last)) else None


def _rotated_sine_norms(w, b, amp, x0, h, w_sq, out) -> None:
    """``out[j] = sum_i (amp sin(w_i (x0 + j h) + b_i))^2 w_i^2`` by phase rotation."""
    n = w.size
    # A power of two, so every _ANCHOR_ROWS-th row starts a block.
    rows = _ANCHOR_ROWS
    while rows > 1 and 2 * rows * n > _BLOCK_ELEMENTS:
        rows //= 2
    powers = np.empty((rows, n), dtype=complex)  # powers[k] = exp(i k h w)
    powers[0] = 1.0
    rot = np.exp(1j * (h * w))
    filled = 1
    while filled < rows:
        np.multiply(powers[:filled], rot, out=powers[filled:2 * filled])
        rot *= rot
        filled *= 2
    # rot is now exp(i rows h w), which carries a block's first row to the next.
    phases = np.empty_like(powers)
    slopes_sq = np.empty((rows, n))
    for lo in range(0, out.size, rows):
        k = min(rows, out.size - lo)
        if lo % _ANCHOR_ROWS == 0:
            first = amp * np.exp(1j * (w * (x0 + lo * h) + b))
        else:
            first *= rot
        np.multiply(powers[:k], first, out=phases[:k])
        np.square(phases[:k].imag, out=slopes_sq[:k])
        np.matmul(slopes_sq[:k], w_sq, out=out[lo:lo + k])


def default_grid_1d() -> np.ndarray:
    """The 99-point grid ``-1 + 2 j / 100`` for ``j = 1, ..., 99``."""
    j = np.arange(1, 100)
    return (-1.0 + 2.0 * j / 100.0)[:, None]
