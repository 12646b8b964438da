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

#: Floats per temporary over a group of stacked maps (128 KiB): each map
#: keeps its own row blocks, and the maps of a group go side by side.
_STACK_ELEMENTS = 16384

#: Most grid rows the rotation route carries between two direct
#: ``np.exp`` evaluations of the phases; each carried row adds about one
#: unit of round-off to every sine.
_ANCHOR_ROWS = 128


@dataclass(frozen=True, eq=False)
class RandomFeatureMap:
    """Frozen draw ``(W, b, s, N)`` of a random feature map, or a stack of them.

    A stack of ``B`` maps holds weights ``(B, N, d)`` and biases ``(B, N)``;
    ``d`` and ``n_features`` read the trailing axes.  Only
    :func:`empirical_lipschitz` takes a stack.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: Activation

    @property
    def n_features(self) -> int:
        return self.weights.shape[-2]

    @property
    def d(self) -> int:
        return self.weights.shape[-1]

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


def empirical_lipschitz(fm: RandomFeatureMap, grid: np.ndarray):
    """Grid maximum of the Jacobian operator norm.

    Returns ``(value, argmax point)``.  On a stack of ``B`` maps it returns
    a ``(B,)`` array of values and a ``(B, d)`` array of points, each
    with the bits that the map alone gives.  Ties break to the lowest
    grid index.  The value is a lower bound on the true Lipschitz
    constant of the map.  The grid is processed in row blocks whose
    temporaries hold about ``_BLOCK_ELEMENTS`` floats per map, and a
    stack's maps go side by side in groups whose temporaries hold at
    most ``_STACK_ELEMENTS`` floats.

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

    Both routes work on the stack's ``B N`` features side by side and end
    each row block in one stacked matrix-vector product, which makes the
    same BLAS call per map as a single map does.  ``d >= 2`` makes one
    stacked ``spectral_norm`` call per block.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidArgumentError("grid must be nonempty")
    if grid.ndim != 2 or grid.shape[1] != fm.d:
        raise InvalidArgumentError(f"grid has shape {grid.shape}, expected (n_points, {fm.d}) "
                                   f"for weights of shape {fm.weights.shape}")
    if not np.isfinite(grid).all():
        raise InvalidArgumentError(f"grid of shape {grid.shape} has non-finite entries")
    stacked = fm.weights.ndim == 3
    weights = fm.weights if stacked else fm.weights[None]
    biases = fm.biases if stacked else fm.biases[None]
    n_points, (maps, n, d) = grid.shape[0], weights.shape
    norms = np.empty((maps, n_points))
    if d == 1:
        w = weights[..., 0]
        amp = fm.activation.sine_amplitude
        h = _uniform_step(grid[:, 0]) if amp is not None else None
        if h is not None:
            rows = _rotation_rows(n)
            # numpy multiplies a one-element complex array in place by the
            # textbook formula, and longer ones with fused multiply-adds, so
            # maps of one feature go one at a time.
            per_map = 2 * min(rows, n_points) * n if n > 1 else _STACK_ELEMENTS
            for g in _map_groups(maps, per_map):
                _rotated_sine_norms(w[g], biases[g], amp, grid[0, 0], h, rows, norms[g])
        else:
            # Each block ends in one gemv per map.  OpenBLAS sums its rows in
            # groups of four, so blocks start at multiples of four: every row
            # is then summed as in one gemv over the whole grid.
            rows = max(4, _BLOCK_ELEMENTS // n // 4 * 4)
            for g in _map_groups(maps, min(rows, n_points) * n):
                w_sq = w[g]**2
                for lo, hi in _row_blocks(n_points, rows):
                    slopes = fm.activation.derivative(grid[lo:hi, :, None] * w[g] + biases[g])
                    _stacked_gemv(slopes**2, w_sq, norms[g, lo:hi])
        # Operator norm of an N x 1 Jacobian is its Euclidean norm.
        norms = np.sqrt(norms / n)
    else:
        rows = max(1, _BLOCK_ELEMENTS // (n * d))
        for g in _map_groups(maps, min(rows, n_points) * n * d):
            w, b = weights[g, None], biases[g, None]
            for lo, hi in _row_blocks(n_points, rows):
                # One gemv per point, as jacobian() does, so the bits match it.
                pre = np.matmul(w, grid[lo:hi, :, None])[..., 0] + b
                slopes = fm.activation.derivative(pre) / np.sqrt(n)
                jacobians = (slopes[..., None] * w).reshape(-1, n, d)
                norms[g, lo:hi] = spectral_norm(jacobians).reshape(-1, hi - lo)
    best = np.argmax(norms, axis=1)
    values = norms[np.arange(maps), best]
    if stacked:
        return values, grid[best]
    return float(values[0]), grid[best[0]]


def _map_groups(maps: int, per_map: int) -> list[slice]:
    """Consecutive groups of a stack's maps, so few that a temporary holding
    ``per_map`` floats per map stays within ``_STACK_ELEMENTS`` floats."""
    size = max(1, _STACK_ELEMENTS // per_map)
    return [slice(lo, lo + size) for lo in range(0, maps, size)]


def _stacked_gemv(a: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """``out[m, j] = a[j, m] @ v[m]`` for ``a`` of shape ``(k, B, N)``.

    One matrix-vector product per map ``m``, on the map's ``(k, N)`` slice:
    the BLAS call, and so the bits, of ``a[:, m] @ v[m]`` alone.
    """
    np.matmul(a.transpose(1, 0, 2), v[:, :, None], out=out[:, :, None])


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


def _rotation_rows(n: int) -> int:
    """Grid rows per block of the rotation route for maps of ``n`` features.

    A power of two, so every ``_ANCHOR_ROWS``-th row starts a block.  It
    depends on ``n`` alone, so a map's sines keep their bits in a stack.
    """
    rows = _ANCHOR_ROWS
    while rows > 1 and 2 * rows * n > _BLOCK_ELEMENTS:
        rows //= 2
    return rows


def _rotated_sine_norms(w, b, amp, x0, h, rows, out) -> None:
    """``out[m, j] = sum_i (amp sin(w_mi (x0 + j h) + b_mi))^2 w_mi^2`` by phase rotation.

    ``w`` and ``b`` hold one row of ``N`` features per map, and blocks of
    ``rows`` grid rows share one table of powers.
    """
    w_sq = w**2
    # powers[k] = exp(i k h w), for as many rows as a block uses.
    powers = np.empty((min(rows, out.shape[1]), *w.shape), dtype=complex)
    powers[0] = 1.0
    rot = np.exp(1j * (h * w))
    filled = 1
    while filled < len(powers):
        k = min(filled, len(powers) - filled)
        np.multiply(powers[:k], rot, out=powers[filled:filled + k])
        rot *= rot
        filled *= 2
    # rot is now exp(i rows h w), which carries a block's first row to the
    # next; with a single block it goes unused.
    phases = np.empty_like(powers)
    slopes_sq = np.empty(powers.shape)
    for lo in range(0, out.shape[1], rows):
        k = min(rows, out.shape[1] - lo)
        if lo % _ANCHOR_ROWS == 0:
            first = amp * np.exp(1j * (w * (x0 + lo * h) + b))
        else:
            first *= rot
        np.multiply(powers[:k], first, out=phases[:k])
        np.square(phases[:k].imag, out=slopes_sq[:k])
        _stacked_gemv(slopes_sq[:k], w_sq, out[:, lo:lo + k])


def default_grid_1d() -> np.ndarray:
    """The 99-point grid ``-1 + 2 j / 100`` for ``j = 1, ..., 99``."""
    j = np.arange(1, 100)
    return (-1.0 + 2.0 * j / 100.0)[:, None]
