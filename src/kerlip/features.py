"""Finite random feature maps, empirical kernels and Jacobians.

A :class:`RandomFeatureMap` is a frozen draw of ``N`` weight rows and
biases; evaluation at ``x`` is ``(1 / sqrt(N)) s(W x + b)``.  All
evaluations are pure, so grids may be processed concurrently.
"""

import math
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

#: Most grid rows the double-angle route carries between two direct
#: ``cos``/``sin`` evaluations of the phases; each carried row adds a few
#: units of round-off to every phase.
_ANCHOR_ROWS = 128

#: Largest relative rounding the double-angle route may leave in a map's
#: largest norm²; a map that cancels more takes the derivative route.
_DOUBLE_ANGLE_RTOL = 2.0**-40


@dataclass(frozen=True, eq=False)
class RandomFeatureMap:
    """Frozen draw ``(W, b, s, N)`` of a random feature map, or a stack of them.

    A stack of ``B`` maps holds weights ``(B, N, d)`` and biases ``(B, N)``;
    ``d`` and ``n_features`` read the trailing axes.  Only
    :func:`empirical_lipschitz` takes a stack; the single-map methods,
    :func:`empirical_kernel` and :func:`jacobian` refuse one.
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

    def _refuse_stack(self) -> None:
        if self.weights.ndim != 2:
            raise InvalidArgumentError(
                f"weights of shape {self.weights.shape} hold a stack of maps; "
                "only empirical_lipschitz takes a stack")

    def _points(self, x, ndim: int = 1) -> np.ndarray:
        """``x`` as one finite point (``ndim`` 1) or a batch of them (``ndim`` 2)."""
        self._refuse_stack()
        x = np.array(x, dtype=float, ndmin=ndim, copy=None)
        if x.ndim != ndim or x.shape[-1] != self.d:
            expected = f"({self.d},)" if ndim == 1 else f"(n_points, {self.d})"
            raise InvalidArgumentError(f"x has shape {x.shape}, expected {expected}")
        if not np.isfinite(x).all():
            raise InvalidArgumentError(f"x of shape {x.shape} has non-finite entries")
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Feature vector at a single point ``x``."""
        x = self._points(x)
        pre = self.weights @ x + self.biases
        return self.activation.value(pre) / np.sqrt(self.n_features)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Feature matrix (n_points x N) for a batch of points."""
        xs = self._points(xs, ndim=2)
        pre = xs @ self.weights.T + self.biases
        return self.activation.value(pre) / np.sqrt(self.n_features)


def build_feature_map(dist: WeightDistribution, bias: BiasDistribution,
                      act: Activation, n: int, seed) -> RandomFeatureMap:
    """Draw a feature map; bit-reproducible given the same seed.

    A 1-D uint64 array of seeds draws a stack of maps, one per seed, as
    :func:`~kerlip.kernels.sample_weights` does.
    """
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
    x = fm._points(x)
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

    - the double-angle route, taken when the activation is a sinusoid
      (``s'(u) = -a sin u``, so ``activation.sine_amplitude`` is set)
      and the grid is uniform to round-off: ``|x_j - (x_0 + j h)| <=
      4 eps max|x|`` with ``h = (x_last - x_0) / (n_points - 1)``.  It
      evaluates the norm at ``x_0 + j h`` through ``sum_i a^2 w_i^2
      sin^2 t_ij = a^2/2 (sum_i w_i^2 - Re sum_i w_i^2 exp(2i t_ij))``.
      With ``j = k + R m`` for blocks of ``R`` rows, the last sum is
      ``Re sum_i z_i^k c_im``, ``z_i = exp(2i h w_i)`` and ``c_im`` the
      block start ``w_i^2 exp(2i t_i,Rm)``: a ``(blocks x N) (N x R)``
      complex product.  With the starts stored conjugated, its real part
      is one real gemm per map on the interleaved float views.  The
      powers ``z^k`` come by repeated squaring, and the starts from a
      direct ``cos``/``sin`` at least every ``_ANCHOR_ROWS`` rows,
      carried by ``z^R`` between; no ``np.sin`` runs per grid point.
      The subtraction cancels when every sine of a map is near 0: each
      norm² is within ``eps a^2/2 sum w^2`` of its exact value
      (``_cancellation_bound``: 700 to 2,300 round-off units on the
      99-point grid for N up to 2^14), so a map whose largest norm²
      does not exceed that bound by ``1 / _DOUBLE_ANGLE_RTOL`` = 2^40
      is recomputed alone by the derivative route, and every other
      map's maximum keeps a relative rounding below 2^-40 from the
      subtraction; a norm² elsewhere that rounds below 0 reads 0.
      Errors in the phases' angles, about ``_ANCHOR_ROWS`` units, move
      each sine as the argument rounding of ``np.sin`` does, so a norm
      agrees with the ``np.sin`` route to about 1e-15 relative (1e-14 at
      worst on 5,000-point grids).  Each map keeps the bits it has alone;
    - the derivative route, for every other activation and grid: it
      forms ``u = x w``, adds ``b`` in place and reads the squared slopes
      from ``activation.slope_sq`` (``np.sin`` squared for cosine
      features, a 0/1 indicator for ReLU), and each norm has the bits
      that one unblocked pass of squared ``derivative`` values gives.

    Both routes work on the stack's ``B N`` features side by side and make
    the same BLAS calls per map as a single map does: the derivative
    route one matrix-vector product per row block, the double-angle route
    one gemm per feature chunk, whose temporaries hold at most
    ``_BLOCK_ELEMENTS`` floats.  ``d >= 2`` makes one stacked
    ``spectral_norm`` call per block.
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
            cancelled = _double_angle_norms(w, biases, amp, grid[0, 0], h, norms)
            for m in np.flatnonzero(cancelled):
                g = slice(m, m + 1)
                _slope_sq_norms(fm.activation, w[g], biases[g], grid, norms[g])
        else:
            _slope_sq_norms(fm.activation, w, biases, grid, norms)
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


def _map_groups(maps: int, per_map: int, elements: int = _STACK_ELEMENTS) -> list[slice]:
    """Consecutive groups of a stack's maps, so few that a temporary holding
    ``per_map`` floats per map stays within ``elements`` floats."""
    size = max(1, elements // per_map)
    return [slice(lo, lo + size) for lo in range(0, maps, size)]


def _slope_sq_norms(act: Activation, w, b, grid, out) -> None:
    """``out[m, j] = sum_i act.slope_sq(w_mi x_j + b_mi) w_mi^2`` for a 1-D grid.

    Each block ends in one gemv per map.  OpenBLAS sums its rows in groups
    of four, so blocks start at multiples of four: every row is then
    summed as in one gemv over the whole grid.
    """
    n_points, n = out.shape[1], w.shape[1]
    rows = max(4, _BLOCK_ELEMENTS // n // 4 * 4)
    for g in _map_groups(len(w), min(rows, n_points) * n):
        w_sq = w[g]**2
        for lo, hi in _row_blocks(n_points, rows):
            u = grid[lo:hi, :, None] * w[g]
            u += b[g]
            _stacked_gemv(act.slope_sq(u), w_sq, out[g, lo:hi])


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


def _cancellation_bound(widest: int, chunks: int) -> float:
    """``eps`` with each norm² of the double-angle route within ``eps a² Σw² / 2``.

    A first-order count in units ``u`` of round-off, for feature chunks
    of at most ``widest`` features:

    - each unit phase the gemm multiplies, ``z^k conj(c) / w²``, comes
      from one ``cos``/``sin`` pair (``2 u`` off in modulus) carried
      through at most ``_ANCHOR_ROWS`` rows of tabled or carried complex
      products, each adding ``sqrt(5) u`` to the modulus error of what it
      multiplies: within ``5 u`` per row, and ``3 u`` for the anchor and
      its ``w²``;
    - one gemm sums ``2 widest`` products whose magnitudes add up to at
      most ``sqrt(2) Σw²``, and the chunks' partial sums add ``chunks``
      roundings of that size: ``(2 widest + chunks) sqrt(2) u``;
    - ``Σw²`` itself, ``(widest + chunks) u``.

    Errors in the phases' angles are left out: they move ``sin²`` as
    they move the sine, as the argument rounding of ``np.sin`` does.
    """
    return (5 * _ANCHOR_ROWS + 4 * widest + 3 * chunks + 8) * np.finfo(float).eps / 2


def _fill_powers(table: np.ndarray, base: np.ndarray) -> None:
    """``table[k] = table[0] base**k`` by repeated squaring.

    The caller sets ``table[0]``; ``base`` is squared in place.
    """
    filled = 1
    while filled < len(table):
        k = min(filled, len(table) - filled)
        np.multiply(table[:k], base, out=table[filled:filled + k])
        filled += k
        if filled < len(table):
            base *= base


def _double_angle_norms(w, b, amp, x0, h, out) -> np.ndarray:
    """``out[m, j] = sum_i (amp sin(w_mi (x0 + j h) + b_mi))^2 w_mi^2`` by the
    double-angle identity, one real gemm per map and feature chunk.

    Returns a mask of the maps whose largest norm² does not clear
    ``_cancellation_bound`` by ``1 / _DOUBLE_ANGLE_RTOL``; their rows of
    ``out`` are not meaningful and the caller recomputes them.
    """
    (maps, n), n_points = w.shape, out.shape[1]
    # Blocks of about sqrt(n_points) rows, as many as a block has rows, with
    # an anchor every _ANCHOR_ROWS rows or sooner; near-equal feature chunks
    # whose table of powers and block starts hold at most _BLOCK_ELEMENTS
    # floats.  The layout depends on n_points and n alone, so a map keeps
    # its bits in a stack.
    rows = min(_ANCHOR_ROWS, math.isqrt(n_points - 1) + 1)
    blocks = -(-n_points // rows)
    per_anchor = min(blocks, _ANCHOR_ROWS // rows)
    anchors = -(-blocks // per_anchor)
    cap = max(1, _BLOCK_ELEMENTS // (2 * max(rows + 1, anchors * per_anchor)))
    count = -(-n // cap)
    edges = [n * c // count for c in range(count + 1)]
    chunks = list(zip(edges[:-1], edges[1:]))
    widest = max(hi - lo for lo, hi in chunks)
    x_anchor = x0 + np.arange(anchors) * (per_anchor * rows) * h
    # numpy multiplies a one-element complex array by the textbook formula
    # and longer ones with fused multiply-adds, so with a chunk of one
    # feature the maps go one at a time.
    per_map = max(2 * widest * max(rows + 1, anchors * per_anchor), blocks * rows)
    if min(hi - lo for lo, hi in chunks) == 1:
        per_map = _BLOCK_ELEMENTS
    w_sq_sum = np.zeros(maps)
    for g in _map_groups(maps, per_map, _BLOCK_ELEMENTS):
        size = w[g].shape[0]
        sums = np.empty((size, blocks, rows))
        for lo, hi in chunks:
            wc, width = w[g, lo:hi], hi - lo
            w_sq = np.square(wc)
            w_sq_sum[g] += w_sq.sum(axis=1)
            # Every table keeps the maps and features on its last two axes,
            # so each elementwise pass runs over whole (maps, features) rows.
            # Phases exp(i phi): phi = 2 h w steps a row, and the anchors'
            # phi = -2 (w x + b) gives the block starts conjugated.
            phi = np.empty((1 + anchors, size, width))
            np.multiply(wc, -h, out=phi[0])
            np.multiply(x_anchor[:, None, None], wc, out=phi[1:])
            phi[1:] += b[g, lo:hi]
            phi *= -2.0
            cis = np.empty(phi.shape, dtype=complex)
            np.cos(phi, out=cis.real)
            np.sin(phi, out=cis.imag)
            # powers[k] = exp(2i k h w) for the rows of a block, and one more
            # row, which carries a block start to the next.
            powers = np.empty((rows + 1, size, width), dtype=complex)
            powers[0] = 1.0
            _fill_powers(powers, cis[0])
            # starts[a, s] = w^2 exp(-2i t) at grid row (a per_anchor + s) rows.
            starts = np.empty((anchors, per_anchor, size, width), dtype=complex)
            np.multiply(cis[1:], w_sq, out=starts[:, 0])
            _fill_powers(starts.swapaxes(0, 1), np.conj(powers[rows]))
            # Re(z c) = z.re c.re - z.im c.im is a dot product of the float
            # views of z and conj(c): one real gemm per map.
            part = np.matmul(
                starts.reshape(-1, size, width)[:blocks].transpose(1, 0, 2).view(float),
                powers[:rows].transpose(1, 0, 2).view(float).transpose(0, 2, 1),
                out=sums if lo == 0 else None)
            if lo > 0:
                sums += part
        np.subtract(w_sq_sum[g, None], sums.reshape(size, -1)[:, :n_points], out=out[g])
    half_a_sq = 0.5 * amp * amp
    out *= half_a_sq
    eps = _cancellation_bound(widest, len(chunks))
    cancelled = ~(out.max(axis=1) > half_a_sq * w_sq_sum * (eps / _DOUBLE_ANGLE_RTOL))
    np.maximum(out, 0.0, out=out)
    return cancelled


def default_grid_1d() -> np.ndarray:
    """The 99-point grid ``-1 + 2 j / 100`` for ``j = 1, ..., 99``."""
    j = np.arange(1, 100)
    return (-1.0 + 2.0 * j / 100.0)[:, None]
