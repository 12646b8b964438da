"""Deterministic numerical primitives.

Quadrature rules, scalar maximization, symmetric eigenvalues / spectral
norms and finite-difference derivative oracles.  Everything here is pure
and deterministic, so concurrent use is safe.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedDistributionError,
)
from .kernels import BiasDistribution

_MAX_QUAD_ORDER = 256

#: Number of grid points that :func:`maximize_scalar` scans.
DEFAULT_SCAN_POINTS = 512

#: Tolerance of the :func:`expectation_2d_adaptive` ladder: it has
#: converged when two successive orders differ by less.
LADDER_RTOL = 1e-8

#: Default finite-difference step for :func:`hessian_fd`.
DEFAULT_FD_STEP = 1e-4

#: Layout of :func:`panel_rule`: Legendre panels of width 0.5 on
#: ``[-20, 20]``, each one 1.25 times wider than the last beyond it, and
#: halving towards 0 down to the smallest Gaussian scale.  Two orders per
#: panel; their difference is the error estimate.
_PANEL_WIDTH = 0.5
_PANEL_SPAN = 20.0
_PANEL_GROWTH = 1.25
_PANEL_ORDERS = (32, 16)
_MAX_PANELS = 16384

#: :func:`gaussian_moments` takes scales 8 at a time and nodes 4,096 at a
#: time, so each temporary is 256 KiB.  Nodes beyond 12 scales (weight
#: below 1e-30) or within 1e-12 of one scale of 0 are left out.
_SCALE_BLOCK = 8
_NODE_CHUNK = 4096
_TAIL_SCALES = 12.0
_CORE_SCALES = 1e-12


@dataclass(frozen=True)
class ScalarMaxResult:
    """Outcome of a one-dimensional maximization."""

    argmax: float
    max_value: float
    evaluations: int
    bracket: tuple[float, float]


def _cached_rule(make):
    """Cache a Gauss rule by order, with read-only arrays.

    Node computation solves a symmetric tridiagonal eigenproblem, and
    the adaptive ladder re-requests the same orders constantly.
    """
    @lru_cache(maxsize=64)
    def rule(n: int) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = make(n)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights
    return rule


#: Physicists' Gauss-Hermite (weight ``exp(-t^2)``) and Gauss-Legendre
#: (unit weight on ``[-1, 1]``) rules; each is exact to degree ``2n - 1``.
_hermgauss = _cached_rule(np.polynomial.hermite.hermgauss)
_leggauss = _cached_rule(np.polynomial.legendre.leggauss)


def _bias_rule(bias, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights (summing to 1) for a bias law."""
    if not isinstance(bias, BiasDistribution):
        raise UnsupportedDistributionError(f"unsupported bias specification: {bias!r}")
    if bias.family == "uniform":
        a, b = bias.params
        nodes, weights = _leggauss(n)
        half = 0.5 * (b - a)
        return half * nodes + 0.5 * (b + a), half * weights / (b - a)
    if bias.family == "gaussian":
        (sd,) = bias.params
        nodes, weights = _hermgauss(n)
        return np.sqrt(2.0) * sd * nodes, weights / np.sqrt(np.pi)
    return np.zeros(1), np.ones(1)  # the point mass at 0


def _gaussian_pdf(z: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-0.5 * (z / gamma) ** 2) / (gamma * np.sqrt(2.0 * np.pi))


def expectation_2d(f, gamma: float, bias, orders: tuple[int, int],
                   zeta_kinks=None) -> float:
    """Tensor-product quadrature approximation of ``E[f(zeta, b)]``.

    ``zeta ~ N(0, gamma^2)`` and ``b`` follows the given bias law.  ``f``
    must accept numpy arrays and broadcast elementwise.

    When ``zeta_kinks`` is given, the zeta integral is split where
    ``f(., b)`` is non-smooth and each smooth piece is handled by a
    Legendre rule on the truncated range ``[-10 gamma, 10 gamma]`` (tail
    mass < 1e-20).  Hermite rules converge slowly across kinks.
    ``zeta_kinks`` is called once with the ``(n_b, 1)`` column of bias
    nodes and must return the ``(n_b, k)`` array of zeta locations, in
    any order, where ``f(., b)`` has its kinks.
    """
    n_zeta, n_b = orders
    if not (8 <= n_zeta <= _MAX_QUAD_ORDER and 8 <= n_b <= _MAX_QUAD_ORDER):
        raise InvalidArgumentError(
            f"quadrature orders must be in [8, {_MAX_QUAD_ORDER}], got {orders}")
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
    b_nodes, b_weights = _bias_rule(bias, n_b)

    if zeta_kinks is None:
        nodes, weights = _hermgauss(n_zeta)
        zeta = np.sqrt(2.0) * gamma * nodes
        z_weights = weights / np.sqrt(np.pi)
        values = np.broadcast_to(
            np.asarray(f(zeta[:, None], b_nodes[None, :]), dtype=float),
            (zeta.size, b_nodes.size))
        return float(z_weights @ values @ b_weights)

    limit = 10.0 * gamma
    ref_nodes, ref_weights = _leggauss(n_zeta)
    kinks = np.sort(np.clip(zeta_kinks(b_nodes[:, None]), -limit, limit), axis=1)
    edges = np.pad(kinks, ((0, 0), (1, 1)), constant_values=(-limit, limit))
    total = 0.0
    for panel in range(edges.shape[1] - 1):
        lo, hi = edges[:, panel], edges[:, panel + 1]
        half = np.maximum(0.5 * (hi - lo), 0.0)  # clipped kinks give zero width
        zeta = half[:, None] * ref_nodes + (0.5 * (hi + lo))[:, None]
        values = f(zeta, b_nodes[:, None]) * _gaussian_pdf(zeta, gamma)
        inner = half * (values @ ref_weights)
        total += float(b_weights @ inner)
    return total


def expectation_2d_adaptive(f, gamma: float, bias, zeta_kinks=None,
                            rtol: float = LADDER_RTOL) -> tuple[float, float]:
    """Doubling ladder around :func:`expectation_2d`.

    Both orders start at 64 and are doubled until two successive
    results differ by less than ``rtol`` or the order cap is
    reached.  Returns ``(value, error)`` where ``error`` is the last
    successive difference (a cheap a-posteriori bound).
    """
    n_zeta = n_b = 64
    value = expectation_2d(f, gamma, bias, (n_zeta, n_b), zeta_kinks)
    error = np.inf
    while n_zeta < _MAX_QUAD_ORDER or n_b < _MAX_QUAD_ORDER:
        n_zeta = min(2 * n_zeta, _MAX_QUAD_ORDER)
        n_b = min(2 * n_b, _MAX_QUAD_ORDER)
        refined = expectation_2d(f, gamma, bias, (n_zeta, n_b), zeta_kinks)
        error = abs(refined - value)
        value = refined
        if error < rtol:
            break
    return value, error


def _panel_edges(s_min: float, extent: float, kinks) -> np.ndarray:
    """Sorted panel edges on ``[-extent, extent]``, rounded out to an edge."""
    if not (np.isfinite(extent) and s_min > 0.0):
        raise NumericalFailureError(
            f"no u-panels reach from scale {s_min:.3g} out to |u| = {extent:.3g}")
    levels = max(0, int(np.ceil(np.log2(_PANEL_WIDTH / s_min))))
    inner = min(int(np.ceil(extent / _PANEL_WIDTH)), round(_PANEL_SPAN / _PANEL_WIDTH))
    # Outer edge k sits at 20 + 2 (1.25^(k+1) - 1.25).
    outer = 0
    if extent > _PANEL_SPAN:
        grow = (extent - _PANEL_SPAN) * (_PANEL_GROWTH - 1.0) / _PANEL_WIDTH + _PANEL_GROWTH
        outer = max(1, int(np.ceil(np.log(grow) / np.log(_PANEL_GROWTH))) - 1)
    if 2 * (levels + inner + outer) + len(kinks) > _MAX_PANELS:
        raise NumericalFailureError(
            f"the u-rule from scale {s_min:.3g} out to |u| = {extent:.3g} needs more "
            f"than {_MAX_PANELS} panels")
    positive = np.concatenate([
        _PANEL_WIDTH * 0.5 ** np.arange(levels, 0, -1),
        _PANEL_WIDTH * np.arange(1, inner + 1),
        _PANEL_SPAN + np.cumsum(_PANEL_WIDTH * _PANEL_GROWTH ** np.arange(1, outer + 1))])
    end = positive[-1]
    inside = [k for k in kinks if -end < k < end]
    edges = np.sort(np.concatenate([-positive, [0.0], positive, inside]))
    return edges[np.concatenate([[True], np.diff(edges) > 0.0])]  # np.unique imports numpy.ma


def _panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(panels, n)`` nodes and weights of an order-``n`` Legendre rule per panel."""
    nodes, weights = _leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    return 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes, half * weights


def panel_rule(f, kinks, s_min: float, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Legendre panels in u for Gaussian moments of ``f`` at scales in
    ``[s_min, s_max]`` (see :func:`gaussian_moments`).

    Panel edges sit at ``kinks``, at 0 and at halving steps from 0.5
    down to ``s_min``, every 0.5 out to 20 and 1.25 times wider per panel
    beyond, out to ``12 s_max``.  A panel on which the 16- and 32-node
    rules of ``f`` alone differ by more than 1e-13 of its width times
    ``max |f|`` is halved, until none does or the rule would pass 16,384
    panels; the error estimate of :func:`gaussian_moments` then shows
    what is left unresolved.  Returns the sorted ``|u|`` of every node and
    its ``(n, 2)`` weights times ``f(u)``: the 32-node rule's column, then
    the 16-node rule's, each zero at the other rule's nodes.
    """
    edges = _panel_edges(s_min, _TAIL_SCALES * s_max, kinks)
    while True:
        rules = [_panel_nodes(edges, n) for n in _PANEL_ORDERS]
        values = [np.asarray(f(u), dtype=float) for u, _ in rules]
        sums = [np.sum(w * v, axis=1) for (_, w), v in zip(rules, values)]
        scale = max(float(np.max(np.abs(v))) for v in values)
        unresolved = np.abs(sums[0] - sums[1]) > 1e-13 * np.diff(edges) * scale
        if not unresolved.any() or edges.size + np.count_nonzero(unresolved) > _MAX_PANELS:
            break
        middles = 0.5 * (edges[1:] + edges[:-1])
        edges = np.sort(np.concatenate([edges, middles[unresolved]]))
    u = np.concatenate([rule[0].ravel() for rule in rules])
    weights = np.zeros((u.size, 2))
    split = rules[0][0].size
    weights[:split, 0] = (rules[0][1] * values[0]).ravel()
    weights[split:, 1] = (rules[1][1] * values[1]).ravel()
    order = np.argsort(np.abs(u), kind="stable")
    return np.abs(u)[order], weights[order]


def gaussian_moments(abs_u: np.ndarray, weights: np.ndarray,
                     scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroth and second Gaussian moments of a :func:`panel_rule`, per scale.

    For each scale ``s > 0`` and weight column ``k``, the moments are
    ``sum_j weights[j, k] phi(t_j) / s * (1, t_j^2)`` with ``t_j = |u_j| / s``
    and ``phi`` the standard normal density.  Returns two
    ``(len(scales), 2)`` arrays.
    """
    m0 = np.zeros((scales.size, weights.shape[1]))
    m2 = np.zeros_like(m0)
    for lo in range(0, scales.size, _SCALE_BLOCK):
        s = scales[lo:lo + _SCALE_BLOCK]
        inverse = (1.0 / s)[:, None]
        first = np.searchsorted(abs_u, _CORE_SCALES * s.min())
        last = np.searchsorted(abs_u, _TAIL_SCALES * s.max(), side="right")
        for start in range(first, last, _NODE_CHUNK):
            stop = min(start + _NODE_CHUNK, last)
            t_sq = abs_u[start:stop] * inverse
            np.minimum(t_sq, 40.0, out=t_sq)  # phi(40) is 0 in floats; 40^2 is finite
            np.square(t_sq, out=t_sq)
            density = np.multiply(t_sq, -0.5)
            np.exp(density, out=density)
            m0[lo:lo + _SCALE_BLOCK] += density @ weights[start:stop]
            m2[lo:lo + _SCALE_BLOCK] += np.multiply(density, t_sq, out=t_sq) @ weights[start:stop]
        norm = inverse / np.sqrt(2.0 * np.pi)
        m0[lo:lo + _SCALE_BLOCK] *= norm
        m2[lo:lo + _SCALE_BLOCK] *= norm
    return m0, m2


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(g, domain: tuple[float, float], tol: float) -> ScalarMaxResult:
    """Maximize a scalar function on a finite interval.

    Coarse scan of ``DEFAULT_SCAN_POINTS`` grid points followed by
    golden-section refinement around the best grid cell.  ``g`` is called
    once with the whole grid as an array and must return an array of its
    shape or a scalar, which is broadcast; the refinement then calls it
    with Python floats.  Ties break to the smallest argmax (first grid
    index), which makes the result deterministic.  For unimodal ``g`` the
    argmax error is at most ``tol``, or a few ulps of the argmax where
    those are larger.
    """
    a, b = domain
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidArgumentError(f"domain must be a finite interval, got {domain}")
    if not 0 < tol < np.inf:
        raise InvalidArgumentError(f"tol must be positive and finite, got {tol}")

    grid = np.linspace(a, b, DEFAULT_SCAN_POINTS)
    values = np.broadcast_to(np.asarray(g(grid), dtype=float), grid.shape)
    nan = np.isnan(values)
    if nan.any():
        raise NumericalFailureError(f"objective returned NaN at {grid[np.argmax(nan)]}")
    evaluations = DEFAULT_SCAN_POINTS

    best = int(np.argmax(values))  # argmax takes the first of equal maxima
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, DEFAULT_SCAN_POINTS - 1)]
    bracket = (float(lo), float(hi))

    # Golden-section: maintain interior points x1 < x2 inside [lo, hi].
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = g(float(x1)), g(float(x2))
    evaluations += 2
    # Below a few ulps of the bracket's ends the interior points stop moving.
    while hi - lo > max(tol, 8.0 * np.spacing(max(abs(lo), abs(hi)))):
        if np.isnan(f1) or np.isnan(f2):
            raise NumericalFailureError("objective returned NaN during refinement")
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = g(float(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = g(float(x2))
        evaluations += 1

    candidates = [(values[best], grid[best]), (f1, x1), (f2, x2)]
    max_value, argmax = max(candidates, key=lambda t: (t[0], -t[1]))
    return ScalarMaxResult(float(argmax), float(max_value), evaluations, bracket)


def sym_eig_max(m: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue of a symmetric real matrix.

    A ``(k, d, d)`` stack gives a ``(k,)`` array, one value per matrix;
    each matrix is checked for symmetry against its own scale.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise InvalidArgumentError(
            f"expected a square matrix or a stack of them, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(m - mt), axis=(-2, -1)) > 1e-10 * scale):
        raise InvalidArgumentError("matrix is not symmetric within 1e-10")
    top = np.linalg.eigvalsh(0.5 * (m + mt))[..., -1]
    return float(top) if m.ndim == 2 else top


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value, computed as ``sqrt(lambda_max(m^T m))``.

    A ``(k, N, d)`` stack gives a ``(k,)`` array, one value per matrix.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix entries must be finite")
    if m.ndim == 1:
        m = m[:, None]
    lam = sym_eig_max(np.swapaxes(m, -1, -2) @ m)
    # Clip round-off negatives to 0 but keep -0.0 and NaN, as max(lam, 0.0) does.
    top = np.sqrt(np.where(lam < 0.0, 0.0, lam))
    return float(top) if m.ndim == 2 else top


def _hessian_fd_single(kappa, d: int, h: float) -> np.ndarray:
    """Plain central second differences of ``kappa`` at the origin."""
    hess = np.empty((d, d))
    k0 = kappa(np.zeros(d))
    eye = np.eye(d)
    for i in range(d):
        ei = h * eye[i]
        hess[i, i] = (kappa(ei) - 2.0 * k0 + kappa(-ei)) / h**2
        for j in range(i + 1, d):
            ej = h * eye[j]
            mixed = (kappa(ei + ej) - kappa(ei - ej) - kappa(-ei + ej) + kappa(-ei - ej)) / (4.0 * h**2)
            hess[i, j] = hess[j, i] = mixed
    return 0.5 * (hess + hess.T)


def _check_fd_step(h: float) -> None:
    """Refuse a finite-difference step outside ``[1e-6, 1e-2]``, NaN included."""
    if not 1e-6 <= h <= 1e-2:
        raise InvalidArgumentError(f"step h must be in [1e-6, 1e-2], got {h}")


def hessian_fd(kappa, d: int,
               h: float = DEFAULT_FD_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference Hessian of ``kappa`` at 0, Richardson-extrapolated.

    Central differences at steps ``h`` and ``h/2`` are combined as
    ``(4 H(h/2) - H(h)) / 3``, which cancels the ``O(h^2)`` truncation
    term.  Returns ``(extrapolated, coarse)``; the coarse ``H(h)`` gives
    callers an error estimate.  ``h`` must lie in ``[1e-6, 1e-2]``.
    """
    _check_fd_step(h)
    coarse = _hessian_fd_single(kappa, d, h)
    fine = _hessian_fd_single(kappa, d, h / 2.0)
    return (4.0 * fine - coarse) / 3.0, coarse
