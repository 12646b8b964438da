"""Deterministic numerical primitives.

Quadrature rules, scalar maximization, symmetric eigenvalues / spectral
norms and finite-difference derivative oracles.  Everything here is pure
and deterministic, so concurrent use is safe.
"""

import math
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

#: Layout of :func:`panel_rule`: Legendre panels from 0 to the smallest
#: Gaussian scale and doubling in width beyond it, so each scale meets the same
#: few panels within 12 of itself.  Two orders per panel; their difference is
#: the error estimate.  A panel whose orders differ by more than
#: ``_HALVING_RTOL`` of its width times the integrand's largest magnitude is
#: halved: 1e-13 left the 16-node moments of tanh 2e-13 off on the wide first
#: panels of scales near 10.
_PANEL_ORDERS = (32, 16)
_MAX_PANELS = 8192
_HALVING_RTOL = 1e-15

#: Floats in the density buffer of :func:`gaussian_moments` (256 KiB): a block
#: of scales takes as many as fit against all of the rule's nodes.  Nodes beyond
#: 12 scales (weight below 1e-30) or within 1e-12 of one scale of 0 are left
#: out.  Each block forms t^2 = (u / s)^2 as ``(R / s)^2`` times the rule's
#: ``(u / R)^2``, with ``R`` a power of two at the rule's reach, so its nodes
#: need no division.
_DENSITY_FLOATS = 32768
_TAIL_SCALES = 12.0
_CORE_SCALES = 1e-12

#: Largest ``s_max / s_min`` that one :func:`panel_rule` holds: ``(R / s)^2``
#: stays below 2^512 at every scale, so it is finite and the rule's
#: ``(u / R)^2`` keeps the rest of the exponent range.
MAX_SCALE_SPAN = 2.0 ** 250


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


def _bias_rule(bias, n: int, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights (summing to 1) for a bias law.

    A uniform law is cut at each of ``cuts`` inside its interval, with an
    order-``n`` Legendre rule per piece; the other laws ignore ``cuts``.
    """
    if not isinstance(bias, BiasDistribution):
        raise UnsupportedDistributionError(f"unsupported bias specification: {bias!r}")
    if bias.family == "uniform":
        a, b = bias.params
        edges = np.array([a, *sorted(k for k in cuts if a < k < b), b])
        nodes, weights = _panel_nodes(edges, n)
        return nodes.ravel(), weights.ravel() / (b - a)
    if bias.family == "gaussian":
        (sd,) = bias.params
        nodes, weights = _hermgauss(n)
        return np.sqrt(2.0) * sd * nodes, weights / np.sqrt(np.pi)
    return np.zeros(1), np.ones(1)  # the point mass at 0


def _gaussian_pdf(z: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-0.5 * (z / gamma) ** 2) / (gamma * np.sqrt(2.0 * np.pi))


def expectation_2d(f, gamma: float, bias, orders: tuple[int, int],
                   zeta_kinks=None, bias_cuts=()) -> float:
    """Tensor-product quadrature approximation of ``E[f(zeta, b)]``.

    ``zeta ~ N(0, gamma^2)`` and ``b`` follows the given bias law.  ``f``
    must accept numpy arrays and broadcast elementwise.

    When ``zeta_kinks`` is given, the zeta integral is split where
    ``f(., b)`` is non-smooth and each smooth piece is handled by a
    Legendre rule on the truncated range ``[-10 gamma, 10 gamma]`` (tail
    mass < 1e-20).  Hermite rules converge slowly across kinks.
    ``zeta_kinks`` is called once with the ``(n_b, 1)`` column of bias
    nodes and must return the ``(n_b, k)`` array of zeta locations, in
    any order, where ``f(., b)`` has its kinks.  A uniform bias law is cut
    at each of ``bias_cuts`` inside it (see :func:`_bias_rule`), where
    ``f(zeta, .)`` may be non-smooth near ``zeta = 0``.
    """
    n_zeta, n_b = orders
    if not (8 <= n_zeta <= _MAX_QUAD_ORDER and 8 <= n_b <= _MAX_QUAD_ORDER):
        raise InvalidArgumentError(
            f"quadrature orders must be in [8, {_MAX_QUAD_ORDER}], got {orders}")
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
    b_nodes, b_weights = _bias_rule(bias, n_b, bias_cuts)

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
                            rtol: float = LADDER_RTOL, bias_cuts=()) -> tuple[float, float]:
    """Doubling ladder around :func:`expectation_2d`.

    Both orders start at 64 and are doubled until two successive
    results differ by less than ``rtol`` or the order cap is
    reached.  Returns ``(value, error)`` where ``error`` is the last
    successive difference (a cheap a-posteriori bound).
    """
    n_zeta = n_b = 64
    value = expectation_2d(f, gamma, bias, (n_zeta, n_b), zeta_kinks, bias_cuts)
    error = np.inf
    while n_zeta < _MAX_QUAD_ORDER or n_b < _MAX_QUAD_ORDER:
        n_zeta = min(2 * n_zeta, _MAX_QUAD_ORDER)
        n_b = min(2 * n_b, _MAX_QUAD_ORDER)
        refined = expectation_2d(f, gamma, bias, (n_zeta, n_b), zeta_kinks, bias_cuts)
        error = abs(refined - value)
        value = refined
        if error < rtol:
            break
    return value, error


def _panel_edges(s_min: float, extent: float, kinks) -> np.ndarray:
    """Sorted panel edges on ``[0, extent]``: 0, ``s_min 2^k`` for ``k >= 0`` up
    to the first at or past ``extent``, and ``|k|`` for each kink ``k`` inside."""
    if not (np.isfinite(extent) and s_min >= np.finfo(float).tiny):  # 1 / s_min is finite
        raise NumericalFailureError(
            f"no u-panels reach from scale {s_min:.3g} out to |u| = {extent:.3g}")
    doublings = math.ceil(math.log2(extent / s_min))
    positive = s_min * 2.0 ** np.arange(doublings + 1)
    inside = [abs(k) for k in kinks if abs(k) < positive[-1]]
    edges = np.sort(np.concatenate([[0.0], positive, inside]))
    return edges[np.concatenate([[True], np.diff(edges) > 0.0])]  # np.unique imports numpy.ma


def _panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(panels, n)`` nodes and weights of an order-``n`` Legendre rule per panel."""
    nodes, weights = _leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    return 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes, half * weights


def _even(f, u: np.ndarray) -> np.ndarray:
    """``f(u) + f(-u)``: what a node ``u > 0`` of the half-line carries."""
    return np.asarray(f(u), dtype=float) + np.asarray(f(-u), dtype=float)


def panel_rule(f, kinks, s_min: float, s_max: float, rounding=None):
    """Legendre panels in ``u >= 0`` for Gaussian moments of ``f`` at scales in
    ``[s_min, s_max]`` (see :func:`gaussian_moments`).

    The Gaussian factor depends on ``|u|`` alone, so the rule lives on the
    half-line and each node ``u > 0`` carries the even part ``f(u) + f(-u)``
    of ``f``: half the nodes of a two-sided rule.  Panel edges sit at 0, at
    ``|k|`` for each of ``kinks`` and at ``s_min 2^k``, ``k >= 0``, out to the
    first at or past ``12 s_max``: past ``s_min`` a panel is as wide as its
    distance from 0, so every scale meets the same few panels per doubling of
    ``t = |u| / s``.  A panel on which the 16- and 32-node rules of that even
    part alone, or of it times ``(u / R)^2``, differ by more than its width
    times the larger of 1e-15 of that integrand's largest magnitude and its
    rounding level is halved, until none does or the rule would pass 8,192
    panels; the error estimate of :func:`gaussian_moments` then shows what is
    left unresolved.
    ``rounding``, if given, maps nodes to the rounding level of ``f`` there;
    a node carries ``rounding(u) + rounding(-u)``, and the halving test takes
    the largest such level (0 without it).  Scales more than
    ``MAX_SCALE_SPAN`` apart raise :class:`NumericalFailureError`.

    Returns ``(|u|, column, weights, R, unit)`` for the nodes out to ``12
    s_max``, sorted by ``|u|``: ``R`` is the power of two in ``(6 s_max, 12
    s_max]``, ``unit`` the one in ``(s_min / 2, s_min]``, ``column`` is ``-(u /
    R)^2 / 2`` and ``weights`` is ``(n, 2k)``, in units of ``unit`` so that
    they stay normal floats down to the smallest normal ``s_min``: the 32-node
    rule's weights times the even part of ``f``, the 16-node rule's (each
    zero at the other rule's nodes) and, with ``rounding``, the 32-node
    weights times the folded rounding level, then the same ``k`` columns times
    ``(u / R)^2``.  As ``(u / R)^2 < 4``, no product overflows where ``f``
    times a weight does not.
    """
    if not s_max / MAX_SCALE_SPAN <= s_min:
        raise NumericalFailureError(
            f"one u-rule cannot hold scales from {s_min:.3g} to {s_max:.3g}")
    extent = _TAIL_SCALES * s_max
    unit = math.ldexp(0.5, math.frexp(s_min)[1])
    reach = math.ldexp(0.5, math.frexp(extent)[1]) / unit
    edges = _panel_edges(s_min, extent, kinks) / unit  # the layout in units, exactly
    while True:
        rules = [_panel_nodes(edges, n) for n in _PANEL_ORDERS]
        values = [_even(f, u * unit) for u, _ in rules]
        levels = [np.zeros(1) if rounding is None else _even(rounding, u * unit) for u, _ in rules]
        unresolved = np.zeros(edges.size - 1, dtype=bool)
        for power in (0, 2):  # the integrands of m_0 and m_2
            factors = [(u / reach) ** power for u, _ in rules]
            sums = [np.sum(w * v * q, axis=1) for (_, w), v, q in zip(rules, values, factors)]
            scale = max(float(np.max(np.abs(v * q))) for v, q in zip(values, factors))
            noise = max(float(np.max(e * q)) for e, q in zip(levels, factors))
            unresolved |= (np.abs(sums[0] - sums[1])
                           > np.diff(edges) * max(_HALVING_RTOL * scale, noise))
        if not unresolved.any() or edges.size + np.count_nonzero(unresolved) > _MAX_PANELS:
            break
        middles = 0.5 * (edges[1:] + edges[:-1])
        edges = np.sort(np.concatenate([edges, middles[unresolved]]))
    (u_32, w_32), (u_16, w_16) = rules
    u = np.concatenate([u_32.ravel(), u_16.ravel()])
    split = u_32.size
    columns = 2 if rounding is None else 3
    weights = np.zeros((u.size, 2 * columns))
    weights[:split, 0] = (w_32 * values[0]).ravel()
    weights[split:, 1] = (w_16 * values[1]).ravel()
    if rounding is not None:
        weights[:split, 2] = (w_32 * levels[0]).ravel()
    order = np.argsort(u, kind="stable")
    u = u[order]
    kept = np.searchsorted(u, extent / unit, side="right")  # no scale of the rule reaches further
    u, weights = u[:kept], weights[order[:kept]]
    ratio_sq = np.square(u / reach)
    np.multiply(weights[:, :columns], ratio_sq[:, None], out=weights[:, columns:])
    return u * unit, -0.5 * ratio_sq, weights, reach * unit, unit


def gaussian_moments(abs_u: np.ndarray, column: np.ndarray, weights: np.ndarray,
                     reach: float, unit: float,
                     scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroth and second Gaussian moments of a :func:`panel_rule`, per scale.

    For each scale ``s > 0`` and each of the first ``k`` weight columns
    ``w``, the moments are ``sum_j w_j phi(t_j) unit / s * (1, t_j^2)`` with
    ``t_j = |u_j| / s`` and ``phi`` the standard normal density.  As
    ``t_j^2 = (R / s)^2 (u_j / R)^2``, a block of scales takes one outer
    product of ``(R / s)^2`` with ``column`` into its density buffer, one
    ``exp`` and one gemm against all ``2k`` columns; the second half comes
    out as ``sum_j w_j phi(t_j) (u_j / R)^2``, so it is scaled by ``(R / s)^2``
    at the end.  Both halves take ``unit / s``, at most 1 for the rule's
    scales, so no normalisation overflows near the smallest normal ``s``.  A
    block holds as many scales as ``_DENSITY_FLOATS`` has rows of the rule's
    nodes, and takes only the nodes within 12 of its largest scale and past
    1e-12 of its smallest.  Returns two ``(len(scales), k)`` arrays.
    """
    moments = np.zeros((scales.size, weights.shape[1]))
    half = weights.shape[1] // 2
    rows = max(1, _DENSITY_FLOATS // abs_u.size)
    chunk = _DENSITY_FLOATS // rows
    density = np.empty((min(rows, scales.size), min(chunk, abs_u.size)))
    ratio_sq = np.square(reach / scales)
    for lo in range(0, scales.size, rows):
        s = scales[lo:lo + rows]
        first = np.searchsorted(abs_u, _CORE_SCALES * s.min())
        last = np.searchsorted(abs_u, _TAIL_SCALES * s.max(), side="right")
        for start in range(first, last, chunk):
            stop = min(start + chunk, last)
            block = np.multiply.outer(ratio_sq[lo:lo + rows], column[start:stop],
                                      out=density[:s.size, :stop - start])
            np.exp(block, out=block)
            moments[lo:lo + rows] += block @ weights[start:stop]
    norm = (unit / scales)[:, None] / np.sqrt(2.0 * np.pi)
    moments[:, :half] *= norm
    moments[:, half:] *= norm * ratio_sq[:, None]
    return moments[:, :half], moments[:, half:]


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
    each matrix is checked for symmetry against its own scale.  A
    non-finite entry raises :class:`InvalidArgumentError`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise InvalidArgumentError(
            f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidArgumentError("matrix entries must be finite")
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
