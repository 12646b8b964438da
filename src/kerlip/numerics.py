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


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(g, domain: tuple[float, float], tol: float) -> ScalarMaxResult:
    """Maximize a scalar function on a finite interval.

    Coarse scan of ``DEFAULT_SCAN_POINTS`` grid points followed by
    golden-section refinement around the best grid cell.  Ties break to
    the smallest argmax (first grid index), which makes the result
    deterministic.  For unimodal ``g`` the argmax error is at most ``tol``.
    """
    a, b = domain
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidArgumentError(f"domain must be a finite interval, got {domain}")
    if not 0 < tol < np.inf:
        raise InvalidArgumentError(f"tol must be positive and finite, got {tol}")

    grid = np.linspace(a, b, DEFAULT_SCAN_POINTS)
    values = np.empty(DEFAULT_SCAN_POINTS)
    for i, r in enumerate(grid):
        v = g(float(r))
        if np.isnan(v):
            raise NumericalFailureError(f"objective returned NaN at {r}")
        values[i] = v
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
    while hi - lo > tol:
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
