"""Deterministic numerical primitives.

Quadrature rules, scalar maximization, symmetric eigenvalues / spectral
norms and finite-difference derivative oracles.  Everything here is pure
and deterministic, so concurrent use is safe.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EvaluationFailureError,
    InvalidArgumentError,
    UnsupportedDistributionError,
)

_MAX_QUAD_ORDER = 256

#: Default number of grid points used by :func:`maximize_scalar`.
DEFAULT_SCAN_POINTS = 512

#: Default finite-difference step for :func:`hessian_fd`.
DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian quadrature rule.

    ``measure_tag`` is ``"gauss-hermite"`` (weight ``exp(-t^2)`` on the
    real line) or ``"gauss-legendre(a,b)"`` (unit weight on ``[a, b]``).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure_tag: str


@dataclass(frozen=True)
class ScalarMaxResult:
    """Outcome of a one-dimensional maximization."""

    argmax: float
    max_value: float
    evaluations: int
    bracket: tuple[float, float]


# Node computation solves a symmetric tridiagonal eigenproblem; cache it,
# the adaptive ladder re-requests the same orders constantly.
@lru_cache(maxsize=64)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with ``n`` nodes (physicists' weight ``exp(-t^2)``).

    Exact for polynomials of degree ``<= 2n - 1``.
    """
    if not 1 <= n <= _MAX_QUAD_ORDER:
        raise InvalidArgumentError(f"hermite order must be in [1, {_MAX_QUAD_ORDER}], got {n}")
    nodes, weights = _hermgauss(n)
    return QuadratureRule(nodes, weights, "gauss-hermite")


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes on ``[a, b]``.

    Exact for polynomials of degree ``<= 2n - 1``.
    """
    if n < 1:
        raise InvalidArgumentError(f"legendre order must be >= 1, got {n}")
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got a={a}, b={b}")
    nodes, weights = _leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(half * nodes + 0.5 * (b + a), half * weights, f"gauss-legendre({a},{b})")


def _bias_rule(bias, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights (summing to 1) for a bias law."""
    # Imported lazily: kernels depends on numerics for its own diagnostics.
    from .kernels import BiasDistribution

    if not isinstance(bias, BiasDistribution):
        raise UnsupportedDistributionError(f"unsupported bias specification: {bias!r}")
    if bias.family == "uniform":
        a, b = bias.params
        rule = gauss_legendre(n, a, b)
        return rule.nodes, rule.weights / (b - a)
    if bias.family == "gaussian":
        (sd,) = bias.params
        rule = gauss_hermite(n)
        return np.sqrt(2.0) * sd * rule.nodes, rule.weights / np.sqrt(np.pi)
    if bias.family == "point":
        return np.zeros(1), np.ones(1)
    raise UnsupportedDistributionError(f"unsupported bias family: {bias.family!r}")


def _gaussian_pdf(z: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-0.5 * (z / gamma) ** 2) / (gamma * np.sqrt(2.0 * np.pi))


def expectation_2d(f, gamma: float, bias, orders: tuple[int, int],
                   zeta_kinks=None) -> float:
    """Tensor-product quadrature approximation of ``E[f(zeta, b)]``.

    ``zeta ~ N(0, gamma^2)`` and ``b`` follows the given bias law.  ``f``
    must accept numpy arrays and broadcast elementwise.

    When ``zeta_kinks`` is given (a callable mapping a bias value ``b`` to
    a list of zeta locations where ``f(., b)`` is non-smooth), the zeta
    integral is split at those locations and each smooth piece is handled
    by a Legendre rule on the truncated range ``[-10 gamma, 10 gamma]``
    (tail mass < 1e-20).  Hermite rules converge slowly across kinks.
    """
    n_zeta, n_b = orders
    if n_zeta < 8 or n_b < 8:
        raise InvalidArgumentError(f"quadrature orders must be >= (8, 8), got {orders}")
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
    b_nodes, b_weights = _bias_rule(bias, n_b)

    if zeta_kinks is None:
        rule = gauss_hermite(n_zeta)
        zeta = np.sqrt(2.0) * gamma * rule.nodes
        z_weights = rule.weights / np.sqrt(np.pi)
        values = np.broadcast_to(
            np.asarray(f(zeta[:, None], b_nodes[None, :]), dtype=float),
            (zeta.size, b_nodes.size))
        return float(z_weights @ values @ b_weights)

    limit = 10.0 * gamma
    ref_nodes, ref_weights = _leggauss(n_zeta)
    kinks = np.atleast_2d(np.stack(
        [np.sort(np.clip(np.atleast_1d(zeta_kinks(b)), -limit, limit))
         for b in b_nodes]))
    edges = np.hstack([np.full((len(b_nodes), 1), -limit), kinks,
                       np.full((len(b_nodes), 1), limit)])
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
                            start_orders: tuple[int, int] = (64, 64),
                            rtol: float = 1e-8) -> tuple[float, float]:
    """Doubling ladder around :func:`expectation_2d`.

    Orders are doubled until two successive results differ by less than
    ``rtol`` or the order cap is reached.  Returns ``(value, error)``
    where ``error`` is the last successive difference (a cheap
    a-posteriori bound).
    """
    n_zeta, n_b = start_orders
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


def maximize_scalar(g, domain: tuple[float, float], tol: float,
                    scan_points: int = DEFAULT_SCAN_POINTS) -> ScalarMaxResult:
    """Maximize a scalar function on a finite interval.

    Coarse grid scan followed by golden-section refinement around the
    best grid cell.  Ties break to the smallest argmax (first grid
    index), which makes the result deterministic.  For unimodal ``g``
    the argmax error is at most ``tol``.
    """
    a, b = domain
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidArgumentError(f"domain must be a finite interval, got {domain}")
    if tol <= 0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")

    grid = np.linspace(a, b, scan_points)
    values = np.empty(scan_points)
    for i, r in enumerate(grid):
        v = g(float(r))
        if np.isnan(v):
            raise EvaluationFailureError(f"objective returned NaN at {r}")
        values[i] = v
    evaluations = scan_points

    best = int(np.argmax(values))  # argmax takes the first of equal maxima
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, scan_points - 1)]
    bracket = (float(lo), float(hi))

    # Golden-section: maintain interior points x1 < x2 inside [lo, hi].
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = g(float(x1)), g(float(x2))
    evaluations += 2
    while hi - lo > tol:
        if np.isnan(f1) or np.isnan(f2):
            raise EvaluationFailureError("objective returned NaN during refinement")
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


def sym_eig_max(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric real matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.max(np.abs(m)), 1.0)
    if np.max(np.abs(m - m.T)) > 1e-10 * scale:
        raise InvalidArgumentError("matrix is not symmetric within 1e-10")
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, computed as ``sqrt(lambda_max(m^T m))``."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix entries must be finite")
    if m.ndim == 1:
        m = m[:, None]
    gram = m.T @ m
    return float(np.sqrt(max(sym_eig_max(gram), 0.0)))


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


def hessian_fd(kappa, d: int,
               h: float = DEFAULT_FD_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference Hessian of ``kappa`` at 0, Richardson-extrapolated.

    Central differences at steps ``h`` and ``h/2`` are combined as
    ``(4 H(h/2) - H(h)) / 3``, which cancels the ``O(h^2)`` truncation
    term.  Returns ``(extrapolated, coarse)``; the coarse ``H(h)`` gives
    callers an error estimate.  ``h`` must lie in ``[1e-6, 1e-2]``.
    """
    if not 1e-6 <= h <= 1e-2:
        raise InvalidArgumentError(f"step h must be in [1e-6, 1e-2], got {h}")
    coarse = _hessian_fd_single(kappa, d, h)
    fine = _hessian_fd_single(kappa, d, h / 2.0)
    return (4.0 * fine - coarse) / 3.0, coarse
