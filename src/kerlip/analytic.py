"""Exact Lipschitz-constant evaluators and independent oracles.

The two closed-form routes are the curvature-profile supremum for
isotropic-Gaussian random neural networks and the spectral-covariance
formula for shift-invariant kernels, each paired with finite-difference
and Monte-Carlo cross-checks.
"""

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .errors import HypothesisViolationError, InvalidArgumentError, NumericalFailureError
from .kernels import (
    Activation,
    BiasDistribution,
    ShiftInvariantKernel,
    WeightDistribution,
    _draw_rows,
    _law_streams,
    _row_blocks,
    derive_seed,
    kappa_eval,
    second_moment_status,
)

__all__ = [
    "LipschitzReport",
    "nu_function",
    "default_r_domain",
    "rnn_lipschitz",
    "VarianceCheck",
    "variance_decomposition_check",
    "shift_invariant_lipschitz",
    "hessian_lipschitz_oracle",
    "diagonal_curvature_oracle",
    "upper_bound_cor31",
    "wiener_divergence",
    "wiener_kernel_truncated",
]


@dataclass(frozen=True)
class LipschitzReport:
    """Computed Lipschitz constant of a feature map.

    ``value`` is ``math.inf`` exactly when ``method == "divergent"``;
    ``argmax_r`` is present only for the quadrature route.
    """

    value: float
    method: str
    argmax_r: Optional[float] = None
    error_estimate: float = 0.0

    def csv_row(self) -> str:
        argmax = "" if self.argmax_r is None else f"{self.argmax_r:.17g}"
        value = "inf" if math.isinf(self.value) else f"{self.value:.17g}"
        return f"{self.method},{value},{argmax},{self.error_estimate:.17g}"


CSV_HEADER = "method,value,argmax_r,error_estimate"


def _kink_locator(act: Activation, r: float):
    """Zeta locations where ``s'(zeta r + b)`` jumps, as a function of b."""
    if not act.kinks or r <= 0.0:
        return None
    kinks = np.asarray(act.kinks, dtype=float)
    return lambda b: (kinks - b) / r


def _nu_with_error(act: Activation, gamma: float, bias: BiasDistribution,
                   r: float) -> tuple[float, float]:
    def f(zeta, b):
        return zeta**2 * act.derivative(zeta * r + b) ** 2

    return numerics.expectation_2d_adaptive(f, gamma, bias, _kink_locator(act, r))


def nu_function(act: Activation, gamma: float, bias: BiasDistribution,
                r: float) -> float:
    """Curvature profile ``nu(r) = E[zeta^2 s'(zeta r + b)^2]``.

    ``zeta ~ N(0, gamma^2)`` independent of ``b``.  The supremum of
    ``sqrt(nu)`` over ``r = ||x||`` is the feature-map Lipschitz constant
    for isotropic Gaussian weights.
    """
    if r < 0:
        raise InvalidArgumentError(f"r must be non-negative, got {r}")
    return _nu_with_error(act, gamma, bias, r)[0]


def default_r_domain(gamma: float, bias: BiasDistribution) -> tuple[float, float]:
    """Default search interval for the radius supremum.

    The closed-form examples are independent of ``r``; the width scales
    with the weight and bias spreads so that preactivation statistics are
    fully explored.
    """
    return (0.0, 10.0 * gamma * (1.0 + bias.sd))


def rnn_lipschitz(act: Activation, gamma: float, bias: BiasDistribution,
                  r_domain: Optional[tuple[float, float]] = None,
                  tol: float = 1e-8) -> LipschitzReport:
    """Exact Lipschitz constant for isotropic-Gaussian random neurons.

    Equals ``sup_r sqrt(nu(r))`` over the search domain.  Requires either
    an everywhere-differentiable activation or an absolutely continuous
    bias law (the weight law is Gaussian, hence always absolutely
    continuous); otherwise the directional-derivative formula is not
    guaranteed to hold and a :class:`HypothesisViolationError` is raised.
    """
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
    if act.kinks and not bias.absolutely_continuous:
        raise HypothesisViolationError(
            "activation has non-differentiable points and the bias law is not "
            "absolutely continuous; need a differentiable activation or an "
            "absolutely continuous weight/bias law")
    if r_domain is None:
        r_domain = default_r_domain(gamma, bias)
    r_min, r_max = r_domain
    if not (0 <= r_min < r_max):
        raise InvalidArgumentError(f"need 0 <= r_min < r_max, got {r_domain}")

    # Every argmax candidate is a radius the scan already evaluated.
    scanned = {}

    def nu_at(r):
        scanned[r] = _nu_with_error(act, gamma, bias, r)
        return scanned[r][0]

    result = numerics.maximize_scalar(nu_at, (r_min, r_max), tol)
    nu_max, quad_err = scanned[result.argmax]
    value = math.sqrt(max(nu_max, 0.0))
    err = quad_err / (2.0 * value) if value > 0 else quad_err
    return LipschitzReport(value=value, method="thm34-quadrature",
                           argmax_r=result.argmax, error_estimate=err)


def alpha_beta(act: Activation, gamma: float, bias: BiasDistribution,
               a: float) -> tuple[float, float]:
    """Quadrature values of ``alpha(a) = E[s'(a zeta + b)^2]`` and
    ``beta(a) = E[(zeta^2 - gamma^2) s'(a zeta + b)^2]``.

    These split the directional derivative's second moment into a radial
    and an isotropic part; ``gamma^2 alpha + beta = nu``.
    """
    kinks = _kink_locator(act, a)
    alpha, _ = numerics.expectation_2d_adaptive(
        lambda zeta, b: act.derivative(zeta * a + b) ** 2,
        gamma, bias, kinks)
    beta, _ = numerics.expectation_2d_adaptive(
        lambda zeta, b: (zeta**2 - gamma**2) * act.derivative(zeta * a + b) ** 2,
        gamma, bias, kinks)
    return alpha, beta


@dataclass(frozen=True)
class VarianceCheck:
    """Monte-Carlo vs quadrature sides of the variance decomposition."""

    lhs: float
    rhs: float
    lhs_stderr: float


#: Samples per Monte-Carlo chunk, and rows per draw block in a chunk
#: (64 KiB of weights at d = 2).
_MC_CHUNK = 1_000_000
_MC_BLOCK_ROWS = 4096


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def variance_decomposition_check(act: Activation, gamma: float,
                                 bias: BiasDistribution, x: np.ndarray,
                                 z: np.ndarray, mc_samples: int,
                                 seed: int) -> VarianceCheck:
    """Check ``E[((w^T z) s'(w^T x + b))^2]`` against its radial split.

    The left side is estimated by Monte Carlo over ``w ~ N(0, gamma^2 I)``
    and the bias law; the right side is
    ``(x^T z)^2 / ||x||^2 * beta(||x||) + ||z||^2 gamma^2 alpha(||x||)``
    computed by quadrature.  The samples come in chunks of 10^6, each
    seeded from ``seed`` and its index; the chunks run on every usable
    core, and the result is bit-identical at any core count.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 1 or x.shape != z.shape:
        raise InvalidArgumentError(
            f"x and z must be vectors of one length, got shapes {x.shape} and {z.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise InvalidArgumentError("x and z must be finite")
    try:
        n = operator.index(mc_samples)
    except TypeError:
        raise InvalidArgumentError(
            f"mc_samples must be an integer, got {mc_samples!r}") from None
    if n < 1:
        raise InvalidArgumentError(f"need mc_samples >= 1, got {n}")
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise InvalidArgumentError(
            "x must be nonzero; the x = 0 branch is covered by nu_function")
    if np.linalg.norm(z) == 0.0:
        raise InvalidArgumentError("z must be nonzero")

    dist = WeightDistribution.isotropic_gaussian(gamma, x.size)
    sizes = [min(_MC_CHUNK, n - lo) for lo in range(0, n, _MC_CHUNK)]
    seeds = [derive_seed(seed, i) for i in range(len(sizes))]
    workers = min(len(sizes), _usable_cpus())
    # Each worker's buffers are made here: glibc keeps a thread's own arena
    # after its arrays are freed, which would raise the resident peak.
    rows = min(sizes[0], _MC_BLOCK_ROWS)
    buffers = [(np.empty(sizes[0]), np.empty((rows, x.size)), np.empty(rows))
               for _ in range(workers)]

    def chunk_sums(worker):
        """``(sum, sum of squares)`` of the squared values of every
        ``workers``-th chunk from ``worker`` on."""
        vals, w, b = buffers[worker]
        sums = []
        for i in range(worker, len(sizes), workers):
            streams = _law_streams(dist, seeds[i])
            for lo, hi in _row_blocks(sizes[i], rows):
                wk, bk, out = w[:hi - lo], b[:hi - lo], vals[lo:hi]
                _draw_rows(dist, bias, streams, wk, bk)
                np.matmul(wk, z, out=out)
                pre = wk @ x
                pre += bk
                out *= act.derivative(pre)
            # Square and sum the whole chunk, so numpy's pairwise sum
            # adds in the same order as over one chunk array.
            chunk = vals[:sizes[i]]
            np.square(chunk, out=chunk)
            total = float(np.sum(chunk))
            np.square(chunk, out=chunk)
            sums.append((total, float(np.sum(chunk))))
        return sums

    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_worker = list(pool.map(chunk_sums, range(workers)))
    total = total_sq = 0.0
    for i in range(len(sizes)):
        chunk_total, chunk_sq = per_worker[i % workers][i // workers]
        total += chunk_total
        total_sq += chunk_sq
    lhs = total / n
    var = max(total_sq / n - lhs**2, 0.0)
    stderr = math.sqrt(var / n)

    alpha, beta = alpha_beta(act, gamma, bias, norm_x)
    rhs = (float(x @ z) ** 2 / norm_x**2) * beta + float(z @ z) * gamma**2 * alpha
    return VarianceCheck(lhs=lhs, rhs=float(rhs), lhs_stderr=stderr)


def shift_invariant_lipschitz(kernel: ShiftInvariantKernel) -> LipschitzReport:
    """Lipschitz constant of a shift-invariant kernel's feature map.

    Finite second spectral moment gives
    ``sqrt(kappa(0) lambda_max(Cov(w)))`` with ``kappa(0) = 1``; otherwise
    the feature map is not Lipschitz and the value is infinite.
    """
    cov = second_moment_status(kernel.spectral)
    if cov is None:
        return LipschitzReport(value=math.inf, method="divergent")
    value = math.sqrt(numerics.sym_eig_max(cov))
    return LipschitzReport(value=value, method="thm41-covariance")


def hessian_lipschitz_oracle(kernel: ShiftInvariantKernel,
                             h: float = numerics.DEFAULT_FD_STEP) -> LipschitzReport:
    """Independent route: ``sqrt(lambda_max(-hessian(kappa)(0)))``.

    Only valid for kernels with a finite second spectral moment (the
    Hessian at 0 does not exist otherwise).
    """
    if second_moment_status(kernel.spectral) is None:
        raise HypothesisViolationError(
            "kernel has infinite second spectral moment; kappa is not twice "
            "differentiable at 0")
    def kappa(delta):
        return kappa_eval(kernel, delta)

    rich, coarse = numerics.hessian_fd(kappa, kernel.d, h)
    value = math.sqrt(max(numerics.sym_eig_max(-rich), 0.0))
    coarse_value = math.sqrt(max(numerics.sym_eig_max(-coarse), 0.0))
    return LipschitzReport(value=value, method="thm41-hessian-fd",
                           error_estimate=abs(value - coarse_value))


def diagonal_curvature_oracle(k, x: np.ndarray, z: np.ndarray,
                              h: float = 1e-4) -> float:
    """Feature-free curvature lower bound at ``x`` in direction ``z``.

    Mixed central difference of the bivariate kernel on its diagonal,
    square-rooted.  For a positive definite kernel the mixed difference
    must be non-negative up to round-off; a violation beyond ``-1e-8``
    raises :class:`NumericalFailureError`.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if abs(np.linalg.norm(z) - 1.0) > 1e-8:
        raise InvalidArgumentError("z must be a unit vector")
    step = h * z
    mixed = (k(x + step, x + step) - k(x + step, x - step)
             - k(x - step, x + step) + k(x - step, x - step)) / (4.0 * h**2)
    if mixed < -1e-8:
        raise NumericalFailureError(
            f"negative diagonal curvature {mixed}; kernel is not positive definite "
            "to working accuracy")
    return math.sqrt(max(mixed, 0.0))


def upper_bound_cor31(act: Activation, dist: WeightDistribution) -> LipschitzReport:
    """Classical upper bound ``Lip(s) * sqrt(E ||w||^2)``.

    Ignores the coupling between the activation and the weights, so it is
    never below the exact constant and can be strict (e.g. ReLU).
    """
    cov = second_moment_status(dist)
    if cov is None:
        raise HypothesisViolationError(
            "weight law has infinite second moment; the upper bound is undefined")
    value = act.lipschitz_bound * math.sqrt(float(np.trace(cov)))
    return LipschitzReport(value=value, method="prop24-upper-bound")


def wiener_divergence(M: int) -> float:
    """Partial sum certifying the Brownian-motion kernel is not Lipschitz.

    Each term ``lambda_n * (phi_n'(0))^2`` of the Mercer series of
    ``min(x, y)`` equals 2 algebraically (the eigenvalue cancels the
    squared derivative), so the partial sum is exactly ``2 M`` and grows
    without bound.
    """
    if M < 1:
        raise InvalidArgumentError(f"need M >= 1, got {M}")
    return 2.0 * M


def wiener_kernel_truncated(x: float, y: float, M: int) -> float:
    """Truncated Mercer series of ``min(x, y)`` on (0, 1)."""
    if M < 1:
        raise InvalidArgumentError(f"need M >= 1, got {M}")
    n = np.arange(1, M + 1)
    c = (n - 0.5) * np.pi
    return float(np.sum(2.0 * np.sin(c * x) * np.sin(c * y) / c**2))
