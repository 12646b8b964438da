"""Exact Lipschitz-constant evaluators and independent oracles.

The two closed-form routes are the curvature-profile supremum for
isotropic-Gaussian random neural networks, whose profile and its split
into ``alpha`` and ``beta`` come from one 1-D quadrature, and the
spectral-covariance formula for shift-invariant kernels, each paired
with finite-difference and Monte-Carlo cross-checks.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, numerics
from .errors import (
    HypothesisViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedDistributionError,
)
from .kernels import (
    Activation,
    BiasDistribution,
    ShiftInvariantKernel,
    WeightDistribution,
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


def _profile_1d(act: Activation, gamma: float, bias: BiasDistribution):
    """``nu`` and ``alpha`` at an array of radii, as ``(n, 2)`` arrays of
    their 32- and 16-node values, whose gap is the error estimate.

    With bias sd ``sigma``, ``tau = r gamma`` and ``s^2 = tau^2 + sigma^2``,
    a Gaussian or point-mass bias makes ``u = zeta r + b`` ``N(0, s^2)`` with
    ``E[zeta^2 | u] = gamma^2 (sigma^2 + tau^2 u^2 / s^2) / s^2``, so with
    ``alpha(r) = E_u[s'(u)^2]``, ``nu(r) = gamma^2 (sigma^2 alpha + tau^2
    E_u[u^2 s'(u)^2] / s^2) / s^2``: two Gaussian moments of ``s'^2`` on one
    :func:`numerics.panel_rule`, whose kinks sit at fixed u for every radius.
    A uniform bias on ``(a, c)`` is integrated out exactly: ``E_b[s'(u +
    b)^2] = D(u) = (S(u + c) - S(u + a)) / (c - a)``, with ``S`` the
    activation's ``slope_sq_integral``, which leaves the point-mass case
    with ``D`` for ``s'^2`` and kinks moved to ``k - c`` and ``k - a``.  The
    rule is built once and rebuilt only when a call needs smaller or larger
    scales.  At ``r = 0`` with no bias spread, ``alpha = s'(0)^2`` (or
    ``D(0)``) and ``nu = gamma^2 alpha`` exactly.
    """
    if bias.family != "uniform":
        sd, kinks, rounding = bias.sd, act.kinks, None

        def slope_sq(u):
            return act.derivative(u) ** 2
    else:
        if act.slope_sq_integral is None:
            raise UnsupportedDistributionError(
                f"a uniform bias needs the integral of {act.name}'s squared derivative")
        a, c = bias.params
        integral = act.slope_sq_integral
        sd, kinks = 0.0, [k - end for k in act.kinks for end in (c, a)]

        def slope_sq(u):
            return (integral(u + c) - integral(u + a)) / (c - a)

        def rounding(extent):
            # S rises with u, so |S| on [a - extent, c + extent] peaks at an end.
            with np.errstate(over="ignore", invalid="ignore"):
                ends = np.abs(integral(np.array([a - extent, c + extent])))
            return float(np.finfo(float).eps * ends.max() / (c - a))

    s_min, s_max, rule = math.inf, 0.0, None

    def profile(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal s_min, s_max, rule
        with np.errstate(over="ignore"):
            tau = r * gamma
            scale = np.hypot(tau, sd)
        if not np.all(np.isfinite(scale)):
            raise NumericalFailureError(
                f"r * gamma overflows at r = {r[~np.isfinite(scale)][0]:.6g}, gamma = {gamma:g}")
        alpha = np.full((r.size, 2), float(slope_sq(np.zeros(1))[0]))
        nu = gamma**2 * alpha
        spread = scale > 0.0
        if spread.any():
            s = scale[spread]
            if s.min() < s_min or s.max() > s_max:
                s_min, s_max = min(s_min, float(s.min())), max(s_max, float(s.max()))
                rule = numerics.panel_rule(slope_sq, kinks, s_min, s_max, rounding)
            alpha[spread], m2 = numerics.gaussian_moments(*rule, s)
            nu[spread] = gamma**2 * ((sd / s)[:, None] ** 2 * alpha[spread]
                                     + (tau[spread] / s)[:, None] ** 2 * m2)
        return nu, alpha

    return profile


def _converged(value: float, error: float) -> bool:
    """Whether an error estimate is below ``LADDER_RTOL max(1, |value|)``.

    A relative bound keeps the test meaningful for any gamma, since
    ``nu`` scales as ``gamma^2``.
    """
    return error < numerics.LADDER_RTOL * max(1.0, abs(value))


def _nu_alpha(act: Activation, gamma: float, bias: BiasDistribution,
              r: float) -> tuple[float, float]:
    """Checked ``nu(r)`` and ``alpha(r)`` on the 1-D route; see :func:`nu_function`."""
    if not (kernels._normal_square(gamma) and 0 <= r < math.inf):
        raise InvalidArgumentError("need finite gamma > 0 with gamma**2 a normal float and "
                                   f"finite r >= 0, got gamma={gamma}, r={r}")
    moments = _profile_1d(act, gamma, bias)(np.array([float(r)]))
    for name, ((value, coarse),) in zip(("nu", "alpha"), moments):
        if not _converged(value, abs(value - coarse)):
            raise NumericalFailureError(f"the 1-D quadrature did not converge at r = {r:g} "
                                        f"({name} error {abs(value - coarse):.3g})")
    return tuple(float(m[0, 0]) for m in moments)


def nu_function(act: Activation, gamma: float, bias: BiasDistribution,
                r: float) -> float:
    """Curvature profile ``nu(r) = E[zeta^2 s'(zeta r + b)^2]``.

    ``zeta ~ N(0, gamma^2)`` independent of ``b``.  The supremum of
    ``sqrt(nu)`` over ``r = ||x||`` is the feature-map Lipschitz constant
    for isotropic Gaussian weights.  It takes the 1-D route of
    :func:`rnn_lipschitz` and raises :class:`NumericalFailureError` when the
    two panel orders of ``nu``, or of the ``alpha`` of :func:`alpha_beta`
    on the same rule, disagree.
    """
    return _nu_alpha(act, gamma, bias, r)[0]


def default_r_domain(gamma: float, bias: BiasDistribution) -> tuple[float, float]:
    """Default search interval for the radius supremum.

    The closed-form examples are independent of ``r``; the width scales
    with the weight and bias spreads so that preactivation statistics are
    fully explored.
    """
    return (0.0, 10.0 * gamma * (1.0 + bias.sd))


def _scan(profile, domain: tuple[float, float], tol: float):
    """:func:`numerics.maximize_scalar` over the ``nu`` of a :func:`_profile_1d`
    profile.  Returns the result and every radius the scan evaluated, with
    its ``nu`` panel pair; every argmax candidate is one of them.
    """
    calls = []

    def nu_at(r):
        radii = np.atleast_1d(np.asarray(r, dtype=float))
        nu, _ = profile(radii)
        calls.append((radii, nu))
        return nu[:, 0] if np.ndim(r) else float(nu[0, 0])

    result = numerics.maximize_scalar(nu_at, domain, tol)
    return (result, *(np.concatenate(arrays) for arrays in zip(*calls)))


def rnn_lipschitz(act: Activation, gamma: float, bias: BiasDistribution,
                  r_domain: Optional[tuple[float, float]] = None,
                  tol: float = 1e-8) -> LipschitzReport:
    """Exact Lipschitz constant for isotropic-Gaussian random neurons.

    Equals ``sup_r sqrt(nu(r))`` over the search domain.  Requires either
    an everywhere-differentiable activation or an absolutely continuous
    bias law (the weight law is Gaussian, hence always absolutely
    continuous); otherwise the directional-derivative formula is not
    guaranteed to hold and a :class:`HypothesisViolationError` is raised.

    The scan evaluates ``nu`` on one vectorised 1-D quadrature (see
    ``_profile_1d``), and the 2-D quadrature ladder, which shares no code
    with it, certifies the value at the argmax.  A
    :class:`NumericalFailureError` is raised when the 1-D error estimate
    at any scanned radius, the ladder's at the argmax, or the gap between
    the two routes there is not below ``LADDER_RTOL max(1, nu)``, and, on
    the default domain, when the scan's best grid point is the domain's
    last one, since the supremum may then lie beyond it.  The error
    estimate is the larger of the 1-D estimate and that gap, on the scale
    of the constant.  A uniform bias needs the activation's
    ``slope_sq_integral`` and raises :class:`UnsupportedDistributionError`
    without it.
    """
    if not kernels._normal_square(gamma):
        raise InvalidArgumentError(
            f"gamma must be positive and finite, with gamma**2 a normal float, got {gamma}")
    if act.kinks and not bias.absolutely_continuous:
        raise HypothesisViolationError(
            "activation has non-differentiable points and the bias law is not "
            "absolutely continuous; need a differentiable activation or an "
            "absolutely continuous weight/bias law")
    default_domain = r_domain is None
    if default_domain:
        r_domain = default_r_domain(gamma, bias)
    r_min, r_max = r_domain
    if not (0 <= r_min < r_max):
        raise InvalidArgumentError(f"need 0 <= r_min < r_max, got {r_domain}")

    result, radii, pairs = _scan(_profile_1d(act, gamma, bias), (r_min, r_max), tol)
    values, errors = pairs[:, 0], np.abs(pairs[:, 0] - pairs[:, 1])
    best = int(np.flatnonzero(radii == result.argmax)[0])
    nu_max, quad_err = float(values[best]), float(errors[best])
    law = ":".join([bias.family, *(f"{p:g}" for p in bias.params)])
    setting = f"gamma = {gamma:g}, bias {law}, argmax r = {result.argmax:.6g}"
    worst = int(np.argmax(errors / np.maximum(1.0, np.abs(values))))
    if not _converged(values[worst], errors[worst]):
        raise NumericalFailureError(
            f"the 1-D quadrature did not converge at r = {radii[worst]:.6g} ({setting}, "
            f"error {errors[worst]:.3g} against nu = {values[worst]:.6g})")
    certificate, ladder_err = _nu_with_error(act, gamma, bias, result.argmax)
    if not _converged(certificate, ladder_err):
        raise NumericalFailureError(
            f"the certificate's quadrature ladder did not converge at the supremum "
            f"({setting}, error {ladder_err:.3g})")
    gap = abs(certificate - nu_max)
    if not _converged(nu_max, gap):
        raise NumericalFailureError(
            f"the 1-D quadrature and its 2-D certificate differ at the supremum "
            f"({setting}, error {gap:.3g}: nu = {nu_max:.17g} against {certificate:.17g})")
    quad_err = max(quad_err, gap)
    # The bracket starts one grid point below the best one, so the best is
    # the last grid point exactly when the bracket starts at the second-last.
    second_last = np.linspace(r_min, r_max, numerics.DEFAULT_SCAN_POINTS)[-2]
    if default_domain and result.bracket[0] == second_last:
        raise NumericalFailureError(
            f"the radius supremum sits at the end of the default search domain "
            f"[{r_min:g}, {r_max:g}] and may lie beyond it ({setting}, error {quad_err:.3g})")
    value = math.sqrt(max(nu_max, 0.0))
    err = quad_err / (2.0 * value) if value > 0 else quad_err
    return LipschitzReport(value=value, method="thm34-quadrature",
                           argmax_r=result.argmax, error_estimate=err)


def alpha_beta(act: Activation, gamma: float, bias: BiasDistribution,
               a: float) -> tuple[float, float]:
    """The isotropic and radial parts of ``nu = gamma^2 alpha + beta``, on the checked
    1-D route of :func:`nu_function`: ``alpha(a) = E[s'(a zeta + b)^2]`` is a moment it
    takes, and ``beta(a) = E[(zeta^2 - gamma^2) s'(a zeta + b)^2]`` is ``nu - gamma^2 alpha``."""
    nu, alpha = _nu_alpha(act, gamma, bias, a)
    return alpha, nu - gamma**2 * alpha


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
    from the 1-D quadrature of :func:`alpha_beta`.  The samples come in
    chunks of 10^6, each seeded from ``seed`` and its index, and each chunk
    is drawn and summed in blocks of at most 4,096 rows.  The chunks run on
    every usable core, and the result is bit-identical at any core count.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 1 or x.shape != z.shape:
        raise InvalidArgumentError(
            f"x and z must be vectors of one length, got shapes {x.shape} and {z.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise InvalidArgumentError("x and z must be finite")
    n = kernels._integer(mc_samples, "mc_samples")
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
    keys = kernels._stream_keys(derive_seed(seed, range(len(sizes))), dist, bias)
    rows = min(sizes[0], _MC_BLOCK_ROWS)

    def chunk_sums(i):
        """Sums of ``v**2`` and ``v**4``, ``v = (w^T z) s'(w^T x + b)``, over chunk ``i``."""
        w, b = np.empty((rows, x.size)), np.empty(rows)
        total = total_sq = 0.0
        for w_k, b_k in kernels._draw_blocks(dist, bias, sizes[i],
                                             kernels._keyed_streams(keys, i), w, b):
            sq = np.square((w_k @ z) * act.derivative(w_k @ x + b_k))
            total += float(np.sum(sq))
            total_sq += float(np.sum(np.square(sq, out=sq)))
        return total, total_sq

    total = total_sq = 0.0
    with ThreadPoolExecutor(max_workers=min(len(sizes), _usable_cpus())) as pool:
        for chunk_total, chunk_sq in pool.map(chunk_sums, range(len(sizes))):
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
    Hessian at 0 does not exist otherwise).  A step ``h`` outside
    ``[1e-6, 1e-2]`` raises :class:`InvalidArgumentError`, for every
    kernel alike.  Near the edge, for Matern ``nu`` just above 1, the
    finite differences are off by about ``h**(2 (nu - 1))`` relative; where
    that exceeds 1e-2, the gap the crosscheck allows, a
    :class:`NumericalFailureError` is raised.
    """
    if second_moment_status(kernel.spectral) is None:
        raise HypothesisViolationError(
            "kernel has infinite second spectral moment; kappa is not twice "
            "differentiable at 0")
    numerics._check_fd_step(h)
    nu = kernel.spectral.nu
    if nu is not None and h ** (2.0 * (nu - 1.0)) > 1e-2:
        raise NumericalFailureError(
            f"step h = {h:g} is too coarse for nu = {nu:g}: the finite-difference "
            f"Hessian is off by about h**(2 (nu - 1)) = {h ** (2.0 * (nu - 1.0)):.3g} relative")
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
    square-rooted, with a step ``h`` in ``[1e-6, 1e-2]``.  For a positive
    definite kernel the mixed difference must be non-negative up to
    round-off; a violation beyond ``-1e-8`` raises
    :class:`NumericalFailureError`.
    """
    numerics._check_fd_step(h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.ndim != 1 or x.shape != z.shape or not np.isfinite(x).all():
        raise InvalidArgumentError(
            f"x must be a finite vector of z's length, got {x} and z of shape {z.shape}")
    if not abs(np.linalg.norm(z) - 1.0) <= 1e-8:  # a NaN z fails too
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
