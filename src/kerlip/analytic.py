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
from functools import lru_cache
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
    second_moment_status,
)

__all__ = [
    "LipschitzReport",
    "nu_function",
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
    ``argmax_r`` is present only for the quadrature route.  A NaN
    ``value`` or ``error_estimate``, or an infinite ``value`` of another
    method, raises :class:`NumericalFailureError`.
    """

    value: float
    method: str
    argmax_r: Optional[float] = None
    error_estimate: float = 0.0

    def __post_init__(self):
        if math.isnan(self.value) or math.isnan(self.error_estimate):
            raise NumericalFailureError(
                f"{self.method} gave value {self.value} with error {self.error_estimate}")
        if math.isinf(self.value) and (self.value < 0 or self.method != "divergent"):
            raise NumericalFailureError(
                f"{self.method} gave the infinite value {self.value}")

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


def _nu_with_error(act: Activation, bias: BiasDistribution, tau: float) -> tuple[float, float]:
    """``g(tau)`` of :func:`_profile_1d` on the 2-D ladder: ``nu(tau)`` at ``gamma = 1``.

    A uniform bias law is cut at the activation's kinks, where ``s'(zeta tau + b)^2``
    jumps in ``b`` at small ``tau``.
    """
    def f(zeta, b):
        return zeta**2 * act.slope_sq(zeta * tau + b)

    return numerics.expectation_2d_adaptive(f, 1.0, bias, _kink_locator(act, tau),
                                            bias_cuts=act.kinks)


def _profile_1d(act: Activation, bias: BiasDistribution):
    """The gamma-free profiles ``g(tau) = E[t^2 s'(tau t + b)^2]`` and ``alpha(tau)
    = E[s'(tau t + b)^2]``, ``t ~ N(0, 1)``, at an array of ``tau``, as ``(n, 2)``
    arrays of their 32- and 16-node values, whose gap is the error estimate.

    With ``zeta = gamma t``, ``nu(r) = gamma^2 g(r gamma)``.  With bias sd
    ``sigma`` and ``s^2 = tau^2 + sigma^2``, a Gaussian or point-mass bias makes
    ``u = tau t + b`` ``N(0, s^2)`` with ``E[t^2 | u] = (sigma^2 + tau^2 u^2 /
    s^2) / s^2``, so with ``alpha = E_u[s'(u)^2]``, ``g = (sigma^2 alpha + tau^2
    E_u[u^2 s'(u)^2] / s^2) / s^2``: two Gaussian moments of ``s'^2`` on one
    :func:`numerics.panel_rule`, whose kinks sit at fixed u for every ``tau``.
    A uniform bias on ``(a, c)`` is integrated out exactly: ``E_b[s'(u +
    b)^2] = D(u) = (S(u + c) - S(u + a)) / (c - a)``, with ``S`` the
    activation's ``slope_sq_integral``, which leaves the point-mass case
    with ``D`` for ``s'^2`` and kinks moved to ``k - c`` and ``k - a``.  The
    difference rounds at about ``eps max |S(u + end)| / (c - a)`` per node; the
    rule carries that level as a third column, and where its moment exceeds
    ``LADDER_RTOL max(1, |value|)`` at some ``tau``, for ``g`` or ``alpha``,
    :class:`NumericalFailureError` is raised.  The rule is built once and
    rebuilt only when a call needs smaller or larger scales.  A call below the
    rule's smallest scale lowers it to the largest of 2^-32 of itself, the
    call's largest scale over ``numerics.MAX_SCALE_SPAN`` and the smallest
    normal float, or to the call's own smallest scale if that is lower, so
    golden-section steps that creep towards 0 rebuild it rarely.  Once the
    union would pass ``numerics.MAX_SCALE_SPAN``, the rule starts again from
    that call's scales; a call whose own scales pass it is taken in a lower
    and an upper half.  At ``tau = 0`` with no bias spread, ``g = alpha =
    s'(0)^2`` (or ``D(0)``) exactly.
    """
    if bias.family != "uniform":
        sd, kinks, rounding, slope_sq = bias.sd, act.kinks, None, act.slope_sq
    else:
        if act.slope_sq_integral is None:
            raise UnsupportedDistributionError(
                f"a uniform bias needs the integral of {act.name}'s squared derivative")
        a, c = bias.params
        integral = act.slope_sq_integral
        sd, kinks = 0.0, [k - end for k in act.kinks for end in (c, a)]

        def slope_sq(u):
            return (integral(u + c) - integral(u + a)) / (c - a)

        def rounding(u):
            # Each S(u + end) rounds at about eps |S(u + end)|, which D divides by
            # c - a.  cos's S cancels near 0 and rounds at eps |u| there; the
            # halving test takes the largest level of the rule, which covers that.
            ends = np.maximum(np.abs(integral(u + c)), np.abs(integral(u + a)))
            return np.finfo(float).eps * ends / (c - a)

    s_min, s_max, rule = math.inf, 0.0, None

    def profile(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal s_min, s_max, rule
        g = np.full((tau.size, 2), float(slope_sq(np.zeros(1))[0]))
        alpha = g.copy()
        with np.errstate(over="ignore"):
            scale = np.hypot(tau, sd)
        parts = [scale > 0.0]
        while parts:
            spread = parts.pop()
            s = scale[spread]
            if s.size == 0:
                continue
            lo, hi = float(s.min()), float(s.max())
            if lo * numerics.MAX_SCALE_SPAN < hi < math.inf:  # no one rule holds them
                low = scale <= math.sqrt(lo) * math.sqrt(hi)
                parts += [spread & low, spread & ~low]
                continue
            if lo < s_min or hi > s_max:
                if lo < s_min:  # descend far in one step: golden-section steps creep down
                    floor = max(s_min * 2.0**-32, hi / numerics.MAX_SCALE_SPAN, np.finfo(float).tiny)
                    lo = min(lo, floor)
                s_min, s_max = min(s_min, lo), max(s_max, hi)
                if s_max > numerics.MAX_SCALE_SPAN * s_min:  # start again from these scales
                    s_min, s_max = lo, hi
                rule = numerics.panel_rule(slope_sq, kinks, s_min, s_max, rounding)
            m0, m2 = numerics.gaussian_moments(*rule, s)
            nu = (sd / s)[:, None] ** 2 * m0 + (tau[spread] / s)[:, None] ** 2 * m2
            if rounding is not None:  # a third column bounds each moment's rounding
                for name, moment in (("nu / gamma^2", nu), ("alpha", m0)):
                    loose = ~(moment[:, 2] <= numerics.LADDER_RTOL * np.maximum(1.0, np.abs(moment[:, 0])))
                    if loose.any():
                        at = int(np.argmax(loose))
                        raise NumericalFailureError(
                            f"the integrand rounds at {moment[at, 2]:.3g} at r gamma = "
                            f"{tau[spread][at]:.6g}, against {name} = {moment[at, 0]:.6g}")
            alpha[spread], g[spread] = m0[:, :2], nu[:, :2]
        return g, alpha

    return profile


def _converged(value: float, error: float) -> bool:
    """Whether ``error < LADDER_RTOL max(1, |value|)``, for a gamma-free ``value``."""
    return error < numerics.LADDER_RTOL * max(1.0, abs(value))


def _tau(r: float, gamma: float) -> float:
    """``tau = r gamma``, or :class:`NumericalFailureError` when it overflows."""
    tau = float(r) * float(gamma)
    if not math.isfinite(tau):
        raise NumericalFailureError(f"r * gamma overflows at r = {r:.6g}, gamma = {gamma:g}")
    return tau


def _nu_alpha(act: Activation, gamma: float, bias: BiasDistribution,
              r: float) -> tuple[float, float]:
    """Checked ``nu(r)`` and ``alpha(r)`` on the 1-D route; see :func:`nu_function`."""
    if not (kernels._normal_square(gamma) and 0 <= r < math.inf):
        raise InvalidArgumentError("need finite gamma > 0 with gamma**2 a normal float and "
                                   f"finite r >= 0, got gamma={gamma}, r={r}")
    moments = _profile_1d(act, bias)(np.array([_tau(r, gamma)]))
    for name, ((value, coarse),) in zip(("nu", "alpha"), moments):
        if not _converged(value, abs(value - coarse)):
            raise NumericalFailureError(f"the 1-D quadrature did not converge at r = {r:g} "
                                        f"({name} error {abs(value - coarse):.3g})")
    return gamma**2 * float(moments[0][0, 0]), float(moments[1][0, 0])


def nu_function(act: Activation, gamma: float, bias: BiasDistribution,
                r: float) -> float:
    """Curvature profile ``nu(r) = E[zeta^2 s'(zeta r + b)^2]``.

    ``zeta ~ N(0, gamma^2)`` independent of ``b``.  The supremum of
    ``sqrt(nu)`` over ``r = ||x||`` is the feature-map Lipschitz constant
    for isotropic Gaussian weights.  It is ``gamma^2 g(r gamma)``, on the
    gamma-free 1-D route of :func:`rnn_lipschitz`, and raises
    :class:`NumericalFailureError` when ``r gamma`` overflows, or when the two
    panel orders of ``g``, or of the ``alpha`` of :func:`alpha_beta`, disagree
    or a uniform bias's rounding bound on either is too large.
    """
    return _nu_alpha(act, gamma, bias, r)[0]


def rnn_lipschitz(act: Activation, gamma: float, bias: BiasDistribution,
                  r_domain: Optional[tuple[float, float]] = None,
                  tol: float = 1e-8) -> LipschitzReport:
    """Exact Lipschitz constant for isotropic-Gaussian random neurons.

    Equals ``sup_r sqrt(nu(r))`` over the search domain.  Requires either
    an everywhere-differentiable activation or an absolutely continuous
    bias law (the weight law is Gaussian, hence always absolutely
    continuous); otherwise the directional-derivative formula is not
    guaranteed to hold and a :class:`HypothesisViolationError` is raised.

    As ``nu(r) = gamma^2 g(r gamma)`` (see ``_profile_1d``), the constant is
    ``gamma sup sqrt(g(tau))``, from one :func:`numerics.maximize_scalar` scan
    of ``tau = r gamma`` over ``[0, 10 (1 + bias sd)]``, or over ``gamma
    r_domain``; ``tol`` is in ``tau``.  The 2-D quadrature ladder at ``gamma =
    1``, which shares no code with the 1-D route, certifies ``g`` at the
    argmax.  A :class:`NumericalFailureError` is raised when ``gamma
    r_domain`` overflows; when the 1-D error estimate or rounding bound at
    any scanned ``tau``, the ladder's error at the argmax, or the gap between
    the routes there is not below ``LADDER_RTOL max(1, g)``; and, on the
    default domain, when the best grid point is the last one, since the
    supremum may lie beyond it.
    No test depends on gamma, so the value scales with gamma to one rounding.
    ``argmax_r`` is ``tau / gamma``, clipped into a given domain; the error
    estimate is the larger of the 1-D estimate and that gap, on the scale of
    the constant.  A uniform bias needs the activation's ``slope_sq_integral``
    and raises :class:`UnsupportedDistributionError` without it.
    """
    if not kernels._normal_square(gamma):
        raise InvalidArgumentError(
            f"gamma must be positive and finite, with gamma**2 a normal float, got {gamma}")
    if act.kinks and not bias.absolutely_continuous:
        raise HypothesisViolationError(
            "activation has non-differentiable points and the bias law is not "
            "absolutely continuous; need a differentiable activation or an "
            "absolutely continuous weight/bias law")
    if r_domain is None:
        tau_domain = (0.0, 10.0 * (1.0 + bias.sd))
    else:
        r_min, r_max = map(float, r_domain)
        if not (0 <= r_min < r_max < math.inf):
            raise InvalidArgumentError(f"need 0 <= r_min < r_max < inf, got {r_domain}")
        tau_domain = (_tau(r_min, gamma), _tau(r_max, gamma))

    profile, calls = _profile_1d(act, bias), []

    def g_at(tau):
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        g = profile(taus)[0]
        calls.append((taus, g))  # every argmax candidate is recorded
        return g[:, 0] if np.ndim(tau) else float(g[0, 0])

    result = numerics.maximize_scalar(g_at, tau_domain, tol)
    taus, pairs = (np.concatenate(arrays) for arrays in zip(*calls))
    values, errors = pairs[:, 0], np.abs(pairs[:, 0] - pairs[:, 1])
    best = int(np.flatnonzero(taus == result.argmax)[0])
    g_max, quad_err = float(values[best]), float(errors[best])
    argmax = result.argmax / gamma
    if r_domain is not None:
        # The given domain's end reads back exactly.
        argmax = r_max if result.argmax == tau_domain[1] else min(max(argmax, r_min), r_max)
    law = ":".join([bias.family, *(f"{p:g}" for p in bias.params)])
    setting = f"gamma = {gamma:g}, bias {law}, argmax r = {argmax:.6g}"
    worst = int(np.argmax(errors / np.maximum(1.0, np.abs(values))))
    if not _converged(values[worst], errors[worst]):
        raise NumericalFailureError(
            f"the 1-D quadrature did not converge at r = {taus[worst] / gamma:.6g} ({setting}, "
            f"error {errors[worst]:.3g} against nu / gamma^2 = {values[worst]:.6g})")
    certificate, ladder_err = _nu_with_error(act, bias, result.argmax)
    if not _converged(certificate, ladder_err):
        raise NumericalFailureError(
            f"the certificate's quadrature ladder did not converge at the supremum "
            f"({setting}, error {ladder_err:.3g})")
    gap = abs(certificate - g_max)
    if not _converged(g_max, gap):
        raise NumericalFailureError(
            f"the 1-D quadrature and its 2-D certificate differ at the supremum "
            f"({setting}, error {gap:.3g}: nu / gamma^2 = {g_max:.17g} against {certificate:.17g})")
    quad_err = max(quad_err, gap)
    # The bracket starts one grid point below the best one, so the best is
    # the last grid point exactly when the bracket starts at the second-last.
    second_last = np.linspace(*tau_domain, numerics.DEFAULT_SCAN_POINTS)[-2]
    if r_domain is None and result.bracket[0] == second_last:
        raise NumericalFailureError(
            f"the radius supremum sits at the end of the default search domain r <= "
            f"{tau_domain[1]:g} / gamma and may lie beyond it ({setting}, error {quad_err:.3g})")
    root = math.sqrt(max(g_max, 0.0))
    err = quad_err / (2.0 * root) if root > 0 else quad_err
    return LipschitzReport(value=gamma * root, method="thm34-quadrature",
                           argmax_r=argmax, error_estimate=gamma * err)


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
    """Independent route: ``sqrt(lambda_max(hessian(1 - kappa)(0)))``.

    The finite differences run on ``g = 1 - kappa``, which is 0 at 0 and
    about ``h**2`` at the stencil's points, so they lose nothing to the
    ``kappa(0) = 1`` that differencing ``kappa`` carries.  ``g`` comes
    from ``kernels._one_minus_kappa``: ``-expm1`` of the Gaussian and
    Laplace exponents, and for any other Matern ``nu`` the Gamma mixture
    ``1 - kappa = E_s[-expm1(-nu q / (2 s))]``, ``s ~ Gamma(nu, 1)``, on a
    Legendre rule in ``log s`` that one call builds once, as ``kappa_eval``
    does.  It shares no code with the covariance route it checks, meets a
    40-digit reference to about 1e-15 relative for ``nu`` in ``[0.55, 1000]``,
    and refuses ``nu`` from about 1.5e6, past ``kernels._MIXTURE_PANELS``;
    the value meets the covariance route to about 1e-15 for ``nu >= 5``,
    where the finite differences are exact up to rounding.

    Only valid for kernels with a finite second spectral moment (the
    Hessian at 0 does not exist otherwise).  A step ``h`` outside
    ``[1e-6, 1e-2]`` raises :class:`InvalidArgumentError`, for every
    kernel alike.  Near the edge, for Matern ``nu`` just above 1, the
    finite differences are off by about ``h**(2 (nu - 1))`` relative; where
    that exceeds 1e-2, the gap the crosscheck allows, a
    :class:`NumericalFailureError` is raised, as it is for a non-finite
    Hessian.  The error estimate is the gap to the coarse step's value; for
    Matern ``nu`` below about 1.34 it is scaled up to the share of the
    ``h**(2 nu - 2)`` term that the Richardson step leaves in the value.
    """
    law = kernel.spectral
    if second_moment_status(law) is None:
        raise HypothesisViolationError(
            "kernel has infinite second spectral moment; kappa is not twice "
            "differentiable at 0")
    numerics._check_fd_step(h)
    nu = law.nu
    if nu is not None and h ** (2.0 * (nu - 1.0)) > 1e-2:
        raise NumericalFailureError(
            f"step h = {h:g} is too coarse for nu = {nu:g}: the finite-difference "
            f"Hessian is off by about h**(2 (nu - 1)) = {h ** (2.0 * (nu - 1.0)):.3g} relative")
    # Every stencil point lies at least h/2 from 0, so one rule reaches them all.
    q_min = (0.5 * h) ** 2 * float(np.linalg.eigvalsh(law.shape)[0])

    # g depends on delta through q alone, and q(-delta) is q(delta): half
    # the stencil's points reuse a value.
    @lru_cache(maxsize=None)
    def one_minus_kappa(q):
        return float(kernels._one_minus_kappa(law, q, q_min))

    def g(delta):
        return one_minus_kappa(float(delta @ law.shape @ delta))

    rich, coarse = numerics.hessian_fd(g, kernel.d, h)
    if not (np.isfinite(rich).all() and np.isfinite(coarse).all()):
        raise NumericalFailureError(
            f"the finite-difference Hessian of 1 - kappa is not finite: {rich.tolist()}")
    value = math.sqrt(max(numerics.sym_eig_max(rich), 0.0))
    coarse_value = math.sqrt(max(numerics.sym_eig_max(coarse), 0.0))
    error = abs(value - coarse_value)
    if nu is not None:
        # The Richardson step leaves the h^(2 nu - 2) term of q^nu: with a = 2^(2 - 2 nu)
        # it carries (4a - 1) / 3 of it into the value and (4a - 4) / 3 into the gap to
        # the coarse value, which is the smaller share for nu below about 1.34.
        a = 2.0 ** (2.0 - 2.0 * nu)
        error *= max(1.0, abs(4.0 * a - 1.0) / abs(4.0 * a - 4.0))
    return LipschitzReport(value=value, method="thm41-hessian-fd", error_estimate=error)


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
