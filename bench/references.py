"""Independent references for the benchmark's checks.

Nothing here imports kerlip.  Quadrature is ``scipy.integrate.quad`` over
the 1-D conditional Gaussian; closed forms are the paper's; feature maps
are re-drawn from numpy's Philox streams by the documented stream layout;
Jacobian norms are computed with plain NumPy.  References are computed
when a run's outputs are checked, never stored.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# Activation slopes, written from their definitions.


def tanh_slope_sq(u):
    """``tanh'(u)^2 = sech(u)^4``, evaluated without overflow."""
    t = np.exp(-2.0 * np.abs(u))
    return (4.0 * t / (1.0 + t) ** 2) ** 2


def relu_slope_sq(u):
    return np.where(np.asarray(u) > 0.0, 1.0, 0.0)


def cos_slope_sq(u):
    """Slope of ``sqrt(2) cos(u)``, the unit-``kappa(0)`` Fourier feature."""
    return 2.0 * np.sin(u) ** 2


SLOPE_SQ = {"tanh": tanh_slope_sq, "relu": relu_slope_sq, "cos": cos_slope_sq}

# ---------------------------------------------------------------------------
# Closed forms (paper, section 3 and 4).


def cos_lipschitz(gamma):
    """Random Fourier features with a uniform phase: ``Lip = gamma``."""
    return gamma


def relu_lipschitz(gamma):
    """ReLU network with a Gaussian bias: ``Lip = gamma / sqrt(2)``."""
    return gamma / math.sqrt(2.0)


def gaussian_lipschitz(sigma):
    """Gaussian kernel ``exp(-d^T Sigma d / 2)``: ``Lip = sqrt(lambda_max(Sigma))``."""
    return math.sqrt(max(np.linalg.eigvalsh(np.asarray(sigma, dtype=float))))


def matern_lipschitz(nu, sigma):
    """Matern kernel: ``sqrt(2 nu / (2 nu - 2) * lambda_max(Sigma^-1))``;
    infinite for ``nu <= 1``."""
    if nu <= 1.0:
        return math.inf
    inv_eigs = 1.0 / np.linalg.eigvalsh(np.asarray(sigma, dtype=float))
    return math.sqrt(2.0 * nu / (2.0 * nu - 2.0) * max(inv_eigs))


# ---------------------------------------------------------------------------
# 1-D conditional-Gaussian quadrature.
#
# With zeta ~ N(0, gamma^2), b ~ N(0, sd^2) and u = r zeta + b, u ~ N(0, v)
# with v = r^2 gamma^2 + sd^2 and E[zeta^2 | u] = gamma^2 - r^2 gamma^4 / v
# + r^2 gamma^4 u^2 / v^2.  So every 2-D expectation of the curvature
# profile is a 1-D integral in u.


def _u_integral(weight, act, var):
    """``E_u[weight(u) s'(u)^2]`` for ``u ~ N(0, var)``."""
    from scipy import integrate  # only checks need it; keeps it out of set-up time

    slope_sq = SLOPE_SQ[act]
    half_width = 12.0 * math.sqrt(var)
    if act == "tanh":
        half_width = min(half_width, 40.0)  # sech^4 < 1e-68 beyond

    def integrand(u):
        density = math.exp(-0.5 * u * u / var) / math.sqrt(2.0 * math.pi * var)
        return density * weight(u) * float(slope_sq(u))

    lo = 0.0 if act == "relu" else -half_width
    value, _ = integrate.quad(integrand, lo, half_width, points=None if lo == 0.0 else [0.0],
                              epsabs=1e-15, epsrel=1e-12, limit=400)
    return value


def alpha_beta(act, gamma, sd, r):
    """``alpha(r) = E[s'(u)^2]`` and ``beta(r) = E[(zeta^2 - gamma^2) s'(u)^2]``."""
    var = r * r * gamma * gamma + sd * sd
    c = r * r * gamma**4 / var
    alpha = _u_integral(lambda u: 1.0, act, var)
    beta = _u_integral(lambda u: c * (u * u / var - 1.0), act, var)
    return alpha, beta


def nu(act, gamma, sd, r):
    """Curvature profile ``nu(r) = gamma^2 alpha(r) + beta(r)``."""
    alpha, beta = alpha_beta(act, gamma, sd, r)
    return gamma * gamma * alpha + beta


def sup_sqrt_nu(act, gamma, sd, r_max, grid_points=121, refine=60):
    """``sup_{0 <= r <= r_max} sqrt(nu(r))``: a grid scan, then a ternary
    search inside the best grid cell's neighbours."""
    rs = np.linspace(0.0, r_max, grid_points)
    values = [nu(act, gamma, sd, float(r)) for r in rs]
    best = int(np.argmax(values))
    lo, hi = rs[max(best - 1, 0)], rs[min(best + 1, grid_points - 1)]
    top = values[best]
    for _ in range(refine):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        f1, f2 = nu(act, gamma, sd, m1), nu(act, gamma, sd, m2)
        top = max(top, f1, f2)
        if f1 >= f2:
            hi = m2
        else:
            lo = m1
    return math.sqrt(top)


# ---------------------------------------------------------------------------
# Feature maps re-drawn from numpy's Philox streams.
#
# The sampling layout is the one kerlip documents: a child seed is
# SeedSequence(seed, spawn_key=indices) reduced to one uint64; within a
# draw, weights come from sub-stream 0, the Student mixing variable from
# sub-stream 1 and the biases from sub-stream 2.


def child_seed(seed, *indices):
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


def _substream(seed, key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


def draw_map(weights, bias, n, seed):
    """Weights ``(n, d)`` and biases ``(n,)``.

    ``weights`` is ``("gaussian", cov)``, ``("isotropic", gamma, d)`` or
    ``("student", nu, shape)``; ``bias`` is ``("uniform", a, b)`` or
    ``("gaussian", sd)``.
    """
    kind = weights[0]
    if kind == "isotropic":
        _, gamma, d = weights
        w = gamma * _substream(seed, 0).standard_normal((n, d))
    elif kind == "gaussian":
        chol = np.linalg.cholesky(weights[1])
        w = _substream(seed, 0).standard_normal((n, chol.shape[0])) @ chol.T
    elif kind == "student":
        _, nu_, shape = weights
        df = 2.0 * nu_
        chol = np.linalg.cholesky(shape)
        z = _substream(seed, 0).standard_normal((n, chol.shape[0])) @ chol.T
        w = z / np.sqrt(_substream(seed, 1).chisquare(df, size=n) / df)[:, None]
    else:
        raise ValueError(f"unknown weight law {kind!r}")
    rng_b = _substream(seed, 2)
    if bias[0] == "uniform":
        b = bias[1] + (bias[2] - bias[1]) * rng_b.random(n)
    elif bias[0] == "gaussian":
        b = bias[1] * rng_b.standard_normal(n)
    else:
        raise ValueError(f"unknown bias law {bias[0]!r}")
    return w, b


def grid_max_jacobian_norm(act, w, b, grid):
    """``max_x ||J(x)||_2`` over the grid rows, ``J(x) = s'(W x + b) W / sqrt(N)``.

    ``J^T J = W^T diag(s'^2) W / N`` is ``d x d``; its largest eigenvalue is
    taken in closed form for ``d <= 2``.
    """
    n, d = w.shape
    slope_sq = SLOPE_SQ[act](grid @ w.T + b) / n  # (points, N)
    if d == 1:
        top = slope_sq @ (w[:, 0] * w[:, 0])
    elif d == 2:
        a = slope_sq @ (w[:, 0] * w[:, 0])
        c = slope_sq @ (w[:, 1] * w[:, 1])
        off = slope_sq @ (w[:, 0] * w[:, 1])
        top = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + off * off)
    else:
        raise ValueError("grid maxima are implemented for d <= 2")
    return float(np.sqrt(np.max(top)))


def sweep_rows(act, weights, bias, n_list, realizations, delta, grid, seed, reference):
    """Quantile-sweep rows ``(N, t_hat, quantile_index, mean, sd)`` recomputed
    from the re-drawn maps and the closed-form reference."""
    rows = []
    k = math.ceil(delta * realizations)
    for n in n_list:
        values = np.array([
            grid_max_jacobian_norm(act, *draw_map(weights, bias, n, child_seed(seed, n, i)), grid)
            for i in range(realizations)])
        rows.append((n, float(np.sort(values)[k - 1] - reference), k,
                     float(np.mean(values)), float(np.std(values))))
    return rows


def kernel_errors(sigma, n_list, pairs, seed):
    """Sup error of the Fourier-feature kernel estimate of the Gaussian kernel
    over ``pairs``, one draw at the largest N with nested prefixes."""
    n_max = max(n_list)
    w, b = draw_map(("gaussian", sigma), ("uniform", 0.0, 2.0 * math.pi), n_max,
                    child_seed(seed, 0))
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    products = 2.0 * np.cos(xs @ w.T + b) * np.cos(ys @ w.T + b)
    partial = np.cumsum(products, axis=1)
    deltas = xs - ys
    exact = np.exp(-0.5 * np.einsum("pi,ij,pj->p", deltas, sigma, deltas))
    return [float(np.max(np.abs(partial[:, n - 1] / n - exact))) for n in sorted(n_list)]
