"""Catalogue of activations, weight/bias laws and closed-form kernels.

All types are immutable after construction.  Samplers are pure functions
of ``(params, seed)`` built on counter-based Philox streams, so draws are
reproducible and independent of call order.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .errors import InvalidArgumentError, UnsupportedDistributionError

__all__ = [
    "Activation",
    "BiasDistribution",
    "WeightDistribution",
    "ShiftInvariantKernel",
    "scaled_cosine",
    "relu",
    "identity",
    "tanh_activation",
    "ACTIVATIONS",
    "gaussian_kernel",
    "matern_kernel",
    "laplace_kernel",
    "kappa_eval",
    "sample_weights",
    "second_moment_status",
]


@dataclass(frozen=True)
class Activation:
    """Scalar nonlinearity with derivative and Lipschitz data.

    ``derivative`` is defined as 0 at the points listed in ``kinks``
    (the non-differentiable set), which keeps directional derivatives
    measurable everywhere.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    kinks: tuple[float, ...] = ()


def scaled_cosine(kappa0: float = 1.0) -> Activation:
    """``u -> sqrt(2 kappa0) cos(u)``, the random-Fourier-feature activation."""
    amp = np.sqrt(2.0 * kappa0)
    return Activation(
        name="cos",
        value=lambda u: amp * np.cos(u),
        derivative=lambda u: -amp * np.sin(u),
        lipschitz_bound=float(amp),
    )


def relu() -> Activation:
    return Activation(
        name="relu",
        value=lambda u: np.maximum(u, 0.0),
        derivative=lambda u: np.where(np.asarray(u) > 0.0, 1.0, 0.0),
        lipschitz_bound=1.0,
        kinks=(0.0,),
    )


def identity() -> Activation:
    return Activation(
        name="identity",
        value=lambda u: np.asarray(u, dtype=float),
        derivative=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        lipschitz_bound=1.0,
    )


def tanh_activation() -> Activation:
    return Activation(
        name="tanh",
        value=np.tanh,
        derivative=lambda u: 1.0 - np.tanh(u) ** 2,
        lipschitz_bound=1.0,
    )


ACTIVATIONS: dict[str, Callable[[], Activation]] = {
    "cos": scaled_cosine,
    "relu": relu,
    "identity": identity,
    "tanh": tanh_activation,
}


@dataclass(frozen=True)
class BiasDistribution:
    """Bias law: ``uniform(a, b)``, ``gaussian(0, sd)`` or a point mass at 0."""

    family: str
    params: tuple[float, ...]

    @staticmethod
    def uniform(a: float, b: float) -> "BiasDistribution":
        if not a < b:
            raise InvalidArgumentError(f"uniform bias needs a < b, got ({a}, {b})")
        return BiasDistribution("uniform", (float(a), float(b)))

    @staticmethod
    def gaussian(sd: float) -> "BiasDistribution":
        if sd <= 0:
            raise InvalidArgumentError(f"gaussian bias needs sd > 0, got {sd}")
        return BiasDistribution("gaussian", (float(sd),))

    @staticmethod
    def point_mass() -> "BiasDistribution":
        return BiasDistribution("point", (0.0,))

    @property
    def sd(self) -> float:
        if self.family == "uniform":
            a, b = self.params
            return (b - a) / np.sqrt(12.0)
        if self.family == "gaussian":
            return self.params[0]
        return 0.0

    @property
    def absolutely_continuous(self) -> bool:
        return self.family in ("uniform", "gaussian")


@dataclass(frozen=True)
class WeightDistribution:
    """Weight law of a random feature / spectral measure of a kernel.

    Families: ``isotropic-gaussian(gamma, d)``, ``gaussian-cov(cov)``,
    ``student-t`` with ``2 nu`` degrees of freedom and shape matrix
    ``shape`` and ``cauchy(d)`` (the ``nu = 1/2`` Student case).
    """

    family: str
    d: int
    gamma: Optional[float] = None
    cov: Optional[np.ndarray] = None
    nu: Optional[float] = None
    shape: Optional[np.ndarray] = None

    @staticmethod
    def isotropic_gaussian(gamma: float, d: int) -> "WeightDistribution":
        if gamma <= 0:
            raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
        return WeightDistribution("isotropic-gaussian", d, gamma=float(gamma))

    @staticmethod
    def gaussian_cov(cov: np.ndarray) -> "WeightDistribution":
        cov = _check_spd(cov)
        return WeightDistribution("gaussian-cov", cov.shape[0], cov=cov)

    @staticmethod
    def student_t(nu: float, shape: np.ndarray) -> "WeightDistribution":
        if nu <= 0:
            raise InvalidArgumentError(f"nu must be positive, got {nu}")
        shape = _check_spd(shape)
        return WeightDistribution("student-t", shape.shape[0], nu=float(nu), shape=shape)

    @staticmethod
    def cauchy(d: int) -> "WeightDistribution":
        return WeightDistribution("cauchy", d)


def _check_spd(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-10 * max(np.max(np.abs(m)), 1.0):
        raise InvalidArgumentError("matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0):
        raise InvalidArgumentError("matrix must be positive definite")
    return m


def second_moment_status(dist: WeightDistribution) -> Optional[np.ndarray]:
    """Analytic covariance of the weight law, or ``None`` when infinite.

    Student weights with ``2 nu`` degrees of freedom are integrable in
    second moment iff ``nu > 1``; Cauchy weights never are.
    """
    if dist.family == "isotropic-gaussian":
        return dist.gamma**2 * np.eye(dist.d)
    if dist.family == "gaussian-cov":
        return dist.cov.copy()
    if dist.family == "student-t":
        if dist.nu > 1.0:
            return (2.0 * dist.nu / (2.0 * dist.nu - 2.0)) * dist.shape
        return None
    if dist.family == "cauchy":
        return None
    raise UnsupportedDistributionError(f"unknown weight family: {dist.family!r}")


def _stream(seed: int, key: int) -> np.random.Generator:
    """Philox sub-stream ``key`` of the master ``seed``.

    Separate sub-streams per component keep draws for ``n`` rows a prefix
    of the draws for ``n' > n`` rows.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic 64-bit child seed for an indexed realization."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_weights(dist: WeightDistribution, bias: BiasDistribution,
                   n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. weight rows and biases, deterministically in ``seed``.

    Student weights are sampled as gaussian divided by
    ``sqrt(chi2(2 nu) / (2 nu))``; Cauchy is the ``nu = 1/2`` case.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    rng_w = _stream(seed, 0)

    if dist.family == "isotropic-gaussian":
        w = dist.gamma * rng_w.standard_normal((n, dist.d))
    elif dist.family == "gaussian-cov":
        chol = np.linalg.cholesky(dist.cov)
        w = rng_w.standard_normal((n, dist.d)) @ chol.T
    elif dist.family in ("student-t", "cauchy"):
        if dist.family == "student-t":
            df, shape = 2.0 * dist.nu, dist.shape
        else:
            df, shape = 1.0, np.eye(dist.d)
        chol = np.linalg.cholesky(shape)
        z = rng_w.standard_normal((n, dist.d)) @ chol.T
        mix = _stream(seed, 1).chisquare(df, size=n)
        w = z / np.sqrt(mix / df)[:, None]
    else:
        raise UnsupportedDistributionError(f"no sampler for family {dist.family!r}")

    rng_b = _stream(seed, 2)
    if bias.family == "uniform":
        a, b = bias.params
        biases = a + (b - a) * rng_b.random(n)
    elif bias.family == "gaussian":
        biases = bias.params[0] * rng_b.standard_normal(n)
    elif bias.family == "point":
        biases = np.zeros(n)
    else:
        raise UnsupportedDistributionError(f"no sampler for bias family {bias.family!r}")
    return w, biases


@dataclass(frozen=True)
class ShiftInvariantKernel:
    """Closed-form kernel ``k(x, y) = kappa(x - y)`` with its spectral law."""

    family: str
    d: int
    kappa0: float
    spectral: WeightDistribution
    sigma: Optional[np.ndarray] = None
    nu: Optional[float] = None

    def kappa(self, delta: np.ndarray) -> float:
        return kappa_eval(self, delta)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return kappa_eval(self, np.asarray(x, dtype=float) - np.asarray(y, dtype=float))


def gaussian_kernel(sigma: np.ndarray) -> ShiftInvariantKernel:
    """Anisotropic Gaussian kernel ``exp(-1/2 d^T Sigma d)``.

    Its normalized spectral measure is ``N(0, Sigma)``.
    """
    sigma = _check_spd(sigma)
    return ShiftInvariantKernel(
        family="gaussian",
        d=sigma.shape[0],
        kappa0=1.0,
        spectral=WeightDistribution.gaussian_cov(sigma),
        sigma=sigma,
    )


def matern_kernel(nu: float, sigma: np.ndarray) -> ShiftInvariantKernel:
    """Anisotropic Matern kernel with smoothness ``nu``.

    Evaluated through the modified Bessel function of the second kind on
    the argument ``sqrt(2 nu d^T Sigma^-1 d)``; the spectral measure is
    the multivariate Student law with ``2 nu`` degrees of freedom and
    shape matrix ``Sigma^-1``.
    """
    if nu <= 0:
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    sigma = _check_spd(sigma)
    shape = np.linalg.inv(sigma)
    return ShiftInvariantKernel(
        family="matern",
        d=sigma.shape[0],
        kappa0=1.0,
        spectral=WeightDistribution.student_t(nu, 0.5 * (shape + shape.T)),
        sigma=sigma,
        nu=float(nu),
    )


def laplace_kernel(d: int) -> ShiftInvariantKernel:
    """Isotropic Laplace kernel ``exp(-||d||)`` with Cauchy spectral law."""
    return ShiftInvariantKernel(
        family="laplace",
        d=d,
        kappa0=1.0,
        spectral=WeightDistribution.cauchy(d),
    )


def kappa_eval(kernel: ShiftInvariantKernel, delta: np.ndarray) -> float:
    """Closed-form ``kappa(delta)``.

    The Matern value at ``delta = 0`` is the small-argument limit 1, not
    the singular ``0 * inf`` product.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.shape != (kernel.d,):
        raise InvalidArgumentError(
            f"delta has shape {delta.shape}, kernel dimension is {kernel.d}")
    if kernel.family == "gaussian":
        return float(np.exp(-0.5 * delta @ kernel.sigma @ delta))
    if kernel.family == "laplace":
        return float(np.exp(-np.linalg.norm(delta)))
    if kernel.family == "matern":
        nu = kernel.nu
        arg = np.sqrt(2.0 * nu * delta @ kernel.spectral.shape @ delta)
        if arg < 1e-8:
            return 1.0
        return float(2.0 ** (1.0 - nu) / gamma_fn(nu) * arg**nu * kv(nu, arg))
    raise UnsupportedDistributionError(f"unknown kernel family: {kernel.family!r}")
