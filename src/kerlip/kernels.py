"""Catalogue of activations, weight/bias laws and closed-form kernels.

A weight law is one ``(shape, nu)`` pair: ``N(0, shape)`` when ``nu`` is
``None``, else the Student law with ``2 nu`` degrees of freedom and shape
matrix ``shape``.  Its second moment is finite iff ``nu`` is ``None`` or
``nu > 1``, the test the shift-invariant result turns on.

All types are immutable after construction: matrices are private
read-only copies.  Samplers are pure functions of ``(params, seed)``
built on counter-based Philox streams, so draws are reproducible and
independent of call order.
"""

from dataclasses import dataclass, field
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
    measurable everywhere.  ``sine_amplitude`` is ``a`` when
    ``derivative(u) = -a sin(u)``, and ``None`` otherwise; the grid
    estimator then computes sines by phase rotation.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    kinks: tuple[float, ...] = ()
    sine_amplitude: Optional[float] = None


def scaled_cosine(kappa0: float = 1.0) -> Activation:
    """``u -> sqrt(2 kappa0) cos(u)``, the random-Fourier-feature activation."""
    amp = np.sqrt(2.0 * kappa0)
    return Activation(
        name="cos",
        value=lambda u: amp * np.cos(u),
        derivative=lambda u: -amp * np.sin(u),
        lipschitz_bound=float(amp),
        sine_amplitude=float(amp),
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


@dataclass(frozen=True, eq=False)
class WeightDistribution:
    """Weight law of a random feature / spectral measure of a kernel.

    One law is a symmetric positive definite ``shape`` matrix and an
    optional ``nu``.  With ``nu = None`` the law is ``N(0, shape)``; with
    ``nu`` set it is the multivariate Student law with ``2 nu`` degrees
    of freedom and shape matrix ``shape``, whose second moment is finite
    iff ``nu > 1``.  The constructor keeps a read-only copy of ``shape``
    and factors it once into its lower Cholesky factor ``chol``.
    """

    shape: np.ndarray
    nu: Optional[float] = None
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nu is not None and not self.nu > 0:
            raise InvalidArgumentError(f"nu must be positive, got {self.nu}")
        shape = _check_spd(self.shape).copy()
        chol = np.linalg.cholesky(shape)
        shape.flags.writeable = False
        chol.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "chol", chol)

    @property
    def d(self) -> int:
        return self.shape.shape[0]

    @staticmethod
    def isotropic_gaussian(gamma: float, d: int) -> "WeightDistribution":
        if gamma <= 0:
            raise InvalidArgumentError(f"gamma must be positive, got {gamma}")
        return WeightDistribution(float(gamma) ** 2 * np.eye(d))

    @staticmethod
    def gaussian_cov(cov: np.ndarray) -> "WeightDistribution":
        return WeightDistribution(cov)

    @staticmethod
    def student_t(nu: float, shape: np.ndarray) -> "WeightDistribution":
        return WeightDistribution(shape, float(nu))

    @staticmethod
    def cauchy(d: int) -> "WeightDistribution":
        return WeightDistribution.student_t(0.5, np.eye(d))


def _check_spd(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidArgumentError(f"expected a nonempty square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-10 * max(np.max(np.abs(m)), 1.0):
        raise InvalidArgumentError("matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0):
        raise InvalidArgumentError("matrix must be positive definite")
    return m


def second_moment_status(dist: WeightDistribution) -> Optional[np.ndarray]:
    """Analytic covariance of the weight law, or ``None`` when infinite.

    Student weights with ``2 nu`` degrees of freedom are integrable in
    second moment iff ``nu > 1``; Cauchy weights (``nu = 1/2``) are not.
    """
    if dist.nu is None:
        return dist.shape.copy()
    if dist.nu > 1.0:
        return (2.0 * dist.nu / (2.0 * dist.nu - 2.0)) * dist.shape
    return None


#: Rows per in-place block of :func:`sample_weights` (1 MiB at d = 2).
_DRAW_ROWS = 1 << 16


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


def _row_blocks(n: int, rows: int):
    """``(lo, hi)`` bounds of ``ceil(n / rows)`` near-equal blocks of ``n`` rows.

    For ``rows >= 3`` they leave no one-row block unless ``n == 1``: numpy
    computes a one-row product on another BLAS path, with other last bits
    than the same row in a larger product.
    """
    blocks = -(-n // rows)
    return [(n * k // blocks, n * (k + 1) // blocks) for k in range(blocks)]


def _law_streams(dist: WeightDistribution, seed: int) -> tuple:
    """The Philox streams of one draw: the normals, the Student mix (or
    ``None``) and the bias."""
    return (_stream(seed, 0), _stream(seed, 1) if dist.nu is not None else None,
            _stream(seed, 2))


def _draw_rows(dist: WeightDistribution, bias: BiasDistribution, streams: tuple,
               w: np.ndarray, b: np.ndarray) -> None:
    """Fill ``w[k, d]`` and ``b[k]`` with the next ``k`` draws of ``streams``.

    Consecutive calls draw what one call over all their rows would: each
    stream is read in row order.
    """
    normals, mix_stream, bias_stream = streams
    normals.standard_normal(out=w)
    w[...] = w @ dist.chol.T
    if dist.nu is not None:
        df = 2.0 * dist.nu
        mix = mix_stream.chisquare(df, size=len(w))
        w /= np.sqrt(mix / df)[:, None]
    if bias.family == "uniform":
        lo, hi = bias.params
        bias_stream.random(out=b)
        b *= hi - lo
        b += lo
    elif bias.family == "gaussian":
        bias_stream.standard_normal(out=b)
        b *= bias.params[0]
    elif bias.family == "point":
        b[...] = 0.0
    else:
        raise UnsupportedDistributionError(f"no sampler for bias family {bias.family!r}")


def sample_weights(dist: WeightDistribution, bias: BiasDistribution,
                   n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. weight rows and biases, deterministically in ``seed``.

    Every law draws ``z @ chol.T`` with ``z`` standard normal; Student
    weights divide that by ``sqrt(chi2(2 nu) / (2 nu))``.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    w = np.empty((n, dist.d))
    biases = np.empty(n)
    streams = _law_streams(dist, seed)
    # In row blocks, so that the product holds no second (n, d) array.
    for lo, hi in _row_blocks(n, _DRAW_ROWS):
        _draw_rows(dist, bias, streams, w[lo:hi], biases[lo:hi])
    return w, biases


@dataclass(frozen=True, eq=False)
class ShiftInvariantKernel:
    """Closed-form kernel ``k(x, y) = kappa(x - y)`` with ``kappa(0) = 1``.

    The spectral law carries the kernel's parameters: the Gaussian
    ``Sigma`` is ``spectral.shape`` (``nu`` is ``None``), the Matern ``nu``
    and ``Sigma^-1`` are ``spectral.nu`` and ``spectral.shape``, and the
    Laplace law is the Cauchy one, ``nu = 1/2`` with identity shape.
    """

    family: str
    spectral: WeightDistribution

    @property
    def d(self) -> int:
        return self.spectral.d

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return kappa_eval(self, np.asarray(x, dtype=float) - np.asarray(y, dtype=float))


def gaussian_kernel(sigma: np.ndarray) -> ShiftInvariantKernel:
    """Anisotropic Gaussian kernel ``exp(-1/2 d^T Sigma d)``.

    Its normalized spectral measure is ``N(0, Sigma)``.
    """
    return ShiftInvariantKernel("gaussian", WeightDistribution.gaussian_cov(sigma))


def matern_kernel(nu: float, sigma: np.ndarray) -> ShiftInvariantKernel:
    """Anisotropic Matern kernel with smoothness ``nu``.

    Evaluated through the modified Bessel function of the second kind on
    the argument ``sqrt(2 nu d^T Sigma^-1 d)``; the spectral measure is
    the multivariate Student law with ``2 nu`` degrees of freedom and
    shape matrix ``Sigma^-1``.
    """
    shape = np.linalg.inv(_check_spd(sigma))
    return ShiftInvariantKernel(
        "matern", WeightDistribution.student_t(nu, 0.5 * (shape + shape.T)))


def laplace_kernel(d: int) -> ShiftInvariantKernel:
    """Isotropic Laplace kernel ``exp(-||d||)`` with Cauchy spectral law."""
    return ShiftInvariantKernel("laplace", WeightDistribution.cauchy(d))


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
        return float(np.exp(-0.5 * delta @ kernel.spectral.shape @ delta))
    if kernel.family == "laplace":
        return float(np.exp(-np.linalg.norm(delta)))
    if kernel.family == "matern":
        nu = kernel.spectral.nu
        arg = np.sqrt(2.0 * nu * delta @ kernel.spectral.shape @ delta)
        if arg < 1e-8:
            return 1.0
        return float(2.0 ** (1.0 - nu) / gamma_fn(nu) * arg**nu * kv(nu, arg))
    raise UnsupportedDistributionError(f"unknown kernel family: {kernel.family!r}")
