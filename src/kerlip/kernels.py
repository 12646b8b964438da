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

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, UnsupportedDistributionError

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
class _SquaredDerivative:
    """``u -> derivative(u)**2``, the ``slope_sq`` an :class:`Activation`
    derives when none is given."""

    derivative: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u):
        return self.derivative(u) ** 2


@dataclass(frozen=True)
class Activation:
    """Scalar nonlinearity with derivative and Lipschitz data.

    ``derivative`` is defined as 0 at the points listed in ``kinks``
    (the non-differentiable set), which keeps directional derivatives
    measurable everywhere.  ``sine_amplitude`` is ``a`` when
    ``derivative(u) = -a sin(u)``, and ``None`` otherwise; the grid
    estimator then reads its norms off the double-angle identity.
    ``slope_sq`` is ``u -> s'(u)**2``, the one definition of the squared
    slope that the grid estimator and the curvature profile read; left
    unset it squares ``derivative`` and follows it through
    ``dataclasses.replace``; one given must keep those bits.
    ``slope_sq_integral`` is ``S(u)``, the integral of ``slope_sq``
    from 0 to ``u``, or ``None``; a uniform bias needs it.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    kinks: tuple[float, ...] = ()
    sine_amplitude: Optional[float] = None
    slope_sq_integral: Optional[Callable[[np.ndarray], np.ndarray]] = None
    slope_sq: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.slope_sq is None or isinstance(self.slope_sq, _SquaredDerivative):
            object.__setattr__(self, "slope_sq", _SquaredDerivative(self.derivative))


def scaled_cosine(kappa0: float = 1.0) -> Activation:
    """``u -> sqrt(2 kappa0) cos(u)``, the random-Fourier-feature activation."""
    amp = np.sqrt(2.0 * kappa0)
    return Activation(
        name="cos",
        value=lambda u: amp * np.cos(u),
        derivative=lambda u: -amp * np.sin(u),
        lipschitz_bound=float(amp),
        sine_amplitude=float(amp),
        slope_sq_integral=lambda u: kappa0 * (u - 0.5 * np.sin(2.0 * u)),
    )


def relu() -> Activation:
    return Activation(
        name="relu",
        value=lambda u: np.maximum(u, 0.0),
        derivative=lambda u: np.where(np.asarray(u) > 0.0, 1.0, 0.0),
        lipschitz_bound=1.0,
        kinks=(0.0,),
        slope_sq_integral=lambda u: np.maximum(u, 0.0),
        # 1.0 where u > 0, written straight into a float array: the bits of
        # the squared 0/1 slopes, with no select and no squaring pass.
        slope_sq=lambda u: np.greater(u, 0.0, out=np.empty(np.shape(u))),
    )


def identity() -> Activation:
    return Activation(
        name="identity",
        value=lambda u: np.asarray(u, dtype=float),
        derivative=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        lipschitz_bound=1.0,
        slope_sq_integral=lambda u: np.asarray(u, dtype=float),
    )


def tanh_activation() -> Activation:
    return Activation(
        name="tanh",
        value=np.tanh,
        derivative=lambda u: 1.0 - np.tanh(u) ** 2,
        lipschitz_bound=1.0,
        slope_sq_integral=lambda u: np.tanh(u) - np.tanh(u) ** 3 / 3.0,
    )


ACTIVATIONS: dict[str, Callable[[], Activation]] = {
    "cos": scaled_cosine,
    "relu": relu,
    "identity": identity,
    "tanh": tanh_activation,
}


#: Each bias family's parameter check, and what it asks for.
_BIAS_CHECKS = {
    "uniform": (lambda p: len(p) == 2 and -np.inf < p[0] < p[1] and p[1] - p[0] < np.inf,
                "finite a < b with a finite width b - a"),
    "gaussian": (lambda p: len(p) == 1 and 0 < p[0] < np.inf, "one finite sd > 0"),
    "point": (lambda p: p == (0.0,), "the one point 0"),
}


@dataclass(frozen=True)
class BiasDistribution:
    """Bias law: ``uniform(a, b)``, ``gaussian(0, sd)`` or a point mass at 0.

    The constructor checks the parameters and stores them as floats.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _BIAS_CHECKS:
            raise UnsupportedDistributionError(f"unknown bias family {self.family!r}")
        valid, need = _BIAS_CHECKS[self.family]
        params = tuple(float(p) for p in self.params)
        if not valid(params):
            raise InvalidArgumentError(f"{self.family} bias needs {need}, got {self.params}")
        object.__setattr__(self, "params", params)

    @staticmethod
    def uniform(a: float, b: float) -> "BiasDistribution":
        return BiasDistribution("uniform", (a, b))

    @staticmethod
    def gaussian(sd: float) -> "BiasDistribution":
        return BiasDistribution("gaussian", (sd,))

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
    iff ``nu > 1``.  The constructor refuses a non-finite ``shape`` or
    ``nu``, keeps a read-only copy of ``shape`` and factors it once into
    its lower Cholesky factor ``chol``.
    """

    shape: np.ndarray
    nu: Optional[float] = None
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nu is not None and not 0 < self.nu < np.inf:
            raise InvalidArgumentError(f"nu must be positive and finite, got {self.nu}")
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
        if not _normal_square(gamma):
            raise InvalidArgumentError(
                f"gamma must be positive and finite, with gamma**2 a normal float, got {gamma}")
        return WeightDistribution(np.float64(gamma) ** 2 * np.eye(d))

    @staticmethod
    def gaussian_cov(cov: np.ndarray) -> "WeightDistribution":
        return WeightDistribution(cov)

    @staticmethod
    def student_t(nu: float, shape: np.ndarray) -> "WeightDistribution":
        return WeightDistribution(shape, float(nu))

    @staticmethod
    def cauchy(d: int) -> "WeightDistribution":
        return WeightDistribution.student_t(0.5, np.eye(d))


def _normal_square(x: float) -> bool:
    """Whether ``x`` is positive and its square a normal, finite float."""
    x = float(x)
    return x > 0 and np.finfo(float).tiny <= x * x < np.inf


def _check_spd(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidArgumentError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidArgumentError("matrix entries must be finite")
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
        # Not 2 nu / (2 nu - 2): the same bits, but inf / inf for nu near 9e307.
        return (dist.nu / (dist.nu - 1.0)) * dist.shape
    return None


#: Rows per in-place block of :func:`sample_weights` (1 MiB at d = 2).
_DRAW_ROWS = 1 << 16

#: Most floats per group of maps that one :func:`_transform` call turns
#: (64 KiB).  Its product temporary then stays under glibc's 128 KiB mmap
#: threshold; a larger one moves the heap's top and costs page faults.
_TRANSFORM_ELEMENTS = 8192


def _integer(value, name: str) -> int:
    """``value`` as an int; a float or another non-integer raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def derive_seed(seed: int, *indices):
    """Deterministic 64-bit child seed for an indexed realization.

    With a ``range`` as the last index, the child seed of each of its
    indices, as a uint64 array.
    """
    *prefix, last = indices if indices and isinstance(indices[-1], range) else (*indices, None)
    seed, *prefix = (_integer(v, "seed and each index") for v in (seed, *prefix))
    if min([seed, *prefix]) < 0:
        raise InvalidArgumentError(f"seed and indices must be non-negative, got "
                                   f"{(seed, *indices)}")
    if last is not None:
        if last and not 0 <= min(last) <= max(last) <= _MASK32:
            raise InvalidArgumentError(f"indices must lie in [0, 2**32), got {last}")
        head = np.random.SeedSequence(seed, spawn_key=prefix)
        # The head's pool holds the seed's words, padded to the pool size, and the prefix's.
        mixed = max(_POOL_WORDS, _word_count(seed)) + sum(map(_word_count, prefix))
        return _spawn_states(head.pool, mixed, np.asarray(last, dtype=np.uint32), 1)[:, 0]
    ss = np.random.SeedSequence(seed, spawn_key=prefix)
    return int(ss.generate_state(1, np.uint64)[0])


# The end of numpy's SeedSequence hash (numpy/random/bit_generator.pyx), run
# on many pools at once.  All arithmetic is on uint32 words, modulo 2**32.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The hash constants ``init * mult**t`` for ``t = start, ..., start + count``."""
    return np.array([init * pow(mult, t, 1 << 32) & _MASK32
                     for t in range(start, start + count + 1)], dtype=np.uint32)


def _word_count(value: int) -> int:
    """The number of 32-bit words SeedSequence splits the int ``value`` into."""
    return max(1, -(-int(value).bit_length() // 32))


def _spawn_states(pools: np.ndarray, mixed: int, last: np.ndarray,
                  n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of each child of numpy's pools.

    ``pools`` are SeedSequence pools, shape ``(..., 4)``, with ``mixed``
    words in each, and a child appends the uint32 spawn-key word ``last``.
    The shapes broadcast, so one array operation gives many children.
    SeedSequence mixes one pool word at a time; the four do not depend on
    each other, so each step here is one operation over them, with the
    hash constants they get in turn.
    """
    # 4 hash calls per word: 4 + 12 for the first four, then 4 for each next one.
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * mixed, _POOL_WORDS)
    value = last[..., None] ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> np.uint32(16)
    pool = np.uint32(_MIX_L) * pools - np.uint32(_MIX_R) * value
    pool ^= pool >> np.uint32(16)
    consts = _hash_constants(_INIT_B, _MULT_B, 0, 2 * n_words)
    state = pool[..., np.arange(2 * n_words) % _POOL_WORDS] ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> np.uint32(16)
    return np.ascontiguousarray(state).view("<u8").astype(np.uint64)


def _stream_keys(seed, dist: WeightDistribution, bias: BiasDistribution) -> tuple:
    """The Philox key of each sub-stream that a draw from ``seed`` reads.

    Sub-stream ``k`` of a seed is ``Philox(SeedSequence(seed, spawn_key=(k,)))``:
    0 holds the normals, 1 the Student mix of Student weights, and 2 the
    biases unless they are a point mass.  Separate sub-streams keep the
    draws for ``n`` rows a prefix of those for more rows.  ``seed`` is one
    non-negative int or a 1-D uint64 array of seeds.  Returns a ``(seeds,
    2)`` uint64 array of keys per sub-stream, None where the draw reads none.
    """
    if isinstance(seed, np.ndarray):
        if seed.ndim != 1 or seed.dtype != np.uint64:
            raise InvalidArgumentError(
                f"seeds must be a 1-D uint64 array, got {seed.dtype} of shape {seed.shape}")
        # A uint64 seed fills two words at most, fewer than the pool holds.
        seeds, mixed = seed.tolist(), _POOL_WORDS
    else:
        seed = _integer(seed, "seed")
        if seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
        seeds, mixed = [seed], max(_POOL_WORDS, _word_count(seed))
    pools = np.array([np.random.SeedSequence(s).pool for s in seeds], dtype=np.uint32)
    read = (True, dist.nu is not None, bias.family != "point")
    keys = np.arange(len(read), dtype=np.uint32)[:, None]
    states = _spawn_states(pools.reshape(-1, _POOL_WORDS), mixed, keys, 2)
    return tuple(state if r else None for state, r in zip(states, read))


_ZEROS4 = np.zeros(4, np.uint64)
_ZEROS4.flags.writeable = False


def _keyed_streams(keys: tuple, i: int, streams: Optional[tuple] = None) -> tuple:
    """Generators for the sub-streams of seed ``i`` of ``_stream_keys``.

    Setting a Philox state costs a fraction of seeding a new generator, so
    passing the ``streams`` of an earlier call reloads those generators.
    """
    if streams is None:
        streams = tuple(np.random.Generator(np.random.Philox(key=0)) if k is not None
                        else None for k in keys)
    for generator, k in zip(streams, keys):
        if generator is not None:
            # The state Philox(SeedSequence) sets up: the key, nothing drawn
            # yet.  The setter copies the values out of the arrays it is given.
            generator.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": k[i]},
                "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return streams


def _read_raw(dist: WeightDistribution, bias: BiasDistribution, streams: tuple,
              w: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Read the raw draws of ``len(w)`` rows from ``streams`` into ``w`` and ``b``.

    ``streams`` are the generators that ``_keyed_streams`` gives.  ``w``
    gets standard normals, ``b`` the bias law's standard draws (uniform on
    [0, 1), standard normal or 0), and the return value is the chi-square
    mix of Student weights, or None.  :func:`_transform` turns them into
    the law's draws.
    """
    normals, mix, bias_stream = streams
    normals.standard_normal(out=w)
    if bias.family == "uniform":
        bias_stream.random(out=b)
    elif bias.family == "gaussian":
        bias_stream.standard_normal(out=b)
    else:
        b[...] = 0.0
    return None if mix is None else mix.chisquare(2.0 * dist.nu, size=len(w))


def _transform(dist: WeightDistribution, bias: BiasDistribution, w: np.ndarray,
               b: np.ndarray, mix: Optional[np.ndarray]) -> None:
    """Turn raw draws of :func:`_read_raw` into the laws' draws, in place.

    Weights are ``z @ chol.T``; Student weights divide that by ``sqrt(mix
    / (2 nu))``.  ``w`` is ``(n, d)`` or a ``(B, n, d)`` stack, with ``b``
    and ``mix`` of its leading shape.  ``np.matmul`` makes one BLAS call
    per map of a stack, so each map gets the bits it has alone.
    """
    w[...] = np.matmul(w, dist.chol.T)
    if mix is not None:
        df = 2.0 * dist.nu
        w /= np.sqrt(mix / df)[..., None]
    if bias.family == "uniform":
        low, high = bias.params
        b *= high - low
        b += low
    elif bias.family == "gaussian":
        b *= bias.params[0]


def _draw_blocks(dist: WeightDistribution, bias: BiasDistribution, n: int,
                 streams: tuple, w: np.ndarray, b: np.ndarray):
    """Draw ``n`` weight rows and biases from ``streams`` in row blocks.

    Yields the views ``(w_k, b_k)`` of each block once it is read and
    transformed: rows ``lo:hi`` of ``w`` and ``b`` when ``w`` holds ``n``
    rows, else their first ``hi - lo`` rows.  The blocks are near-equal,
    of at most ``min(len(w), _DRAW_ROWS)`` rows, so none has one row
    unless ``n == 1``: numpy computes a one-row product on another BLAS
    path, with other last bits.  Each stream is read in row order, so the
    blocks draw what one block of ``n`` rows would.
    """
    rows = min(len(w), _DRAW_ROWS)
    blocks = -(-n // rows)
    for k in range(blocks):
        lo, hi = n * k // blocks, n * (k + 1) // blocks
        at = lo if len(w) >= n else 0
        w_k, b_k = w[at:at + hi - lo], b[at:at + hi - lo]
        _transform(dist, bias, w_k, b_k, _read_raw(dist, bias, streams, w_k, b_k))
        yield w_k, b_k


def sample_weights(dist: WeightDistribution, bias: BiasDistribution,
                   n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. weight rows and biases, deterministically in ``seed``.

    ``seed`` is one non-negative int, which gives weights ``(n, d)`` and
    biases ``(n,)``, or a 1-D uint64 array of ``B`` seeds, which gives
    weights ``(B, n, d)`` and biases ``(B, n)``; map ``j`` then has the
    bits that ``int(seed[j])`` alone gives.  Up to ``_DRAW_ROWS`` rows,
    each map's raw streams are read into its slice of the stack, and one
    :func:`_transform` call turns each group of maps of at most
    ``_TRANSFORM_ELEMENTS`` floats.  Above that, each map is drawn in
    in-place blocks, so the product holds no second ``(n, d)`` array.
    """
    if _integer(n, "n") < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    keys = _stream_keys(seed, dist, bias)
    maps = len(keys[0])
    w = np.empty((maps, n, dist.d))
    biases = np.empty((maps, n))
    streams = None
    if n <= _DRAW_ROWS:
        mixes = None if dist.nu is None else np.empty((maps, n))
        for j in range(maps):
            streams = _keyed_streams(keys, j, streams)
            mix = _read_raw(dist, bias, streams, w[j], biases[j])
            if mixes is not None:
                mixes[j] = mix
        size = max(1, _TRANSFORM_ELEMENTS // (n * dist.d))
        for lo in range(0, maps, size):
            g = slice(lo, lo + size)
            _transform(dist, bias, w[g], biases[g], None if mixes is None else mixes[g])
    else:
        for j in range(maps):
            streams = _keyed_streams(keys, j, streams)
            for _ in _draw_blocks(dist, bias, n, streams, w[j], biases[j]):
                pass
    return (w, biases) if isinstance(seed, np.ndarray) else (w[0], biases[0])


@dataclass(frozen=True, eq=False)
class ShiftInvariantKernel:
    """Closed-form kernel ``k(x, y) = kappa(x - y)`` with ``kappa(0) = 1``.

    The spectral law is the kernel: the Gaussian ``Sigma`` is
    ``spectral.shape`` (``nu`` is ``None``), and the Matern ``nu`` and
    ``Sigma^-1`` are ``spectral.nu`` and ``spectral.shape``.  Laplace is
    Matern ``nu = 1/2``, ``Sigma = I``, whose law is the Cauchy one.
    """

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
    return ShiftInvariantKernel(WeightDistribution.gaussian_cov(sigma))


def matern_kernel(nu: float, sigma: np.ndarray) -> ShiftInvariantKernel:
    """Anisotropic Matern kernel with smoothness ``nu``.

    :func:`kappa_eval` evaluates it as the Gamma mixture
    ``E_s[exp(-nu q / (2 s))]``, ``s ~ Gamma(nu, 1)``,
    ``q = d^T Sigma^-1 d`` (``exp(-sqrt(2 nu q))`` at ``nu = 1/2``), and
    the Hessian oracle reads ``1 - kappa`` off the same mixture.  The
    spectral measure is the multivariate Student law with ``2 nu`` degrees
    of freedom and shape matrix ``Sigma^-1``.
    """
    shape = np.linalg.inv(_check_spd(sigma))
    return ShiftInvariantKernel(WeightDistribution.student_t(nu, 0.5 * (shape + shape.T)))


def laplace_kernel(d: int) -> ShiftInvariantKernel:
    """Isotropic Laplace kernel ``exp(-||d||)``: Matern ``nu = 1/2``, ``Sigma = I``."""
    return matern_kernel(0.5, np.eye(d))


def kappa_eval(kernel: ShiftInvariantKernel, delta: np.ndarray) -> float:
    """Closed-form ``kappa(delta)``, read off the spectral law's ``nu``.

    ``nu = None`` is the Gaussian kernel and ``nu = 1/2`` the closed form
    ``exp(-sqrt(2 nu q))``, with ``q = delta^T shape delta``.  Any other
    ``nu`` takes the Gamma mixture ``kappa = E_s[exp(-c / s)]``,
    ``c = nu q / 2``, ``s ~ Gamma(nu, 1)``, as one positive sum on the
    Legendre rule in ``log s`` that :func:`_one_minus_kappa` uses, with no
    Gamma or Bessel function to overflow; ``delta = 0`` gives exactly 1.
    Where the rule needs more than ``_MIXTURE_PANELS`` panels (``nu`` above
    about 3e7 or below about 0.02), :class:`NumericalFailureError` is raised.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.shape != (kernel.d,) or not np.isfinite(delta).all():
        raise InvalidArgumentError(
            f"delta must be finite, of shape ({kernel.d},), got {delta}")
    law = kernel.spectral
    if law.nu is None:
        return float(np.exp(-0.5 * delta @ law.shape @ delta))
    if law.nu == 0.5:
        return float(np.exp(-np.sqrt(2.0 * law.nu * delta @ law.shape @ delta)))
    c = 0.5 * law.nu * (delta @ law.shape @ delta)
    if c <= 0.0:
        return 1.0
    # kappa needs no nodes left of the law's own tail.  Where s = e^x is below
    # the floats, e^-x overflows and c / s = exp(log c - x), which is below 1
    # for a subnormal c.  kappa(0) = 1 caps a sum whose weights round.
    with np.errstate(over="ignore"):
        x, exp_neg_x, weights = _gamma_mixture_rule(float(law.nu), math.inf, c)
        terms = np.exp(-c * exp_neg_x)
        far = np.isinf(exp_neg_x)
        terms[far] = np.exp(-np.exp(math.log(c) - x[far]))
    return min(float(terms @ weights), 1.0)


#: The Gamma-mixture rule of :func:`kappa_eval` and :func:`_one_minus_kappa`:
#: Legendre panels of 32 nodes in ``x = log s``, of width at most 0.5 and at
#: most 8 standard deviations of ``log s`` near its mode; at most 4,096 panels.
_MIXTURE_ORDER = 32
_MIXTURE_WIDTH = 0.5
_MIXTURE_PANELS = 4096
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=16)
def _gamma_mixture_rule(nu: float, c_min: float,
                        c_max: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes ``x`` of the Gamma mixture, ``exp(-x)`` there and their weights.

    The weights are the Legendre weights times the ``Gamma(nu, 1)``
    density of ``x = log s``, divided by their sum: the rule's own
    normalisation, which stands for ``Gamma(nu)`` without the rounding of
    ``nu log nu - nu - lgamma(nu)``.  The panels reach from
    ``min(log nu, log c_min) - 40 / nu - 5``, far enough left for
    ``1 - kappa`` at every ``c = nu q / 2 >= c_min``, to
    ``log(m + 40 + 10 sqrt(m)) + 1``, ``m = nu + sqrt(c_max)``, past the
    peak of ``exp(-c / s)`` times the density for every ``c <= c_max``.
    """
    lo = min(math.log(nu), math.log(c_min)) - 40.0 / nu - 5.0
    m = nu + math.sqrt(c_max)
    hi = math.log(m + 40.0 + 10.0 * math.sqrt(m)) + 1.0
    width = min(_MIXTURE_WIDTH, 8.0 / math.sqrt(nu))
    panels = math.ceil((hi - lo) / width)
    if panels > _MIXTURE_PANELS:
        raise NumericalFailureError(
            f"the Gamma mixture at nu = {nu:g} needs {panels:.3g} panels, more than "
            f"{_MIXTURE_PANELS}")
    t, w = np.polynomial.legendre.leggauss(_MIXTURE_ORDER)
    x = (lo + width * (np.arange(panels) + 0.5))[:, None] + 0.5 * width * t
    y = x.ravel() - math.log(nu)
    # nu x - e^x, less its value nu log nu - nu at the mode.
    weights = np.tile(w, panels) * np.exp(nu * (y - np.expm1(y)))
    weights /= weights.sum()
    x = x.ravel()
    exp_neg_x = np.exp(-x)
    for array in (x, exp_neg_x, weights):
        array.flags.writeable = False
    return x, exp_neg_x, weights


def _one_minus_kappa(law: WeightDistribution, q, q_min: Optional[float] = None) -> np.ndarray:
    """``1 - kappa`` at ``q = delta^T shape delta``, elementwise over ``q``.

    Gaussian: ``-expm1(-q / 2)``; Matern ``nu = 1/2``:
    ``-expm1(-sqrt(2 nu q))``.  Any other ``nu`` takes the Gamma mixture
    ``kappa = E_s[exp(-nu q / (2 s))]``, ``s ~ Gamma(nu, 1)``, as
    ``E_s[-expm1(-nu q / (2 s))]`` on the rule of :func:`kappa_eval`, which
    has no ``1 - kappa`` cancellation.  The rule reaches every
    ``q >= q_min``, by default the smallest positive ``q``; a caller that
    passes one ``q_min`` for many calls builds it once.
    ``q = 0`` gives exactly 0.
    """
    q = np.asarray(q, dtype=float)
    nu = law.nu
    if nu is None:
        return -np.expm1(-0.5 * q)
    if nu == 0.5:
        return -np.expm1(-np.sqrt(2.0 * nu * q))
    if q_min is None:  # inf when no q is positive: the rule then starts left of the mode
        q_min = float(np.min(q, where=q > 0.0, initial=np.inf))
    # A subnormal q_min would give c_min = 0, whose log the rule cannot take.
    _, exp_neg_x, weights = _gamma_mixture_rule(float(nu), max(0.5 * nu * q_min, _TINY))
    return -np.expm1(np.multiply.outer(-0.5 * nu * q, exp_neg_x)) @ weights
