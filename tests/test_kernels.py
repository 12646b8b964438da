"""Tests for activations, weight/bias laws and closed-form kernels."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from kerlip.errors import InvalidArgumentError, NumericalFailureError, UnsupportedDistributionError
from kerlip.kernels import (
    ACTIVATIONS,
    BiasDistribution,
    ShiftInvariantKernel,
    WeightDistribution,
    _DRAW_ROWS,
    _draw_blocks,
    _keyed_streams,
    _one_minus_kappa,
    _spawn_states,
    _stream_keys,
    derive_seed,
    gaussian_kernel,
    kappa_eval,
    laplace_kernel,
    matern_kernel,
    relu,
    sample_weights,
    scaled_cosine,
    second_moment_status,
    tanh_activation,
)
from kerlip.numerics import _bias_rule

finite_floats = st.floats(min_value=-50.0, max_value=50.0)


class TestActivations:
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    @given(u=finite_floats, v=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_lipschitz_bound(self, name, u, v):
        act = ACTIVATIONS[name]()
        gap = abs(float(act.value(u)) - float(act.value(v)))
        assert gap <= act.lipschitz_bound * abs(u - v) + 1e-12

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_derivative_matches_finite_differences(self, name):
        # |s'(u) - central difference| <= 1e-6 + Lip(s) 1{u near a kink}.
        act = ACTIVATIONS[name]()
        h = 1e-5
        rng = np.random.default_rng(123)
        for u in rng.uniform(-4, 4, size=200):
            fd = (float(act.value(u + h)) - float(act.value(u - h))) / (2 * h)
            near_kink = any(abs(u - k) <= h for k in act.kinks)
            tol = 1e-6 + act.lipschitz_bound * near_kink
            assert abs(float(act.derivative(u)) - fd) <= tol

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_slope_sq_integral_matches_finite_differences(self, name):
        # S(0) = 0 and S' = s'^2, away from the kinks, for scaled_cosine(2) too.
        for act in (ACTIVATIONS[name](), scaled_cosine(2.0)):
            integral = act.slope_sq_integral
            assert float(integral(np.zeros(1))[0]) == 0.0
            h = 1e-5
            u = np.random.default_rng(7).uniform(-4, 4, size=200)
            u = u[np.all(np.abs(u[:, None] - np.array(act.kinks + (np.inf,))) > h, axis=1)]
            fd = (integral(u + h) - integral(u - h)) / (2 * h)
            assert_allclose(fd, act.derivative(u) ** 2, atol=1e-6)

    @pytest.mark.parametrize("name", ["relu", "tanh", "cos", "identity"])
    @given(u=st.one_of(st.floats(allow_nan=False),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                        -2.225073858507201e-308, np.inf, -np.inf])),
           size=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_slope_sq_has_the_bits_of_the_squared_derivative(self, name, u, size):
        # ReLU's indicator is written straight into a float array; every other
        # activation squares its derivative.  Scalars, the kink at 0, both
        # zeros, subnormals and infinities included.
        act = ACTIVATIONS[name]()
        for arg in (u, np.full(size, u), np.array([u, -u, 0.0, -0.0])):
            with np.errstate(invalid="ignore"):  # sin(inf) is NaN on both sides
                got, want = np.asarray(act.slope_sq(arg)), np.asarray(act.derivative(arg) ** 2)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_derived_slope_sq_follows_replace(self):
        # The derived hook squares the derivative the copy holds; a given hook
        # (ReLU's indicator) stays as it was given.
        doubled = dataclasses.replace(tanh_activation(),
                                      derivative=lambda u: 2.0 * np.ones_like(u))
        assert doubled.slope_sq(0.5) == 4.0
        assert np.array_equal(doubled.slope_sq(np.array([0.5, -3.0])), [4.0, 4.0])
        act = relu()
        kept = dataclasses.replace(act, derivative=lambda u: 2.0 * np.ones_like(u))
        assert kept.slope_sq is act.slope_sq
        tanh = tanh_activation()
        assert dataclasses.replace(tanh) == tanh

    def test_derivative_zero_at_kinks(self):
        act = relu()
        assert float(act.derivative(0.0)) == 0.0

    def test_scaled_cosine_amplitude(self):
        act = scaled_cosine(2.0)
        assert_allclose(float(act.value(0.0)), 2.0)
        assert_allclose(act.lipschitz_bound, 2.0)


class TestBiasDistribution:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.7, np.pi, 6.0])
    def test_uniform_phase_averages_sin_squared(self, theta):
        # E[sin^2(theta + b)] = 1/2 for b ~ Uniform[0, 2 pi], any theta.
        nodes, weights = _bias_rule(BiasDistribution.uniform(0.0, 2 * np.pi), 64)
        assert_allclose(np.dot(weights, np.sin(theta + nodes) ** 2), 0.5, rtol=1e-12)

    def test_sd(self):
        assert_allclose(BiasDistribution.uniform(0.0, 2 * np.pi).sd,
                        2 * np.pi / np.sqrt(12.0))
        assert BiasDistribution.gaussian(0.7).sd == 0.7
        assert BiasDistribution.point_mass().sd == 0.0

    def test_invalid_params(self):
        with pytest.raises(InvalidArgumentError):
            BiasDistribution.uniform(1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            BiasDistribution.gaussian(0.0)


class TestSampleWeights:
    BIAS = BiasDistribution.uniform(0.0, 2 * np.pi)

    def test_same_seed_bit_identical(self):
        dist = WeightDistribution.isotropic_gaussian(1.0, 2)
        w1, b1 = sample_weights(dist, self.BIAS, 100, seed=42)
        w2, b2 = sample_weights(dist, self.BIAS, 100, seed=42)
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_prefix_property(self):
        # Drawing more rows extends the draw; the prefix is unchanged.
        dist = WeightDistribution.isotropic_gaussian(1.0, 3)
        w_small, b_small = sample_weights(dist, self.BIAS, 10, seed=5)
        w_big, b_big = sample_weights(dist, self.BIAS, 50, seed=5)
        assert np.array_equal(w_small, w_big[:10])
        assert np.array_equal(b_small, b_big[:10])

    def test_isotropic_second_moment(self):
        dist = WeightDistribution.isotropic_gaussian(2.0, 3)
        w, _ = sample_weights(dist, self.BIAS, 10**6, seed=0)
        assert_allclose(np.mean(np.sum(w**2, axis=1)) / 3, 4.0, rtol=0.03)

    def test_sampler_mean_bound(self):
        n = 10**6
        for dist in (WeightDistribution.isotropic_gaussian(1.0, 2),
                     WeightDistribution.gaussian_cov(np.diag([1.0, 4.0])),
                     WeightDistribution.student_t(2.0, np.eye(2))):
            w, _ = sample_weights(dist, self.BIAS, n, seed=1)
            sd = np.std(w, axis=0)
            assert np.all(np.abs(np.mean(w, axis=0)) <= 4 * sd / np.sqrt(n))

    def test_gaussian_cov_empirical_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        dist = WeightDistribution.gaussian_cov(cov)
        w, _ = sample_weights(dist, self.BIAS, 10**6, seed=3)
        emp = np.cov(w, rowvar=False)
        assert np.linalg.norm(emp - cov) <= 0.05 * np.linalg.norm(cov)

    def test_student_covariance(self):
        # 2 nu / (2 nu - 2) * shape = 2 I at nu = 2, shape = I.
        dist = WeightDistribution.student_t(2.0, np.eye(2))
        w, _ = sample_weights(dist, self.BIAS, 10**6, seed=11)
        emp = np.cov(w, rowvar=False)
        assert np.linalg.norm(emp - 2 * np.eye(2)) <= 0.05 * np.linalg.norm(
            2 * np.eye(2))

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(7, 3, 1) == derive_seed(7, 3, 1)
        children = {derive_seed(7, n, i) for n in (16, 32) for i in range(50)}
        assert len(children) == 100

    # Floats used to raise a raw TypeError here.
    @pytest.mark.parametrize("args", [(1.5, range(3)), (1.5,), (7, 2.0), (7, 2.0, range(3)),
                                      (7, range(2), 3)],
                             ids=["seed_range", "seed", "index", "prefix", "inner_range"])
    def test_derive_seed_refuses_non_integers(self, args):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            derive_seed(*args)

    def test_sample_weights_refuses_non_integers(self):
        dist = WeightDistribution.isotropic_gaussian(1.0, 2)
        with pytest.raises(InvalidArgumentError, match="n must be an integer"):
            sample_weights(dist, self.BIAS, 2.5, seed=0)
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            sample_weights(dist, self.BIAS, 2, seed=1.5)

    def test_numpy_integers_accepted(self):
        assert derive_seed(np.uint64(7), np.int32(3), 1) == derive_seed(7, 3, 1)
        assert (derive_seed(np.int64(7), np.int8(3), range(4)) == derive_seed(7, 3, range(4))).all()
        dist = WeightDistribution.isotropic_gaussian(1.0, 2)
        got = sample_weights(dist, self.BIAS, np.int64(5), seed=np.uint64(9))
        want = sample_weights(dist, self.BIAS, 5, seed=9)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSecondMomentStatus:
    def test_gaussian_cov(self):
        cov = np.diag([1.0, 4.0])
        assert_allclose(second_moment_status(
            WeightDistribution.gaussian_cov(cov)), cov)

    def test_isotropic(self):
        assert_allclose(second_moment_status(
            WeightDistribution.isotropic_gaussian(0.5, 3)), 0.25 * np.eye(3))

    def test_student_boundary(self):
        assert second_moment_status(
            WeightDistribution.student_t(1.0, np.eye(2))) is None
        got = second_moment_status(WeightDistribution.student_t(2.0, np.eye(2)))
        assert_allclose(got, 2.0 * np.eye(2))

    def test_cauchy(self):
        assert second_moment_status(WeightDistribution.cauchy(3)) is None

    def test_student_factor_keeps_its_bits(self):
        # nu / (nu - 1) against the 2 nu / (2 nu - 2) it replaced: doubling is
        # exact, so both round the same quotient, below the overflow of 2 nu.
        rng = np.random.default_rng(11)
        nus = np.concatenate([1.0 + rng.random(400), 10.0 ** rng.uniform(0, 307, 400),
                              [1.0 + 2**-52, 2.0, 8.9e307]])
        shape = np.array([[2.0, 0.6], [0.6, 1.0]])
        for nu in nus:
            got = second_moment_status(WeightDistribution.student_t(nu, shape))
            assert np.array_equal(got, (2.0 * nu / (2.0 * nu - 2.0)) * shape), nu

    def test_student_factor_finite_for_huge_nu(self):
        got = second_moment_status(WeightDistribution.student_t(1e308, np.eye(2)))
        assert np.array_equal(got, np.eye(2))


class TestKappaEval:
    KERNELS = [gaussian_kernel(np.eye(2)),
               matern_kernel(2.0, np.eye(2)),
               laplace_kernel(2)]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_at_zero(self, kernel):
        assert_allclose(kappa_eval(kernel, np.zeros(2)), 1.0, rtol=1e-12)

    # A NaN delta used to give a NaN kappa.
    @pytest.mark.parametrize("kernel", [gaussian_kernel(np.eye(1)), matern_kernel(2.0, np.eye(1)),
                                        laplace_kernel(1)], ids=["gaussian", "matern", "laplace"])
    @pytest.mark.parametrize("delta", [[np.nan], [np.inf], [0.1, 0.2]],
                             ids=["nan", "inf", "width"])
    def test_bad_delta_refused(self, kernel, delta):
        with pytest.raises(InvalidArgumentError, match="delta must be finite"):
            kappa_eval(kernel, delta)

    def test_gaussian_plug_in(self):
        delta = np.array([1.0, 1.0])  # ||delta||^2 = 2
        assert_allclose(kappa_eval(gaussian_kernel(np.eye(2)), delta),
                        np.exp(-1.0), rtol=1e-12)

    def test_matern_limit_from_below(self):
        kernel = matern_kernel(2.0, np.eye(2))
        radii = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        values = np.array([kappa_eval(kernel, np.array([r, 0.0]))
                           for r in radii])
        assert np.all(values < 1.0)
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 1 - 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            kappa_eval(gaussian_kernel(np.eye(2)), np.zeros(3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_laplace_keeps_its_bits(self, d):
        # Laplace is Matern nu = 1/2, evaluated as exp(-sqrt(delta^T delta)),
        # which equals exp(-||delta||) bit for bit.
        rng = np.random.default_rng(d)
        deltas = rng.standard_normal((1000, d)) * 10.0 ** rng.uniform(-4, 1, (1000, 1))
        for kernel in (laplace_kernel(d), matern_kernel(0.5, np.eye(d))):
            got = [kappa_eval(kernel, delta) for delta in deltas]
            assert got == [float(np.exp(-np.linalg.norm(delta))) for delta in deltas]

    def test_kernel_is_its_spectral_law(self):
        assert [f.name for f in dataclasses.fields(ShiftInvariantKernel)] == ["spectral"]
        assert laplace_kernel(2).spectral.nu == 0.5

    @pytest.mark.parametrize("delta", [[0.3, -0.2], [1.0, 0.5], [-2.0, 0.7],
                                       [0.01, 0.02]])
    def test_matern_anisotropic_matches_inverse_formula(self, delta):
        # kappa_eval reads Sigma^-1 from the spectral shape; the value must
        # match the formula with an explicit inverse of a non-diagonal Sigma.
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        nu = 2.0
        delta = np.array(delta)
        arg = np.sqrt(2.0 * nu * delta @ np.linalg.inv(sigma) @ delta)
        expected = 2.0 ** (1.0 - nu) / gamma_fn(nu) * arg**nu * kv(nu, arg)
        assert_allclose(kappa_eval(matern_kernel(nu, sigma), delta), expected,
                        rtol=1e-14)

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_diagonal_dominance(self, kernel, seed):
        rng = np.random.default_rng(seed)
        delta = rng.uniform(-3, 3, size=2)
        value = kappa_eval(kernel, delta)
        assert_allclose(value, kappa_eval(kernel, -delta), rtol=1e-12)
        assert kappa_eval(kernel, np.zeros(2)) >= abs(value)

    @pytest.mark.parametrize("kernel", [gaussian_kernel(np.diag([1.0, 2.0])),
                                        matern_kernel(2.0, np.eye(2))])
    def test_bochner_representation(self, kernel):
        # E[cos(w^T delta)] reproduces kappa (kappa(0) = 1) for finite-moment laws.
        bias = BiasDistribution.point_mass()
        w, _ = sample_weights(kernel.spectral, bias, 10**6, seed=17)
        rng = np.random.default_rng(99)
        for _ in range(10):
            delta = rng.uniform(-1, 1, size=2)
            delta *= min(1.0, 2.0 / np.linalg.norm(delta))
            mc = np.mean(np.cos(w @ delta))
            assert_allclose(mc, kappa_eval(kernel, delta), atol=0.01)


    def test_overflowing_bessel_form_refused(self):
        # Gamma(200) overflows, and the product was NaN with a RuntimeWarning.
        kernel = matern_kernel(200.0, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="not finite"):
                kappa_eval(kernel, np.array([0.3, 0.4]))
        assert kappa_eval(kernel, np.zeros(2)) == 1.0


def _log_mode_density(nu):
    """``nu log nu - nu - lgamma(nu)``, the log of the ``Gamma(nu, 1)`` density
    of ``log s`` at its mode ``log nu``."""
    if nu <= 50.0:
        return nu * math.log(nu) - nu - math.lgamma(nu)
    # Stirling's series keeps the digits that the difference above cancels.
    return (0.5 * math.log(nu / (2.0 * math.pi)) - 1.0 / (12.0 * nu) + 1.0 / (360.0 * nu**3)
            - 1.0 / (1260.0 * nu**5) + 1.0 / (1680.0 * nu**7))


def _quad_one_minus_kappa(nu, q):
    """``E_s[-expm1(-nu q / (2 s))]``, ``s ~ Gamma(nu, 1)``, by ``quad`` in
    ``y = log(s / nu)``, split at the density's mode, at 1 and 4 of its
    scales and at ``log(q / 2)``; within 2e-14 of a 40-digit mpmath value
    for nu in [0.55, 1000] and q in [1e-12, 1e-4]."""
    log_mode = _log_mode_density(nu)

    def f(y):
        return math.exp(nu * (y - math.expm1(y)) + log_mode) * -math.expm1(-0.5 * q * math.exp(-y))

    lo = min(0.0, math.log(0.5 * q)) - 40.0 / nu - 5.0
    hi = math.log(1.0 + 40.0 / nu + 10.0 / math.sqrt(nu)) + 1.0
    sd = 1.0 / math.sqrt(nu)
    inner = (math.log(0.5 * q), -4.0 * sd, -sd, 0.0, sd, 4.0 * sd)
    cuts = sorted({lo, hi, *(p for p in inner if lo < p < hi)})
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


class TestGammaMixture:
    LAWS = [gaussian_kernel(np.eye(1)).spectral, laplace_kernel(1).spectral,
            matern_kernel(0.75, np.eye(1)).spectral, matern_kernel(200.0, np.eye(1)).spectral]

    @pytest.mark.parametrize("law", LAWS, ids=["gaussian", "laplace", "nu0.75", "nu200"])
    def test_zero_gives_exactly_zero(self, law):
        assert _one_minus_kappa(law, 0.0) == 0.0
        got = _one_minus_kappa(law, np.array([0.0, 1e-8, 0.0]))
        assert got[0] == got[2] == 0.0 and got[1] > 0.0

    def test_closed_forms(self):
        q = np.array([1e-12, 1e-4, 0.5, 30.0])
        assert np.array_equal(_one_minus_kappa(self.LAWS[0], q), -np.expm1(-0.5 * q))
        assert np.array_equal(_one_minus_kappa(self.LAWS[1], q), -np.expm1(-np.sqrt(q)))

    def test_elementwise_over_q(self):
        law = self.LAWS[2]
        q = np.array([[1e-6, 2.0], [0.3, 1e-10]])
        got = _one_minus_kappa(law, q)
        assert got.shape == q.shape
        assert_allclose(got, [[float(_one_minus_kappa(law, v)) for v in row] for row in q],
                        rtol=1e-14)

    @given(nu=st.floats(min_value=0.55, max_value=1000.0),
           log_q=st.floats(min_value=-12.0, max_value=3.0))
    @example(nu=200.0, log_q=-8.0)
    @example(nu=1000.0, log_q=-12.0)
    @example(nu=0.55, log_q=3.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_bessel_form_and_quad(self, nu, log_q):
        # The mixture and the Bessel form share no code: each is an oracle
        # of the other.  quad checks the small q the Bessel form rounds away.
        delta = np.array([math.sqrt(10.0**log_q)])
        q = float(delta @ delta)
        got = float(_one_minus_kappa(WeightDistribution.student_t(nu, np.eye(1)), q))
        try:
            bessel = kappa_eval(matern_kernel(nu, np.eye(1)), delta)
        except NumericalFailureError:
            bessel = None  # Gamma(nu) or sqrt(2 nu q)**nu overflows
        if bessel is not None:
            assert abs(got - (1.0 - bessel)) <= 1e-12
        if q <= 1e-4:
            assert_allclose(got, _quad_one_minus_kappa(nu, q), rtol=1e-12, atol=0.0)


def _stream(seed, key):
    """numpy's own sub-stream ``key`` of ``seed``: the reference for the keys
    that ``_stream_keys`` computes and ``_keyed_streams`` loads."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


def _per_family_sampler(family, d, n, seed, gamma=None, cov=None, nu=None,
                        shape=None, bias=None):
    """The sampler as it was when each weight family had its own branch."""
    rng_w = _stream(seed, 0)
    if family == "isotropic":
        w = gamma * rng_w.standard_normal((n, d))
    elif family == "cov":
        chol = np.linalg.cholesky(cov)
        w = rng_w.standard_normal((n, d)) @ chol.T
    else:
        df = 2.0 * nu
        chol = np.linalg.cholesky(shape)
        z = rng_w.standard_normal((n, d)) @ chol.T
        mix = _stream(seed, 1).chisquare(df, size=n)
        w = z / np.sqrt(mix / df)[:, None]
    rng_b = _stream(seed, 2)
    if bias.family == "uniform":
        a, b = bias.params
        biases = a + (b - a) * rng_b.random(n)
    elif bias.family == "gaussian":
        biases = bias.params[0] * rng_b.standard_normal(n)
    elif bias.family == "point":
        biases = np.zeros(n)
    else:
        raise UnsupportedDistributionError(bias.family)
    return w, biases


def _words(value):
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return max(1, (value.bit_length() + 31) // 32)


class TestVectorisedSeeding:
    """Children spawned from numpy's own pools get numpy's words, every bit."""

    @given(seed=st.integers(0, 2**130), prefix=st.lists(st.integers(0, 2**70), max_size=2),
           start=st.integers(0, 2**32 - 30), count=st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_seeds_match_seed_sequence(self, seed, prefix, start, count):
        indices = range(start, start + count)
        head = np.random.SeedSequence(seed, spawn_key=tuple(prefix))
        # The head has mixed in the seed's words, padded to four, then the prefix's.
        mixed = max(4, _words(seed)) + sum(_words(i) for i in prefix)
        got = _spawn_states(head.pool, mixed, np.array(indices, dtype=np.uint32), 1)[:, 0]
        expected = np.array([np.random.SeedSequence(seed, spawn_key=(*prefix, i))
                             .generate_state(1, np.uint64)[0] for i in indices], dtype=np.uint64)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert (got == expected).all()

    @given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=20), student=st.booleans(),
           bias=st.sampled_from([BiasDistribution.uniform(0.0, 1.0),
                                 BiasDistribution.gaussian(2.0), BiasDistribution.point_mass()]))
    @settings(max_examples=100, deadline=None)
    def test_stream_keys_match_seed_sequence(self, seeds, student, bias):
        dist = WeightDistribution(np.eye(2), 1.5 if student else None)
        keys = _stream_keys(np.array(seeds, dtype=np.uint64), dist, bias)
        read = (True, student, bias.family != "point")
        for k, key in enumerate(keys):
            assert (key is not None) == read[k]
            if key is not None:
                expected = np.array([np.random.SeedSequence(s, spawn_key=(k,))
                                     .generate_state(2, np.uint64) for s in seeds],
                                    dtype=np.uint64).reshape(-1, 2)
                assert (key == expected).all()

    @pytest.mark.parametrize("dist", [WeightDistribution.isotropic_gaussian(1.0, 1),
                                      WeightDistribution.student_t(2.0, np.eye(2))],
                             ids=["gaussian", "student"])
    def test_reloaded_generators_draw_as_fresh_ones(self, dist):
        bias = BiasDistribution.gaussian(1.0)
        seeds = derive_seed(9, 16, range(5))
        keys = _stream_keys(seeds, dist, bias)
        streams = None
        for i, seed in enumerate(seeds):
            streams = _keyed_streams(keys, i, streams)  # each reused after drawing
            w, b = np.empty((16, dist.d)), np.empty(16)
            for _ in _draw_blocks(dist, bias, 16, streams, w, b):
                pass
            w_ref, b_ref = sample_weights(dist, bias, 16, int(seed))
            assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
            assert int(seed) == derive_seed(9, 16, i)


class TestOneDrawPath:
    """Every seed is keyed by ``_stream_keys`` and drawn by ``_draw_blocks``."""

    BIASES = [BiasDistribution.uniform(0.0, 2 * np.pi), BiasDistribution.gaussian(1.5),
              BiasDistribution.point_mass()]

    # One transform turns the whole stack; at d = 3 with one or two rows per
    # map each map's product still takes the path that it takes alone.
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           student=st.booleans(), bias=st.sampled_from(BIASES), d=st.sampled_from([1, 2, 3]),
           n=st.sampled_from([1, 2, 17, _DRAW_ROWS + 3]))
    @example(seeds=[3, 2**64 - 1, 0], student=True, bias=BIASES[0], d=3, n=1)
    @example(seeds=[5, 6, 7, 8], student=False, bias=BIASES[1], d=3, n=1)
    @example(seeds=[9, 2**40], student=True, bias=BIASES[2], d=3, n=2)
    @example(seeds=[11, 12, 13], student=False, bias=BIASES[0], d=3, n=2)
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_per_seed_calls(self, seeds, student, bias, d, n):
        dist = WeightDistribution(np.eye(d) + 0.25 * (d - 1), 1.5 if student else None)
        w, b = sample_weights(dist, bias, n, np.array(seeds, dtype=np.uint64))
        assert w.shape == (len(seeds), n, d) and b.shape == (len(seeds), n)
        for j, seed in enumerate(seeds):
            w_j, b_j = sample_weights(dist, bias, n, seed)
            assert np.array_equal(w[j], w_j) and np.array_equal(b[j], b_j)

    @given(seed=st.integers(0, 2**200), student=st.booleans(), bias=st.sampled_from(BIASES),
           n=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_scalar_seeds_match_numpy_streams(self, seed, student, bias, n):
        shape = np.array([[2.0, 0.6], [0.6, 1.0]])
        if student:
            got = sample_weights(WeightDistribution.student_t(1.5, shape), bias, n, seed)
            want = _per_family_sampler("student", 2, n, seed, nu=1.5, shape=shape, bias=bias)
        else:
            got = sample_weights(WeightDistribution.gaussian_cov(shape), bias, n, seed)
            want = _per_family_sampler("cov", 2, n, seed, cov=shape, bias=bias)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @given(seed=st.integers(0, 2**130), prefix=st.lists(st.integers(0, 2**70), max_size=2),
           start=st.integers(0, 2**32 - 30), count=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_derive_seed_over_a_range_matches_the_scalar_loop(self, seed, prefix, start,
                                                               count):
        indices = range(start, start + count)
        got = derive_seed(seed, *prefix, indices)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert got.tolist() == [derive_seed(seed, *prefix, i) for i in indices]

    @pytest.mark.parametrize("call", [
        lambda: derive_seed(-1),
        lambda: derive_seed(3, -2, 5),
        lambda: derive_seed(3, range(-1, 4)),
        lambda: derive_seed(3, range(2**32 - 1, 2**32 + 1)),
        lambda: sample_weights(WeightDistribution.isotropic_gaussian(1.0, 1),
                               BiasDistribution.point_mass(), 4, -1),
        lambda: sample_weights(WeightDistribution.isotropic_gaussian(1.0, 1),
                               BiasDistribution.point_mass(), 4, np.array([1, 2])),
        lambda: sample_weights(WeightDistribution.isotropic_gaussian(1.0, 1),
                               BiasDistribution.point_mass(), 4, np.zeros((2, 2), np.uint64)),
    ], ids=["negative_seed", "negative_index", "negative_range", "range_past_32_bits",
            "negative_sample_seed", "int64_seeds", "2d_seeds"])
    def test_bad_seeds_refused(self, call):
        with pytest.raises(InvalidArgumentError):
            call()


class TestOneLawSampler:
    """``z @ chol.T`` draws the same bits as the per-family branches did."""

    PHASE = BiasDistribution.uniform(0.0, 2 * np.pi)

    @pytest.mark.parametrize("gamma", [0.5, 2**-0.5, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 16, 1024])
    def test_isotropic_bit_identical(self, gamma, d, n):
        got = sample_weights(WeightDistribution.isotropic_gaussian(gamma, d),
                             self.PHASE, n, seed=7)
        want = _per_family_sampler("isotropic", d, n, 7, gamma=gamma, bias=self.PHASE)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_isotropic_montecarlo_chunk_bit_identical(self):
        # 10^6 rows at d = 2 is the chunk of variance_decomposition_check.
        n = 10**6
        got, _ = sample_weights(WeightDistribution.isotropic_gaussian(1.3, 2),
                                self.PHASE, n, seed=3)
        want, _ = _per_family_sampler("isotropic", 2, n, 3, gamma=1.3, bias=self.PHASE)
        assert np.array_equal(got, want)

    # 2 * _DRAW_ROWS + 1 rows take three in-place blocks.
    @pytest.mark.parametrize("n", [1, 999, 2 * _DRAW_ROWS + 1])
    def test_gaussian_cov_bit_identical(self, n):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        got = sample_weights(WeightDistribution.gaussian_cov(cov), self.PHASE, n, seed=5)
        want = _per_family_sampler("cov", 2, n, 5, cov=cov, bias=self.PHASE)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("nu", [0.5, 2.0, 200.0])
    @pytest.mark.parametrize("n", [999, 2 * _DRAW_ROWS + 1])
    def test_student_bit_identical(self, nu, n):
        # The Matern shape Sigma^-1 of a non-diagonal Sigma.
        inv = np.linalg.inv(np.array([[2.0, 0.3], [0.3, 1.0]]))
        shape = 0.5 * (inv + inv.T)
        got = sample_weights(WeightDistribution.student_t(nu, shape), self.PHASE, n, seed=9)
        want = _per_family_sampler("student", 2, n, 9, nu=nu, shape=shape, bias=self.PHASE)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bias", [BiasDistribution.uniform(-1.0, 3.0),
                                      BiasDistribution.gaussian(0.7),
                                      BiasDistribution.point_mass()])
    def test_bias_laws_bit_identical(self, bias):
        got = sample_weights(WeightDistribution.isotropic_gaussian(1.0, 2), bias, 333, seed=4)
        want = _per_family_sampler("isotropic", 2, 333, 4, gamma=1.0, bias=bias)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_draw_holds_one_weight_array():
    # The product runs in place: the peak is the (n, 2) weights plus the
    # n biases, as when isotropic draws were a scaled copy of z.
    n = 10**6
    dist = WeightDistribution.isotropic_gaussian(1.3, 2)
    tracemalloc.start()
    try:
        sample_weights(dist, BiasDistribution.point_mass(), n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (3 * 8 * n)


class TestWeightLaw:
    @staticmethod
    def _laws(matrix):
        return {"gaussian_kernel": lambda: gaussian_kernel(matrix).spectral,
                "gaussian_cov": lambda: WeightDistribution.gaussian_cov(matrix),
                "student_t": lambda: WeightDistribution.student_t(2.0, matrix)}

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(WeightDistribution)]
        assert names == ["shape", "nu", "chol"]

    @pytest.mark.parametrize("make", ["gaussian_kernel", "gaussian_cov", "student_t"])
    def test_caller_matrix_is_copied(self, make):
        matrix = np.array([[2.0, 0.6], [0.6, 1.0]])
        law = self._laws(matrix)[make]()
        chol = law.chol.copy()
        matrix[1, 1] = 9.0
        assert law.shape[1, 1] == 1.0
        assert np.array_equal(law.chol, chol)

    @pytest.mark.parametrize("make", ["gaussian_kernel", "gaussian_cov", "student_t"])
    def test_matrices_read_only(self, make):
        law = self._laws(np.eye(2))[make]()
        with pytest.raises(ValueError):
            law.shape[0, 0] = 5.0
        with pytest.raises(ValueError):
            law.chol[0, 0] = 5.0

    def test_cholesky_once_at_construction(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda m: calls.append(1) or cholesky(m))
        laws = [WeightDistribution.isotropic_gaussian(1.0, 2),
                WeightDistribution.gaussian_cov(np.diag([1.0, 4.0])),
                WeightDistribution.student_t(2.0, np.eye(2))]
        assert len(calls) == 3
        for law in laws:
            sample_weights(law, BiasDistribution.point_mass(), 10, seed=0)
        assert len(calls) == 3

    def test_dimension(self):
        kernel = matern_kernel(2.0, np.eye(3))
        assert kernel.d == kernel.spectral.d == 3
        assert WeightDistribution.isotropic_gaussian(1.0, 2).d == 2

    @pytest.mark.parametrize("nu", [0.0, -1.0, float("nan")])
    def test_bad_nu_rejected(self, nu):
        with pytest.raises(InvalidArgumentError, match="nu must be positive"):
            WeightDistribution.student_t(nu, np.eye(2))
        with pytest.raises(InvalidArgumentError, match="nu must be positive"):
            matern_kernel(nu, np.eye(2))

    @pytest.mark.parametrize("gamma", [1e-200, 1e-154, 1e155, 1e300])
    @pytest.mark.filterwarnings("error")
    def test_gamma_without_a_normal_square_rejected(self, gamma):
        with pytest.raises(InvalidArgumentError, match="gamma"):
            WeightDistribution.isotropic_gaussian(gamma, 2)

    @pytest.mark.parametrize("gamma", [1.5e-154, 1e-100, 1e100, 1.3e154])
    def test_gamma_with_a_normal_square_accepted(self, gamma):
        assert WeightDistribution.isotropic_gaussian(gamma, 1).shape[0, 0] == gamma * gamma

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidArgumentError, match="positive definite"):
            WeightDistribution.gaussian_cov(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidArgumentError, match="square"):
            WeightDistribution.student_t(2.0, np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError, match="square"):
            WeightDistribution.isotropic_gaussian(1.0, 0)


#: Floats with NaN and both infinities drawn often.
any_float = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())
LAW_ERRORS = (InvalidArgumentError, UnsupportedDistributionError)
SHAPE = np.array([[2.0, 0.6], [0.6, 1.0]])


def _assert_finite_law(law):
    """Every field of a bias law, weight law or kernel is finite."""
    if isinstance(law, ShiftInvariantKernel):
        law = law.spectral
    if isinstance(law, BiasDistribution):
        assert np.isfinite(law.params).all()
    else:
        assert law.nu is None or math.isfinite(law.nu)
        assert np.isfinite(law.shape).all() and np.isfinite(law.chol).all()


class TestLawsRefuseNonFinite:
    FACTORIES = {
        "uniform": lambda x, y: BiasDistribution.uniform(x, y),
        "gaussian": lambda x, y: BiasDistribution.gaussian(x),
        "bias_uniform": lambda x, y: BiasDistribution("uniform", (x, y)),
        "bias_gaussian": lambda x, y: BiasDistribution("gaussian", (x,)),
        "bias_point": lambda x, y: BiasDistribution("point", (x,)),
        "isotropic_gaussian": lambda x, y: WeightDistribution.isotropic_gaussian(x, 2),
        "gaussian_cov": lambda x, y: WeightDistribution.gaussian_cov(x * SHAPE),
        "student_t": lambda x, y: WeightDistribution.student_t(x, y * SHAPE),
        "weight_law": lambda x, y: WeightDistribution(np.array([[x]]), y),
        "gaussian_kernel": lambda x, y: gaussian_kernel(x * SHAPE),
        "matern_kernel": lambda x, y: matern_kernel(x, y * SHAPE),
    }

    @pytest.mark.parametrize("make", sorted(FACTORIES))
    @given(x=any_float, y=any_float)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_law_or_raise(self, make, x, y):
        try:
            law = self.FACTORIES[make](x, y)
        except LAW_ERRORS:
            return
        _assert_finite_law(law)

    @pytest.mark.parametrize("make", [
        lambda: BiasDistribution.gaussian(math.nan),
        lambda: BiasDistribution.uniform(0.0, math.inf),
        lambda: BiasDistribution("gaussian", (1.0, 2.0)),
        lambda: BiasDistribution("beta", (1.0,)),
        lambda: WeightDistribution.isotropic_gaussian(math.nan, 2),
        lambda: WeightDistribution(np.array([[math.nan]])),
        lambda: matern_kernel(math.inf, np.eye(2)),
        lambda: BiasDistribution.uniform(-1e308, 1e308),
    ], ids=["gaussian_nan", "uniform_inf", "gaussian_two_params", "unknown_family",
            "isotropic_nan", "weight_nan", "matern_nu_inf", "uniform_width_overflows"])
    def test_refused(self, make):
        with pytest.raises(LAW_ERRORS):
            make()
