"""Tests for activations, weight/bias laws and closed-form kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from kerlip.errors import InvalidArgumentError
from kerlip.kernels import (
    ACTIVATIONS,
    BiasDistribution,
    WeightDistribution,
    derive_seed,
    gaussian_kernel,
    kappa_eval,
    laplace_kernel,
    matern_kernel,
    relu,
    sample_weights,
    scaled_cosine,
    second_moment_status,
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


class TestKappaEval:
    KERNELS = [gaussian_kernel(np.eye(2)),
               matern_kernel(2.0, np.eye(2)),
               laplace_kernel(2)]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_at_zero(self, kernel):
        assert_allclose(kappa_eval(kernel, np.zeros(2)), 1.0, rtol=1e-12)

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
        assert kernel.kappa0 >= abs(value)

    @pytest.mark.parametrize("kernel", [gaussian_kernel(np.diag([1.0, 2.0])),
                                        matern_kernel(2.0, np.eye(2))])
    def test_bochner_representation(self, kernel):
        # E[kappa0 cos(w^T delta)] reproduces kappa for finite-moment laws.
        bias = BiasDistribution.point_mass()
        w, _ = sample_weights(kernel.spectral, bias, 10**6, seed=17)
        rng = np.random.default_rng(99)
        for _ in range(10):
            delta = rng.uniform(-1, 1, size=2)
            delta *= min(1.0, 2.0 / np.linalg.norm(delta))
            mc = kernel.kappa0 * np.mean(np.cos(w @ delta))
            assert_allclose(mc, kappa_eval(kernel, delta), atol=0.01)
