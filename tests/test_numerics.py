"""Tests for the deterministic numerical primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerlip.errors import EvaluationFailureError, InvalidArgumentError
from kerlip.kernels import BiasDistribution, gaussian_kernel, matern_kernel
from kerlip.numerics import (
    expectation_2d,
    expectation_2d_adaptive,
    gauss_hermite,
    gauss_legendre,
    hessian_fd,
    maximize_scalar,
    spectral_norm,
    sym_eig_max,
)

SQRT_PI = np.sqrt(np.pi)


class TestGaussHermite:
    def test_one_point_rule(self):
        rule = gauss_hermite(1)
        assert_allclose(rule.nodes, [0.0], atol=1e-15)
        assert_allclose(rule.weights, [SQRT_PI])

    def test_two_point_rule(self):
        # Roots of H_2(t) = 4 t^2 - 2 are +-1/sqrt(2), equal weights.
        rule = gauss_hermite(2)
        assert_allclose(rule.nodes, [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2])

    def test_second_moment_with_two_points(self):
        rule = gauss_hermite(2)
        assert_allclose(np.dot(rule.weights, np.asarray(rule.nodes) ** 2),
                        SQRT_PI / 2, rtol=1e-14)

    def test_nodes_increasing_weights_positive(self):
        for n in (1, 2, 7, 64, 256):
            rule = gauss_hermite(n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.asarray(rule.weights) > 0)
            assert rule.measure_tag == "gauss-hermite"

    @pytest.mark.parametrize("n", [0, -3, 257])
    def test_order_out_of_range(self, n):
        with pytest.raises(InvalidArgumentError):
            gauss_hermite(n)

    def test_exactness_all_monomials(self):
        # Exact for t^k against exp(-t^2) up to degree 2n-1, every n <= 32.
        for n in range(1, 33):
            rule = gauss_hermite(n)
            nodes = np.asarray(rule.nodes)
            for k in range(0, 2 * n):
                got = np.dot(rule.weights, nodes**k)
                if k % 2 == 1:
                    # Exact value 0; scale round-off by the absolute sum.
                    scale = np.dot(rule.weights, np.abs(nodes) ** k)
                    assert abs(got) < 1e-10 * scale + 1e-12
                else:
                    # int t^k e^{-t^2} dt = Gamma((k+1)/2)
                    from math import gamma

                    exact = gamma((k + 1) / 2)
                    assert_allclose(got, exact, rtol=1e-10)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1, -1.0, 1.0)
        assert_allclose(rule.nodes, [0.0], atol=1e-15)
        assert_allclose(rule.weights, [2.0])

    def test_t_squared(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert_allclose(np.dot(rule.weights, np.asarray(rule.nodes) ** 2),
                        2.0 / 3.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_constant_on_0_2pi(self, n):
        rule = gauss_legendre(n, 0.0, 2 * np.pi)
        assert_allclose(np.sum(rule.weights), 2 * np.pi, rtol=1e-14)

    def test_bad_interval(self):
        with pytest.raises(InvalidArgumentError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            gauss_legendre(4, 2.0, -1.0)

    def test_exactness_all_monomials(self):
        a, b = 0.25, 3.0
        for n in range(1, 33):
            rule = gauss_legendre(n, a, b)
            nodes = np.asarray(rule.nodes)
            for k in range(0, 2 * n):
                exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                assert_allclose(np.dot(rule.weights, nodes**k), exact,
                                rtol=1e-10)


class TestExpectation2D:
    UNIFORM = BiasDistribution.uniform(0.0, 2 * np.pi)
    GAUSSIAN = BiasDistribution.gaussian(1.0)
    POINT = BiasDistribution.point_mass()

    @pytest.mark.parametrize("bias", [UNIFORM, GAUSSIAN, POINT])
    def test_normalization(self, bias):
        value = expectation_2d(lambda z, b: np.ones_like(z), 1.0, bias, (32, 32))
        assert_allclose(value, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("bias", [UNIFORM, GAUSSIAN, POINT])
    def test_second_moment(self, bias):
        value = expectation_2d(lambda z, b: z**2, 1.0, bias, (32, 32))
        assert_allclose(value, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.37, 1.0, 5.0, 25.0])
    def test_rff_profile_is_one(self, r):
        # 2 E[zeta^2 sin^2(r zeta + b)] = gamma^2 for uniform phase.
        value = expectation_2d(lambda z, b: 2 * z**2 * np.sin(r * z + b) ** 2,
                               1.0, self.UNIFORM, (64, 64))
        assert_allclose(value, 1.0, rtol=1e-6)

    def test_kink_split_matches_closed_form(self):
        # E[zeta^2 1{zeta > 0}] = gamma^2 / 2 for a point-mass bias at 0.
        value = expectation_2d(lambda z, b: z**2 * (z + b > 0), 2.0,
                               self.POINT, (64, 64), zeta_kinks=lambda b: [-b])
        assert_allclose(value, 2.0, rtol=1e-9)

    def test_linearity(self):
        f = lambda z, b: z**2 + np.cos(b)
        g = lambda z, b: np.sin(z) ** 2
        args = (1.3, self.GAUSSIAN, (48, 48))
        lhs = expectation_2d(lambda z, b: 2 * f(z, b) - 3 * g(z, b), *args)
        rhs = 2 * expectation_2d(f, *args) - 3 * expectation_2d(g, *args)
        assert_allclose(lhs, rhs, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_integrand(self, shift):
        # f >= g pointwise implies E[f] >= E[g].
        args = (1.0, self.GAUSSIAN, (32, 32))
        small = expectation_2d(lambda z, b: np.cos(z + b) ** 2, *args)
        large = expectation_2d(lambda z, b: np.cos(z + b) ** 2 + shift, *args)
        assert large >= small - 1e-12

    def test_adaptive_error_estimate(self):
        value, err = expectation_2d_adaptive(lambda z, b: z**2, 1.0,
                                             self.GAUSSIAN)
        assert_allclose(value, 1.0, rtol=1e-10)
        assert err >= 0.0


class TestMaximizeScalar:
    def test_parabola(self):
        res = maximize_scalar(lambda r: -(r - 1.0) ** 2, (0.0, 10.0), 1e-10)
        assert_allclose(res.argmax, 1.0, atol=1e-8)
        assert_allclose(res.max_value, 0.0, atol=1e-15)

    def test_constant_ties_break_to_first_grid_point(self):
        res = maximize_scalar(lambda r: 4.0, (2.0, 5.0), 1e-8)
        assert res.max_value == 4.0
        assert_allclose(res.argmax, 2.0, atol=1e-6)

    def test_r_exp_minus_r(self):
        res = maximize_scalar(lambda r: r * np.exp(-r), (0.0, 10.0), 1e-10)
        assert_allclose(res.argmax, 1.0, atol=1e-8)
        assert_allclose(res.max_value, np.exp(-1.0), rtol=1e-12)

    def test_result_contract(self):
        g = lambda r: np.sin(r)
        res = maximize_scalar(g, (0.0, 10.0), 1e-8)
        lo, hi = res.bracket
        assert 0.0 <= res.argmax <= 10.0
        assert lo <= res.argmax <= hi
        assert res.max_value >= g(0.0) - 1e-12
        assert res.max_value >= g(10.0) - 1e-12
        assert res.evaluations > 0

    def test_nan_propagates(self):
        with pytest.raises(EvaluationFailureError):
            maximize_scalar(lambda r: np.nan, (0.0, 1.0), 1e-8)


class TestSymEigMax:
    def test_identity(self):
        assert_allclose(sym_eig_max(np.eye(2)), 1.0, rtol=1e-12)

    def test_diagonal(self):
        assert_allclose(sym_eig_max(np.diag([1.0, 4.0])), 4.0, rtol=1e-12)

    def test_two_by_two(self):
        assert_allclose(sym_eig_max(np.array([[2.0, 1.0], [1.0, 2.0]])), 3.0,
                        rtol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sym_eig_max(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_similarity_invariance(self, seed):
        # lambda_max(Q D Q^T) = max(diag(D)) for orthogonal Q.
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 8)
        diag = rng.uniform(-5, 5, size=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        m = q @ np.diag(diag) @ q.T
        m = 0.5 * (m + m.T)
        assert_allclose(sym_eig_max(m), diag.max(), rtol=1e-8, atol=1e-8)


class TestSpectralNorm:
    def test_identity(self):
        assert_allclose(spectral_norm(np.eye(3)), 1.0, rtol=1e-12)

    def test_column_vector(self):
        v = np.array([[3.0], [4.0]])
        assert_allclose(spectral_norm(v), 5.0, rtol=1e-12)

    def test_matches_2x2_closed_form(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 2))
        g = m.T @ m
        # Closed-form eigenvalues of a symmetric 2x2 matrix.
        tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        lam_max = 0.5 * (tr + np.sqrt(tr**2 - 4 * det))
        assert_allclose(spectral_norm(m), np.sqrt(lam_max), rtol=1e-8)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_absolute_homogeneity(self, c):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 3))
        assert_allclose(spectral_norm(c * m), abs(c) * spectral_norm(m),
                        rtol=1e-10, atol=1e-12)


class TestHessianFD:
    def test_negative_norm_squared(self):
        h, coarse = hessian_fd(lambda d: -float(d @ d), 2)
        assert_allclose(h, -2.0 * np.eye(2), atol=1e-6)
        assert_allclose(coarse, -2.0 * np.eye(2), atol=1e-6)

    def test_isotropic_gaussian(self):
        kernel = gaussian_kernel(np.eye(2))
        h, _ = hessian_fd(lambda d: kernel.kappa(d), 2)
        assert_allclose(h, -np.eye(2), atol=1e-4)

    def test_matern(self):
        kernel = matern_kernel(2.0, np.eye(2))
        h, _ = hessian_fd(lambda d: kernel.kappa(d), 2)
        assert_allclose(-h, 2.0 * np.eye(2), atol=1e-3)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_is_exact(self, seed):
        # -1/2 d^T A d has Hessian -A everywhere.
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 5)
        a = rng.standard_normal((d, d))
        a = a + a.T
        h, _ = hessian_fd(lambda delta: -0.5 * float(delta @ a @ delta), d)
        assert_allclose(h, -a, atol=1e-3 * (1 + np.abs(a).max()))

    def test_step_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            hessian_fd(lambda d: 0.0, 2, h=1.0)

    def test_output_symmetric(self):
        kernel = matern_kernel(1.5, np.array([[2.0, 0.5], [0.5, 1.0]]))
        h, _ = hessian_fd(lambda d: kernel.kappa(d), 2)
        assert_allclose(h, h.T, atol=0)
