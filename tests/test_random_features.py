"""Tests for finite random feature maps and the empirical estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kerlip.errors import InvalidArgumentError
from kerlip.features import (
    RandomFeatureMap,
    build_feature_map,
    default_grid_1d,
    empirical_kernel,
    empirical_lipschitz,
    jacobian,
)
from kerlip.kernels import (
    BiasDistribution,
    WeightDistribution,
    gaussian_kernel,
    identity,
    kappa_eval,
    relu,
    scaled_cosine,
    tanh_activation,
)
from kerlip.numerics import spectral_norm

UNIFORM_PHASE = BiasDistribution.uniform(0.0, 2 * np.pi)
ISO_1D = WeightDistribution.isotropic_gaussian(1.0, 1)
ISO_2D = WeightDistribution.isotropic_gaussian(1.0, 2)


class TestBuildFeatureMap:
    def test_determinism(self):
        fm1 = build_feature_map(ISO_2D, UNIFORM_PHASE, scaled_cosine(), 64, 9)
        fm2 = build_feature_map(ISO_2D, UNIFORM_PHASE, scaled_cosine(), 64, 9)
        assert np.array_equal(fm1.weights, fm2.weights)
        assert np.array_equal(fm1.biases, fm2.biases)

    def test_single_neuron_identity(self):
        fm = RandomFeatureMap(weights=np.array([[1.0]]),
                              biases=np.zeros(1), activation=identity())
        assert_allclose(fm(np.array([2.0])), [2.0])

    def test_cos_features_bounded(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 256, 0)
        for x in np.linspace(-3, 3, 25):
            assert np.max(np.abs(fm(np.array([x])))) * np.sqrt(256) <= np.sqrt(2)

    def test_evaluation_definition(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, tanh_activation(), 32, 4)
        x = np.array([0.3, -1.2])
        expected = np.tanh(fm.weights @ x + fm.biases) / np.sqrt(32)
        assert_allclose(fm(x), expected, rtol=1e-15)

    def test_dimension_mismatch(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, identity(), 8, 0)
        with pytest.raises(InvalidArgumentError):
            fm(np.zeros(3))


class TestEmpiricalKernel:
    def test_diagonal_nonnegative(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, scaled_cosine(), 128, 1)
        x = np.array([0.5, 0.5])
        assert empirical_kernel(fm, x, x) >= 0.0

    def test_gaussian_rff_converges(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 10**5, 2)
        got = empirical_kernel(fm, np.array([0.0]), np.array([1.0]))
        assert abs(got - np.exp(-0.5)) <= 0.02

    def test_single_feature_explicit(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, tanh_activation(), 1, 7)
        x, y = np.array([0.4]), np.array([-0.9])
        expected = (np.tanh(fm.weights[0, 0] * 0.4 + fm.biases[0])
                    * np.tanh(fm.weights[0, 0] * -0.9 + fm.biases[0]))
        assert_allclose(empirical_kernel(fm, x, y), expected, rtol=1e-14)

    def test_kernel_consistency_rate(self):
        # Common random numbers: k_N approaches the closed form at ~N^{-1/2}.
        kernel = gaussian_kernel(np.eye(1))
        x, y = np.array([0.25]), np.array([-0.5])
        exact = kappa_eval(kernel, x - y)
        fm = build_feature_map(kernel.spectral, UNIFORM_PHASE,
                               scaled_cosine(), 2**14, 13)
        feats_x = fm(x) * np.sqrt(2**14)
        feats_y = fm(y) * np.sqrt(2**14)
        partial = np.cumsum(feats_x * feats_y)
        for p in range(4, 15):
            n = 2**p
            assert abs(partial[n - 1] / n - exact) <= 5.0 / np.sqrt(n)

    def test_gram_positive_semidefinite(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 64, 3)
        points = default_grid_1d()[::20][:5]
        gram = np.array([[empirical_kernel(fm, a, b) for b in points]
                         for a in points])
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


class TestJacobian:
    def test_identity_activation(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, identity(), 16, 5)
        expected = fm.weights / np.sqrt(16)
        for x in (np.zeros(2), np.array([1.0, -2.0])):
            assert_allclose(jacobian(fm, x), expected, rtol=1e-14)

    def test_relu_dead_region(self):
        fm = RandomFeatureMap(weights=np.array([[1.0], [2.0]]),
                              biases=np.array([-10.0, -10.0]),
                              activation=relu())
        assert np.all(jacobian(fm, np.array([0.0])) == 0.0)

    @pytest.mark.parametrize("act", [identity(), tanh_activation(),
                                     scaled_cosine()])
    def test_matches_finite_differences(self, act):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, act, 8, 21)
        h = 1e-5
        rng = np.random.default_rng(55)
        for x in rng.uniform(-1, 1, size=(20, 2)):
            jac = jacobian(fm, x)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (fm(x + e) - fm(x - e)) / (2 * h)
                assert_allclose(jac[:, j], fd, atol=1e-6)


class TestEmpiricalLipschitz:
    def test_identity_grid_independent(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, identity(), 32, 2)
        expected = spectral_norm(fm.weights) / np.sqrt(32)
        grid = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 2.0]])
        value, _ = empirical_lipschitz(fm, grid)
        assert_allclose(value, expected, rtol=1e-10)

    def test_relu_hand_computed(self):
        # One neuron w=2, b=-1: slope 2 wherever 2x - 1 > 0 on the grid.
        fm = RandomFeatureMap(weights=np.array([[2.0]]),
                              biases=np.array([-1.0]), activation=relu())
        value, argmax = empirical_lipschitz(fm, default_grid_1d())
        assert_allclose(value, 2.0, rtol=1e-14)
        assert 2.0 * argmax[0] - 1.0 > 0

    def test_large_n_concentrates(self):
        for seed in range(20):
            fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(),
                                   2**14, seed)
            value, _ = empirical_lipschitz(fm, default_grid_1d())
            assert abs(value - 1.0) < 0.1

    def test_grid_refinement_monotone(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, tanh_activation(), 64, 8)
        coarse = default_grid_1d()[::3]
        value_coarse, _ = empirical_lipschitz(fm, coarse)
        value_fine, _ = empirical_lipschitz(fm, default_grid_1d())
        assert value_fine >= value_coarse

    def test_tie_breaks_to_first_index(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, identity(), 4, 1)
        _, argmax = empirical_lipschitz(fm, default_grid_1d())
        assert_allclose(argmax, default_grid_1d()[0])

    def test_d2_uses_operator_norm(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, tanh_activation(), 16, 6)
        grid = np.array([[0.1, 0.2], [-0.4, 0.9]])
        value, argmax = empirical_lipschitz(fm, grid)
        by_hand = max(spectral_norm(jacobian(fm, p)) for p in grid)
        assert_allclose(value, by_hand, rtol=1e-12)

    def test_empty_grid_rejected(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, identity(), 4, 0)
        with pytest.raises(InvalidArgumentError):
            empirical_lipschitz(fm, np.empty((0, 1)))


class TestDefaultGrid:
    def test_endpoints_and_midpoint(self):
        grid = default_grid_1d()
        assert grid.shape == (99, 1)
        assert_allclose(grid[0, 0], -0.98)
        assert_allclose(grid[49, 0], 0.0, atol=1e-15)
        assert_allclose(grid[98, 0], 0.98)
