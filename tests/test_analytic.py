"""Tests for the exact Lipschitz evaluators and their oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kerlip import analytic, numerics
from kerlip.analytic import (
    CSV_HEADER,
    LipschitzReport,
    alpha_beta,
    default_r_domain,
    diagonal_curvature_oracle,
    hessian_lipschitz_oracle,
    nu_function,
    rnn_lipschitz,
    shift_invariant_lipschitz,
    upper_bound_cor31,
    variance_decomposition_check,
    wiener_divergence,
    wiener_kernel_truncated,
)
from kerlip.errors import (
    HypothesisViolationError,
    InvalidArgumentError,
    NumericalFailureError,
)
from kerlip.kernels import (
    BiasDistribution,
    WeightDistribution,
    derive_seed,
    gaussian_kernel,
    identity,
    laplace_kernel,
    matern_kernel,
    relu,
    sample_weights,
    scaled_cosine,
    tanh_activation,
)

UNIFORM_PHASE = BiasDistribution.uniform(0.0, 2 * np.pi)
STD_GAUSSIAN_BIAS = BiasDistribution.gaussian(1.0)

# Frozen Monte-Carlo oracle for the tanh profile (no closed form): sup of
# nu over a 64-point grid on [0, 10], 1e7 samples per grid point, master
# seed 20260823.  The supremum sits at r = 0.
TANH_LIP_ORACLE = 0.6816524932380619
TANH_LIP_ORACLE_STDERR = 0.00020869346469158402


class TestNuFunction:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 3.0, 8.0])
    def test_rff_profile_constant_one(self, r):
        value = nu_function(scaled_cosine(), 1.0, UNIFORM_PHASE, r)
        assert_allclose(value, 1.0, rtol=1e-8)

    def test_rff_profile_flat_over_grid(self):
        # The choice of radius does not matter for uniform-phase cosine.
        values = [nu_function(scaled_cosine(), 1.0, UNIFORM_PHASE, r)
                  for r in np.linspace(0.0, 10.0, 100)]
        assert max(values) - min(values) <= 1e-8

    @pytest.mark.parametrize("r", [0.0, 0.7, 2.0, 6.0])
    def test_relu_profile_half(self, r):
        value = nu_function(relu(), 1.0, STD_GAUSSIAN_BIAS, r)
        assert_allclose(value, 0.5, rtol=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("bias", [UNIFORM_PHASE, STD_GAUSSIAN_BIAS,
                                      BiasDistribution.point_mass()])
    def test_identity_profile(self, gamma, bias):
        value = nu_function(identity(), gamma, bias, 1.3)
        assert_allclose(value, gamma**2, rtol=1e-10)

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nu_function(identity(), 1.0, UNIFORM_PHASE, -0.1)

    @pytest.mark.parametrize("gamma, r", [(1.0, math.nan), (1.0, math.inf),
                                          (math.nan, 1.0), (math.inf, 1.0),
                                          (1e-200, 1.0), (1e300, 1.0)])
    def test_non_finite_argument_rejected(self, gamma, r):
        with pytest.raises(InvalidArgumentError, match="gamma=.*, r="):
            nu_function(identity(), gamma, UNIFORM_PHASE, r)


class TestRnnLipschitz:
    def test_rff_gamma_half(self):
        report = rnn_lipschitz(scaled_cosine(), 0.5, UNIFORM_PHASE)
        assert_allclose(report.value, 0.5, rtol=1e-6)
        assert report.method == "thm34-quadrature"
        assert report.argmax_r is not None

    def test_relu_gamma_one(self):
        report = rnn_lipschitz(relu(), 1.0, STD_GAUSSIAN_BIAS)
        assert_allclose(report.value, 1.0 / math.sqrt(2.0), atol=1e-4)

    def test_tanh_against_frozen_mc_oracle(self):
        report = rnn_lipschitz(tanh_activation(), 1.0, STD_GAUSSIAN_BIAS,
                               r_domain=(0.0, 10.0))
        assert abs(report.value - TANH_LIP_ORACLE) <= 3 * TANH_LIP_ORACLE_STDERR

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.7])
    def test_scale_equivariance(self, c):
        base = rnn_lipschitz(scaled_cosine(), 1.0, UNIFORM_PHASE).value
        scaled = rnn_lipschitz(scaled_cosine(), c, UNIFORM_PHASE).value
        assert_allclose(scaled, c * base, rtol=1e-6)

    def test_kinked_activation_needs_continuous_bias(self):
        with pytest.raises(HypothesisViolationError):
            rnn_lipschitz(relu(), 1.0, BiasDistribution.point_mass())

    def test_smooth_activation_allows_point_mass(self):
        report = rnn_lipschitz(identity(), 2.0, BiasDistribution.point_mass())
        assert_allclose(report.value, 2.0, rtol=1e-8)

    @pytest.mark.parametrize("act, bias", [
        (relu(), STD_GAUSSIAN_BIAS),
        (identity(), BiasDistribution.point_mass()),
    ], ids=["relu", "identity"])
    def test_one_ladder_per_scan_evaluation(self, act, bias, monkeypatch):
        # The reported value and error come from the scan's own ladders.
        ladders, scans = [], []
        adaptive = numerics.expectation_2d_adaptive
        maximize = numerics.maximize_scalar

        def counted_adaptive(*args, **kwargs):
            ladders.append(args)
            return adaptive(*args, **kwargs)

        def recorded_maximize(*args, **kwargs):
            scans.append(maximize(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(numerics, "expectation_2d_adaptive", counted_adaptive)
        monkeypatch.setattr(numerics, "maximize_scalar", recorded_maximize)
        report = rnn_lipschitz(act, 1.0, bias)
        assert len(scans) == 1
        assert scans[0].evaluations > numerics.DEFAULT_SCAN_POINTS
        assert len(ladders) == scans[0].evaluations
        assert report.value == math.sqrt(scans[0].max_value)
        assert report.argmax_r == scans[0].argmax

    def test_default_r_domain(self):
        lo, hi = default_r_domain(0.5, STD_GAUSSIAN_BIAS)
        assert lo == 0.0
        assert_allclose(hi, 10.0 * 0.5 * 2.0)

    def test_bad_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rnn_lipschitz(identity(), 1.0, UNIFORM_PHASE, r_domain=(2.0, 1.0))

    def test_edge_of_a_given_domain_is_kept(self):
        # cos with an N(0, 1) bias at gamma = 0.1 peaks past the default domain's
        # end, which is a guess; the end of a domain the caller gives is taken.
        with pytest.raises(NumericalFailureError, match="end of the default search domain"):
            rnn_lipschitz(scaled_cosine(), 0.1, STD_GAUSSIAN_BIAS)
        report = rnn_lipschitz(scaled_cosine(), 0.1, STD_GAUSSIAN_BIAS, r_domain=(0.0, 2.0))
        assert report.argmax_r == 2.0

    # A gamma whose square is not a normal float: relu at 1e-200 used to
    # give a constant of 0 with error estimate 0.
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0,
                                       1e-200, 1e-154, 1e155, 1e300])
    @pytest.mark.filterwarnings("error")
    def test_bad_gamma_named(self, gamma):
        with pytest.raises(InvalidArgumentError, match="gamma must be positive and finite"):
            rnn_lipschitz(identity(), gamma, UNIFORM_PHASE)
        with pytest.raises(InvalidArgumentError, match="gamma must be positive and finite"):
            rnn_lipschitz(relu(), gamma, STD_GAUSSIAN_BIAS)


class TestVarianceDecomposition:
    def test_identity_is_exact(self):
        x, z = np.array([1.0, 0.5]), np.array([0.3, -2.0])
        check = variance_decomposition_check(identity(), 1.5, STD_GAUSSIAN_BIAS,
                                             x, z, mc_samples=10**4, seed=0)
        # s' = 1 makes beta = 0 and alpha = 1: rhs = gamma^2 ||z||^2 exactly.
        assert_allclose(check.rhs, 1.5**2 * float(z @ z), rtol=1e-9)
        assert abs(check.lhs - check.rhs) <= 4 * check.lhs_stderr

    def test_relu_orthogonal_directions(self):
        x, z = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        check = variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS,
                                             x, z, mc_samples=10**6, seed=1)
        assert abs(check.lhs - check.rhs) <= 3 * check.lhs_stderr

    def test_rff_aligned(self):
        x = np.array([1.0, 0.0])
        check = variance_decomposition_check(scaled_cosine(), 1.0,
                                             UNIFORM_PHASE, x, x,
                                             mc_samples=10**6, seed=2)
        assert_allclose(check.rhs, 1.0, rtol=1e-6)
        assert abs(check.lhs - check.rhs) <= 3 * check.lhs_stderr

    @pytest.mark.parametrize("act", [relu(), tanh_activation()], ids=lambda a: a.name)
    def test_in_place_chunks_match_plain_loop(self, act):
        # Each chunk drawn whole, then summed over the check's near-equal
        # blocks of at most 4,096 rows; the chunk sums add in chunk order.
        x, z, samples, seed = np.array([0.6, 0.8]), np.array([1.0, -0.3]), 1_500_000, 7
        dist = WeightDistribution.isotropic_gaussian(1.0, 2)
        total = total_sq = 0.0
        for chunk, m in enumerate((1_000_000, 500_000)):
            w, b = sample_weights(dist, STD_GAUSSIAN_BIAS, m, derive_seed(seed, chunk))
            vals = ((w @ z) * act.derivative(w @ x + b)) ** 2
            blocks = -(-m // 4096)
            chunk_total = chunk_sq = 0.0
            for k in range(blocks):
                block = vals[m * k // blocks:m * (k + 1) // blocks]
                chunk_total += float(np.sum(block))
                chunk_sq += float(np.sum(block**2))
            total += chunk_total
            total_sq += chunk_sq
        lhs = total / samples
        stderr = math.sqrt(max(total_sq / samples - lhs**2, 0.0) / samples)
        check = variance_decomposition_check(act, 1.0, STD_GAUSSIAN_BIAS, x, z,
                                             mc_samples=samples, seed=seed)
        assert check.lhs == lhs
        assert check.lhs_stderr == stderr

    @pytest.mark.parametrize("act, bias", [(relu(), STD_GAUSSIAN_BIAS),
                                           (scaled_cosine(), UNIFORM_PHASE),
                                           (identity(), BiasDistribution.point_mass())],
                             ids=["relu", "cos", "identity"])
    def test_core_count_keeps_every_bit(self, act, bias, monkeypatch):
        # Three chunks, the last one partial, on one, two and three workers.
        x, z = np.array([0.6, 0.8]), np.array([1.0, -0.3])
        checks = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(analytic, "_usable_cpus", lambda workers=workers: workers)
            checks.append(variance_decomposition_check(act, 1.0, bias, x, z,
                                                       mc_samples=2_500_000, seed=11))
        assert checks[0] == checks[1] == checks[2]

    def test_memory_holds_no_chunk(self):
        # Each worker holds 64 KiB blocks of draws and their values, never
        # a 10^6-sample chunk (8 MB of values alone).
        tracemalloc.start()
        try:
            variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS, np.array([0.6, 0.8]),
                                         np.array([1.0, -0.3]), mc_samples=3_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rhs_is_a_python_float(self):
        check = variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS, np.array([0.6, 0.8]),
                                             np.array([1.0, -0.3]), mc_samples=100, seed=0)
        assert type(check.rhs) is float

    def test_zero_x_rejected(self):
        with pytest.raises(InvalidArgumentError):
            variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS,
                                         np.zeros(2), np.ones(2), 100, 0)

    @pytest.mark.parametrize("samples", [0, -5, 10.7])
    def test_bad_sample_count_rejected(self, samples):
        with pytest.raises(InvalidArgumentError):
            variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS, np.array([0.6, 0.8]),
                                         np.array([1.0, -0.3]), samples, 0)

    @pytest.mark.parametrize("x, z", [(np.ones(2), np.ones(3)),
                                      (np.ones((2, 2)), np.ones((2, 2)))],
                             ids=["lengths", "2d"])
    def test_bad_shapes_rejected(self, x, z):
        with pytest.raises(InvalidArgumentError):
            variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS, x, z, 100, 0)

    def test_nan_x_rejected(self):
        with pytest.raises(InvalidArgumentError):
            variance_decomposition_check(relu(), 1.0, STD_GAUSSIAN_BIAS,
                                         np.array([np.nan, 1.0]), np.ones(2), 100, 0)

    def test_alpha_beta_sum_to_nu(self):
        # gamma^2 alpha(a) + beta(a) = nu(a) by construction.
        act, gamma, a = relu(), 1.3, 0.8
        alpha, beta = alpha_beta(act, gamma, STD_GAUSSIAN_BIAS, a)
        nu = nu_function(act, gamma, STD_GAUSSIAN_BIAS, a)
        assert_allclose(gamma**2 * alpha + beta, nu, rtol=1e-8)


class TestShiftInvariantLipschitz:
    def test_gaussian_anisotropic(self):
        report = shift_invariant_lipschitz(gaussian_kernel(np.diag([1.0, 4.0])))
        assert_allclose(report.value, 2.0, rtol=1e-10)
        assert report.method == "thm41-covariance"

    def test_matern(self):
        report = shift_invariant_lipschitz(matern_kernel(2.0, np.eye(2)))
        assert_allclose(report.value, math.sqrt(2.0), rtol=1e-10)

    @pytest.mark.parametrize("kernel", [laplace_kernel(3),
                                        matern_kernel(0.5, np.eye(2)),
                                        matern_kernel(1.0, np.eye(2))])
    def test_divergent_branch(self, kernel):
        report = shift_invariant_lipschitz(kernel)
        assert math.isinf(report.value)
        assert report.method == "divergent"
        assert report.argmax_r is None

    def test_report_invariant(self):
        finite = shift_invariant_lipschitz(gaussian_kernel(np.eye(2)))
        assert not math.isinf(finite.value)
        assert finite.method != "divergent"


class TestHessianOracle:
    def test_gaussian_isotropic(self):
        report = hessian_lipschitz_oracle(gaussian_kernel(np.eye(2)))
        assert_allclose(report.value, 1.0, atol=1e-4)
        assert report.method == "thm41-hessian-fd"

    def test_gaussian_anisotropic(self):
        report = hessian_lipschitz_oracle(gaussian_kernel(np.diag([1.0, 4.0])))
        assert_allclose(report.value, 2.0, atol=1e-3)

    def test_matern(self):
        report = hessian_lipschitz_oracle(matern_kernel(2.0, np.eye(2)))
        assert_allclose(report.value, math.sqrt(2.0), atol=1e-2)

    def test_infinite_moment_rejected(self):
        with pytest.raises(HypothesisViolationError):
            hessian_lipschitz_oracle(laplace_kernel(2))

    @pytest.mark.parametrize("nu, h", [(1.0001, 1e-4), (1.1, 1e-4), (2.0, 0.2)])
    def test_refuses_nu_near_one_for_its_step(self, nu, h):
        with pytest.raises(NumericalFailureError, match="too coarse"):
            hessian_lipschitz_oracle(matern_kernel(nu, np.eye(1)), h)

    def test_negative_step_refused(self):
        # h**(2 (nu - 1)) was complex and raised a raw TypeError.
        with pytest.raises(InvalidArgumentError, match="step h"):
            hessian_lipschitz_oracle(matern_kernel(1.75, np.eye(1)), -1e-4)

    def test_agrees_with_covariance_route(self):
        for kernel in (gaussian_kernel(np.eye(2)),
                       gaussian_kernel(np.diag([1.0, 4.0])),
                       matern_kernel(2.0, np.eye(2)),
                       matern_kernel(1.5, np.diag([2.0, 0.5]))):
            exact = shift_invariant_lipschitz(kernel).value
            fd = hessian_lipschitz_oracle(kernel).value
            assert abs(fd - exact) <= 1e-2 * exact


class TestDiagonalCurvatureOracle:
    def test_linear_kernel(self):
        k = lambda x, y: float(np.dot(x, y))
        value = diagonal_curvature_oracle(k, np.array([0.4, -1.0]),
                                          np.array([1.0, 0.0]))
        assert_allclose(value, 1.0, atol=1e-8)

    def test_gaussian_rff_kernel(self):
        kernel = gaussian_kernel(np.eye(2))
        value = diagonal_curvature_oracle(kernel, np.array([0.7, 0.2]),
                                          np.array([0.0, 1.0]))
        assert_allclose(value, 1.0, atol=1e-4)

    def test_matern_at_origin(self):
        kernel = matern_kernel(2.0, np.eye(2))
        value = diagonal_curvature_oracle(kernel, np.zeros(2),
                                          np.array([1.0, 0.0]))
        assert_allclose(value, math.sqrt(2.0), atol=1e-2)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            diagonal_curvature_oracle(gaussian_kernel(np.eye(2)), np.zeros(2),
                                      np.array([1.0, 1.0]))

    # A NaN x used to give a NaN curvature, and a NaN z passed the unit check.
    @pytest.mark.parametrize("x, z", [([np.nan, 0.0], [1.0, 0.0]), ([np.inf, 0.0], [1.0, 0.0]),
                                      ([0.0, 0.0], [np.nan, 0.0]), ([0.0], [1.0, 0.0]),
                                      ([[0.0, 0.0]], [[1.0, 0.0]])],
                             ids=["nan_x", "inf_x", "nan_z", "width", "2d"])
    def test_bad_points_refused(self, x, z):
        with pytest.raises(InvalidArgumentError):
            diagonal_curvature_oracle(gaussian_kernel(np.eye(2)), np.array(x), np.array(z))

    # h = 0 raised a raw ZeroDivisionError; a negative, NaN, infinite or
    # out-of-range step was taken silently by a plain callable kernel.
    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf, 1e-7, 0.1],
                             ids=["zero", "negative", "nan", "inf", "too_fine", "too_coarse"])
    def test_bad_step_refused(self, h):
        def k(x, y):
            return float(np.exp(-0.5 * np.sum((x - y) ** 2)))

        with pytest.raises(InvalidArgumentError, match="step h"):
            diagonal_curvature_oracle(k, np.zeros(2), np.array([1.0, 0.0]), h=h)

    def test_lower_bounds_exact_constant(self):
        # Sandwich: curvature at any (x, z) never exceeds the exact value.
        kernel = gaussian_kernel(np.diag([1.0, 4.0]))
        exact = shift_invariant_lipschitz(kernel).value
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            z = rng.standard_normal(2)
            z /= np.linalg.norm(z)
            assert diagonal_curvature_oracle(kernel, x, z) <= exact + 1e-6


class TestUpperBound:
    def test_relu_bound_strictly_larger(self):
        report = upper_bound_cor31(relu(),
                                   WeightDistribution.isotropic_gaussian(1.0, 1))
        assert_allclose(report.value, 1.0, rtol=1e-12)
        exact = rnn_lipschitz(relu(), 1.0, STD_GAUSSIAN_BIAS).value
        assert report.value > exact + 0.1
        assert report.method == "prop24-upper-bound"

    @pytest.mark.parametrize("gamma,d", [(0.5, 1), (1.0, 3), (2.0, 2)])
    def test_identity_bound(self, gamma, d):
        report = upper_bound_cor31(
            identity(), WeightDistribution.isotropic_gaussian(gamma, d))
        assert_allclose(report.value, gamma * math.sqrt(d), rtol=1e-12)

    def test_rff_bound_dominates_exact(self):
        report = upper_bound_cor31(
            scaled_cosine(), WeightDistribution.isotropic_gaussian(1.0, 2))
        assert_allclose(report.value, 2.0, rtol=1e-12)
        assert report.value >= rnn_lipschitz(scaled_cosine(), 1.0,
                                             UNIFORM_PHASE).value

    def test_infinite_moment_rejected(self):
        with pytest.raises(HypothesisViolationError):
            upper_bound_cor31(relu(), WeightDistribution.cauchy(2))


class TestWiener:
    @pytest.mark.parametrize("M", [1, 10, 50, 1000, 10**6])
    def test_partial_sum_is_2m(self, M):
        assert wiener_divergence(M) == 2.0 * M

    def test_truncated_series_converges_to_min(self):
        got = wiener_kernel_truncated(0.3, 0.7, 10**4)
        assert abs(got - 0.3) <= 1e-3

    def test_truncated_series_symmetric(self):
        assert_allclose(wiener_kernel_truncated(0.2, 0.9, 500),
                        wiener_kernel_truncated(0.9, 0.2, 500), rtol=1e-14)

    def test_invalid_m(self):
        with pytest.raises(InvalidArgumentError):
            wiener_divergence(0)


class TestLipschitzReport:
    def test_csv_row_finite(self):
        report = LipschitzReport(value=1.5, method="thm41-covariance")
        assert CSV_HEADER == "method,value,argmax_r,error_estimate"
        assert report.csv_row().startswith("thm41-covariance,1.5,")

    def test_csv_row_infinite(self):
        report = LipschitzReport(value=math.inf, method="divergent")
        fields = report.csv_row().split(",")
        assert fields[:3] == ["divergent", "inf", ""]
