"""Tests for the exact Lipschitz evaluators and their oracles."""

import dataclasses
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerlip import analytic, kernels, numerics
from kerlip.analytic import (
    CSV_HEADER,
    LipschitzReport,
    alpha_beta,
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
    UnsupportedDistributionError,
)
from kerlip.kernels import (
    Activation,
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

# The activations and bias laws of the refusal scan over gamma.
SCAN_ACTIVATIONS = {"relu": relu, "tanh": tanh_activation, "cos": scaled_cosine,
                    "identity": identity}
SCAN_BIASES = {"N(0, 1)": STD_GAUSSIAN_BIAS, "N(0, 9)": BiasDistribution.gaussian(3.0),
               "point": BiasDistribution.point_mass(),
               "U(-1, 2)": BiasDistribution.uniform(-1.0, 2.0), "phase": UNIFORM_PHASE}

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

    # nu(r) = gamma^2 g(r gamma) and the supremum is taken over tau = r gamma,
    # so every verdict is gamma's, the constant scales as gamma and argmax_r
    # as 1 / gamma.  cos with N(0, 9) moved by 3.4e-9 relative over gamma when
    # the search domain scaled with gamma.
    @given(act=st.sampled_from(sorted(SCAN_ACTIVATIONS)),
           bias=st.sampled_from(sorted(SCAN_BIASES)),
           gamma=st.floats(0.1, 10.0), c=st.floats(1e-3, 1e3))
    @example(act="tanh", bias="N(0, 9)", gamma=1.0, c=100.0)  # refused at every gamma
    @example(act="relu", bias="point", gamma=1.0, c=0.5)  # refused: a kink and no spread
    @example(act="cos", bias="N(0, 9)", gamma=1.0, c=3.0)
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance_over_laws(self, act, bias, gamma, c):
        outcomes = []
        for scale in (gamma, c * gamma):
            try:
                outcomes.append(rnn_lipschitz(SCAN_ACTIVATIONS[act](), scale, SCAN_BIASES[bias]))
            except (NumericalFailureError, HypothesisViolationError) as exc:
                outcomes.append(type(exc))
        base, scaled = outcomes
        if isinstance(base, type) or isinstance(scaled, type):
            assert base == scaled
            return
        assert_allclose(scaled.value, c * base.value, rtol=1e-15)
        assert_allclose(c * scaled.argmax_r, base.argmax_r, rtol=1e-15)
        assert_allclose(scaled.error_estimate, c * base.error_estimate, rtol=1e-15)

    # sup_tau sqrt(g(tau)) is gamma's alone; the search domain used to scale
    # as gamma, which stopped short of cos's peak at tau = sqrt(3)/2 for
    # gamma <= 0.1 and ran past what the 1-D rule resolves at gamma = 100.
    @given(gamma=st.floats(1e-2, 1e2), family=st.sampled_from(["gaussian", "point", "uniform"]),
           sd=st.floats(0.1, 3.0), a=st.floats(-4.0, 4.0), width=st.floats(0.1, 8.0))
    @example(gamma=0.05, family="gaussian", sd=1.0, a=0.0, width=1.0)
    @example(gamma=100.0, family="point", sd=1.0, a=0.0, width=1.0)
    @settings(max_examples=25, deadline=None)
    def test_cos_closed_form_over_gamma(self, gamma, family, sd, a, width):
        if family == "gaussian":
            bias, mean_cos = BiasDistribution.gaussian(sd), math.exp(-2.0 * sd * sd)
        elif family == "point":
            bias, mean_cos = BiasDistribution.point_mass(), 1.0
        else:
            bias = BiasDistribution.uniform(a, a + width)
            mean_cos = (math.sin(2.0 * (a + width)) - math.sin(2.0 * a)) / (2.0 * width)
        report = rnn_lipschitz(scaled_cosine(), gamma, bias)
        expected = gamma * math.sqrt(1.0 + max(2.0 * mean_cos * math.exp(-1.5), -mean_cos))
        assert_allclose(report.value, expected, rtol=1e-9)

    def test_kinked_activation_needs_continuous_bias(self):
        with pytest.raises(HypothesisViolationError):
            rnn_lipschitz(relu(), 1.0, BiasDistribution.point_mass())

    def test_smooth_activation_allows_point_mass(self):
        report = rnn_lipschitz(identity(), 2.0, BiasDistribution.point_mass())
        assert_allclose(report.value, 2.0, rtol=1e-8)

    @pytest.mark.parametrize("act, bias", [
        (relu(), STD_GAUSSIAN_BIAS),
        (identity(), BiasDistribution.point_mass()),
        (scaled_cosine(), UNIFORM_PHASE),
    ], ids=["relu", "identity", "uniform"])
    def test_one_ladder_per_scan_evaluation(self, act, bias, monkeypatch):
        # Every bias law scans the grid in one array call on the 1-D route
        # and certifies the argmax with one 2-D ladder.  The reported value
        # comes from the scan.
        ladders, scans, grid_calls = [], [], []
        adaptive = numerics.expectation_2d_adaptive
        maximize = numerics.maximize_scalar

        def counted_adaptive(*args, **kwargs):
            ladders.append(args)
            return adaptive(*args, **kwargs)

        def recorded_maximize(g, *args, **kwargs):
            def counted(r):
                if np.ndim(r):
                    grid_calls.append(np.size(r))
                return g(r)

            scans.append(maximize(counted, *args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(numerics, "expectation_2d_adaptive", counted_adaptive)
        monkeypatch.setattr(numerics, "maximize_scalar", recorded_maximize)
        report = rnn_lipschitz(act, 1.0, bias)
        assert len(scans) == 1
        assert scans[0].evaluations > numerics.DEFAULT_SCAN_POINTS
        assert grid_calls == [numerics.DEFAULT_SCAN_POINTS]
        assert len(ladders) == 1
        assert report.value == math.sqrt(scans[0].max_value)
        assert report.argmax_r == scans[0].argmax

    def test_bad_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rnn_lipschitz(identity(), 1.0, UNIFORM_PHASE, r_domain=(2.0, 1.0))

    def test_edge_of_a_given_domain_is_kept(self):
        # cos with an N(0, 1) bias peaks at r gamma = sqrt(3)/2, past the end of
        # each of these domains; the end of a domain the caller gives is taken,
        # and reads back exactly whatever the rounding of r_max gamma.
        report = rnn_lipschitz(scaled_cosine(), 0.1, STD_GAUSSIAN_BIAS, r_domain=(0.0, 2.0))
        assert report.argmax_r == 2.0
        for gamma in (0.3, 3.0, 7.0):
            report = rnn_lipschitz(scaled_cosine(), gamma, STD_GAUSSIAN_BIAS, r_domain=(0.0, 0.1))
            assert report.argmax_r == 0.1

    # tanh with a point-mass bias peaks at g(0) = 1; the grid of this domain
    # spans more scales than one u-rule holds.
    def test_domain_over_many_decades(self):
        report = rnn_lipschitz(tanh_activation(), 1.0, BiasDistribution.point_mass(),
                               r_domain=(1e-200, 1.0))
        assert_allclose(report.value, 1.0, rtol=1e-14)

    # With s'(u) = u and a point-mass bias, g(tau) = 3 tau^2 rises without
    # bound, so the supremum lies past the default domain at every gamma.
    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
    def test_rising_profile_refused_at_the_default_domain_end(self, gamma):
        square = Activation(name="square", value=lambda u: 0.5 * u**2, derivative=lambda u: u,
                            lipschitz_bound=math.inf)
        with pytest.raises(NumericalFailureError, match="end of the default search") as info:
            rnn_lipschitz(square, gamma, BiasDistribution.point_mass())
        for named in (f"gamma = {gamma:g},", "bias point", "argmax r = ", "error "):
            assert named in str(info.value)
        report = rnn_lipschitz(square, gamma, BiasDistribution.point_mass(), r_domain=(0.0, 1.0))
        assert report.argmax_r == 1.0
        assert_allclose(report.value, math.sqrt(3.0) * gamma**2, rtol=1e-12)

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


def _tanh_u_moment(weight, v):
    """``E_u[weight(u) sech(u)^4]`` for ``u ~ N(0, v)``, as one ``quad``."""
    from scipy import integrate

    def integrand(u):
        sech = 2.0 / (math.exp(u) + math.exp(-u))
        return weight(u) * math.exp(-0.5 * u * u / v) / math.sqrt(2.0 * math.pi * v) * sech**4

    # sech(u)^4 < 1e-68 beyond |u| = 40.
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((-40.0, 0.0), (0.0, 40.0)))


def _tanh_nu_quad(gamma, sd, r):
    """``nu(r)`` for tanh over ``u = r zeta + b ~ N(0, v)``."""
    v = (r * gamma) ** 2 + sd**2
    return _tanh_u_moment(
        lambda u: gamma**2 - (r * gamma**2) ** 2 / v + (r * gamma**2 * u / v) ** 2, v)


class TestOneDimensionalRoute:
    """The 1-D route for Gaussian and point-mass biases against closed forms."""

    # With c = E cos 2b, nu(r) = gamma^2 - c (gamma^2 - 4 gamma^4 r^2) exp(-2 gamma^2 r^2),
    # which peaks at gamma r = sqrt(3)/2 for c > 0.  While the search domain
    # scaled as gamma, gamma = 0.1 and 100 were refused, and gamma = 10 took
    # 0.3-0.6 s.
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("bias, c", [
        (BiasDistribution.gaussian(0.5), math.exp(-0.5)),
        (STD_GAUSSIAN_BIAS, math.exp(-2.0)),
        (BiasDistribution.point_mass(), 1.0),
    ], ids=["gaussian0.5", "gaussian1", "point"])
    def test_cos_closed_form(self, bias, c, gamma):
        start = time.process_time()
        report = rnn_lipschitz(scaled_cosine(), gamma, bias)
        assert time.process_time() - start < 0.2
        expected = gamma * math.sqrt(1.0 + max(2.0 * c * math.exp(-1.5), -c))
        assert_allclose(report.value, expected, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_relu_gaussian_bias(self, gamma):
        report = rnn_lipschitz(relu(), gamma, STD_GAUSSIAN_BIAS)
        assert_allclose(report.value, gamma / math.sqrt(2.0), rtol=1e-12)

    # The 2-D Hermite ladder was 49% off at r = 15 and 25% at r = 28.
    @pytest.mark.parametrize("r", [0.5, 5.0, 15.0, 28.0])
    def test_tanh_profile_matches_quad(self, r):
        value = nu_function(tanh_activation(), 1.0, STD_GAUSSIAN_BIAS, r)
        assert_allclose(value, _tanh_nu_quad(1.0, 1.0, r), rtol=1e-10)

    def test_point_mass_at_zero_radius(self):
        # u = b = 0, so nu(0) = gamma^2 s'(0)^2 with tanh'(0) = 1.
        value = nu_function(tanh_activation(), 1.3, BiasDistribution.point_mass(), 0.0)
        assert value == 1.3**2

    def test_unresolved_profile_refused(self):
        # s'(u)^2 = 2 sin(u)^2 oscillates out to |u| ~ 1e151 here, past what
        # 8,192 panels on u >= 0 can resolve, so the two panel orders disagree.
        with pytest.raises(NumericalFailureError, match="1-D quadrature did not converge"):
            nu_function(scaled_cosine(), 1.0, STD_GAUSSIAN_BIAS, 1e150)

    # Golden-section steps towards r = 0 each went below the rule's smallest
    # scale; rebuilding it at each step's own scale made 1,465 and 506 rules.
    @pytest.mark.parametrize("r_domain, builds", [((1e-300, 1e300), 36), ((0.0, 1e100), 12)])
    def test_descending_steps_rebuild_rarely(self, monkeypatch, r_domain, builds):
        panel_rule, made = numerics.panel_rule, []

        def counted(*args):
            made.append(args)
            return panel_rule(*args)

        monkeypatch.setattr(numerics, "panel_rule", counted)
        report = rnn_lipschitz(tanh_activation(), 1.0, BiasDistribution.point_mass(),
                               r_domain=r_domain)
        assert_allclose(report.value, 1.0, rtol=1e-15)
        assert len(made) <= builds

    def test_subnormal_scale_refused(self):
        # No panels halve down to a scale whose reciprocal overflows.
        with pytest.raises(NumericalFailureError, match="no u-panels reach from scale"):
            nu_function(scaled_cosine(), 1.0, BiasDistribution.point_mass(), 2.2e-313)

    # m_2's normalisation R^2 / (s^3 sqrt(2 pi)) overflowed at these scales,
    # though m_2 itself is O(1).
    @pytest.mark.parametrize("r", [1e-307, 3e-308])
    def test_scale_near_the_smallest_normal(self, r):
        value = nu_function(tanh_activation(), 1.0, BiasDistribution.point_mass(), r)
        assert_allclose(value, 1.0, rtol=1e-12)

    def test_certificate_ladder_must_converge(self, monkeypatch):
        monkeypatch.setattr(analytic, "_nu_with_error", lambda act, b, tau: (0.5, 1e-3))
        with pytest.raises(NumericalFailureError, match="certificate's quadrature ladder"):
            rnn_lipschitz(relu(), 1.0, STD_GAUSSIAN_BIAS)

    def test_routes_must_agree(self, monkeypatch):
        monkeypatch.setattr(analytic, "_nu_with_error", lambda act, b, tau: (0.5 + 1e-7, 0.0))
        with pytest.raises(NumericalFailureError, match="differ at the supremum"):
            rnn_lipschitz(relu(), 1.0, STD_GAUSSIAN_BIAS)

    def test_unconverged_radius_refused(self, monkeypatch):
        # An unconverged low value anywhere on the scan could hide the supremum.
        profile = analytic._profile_1d

        def noisy(act, bias):
            inner = profile(act, bias)

            def evaluate(tau):
                nu, alpha = inner(tau)
                nu[:, 1] += np.where(np.isclose(tau, 7.0, atol=0.02), 1e-3, 0.0)
                return nu, alpha
            return evaluate

        monkeypatch.setattr(analytic, "_profile_1d", noisy)
        with pytest.raises(NumericalFailureError, match="1-D quadrature did not converge at r = 7"):
            rnn_lipschitz(relu(), 1.0, STD_GAUSSIAN_BIAS)


def _tanh_uniform_nu_quad(gamma, a, c, r):
    """``nu(r)`` for tanh with a ``U(a, c)`` bias, as a ``quad`` over the bias
    inside a ``quad`` over ``t ~ N(0, 1)``, with ``zeta = gamma t``."""
    from scipy import integrate

    def sech4(x):
        return 0.0 if abs(x) > 300.0 else math.cosh(x) ** -4

    def bias_mean(u):
        return integrate.quad(lambda b: sech4(u + b), a, c, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0] / (c - a)

    def integrand(t):
        return t * t * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * bias_mean(r * gamma * t)

    # The window where |u + b| < 40 lies between the split points.
    tau = r * gamma
    points = sorted({-12.0, 0.0, 12.0, *(min(max(x / tau, -12.0), 12.0)
                                         for x in (-c - 40.0, -a + 40.0, -c, -a))})
    return gamma**2 * sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                                         limit=200)[0]
                          for lo, hi in zip(points, points[1:]) if hi > lo)


def _relu_uniform_nu(gamma, a, c, r):
    """``gamma^2 (tau / (c - a)) [G(c / tau) - G(a / tau)]`` with ``tau = r gamma``
    and ``G(t) = t Phi(t) + 2 phi(t)``, the closed form for ReLU."""
    def big_g(t):
        return (t * 0.5 * math.erfc(-t / math.sqrt(2.0))
                + 2.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi))

    tau = r * gamma
    return gamma**2 * tau / (c - a) * (big_g(c / tau) - big_g(a / tau))


class TestUniformBias:
    """A uniform bias, integrated out on the 1-D route, against closed forms."""

    # With m = E cos 2b = (sin 2c - sin 2a) / (2 (c - a)), the cos profile is
    # gamma^2 - m (gamma^2 - 4 gamma^4 r^2) exp(-2 gamma^2 r^2).
    @given(gamma=st.floats(0.3, 3.0), a=st.floats(-4.0, 4.0), c=st.floats(-4.0, 4.0))
    @example(gamma=1.0, a=-1.0, c=2.0)  # the 2-D ladder route refused it
    @settings(max_examples=25, deadline=None)
    def test_cos_closed_form(self, gamma, a, c):
        assume(0.1 <= c - a)
        mean_cos = (math.sin(2.0 * c) - math.sin(2.0 * a)) / (2.0 * (c - a))
        report = rnn_lipschitz(scaled_cosine(), gamma, BiasDistribution.uniform(a, c))
        expected = gamma * math.sqrt(1.0 + max(2.0 * mean_cos * math.exp(-1.5), -mean_cos))
        assert_allclose(report.value, expected, rtol=1e-9)

    @pytest.mark.parametrize("a, c", [(-1.0, 2.0), (0.5, 3.0), (-3.0, -1.0)])
    @pytest.mark.parametrize("gamma", [0.5, 1.3])
    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0, 20.0])
    def test_relu_profile(self, a, c, gamma, r):
        value = nu_function(relu(), gamma, BiasDistribution.uniform(a, c), r)
        assert_allclose(value, _relu_uniform_nu(gamma, a, c, r), rtol=1e-12)

    # nu(0) = gamma^2 P(b > 0) = 2 gamma^2 / 3 is the supremum.  The 2-D
    # ladder route refused gamma = 1.
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_relu_minus_one_to_two(self, gamma):
        report = rnn_lipschitz(relu(), gamma, BiasDistribution.uniform(-1.0, 2.0))
        assert_allclose(report.value, math.sqrt(2.0 / 3.0) * gamma, rtol=1e-12)

    # s'(b)^2 jumps at ReLU's kink b = 0 inside U(-1, 2), which one Legendre
    # rule in b over the whole interval missed by 3.1e-4 at tau = 0 and 3.8e-4
    # at 0.0147; the certificate cuts the law there.
    @pytest.mark.parametrize("tau", [0.0, 0.00736, 0.0147, 0.05, 0.3])
    def test_relu_certificate_cut_at_the_kink(self, tau):
        value, error = analytic._nu_with_error(relu(), BiasDistribution.uniform(-1.0, 2.0), tau)
        assert error < numerics.LADDER_RTOL
        if tau == 0.0:
            assert_allclose(value, 2.0 / 3.0, rtol=0.0, atol=1e-12)
        else:
            assert_allclose(value, _relu_uniform_nu(1.0, -1.0, 2.0, tau), rtol=1e-9)

    # The 2-D ladder was 41% off for U(0, 2 pi) and 118% for U(-1, 2) at r = 15.
    @pytest.mark.parametrize("a, c", [(0.0, 2.0 * math.pi), (-1.0, 2.0)])
    @pytest.mark.parametrize("r", [0.05, 0.7, 3.0, 15.0])
    def test_tanh_profile_matches_quad(self, a, c, r):
        value = nu_function(tanh_activation(), 1.3, BiasDistribution.uniform(a, c), r)
        assert_allclose(value, _tanh_uniform_nu_quad(1.3, a, c, r), rtol=1e-9)

    def test_activation_without_slope_integral_refused(self):
        act = dataclasses.replace(tanh_activation(), slope_sq_integral=None)
        with pytest.raises(UnsupportedDistributionError, match="uniform bias"):
            rnn_lipschitz(act, 1.0, UNIFORM_PHASE)
        with pytest.raises(UnsupportedDistributionError, match="uniform bias"):
            nu_function(act, 1.0, UNIFORM_PHASE, 1.0)
        assert rnn_lipschitz(act, 1.0, STD_GAUSSIAN_BIAS).value > 0.0

    # S(u + c) - S(u + a) rounds at about eps max |S| / (c - a), which a
    # narrow window divides by its width.  The 2-D route gave these values.
    # Weighted by the Gaussian, that bound stays below 2e-9 of nu on
    # U(0, 1e-6), so those windows must answer; on U(0, 1e-9) it reaches
    # 1e-6 of nu at r gamma = 10, and the rounding guard may refuse them.
    @pytest.mark.parametrize("act, width, two_d", [
        (relu(), 1e-6, 1.0),
        (relu(), 1e-9, 1.0),
        (tanh_activation(), 1e-6, 0.9999999999996668),
        (tanh_activation(), 1e-9, 1.0),
        (scaled_cosine(), 1e-6, 1.2026056378948848),
        (scaled_cosine(), 1e-9, 1.2026056378950085),
    ], ids=["relu1e-6", "relu1e-9", "tanh1e-6", "tanh1e-9", "cos1e-6", "cos1e-9"])
    def test_narrow_window_answers_or_refuses_at_once(self, act, width, two_d):
        start = time.process_time()
        try:
            value = rnn_lipschitz(act, 1.0, BiasDistribution.uniform(0.0, width)).value
        except NumericalFailureError as exc:
            assert width < 1e-6 and "rounds at" in str(exc)
        else:
            assert_allclose(value, two_d, rtol=1e-9)
        assert time.process_time() - start < 1.0

    # relu on U(0, 1e-6): D rounds at about eps |u| / 1e-6, which the
    # Gaussian weight holds below LADDER_RTOL out to r gamma of about 55.
    def test_rounding_guard_weighs_each_radius(self):
        window = BiasDistribution.uniform(0.0, 1e-6)
        assert_allclose(nu_function(relu(), 1.0, window, 15.0), 0.5, rtol=1e-9)
        with pytest.raises(NumericalFailureError, match="rounds at"):
            nu_function(relu(), 1.0, window, 1000.0)


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

    # Recorded before the draw was split into stream reads and one transform;
    # 2.5e6 samples make two full chunks and a partial one.
    @pytest.mark.parametrize("act, lhs, stderr", [
        (relu(), "0x1.16feb511aa498p-1", "0x1.944c04d4c5ddap-11"),
        (tanh_activation(), "0x1.71f0191356fa2p-2", "0x1.0deea5cf74fe3p-11"),
    ], ids=["relu", "tanh"])
    def test_golden_bits(self, act, lhs, stderr):
        check = variance_decomposition_check(act, 1.0, STD_GAUSSIAN_BIAS, np.array([0.6, 0.8]),
                                             np.array([1.0, -0.3]), mc_samples=2_500_000,
                                             seed=1)
        assert check.lhs.hex() == lhs and check.lhs_stderr.hex() == stderr

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

    # The 2-D ladder's alpha was 78% low here, for a z-score of 106.
    def test_tanh_far_out(self):
        check = variance_decomposition_check(tanh_activation(), 1.0, STD_GAUSSIAN_BIAS,
                                             np.array([28.0, 0.0]), np.array([0.0, 1.0]),
                                             mc_samples=2 * 10**6, seed=1)
        assert abs(check.lhs - check.rhs) <= 5 * check.lhs_stderr

    def test_no_two_dimensional_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the 2-D quadrature was called")

        monkeypatch.setattr(numerics, "expectation_2d", refuse)
        monkeypatch.setattr(numerics, "expectation_2d_adaptive", refuse)
        for act, bias in ((relu(), STD_GAUSSIAN_BIAS), (tanh_activation(), STD_GAUSSIAN_BIAS),
                          (scaled_cosine(), UNIFORM_PHASE)):
            variance_decomposition_check(act, 1.0, bias, np.array([0.6, 0.8]),
                                         np.array([1.0, -0.3]), mc_samples=100, seed=0)


def _tanh_alpha_beta_quad(gamma, sd, a):
    """``alpha(a)`` and ``beta(a)`` for tanh over ``u = a zeta + b ~ N(0, v)``,
    with ``E[zeta^2 - gamma^2 | u] = a^2 gamma^4 (u^2 / v - 1) / v``."""
    v = (a * gamma) ** 2 + sd**2
    return (_tanh_u_moment(lambda u: 1.0, v),
            _tanh_u_moment(lambda u: (a * gamma**2) ** 2 * (u * u / v - 1.0) / v, v))


class TestAlphaBeta:
    """``alpha`` and ``beta`` on the 1-D route against ``quad`` and closed forms."""

    # The 2-D ladder's alpha was 10% low at a = 15 and 78% low at a = 28.
    @pytest.mark.parametrize("a", [0.5, 5.0, 15.0, 28.0])
    def test_tanh_matches_quad(self, a):
        alpha, beta = alpha_beta(tanh_activation(), 1.0, STD_GAUSSIAN_BIAS, a)
        expected = _tanh_alpha_beta_quad(1.0, 1.0, a)
        assert_allclose((alpha, beta), expected, rtol=1e-10)

    @pytest.mark.parametrize("a", [0.0, 0.8, 5.0])
    def test_relu(self, a):
        # u ~ N(0, v) is symmetric, so alpha = P(u > 0) = 1/2, and the
        # conditional weight of beta averages to 0 on each half line.
        alpha, beta = alpha_beta(relu(), 1.3, STD_GAUSSIAN_BIAS, a)
        assert_allclose((alpha, beta), (0.5, 0.0), rtol=0.0, atol=1e-12)

    # With m = E cos 2b and tau = a gamma, s'(u)^2 = 1 - cos 2u gives
    # alpha = 1 - m exp(-2 tau^2) and beta = 4 gamma^2 m tau^2 exp(-2 tau^2).
    @given(gamma=st.floats(0.3, 3.0), a=st.floats(0.0, 30.0),
           family=st.sampled_from(["gaussian", "point", "uniform"]),
           p=st.floats(-4.0, 4.0), q=st.floats(-4.0, 4.0))
    @example(gamma=3.0, a=5.0, family="point", p=0.0, q=0.0)  # the 2-D ladder was 54% off
    @example(gamma=1.0, a=2.2250738585e-313, family="point", p=0.0, q=0.0)
    @settings(max_examples=40, deadline=None)
    def test_cos_closed_form(self, gamma, a, family, p, q):
        if family == "gaussian":
            assume(0.1 <= abs(p))
            bias, mean_cos = BiasDistribution.gaussian(abs(p)), math.exp(-2.0 * p * p)
        elif family == "point":
            bias, mean_cos = BiasDistribution.point_mass(), 1.0
        else:
            assume(0.1 <= q - p)
            bias = BiasDistribution.uniform(p, q)
            mean_cos = (math.sin(2.0 * q) - math.sin(2.0 * p)) / (2.0 * (q - p))
        if family != "gaussian" and 0.0 < a * gamma < sys.float_info.min:
            # With no bias spread the scale is a gamma; 0.5 / scale overflows.
            with pytest.raises(NumericalFailureError, match="no u-panels reach"):
                alpha_beta(scaled_cosine(), gamma, bias, a)
            return
        alpha, beta = alpha_beta(scaled_cosine(), gamma, bias, a)
        decay = mean_cos * math.exp(-2.0 * (a * gamma) ** 2)
        assert_allclose(alpha, 1.0 - decay, rtol=0.0, atol=1e-12)
        assert_allclose(beta / gamma**2, 4.0 * (a * gamma) ** 2 * decay, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gamma, a", [(1.0, math.nan), (1.0, math.inf), (1.0, -1.0),
                                          (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                          (-1.0, 1.0), (1e300, 1.0), (1e-200, 1.0)])
    def test_bad_input_rejected(self, gamma, a):
        with pytest.raises(InvalidArgumentError):
            alpha_beta(tanh_activation(), gamma, STD_GAUSSIAN_BIAS, a)

    # beta = nu - gamma^2 alpha is not checked on its own: ReLU's is exactly 0.
    @pytest.mark.parametrize("moment", ["nu", "alpha"])
    def test_unconverged_refused(self, monkeypatch, moment):
        profile = analytic._profile_1d

        def noisy(act, bias):
            inner = profile(act, bias)

            def evaluate(tau):
                nu, alpha = inner(tau)
                (nu if moment == "nu" else alpha)[:, 1] += 1e-3
                return nu, alpha
            return evaluate

        monkeypatch.setattr(analytic, "_profile_1d", noisy)
        with pytest.raises(NumericalFailureError, match=f"did not converge at r = 0.8 \\({moment}"):
            alpha_beta(relu(), 1.0, STD_GAUSSIAN_BIAS, 0.8)


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

    @pytest.mark.parametrize("nu, h", [(1.0001, 1e-4), (1.1, 1e-4), (1.4, 1e-2)])
    def test_refuses_nu_near_one_for_its_step(self, nu, h):
        with pytest.raises(NumericalFailureError, match="too coarse"):
            hessian_lipschitz_oracle(matern_kernel(nu, np.eye(1)), h)

    @pytest.mark.parametrize("nu, h", [(2.0, 0.2), (1.75, math.inf)])
    def test_step_range_is_checked_before_the_band(self, nu, h):
        # A step outside hessian_fd's range gets the same refusal as for a
        # Gaussian kernel, not the band's "too coarse".
        with pytest.raises(InvalidArgumentError, match=r"step h must be in \[1e-6, 1e-2\]"):
            hessian_lipschitz_oracle(matern_kernel(nu, np.eye(1)), h)

    def test_negative_step_refused(self):
        # h**(2 (nu - 1)) was complex and raised a raw TypeError.
        with pytest.raises(InvalidArgumentError, match="step h"):
            hessian_lipschitz_oracle(matern_kernel(1.75, np.eye(1)), -1e-4)

    @pytest.mark.parametrize("nu", [5.0, 50.0, 200.0, 1000.0])
    @pytest.mark.parametrize("sigma", [np.eye(2), np.diag([2.0, 0.5])], ids=["I2", "diag2_0.5"])
    def test_smooth_matern_to_round_off(self, nu, sigma):
        # 1 - kappa from the Gamma mixture: no Gamma(nu) overflow at nu = 200,
        # and no cancellation against kappa(0) = 1.
        lam = np.max(1.0 / np.diag(sigma))
        report = hessian_lipschitz_oracle(matern_kernel(nu, sigma))
        assert_allclose(report.value, math.sqrt(2.0 * nu / (2.0 * nu - 2.0) * lam), rtol=1e-12)

    @pytest.mark.parametrize("nu", [1.25, 1.5, 2.0])
    def test_matern_near_one_within_the_band(self, nu):
        # The finite differences are off by about h**(2 (nu - 1)) relative.
        h = numerics.DEFAULT_FD_STEP
        exact = math.sqrt(nu / (nu - 1.0))
        report = hessian_lipschitz_oracle(matern_kernel(nu, np.eye(2)), h)
        assert abs(report.value - exact) <= h ** (2.0 * (nu - 1.0)) * exact
        assert abs(report.value - exact) <= report.error_estimate

    # Below nu of about 1.34 the h^(2 nu - 2) term that the Richardson step
    # leaves is larger in the value than in its gap to the coarse value; the
    # estimate scales that gap up, with margins of 0.1-0.3% at nu = 1.25 and 1.3.
    @pytest.mark.parametrize("nu", [1.25, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("sigma", [np.eye(2), np.diag([2.0, 0.5])], ids=["eye", "diag"])
    def test_error_estimate_bounds_the_gap(self, nu, sigma):
        kernel = matern_kernel(nu, sigma)
        report = hessian_lipschitz_oracle(kernel)
        assert abs(report.value - shift_invariant_lipschitz(kernel).value) <= report.error_estimate

    def test_gaussian_to_round_off(self):
        report = hessian_lipschitz_oracle(gaussian_kernel(np.diag([1.0, 4.0])))
        assert_allclose(report.value, 2.0, rtol=1e-12)

    def test_non_finite_hessian_refused(self, monkeypatch):
        # Refused before sym_eig_max sees it, whose InvalidArgumentError
        # would read as a usage error.
        monkeypatch.setattr(kernels, "_one_minus_kappa", lambda law, q, q_min: np.nan)
        with pytest.raises(NumericalFailureError, match="not finite"):
            hessian_lipschitz_oracle(matern_kernel(2.0, np.eye(2)))

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

    @pytest.mark.parametrize("value, error, method", [
        (math.nan, 0.0, "thm41-hessian-fd"),
        (1.0, math.nan, "thm34-quadrature"),
        (math.inf, 0.0, "thm41-covariance"),
        (-math.inf, 0.0, "divergent"),
        (math.nan, 0.0, "divergent"),
    ])
    def test_nan_or_misplaced_infinity_refused(self, value, error, method):
        with pytest.raises(NumericalFailureError):
            LipschitzReport(value=value, method=method, error_estimate=error)
