"""Tests for the deterministic numerical primitives."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerlip.analytic import _kink_locator, _profile_1d
from kerlip.errors import InvalidArgumentError, NumericalFailureError
from kerlip.kernels import (
    Activation,
    BiasDistribution,
    gaussian_kernel,
    identity,
    kappa_eval,
    matern_kernel,
    relu,
    scaled_cosine,
    tanh_activation,
)
from kerlip.numerics import (
    DEFAULT_SCAN_POINTS,
    MAX_SCALE_SPAN,
    _bias_rule,
    _gaussian_pdf,
    _leggauss,
    expectation_2d,
    expectation_2d_adaptive,
    gaussian_moments,
    hessian_fd,
    maximize_scalar,
    panel_rule,
    spectral_norm,
    sym_eig_max,
)


def _gaussian_moment(sd, k):
    """``E[b^k] = sd^k (k - 1)!!`` for ``b ~ N(0, sd^2)`` and even ``k``."""
    return sd**k * math.prod(range(k - 1, 0, -2))


class TestGaussHermite:
    """The Gaussian bias law's probability rule, built on Gauss-Hermite."""

    def test_one_point_rule(self):
        nodes, weights = _bias_rule(BiasDistribution.gaussian(2.0), 1)
        assert_allclose(nodes, [0.0], atol=1e-15)
        assert_allclose(weights, [1.0])

    def test_two_point_rule(self):
        # Roots of H_2(t) = 4 t^2 - 2 are +-1/sqrt(2), i.e. b = +-sd.
        nodes, weights = _bias_rule(BiasDistribution.gaussian(0.5), 2)
        assert_allclose(nodes, [-0.5, 0.5])
        assert_allclose(weights, [0.5, 0.5])

    def test_second_moment_with_two_points(self):
        nodes, weights = _bias_rule(BiasDistribution.gaussian(2.0), 2)
        assert_allclose(np.dot(weights, nodes**2), 4.0, rtol=1e-14)

    def test_nodes_increasing_weights_positive(self):
        for n in (1, 2, 7, 64, 256):
            nodes, weights = _bias_rule(BiasDistribution.gaussian(1.0), n)
            assert np.all(np.diff(nodes) > 0)
            assert np.all(weights > 0)
        nodes, weights = _bias_rule(BiasDistribution.point_mass(), 64)
        assert nodes.tolist() == [0.0] and weights.tolist() == [1.0]

    @pytest.mark.parametrize("n", [0, -3, 257])
    def test_order_out_of_range(self, n):
        for orders in ((n, 64), (64, n)):
            with pytest.raises(InvalidArgumentError):
                expectation_2d(lambda z, b: z**2, 1.0,
                               BiasDistribution.gaussian(1.0), orders)

    def test_exactness_all_monomials(self):
        # Exact for E[b^k] up to degree 2n-1, every n <= 32.
        for sd, n in itertools.product((0.5, 2.0), range(1, 33)):
            nodes, weights = _bias_rule(BiasDistribution.gaussian(sd), n)
            for k in range(0, 2 * n):
                got = np.dot(weights, nodes**k)
                if k % 2 == 1:
                    # Exact value 0; scale round-off by the absolute moment.
                    scale = np.dot(weights, np.abs(nodes) ** k)
                    assert abs(got) < 1e-10 * scale + 1e-12
                else:
                    assert_allclose(got, _gaussian_moment(sd, k), rtol=1e-10)


class TestGaussLegendre:
    """The uniform bias law's probability rule, built on Gauss-Legendre."""

    def test_midpoint_rule(self):
        nodes, weights = _bias_rule(BiasDistribution.uniform(-1.0, 1.0), 1)
        assert_allclose(nodes, [0.0], atol=1e-15)
        assert_allclose(weights, [1.0])

    def test_t_squared(self):
        nodes, weights = _bias_rule(BiasDistribution.uniform(-1.0, 1.0), 2)
        assert_allclose(np.dot(weights, nodes**2), 1.0 / 3.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_constant_on_0_2pi(self, n):
        _, weights = _bias_rule(BiasDistribution.uniform(0.0, 2 * np.pi), n)
        assert_allclose(np.sum(weights), 1.0, rtol=1e-14)

    def test_bad_interval(self):
        with pytest.raises(InvalidArgumentError):
            BiasDistribution.uniform(1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            BiasDistribution.uniform(2.0, -1.0)

    def test_exactness_all_monomials(self):
        a, b = 0.25, 3.0
        bias = BiasDistribution.uniform(a, b)
        for n in range(1, 33):
            nodes, weights = _bias_rule(bias, n)
            for k in range(0, 2 * n):
                exact = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
                assert_allclose(np.dot(weights, nodes**k), exact, rtol=1e-10)


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
                               self.POINT, (64, 64), zeta_kinks=lambda b: -b)
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

    @pytest.mark.parametrize("orders", [(512, 64), (64, 512)])
    @pytest.mark.parametrize("kinked", [False, True])
    @pytest.mark.parametrize("bias", [UNIFORM, GAUSSIAN, POINT])
    def test_order_cap_on_every_route(self, bias, kinked, orders):
        kinks = (lambda b: -b) if kinked else None
        with pytest.raises(InvalidArgumentError):
            expectation_2d(lambda z, b: np.maximum(z + b, 0.0), 1.0, bias,
                           orders, kinks)

    @pytest.mark.parametrize("kinked", [False, True])
    @pytest.mark.parametrize("bias", [UNIFORM, GAUSSIAN, POINT])
    def test_top_order_accepted(self, bias, kinked):
        kinks = (lambda b: -b) if kinked else None
        value = expectation_2d(lambda z, b: np.ones_like(z + b), 1.0, bias,
                               (256, 256), kinks)
        assert_allclose(value, 1.0, rtol=1e-12)

    def test_adaptive_error_estimate(self):
        value, err = expectation_2d_adaptive(lambda z, b: z**2, 1.0,
                                             self.GAUSSIAN)
        assert_allclose(value, 1.0, rtol=1e-10)
        assert err >= 0.0


def _per_node_split(f, gamma, bias, orders, zeta_kinks):
    """The kinked route of ``expectation_2d`` as a loop over bias nodes.

    Each node's kink edges are built one scalar ``b`` at a time; the
    panel sums are the same as in :func:`expectation_2d`.
    """
    n_zeta, n_b = orders
    b_nodes, b_weights = _bias_rule(bias, n_b)
    limit = 10.0 * gamma
    ref_nodes, ref_weights = _leggauss(n_zeta)
    kinks = np.atleast_2d(np.stack(
        [np.sort(np.clip(np.atleast_1d(zeta_kinks(b)), -limit, limit))
         for b in b_nodes]))
    edges = np.hstack([np.full((len(b_nodes), 1), -limit), kinks,
                       np.full((len(b_nodes), 1), limit)])
    total = 0.0
    for panel in range(edges.shape[1] - 1):
        lo, hi = edges[:, panel], edges[:, panel + 1]
        half = np.maximum(0.5 * (hi - lo), 0.0)
        zeta = half[:, None] * ref_nodes + (0.5 * (hi + lo))[:, None]
        values = f(zeta, b_nodes[:, None]) * _gaussian_pdf(zeta, gamma)
        inner = half * (values @ ref_weights)
        total += float(b_weights @ inner)
    return total


# Two kinks, listed out of order, so the split has to sort them.
HARD_TANH = Activation(
    name="hard-tanh",
    value=lambda u: np.clip(u, -1.0, 1.0),
    derivative=lambda u: np.where(np.abs(u) < 1.0, 1.0, 0.0),
    lipschitz_bound=1.0,
    kinks=(1.0, -1.0),
)


class TestKinkSplit:
    """The array-built kink edges give bit-identical sums to the loop."""

    # Small radii push kinks past +-10 gamma, where clipping leaves
    # zero-width panels; large radii give narrow panels around zeta = 0.
    RADII = (1e-3, 0.05, 0.7, 3.0, 40.0)

    @pytest.mark.parametrize("order", [64, 128, 256])
    @pytest.mark.parametrize("bias", [BiasDistribution.gaussian(1.0),
                                      BiasDistribution.uniform(0.0, 2 * np.pi),
                                      BiasDistribution.point_mass()],
                             ids=["gaussian", "uniform", "point"])
    @pytest.mark.parametrize("act", [relu(), HARD_TANH], ids=["relu", "hard-tanh"])
    def test_bit_identical_to_per_node_loop(self, act, bias, order):
        for gamma in (0.5, 2.0):
            for r in self.RADII:
                def f(zeta, b):
                    return zeta**2 * act.derivative(zeta * r + b) ** 2

                kinks = _kink_locator(act, r)
                args = (f, gamma, bias, (order, order), kinks)
                assert expectation_2d(*args) == _per_node_split(*args), (gamma, r)


def _moments_by_division(abs_u, weights, scales):
    """The moments of a rule's ``(n, 2)`` weights as ``t = |u| / s`` per node, clamped
    at 40 where ``phi`` is 0 in floats, in blocks of 8 scales and the same node cuts."""
    m0, m2 = np.zeros((scales.size, 2)), np.zeros((scales.size, 2))
    for lo in range(0, scales.size, 8):
        s = scales[lo:lo + 8]
        inverse = (1.0 / s)[:, None]
        first = np.searchsorted(abs_u, 1e-12 * s.min())
        last = np.searchsorted(abs_u, 12.0 * s.max(), side="right")
        t_sq = np.square(np.minimum(abs_u[first:last] * inverse, 40.0))
        density = np.exp(-0.5 * t_sq)
        norm = inverse / np.sqrt(2.0 * np.pi)
        m0[lo:lo + 8] = density @ weights[first:last] * norm
        m2[lo:lo + 8] = (density * t_sq) @ weights[first:last] * norm
    return m0, m2


def _uniform_slope_sq(act, a, c):
    integral = act.slope_sq_integral
    return lambda u: (integral(u + c) - integral(u + a)) / (c - a)


def _two_sided_moments(f, kinks, scales):
    """``E[f(u)]`` and ``E[t^2 f(u)]`` for ``u = s t``, ``t ~ N(0, 1)``, per scale
    ``s``: order-32 Legendre panels in ``t`` on both sides of 0, 0.125 wide on
    ``[-12, 12]`` and cut at each kink's ``k / s``.  Nothing is folded."""
    nodes, weights = _leggauss(32)
    m0, m2 = np.empty(scales.size), np.empty(scales.size)
    for i, s in enumerate(scales):
        cuts = [k / s for k in kinks if abs(k) < 12.0 * s]
        edges = np.unique(np.concatenate([np.linspace(-12.0, 12.0, 193), cuts]))
        half = 0.5 * np.diff(edges)[:, None]
        t = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * nodes
        w = half * weights * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi) * f(s * t)
        m0[i], m2[i] = np.sum(w), np.sum(w * t * t)
    return m0, m2


#: The three rules of the exact workload at every scale of its scan.
SCAN_RULES = [
    (_uniform_slope_sq(scaled_cosine(), 0.0, 2.0 * np.pi), [],
     np.linspace(0.0, 10.0 * (1.0 + 2.0 * np.pi / np.sqrt(12.0)), DEFAULT_SCAN_POINTS)[1:]),
    (relu().slope_sq, [0.0], np.hypot(np.linspace(0.0, 20.0, DEFAULT_SCAN_POINTS), 1.0)),
    (tanh_activation().slope_sq, [], np.hypot(np.linspace(0.0, 20.0, DEFAULT_SCAN_POINTS), 1.0)),
]
SCAN_RULE_IDS = ["cos-phase", "relu-gaussian", "tanh-gaussian"]


class TestGaussianMoments:
    """:func:`panel_rule` and :func:`gaussian_moments`: t^2 = (R / s)^2 (u / R)^2."""

    # s'^2 = 1 gives E[1] = E[t^2] = 1; ReLU's indicator gives half of each.
    # Nodes within 1e-12 s of 0 are left out, which takes up to 2 phi(0) 1e-12
    # = 8e-13 of the mass off m0 once the rule has nodes there: at scales
    # above about 1e9 times the rule's smallest, which its first panel spans.
    @pytest.mark.parametrize("f, kinks, expected", [
        (lambda u: np.ones_like(u), (), 1.0),
        (relu().slope_sq, (0.0,), 0.5),
    ], ids=["one", "relu"])
    @pytest.mark.parametrize("exponent", range(-300, 301, 25))
    def test_closed_forms_over_magnitudes(self, f, kinks, expected, exponent):
        scales = 10.0**exponent * np.array([1.0, 1.7, 3.0, 10.0, 40.0])
        rule = panel_rule(f, list(kinks), scales.min(), scales.max())
        m0, m2 = gaussian_moments(*rule, scales)
        assert m0.shape == m2.shape == (scales.size, 2)
        assert_allclose(m0, expected, rtol=1e-14 if exponent <= 0 else 1e-12)
        assert_allclose(m2, expected, rtol=1e-14)

    def test_rule_layout(self):
        abs_u, column, weights, reach, unit = panel_rule(np.cos, [], 0.3, 2.0)
        assert np.all(np.diff(abs_u) >= 0.0)
        assert reach == 16.0  # the power of two in (6 s_max, 12 s_max]
        assert unit == 0.25  # the power of two in (s_min / 2, s_min]
        assert_allclose(column, -0.5 * (abs_u / reach) ** 2, rtol=0, atol=0)
        assert weights.shape == (abs_u.size, 4)
        assert_allclose(weights[:, 2:], weights[:, :2] * (abs_u / reach)[:, None] ** 2, rtol=1e-15)
        # Each rule's column is zero at the other rule's nodes.
        assert not np.any((weights[:, 0] != 0.0) & (weights[:, 1] != 0.0))

    def test_rounding_column(self):
        rounding = lambda u: 1e-20 * (1.0 + np.abs(u))  # noqa: E731
        abs_u, column, weights, reach, unit = panel_rule(np.cos, [], 0.5, 1.0, rounding)
        assert weights.shape == (abs_u.size, 6)
        assert np.all((weights[:, 2] == 0.0) == (weights[:, 0] == 0.0))
        m0, m2 = gaussian_moments(abs_u, column, weights, reach, unit, np.array([0.5, 1.0]))
        # E[1 + |u|] and E[t^2 (1 + |u|)] for u ~ N(0, s^2).
        s = np.array([0.5, 1.0])
        assert_allclose(m0[:, 2], 1e-20 * (1.0 + s * np.sqrt(2.0 / np.pi)), rtol=1e-13)
        assert_allclose(m2[:, 2], 1e-20 * (1.0 + 2.0 * s * np.sqrt(2.0 / np.pi)), rtol=1e-13)

    # The profile keeps one rule for every scale it has met, and starts again
    # from a call's own scales once they would span more than MAX_SCALE_SPAN;
    # a call whose own scales span more is taken in halves.
    @pytest.mark.parametrize("act, expected", [(identity(), 1.0), (relu(), 0.5)],
                             ids=["identity", "relu"])
    def test_rule_rebuilt_across_decades(self, act, expected):
        profile = _profile_1d(act, BiasDistribution.point_mass())
        for exponent in (0, -5, 6, -60, 80, -150, 150, -300, 300, 2, -2):
            tau = 10.0**exponent * np.array([0.5, 1.0, 2.0])
            g, alpha = profile(tau)
            assert_allclose(g, expected, rtol=1e-14)
            assert_allclose(alpha, expected, rtol=1e-14 if exponent <= 0 else 1e-12)  # the core cut
        g, alpha = profile(np.array([0.0, 1e-300, 1e-100, 1.0, 1e100, 1e300]))
        assert_allclose(g[1:], expected, rtol=1e-14)
        assert_allclose(alpha[1:], expected, rtol=1e-12)

    # A call below the rule's smallest scale lowers it 2^32-fold at once, but
    # not below the smallest normal float, where no panels reach.
    def test_descent_stops_at_the_smallest_normal_scale(self):
        profile = _profile_1d(identity(), BiasDistribution.point_mass())
        for tau in (1e-299, 0.9e-299, 1e-300):
            g, alpha = profile(np.array([tau]))
            assert_allclose(g, 1.0, rtol=1e-14)
            assert_allclose(alpha, 1.0, rtol=1e-14)

    # A rule that reached 1e-299 and was then lowered to the smallest normal
    # float held weights near 1e-309, whose products with (u / R)^2 ~ 1e-18
    # underflowed: g and m_2 read 0 at 1e-307, with both orders agreeing.
    def test_second_moment_below_a_rule_lowered_to_the_smallest_normal(self):
        profile = _profile_1d(tanh_activation(), BiasDistribution.point_mass())
        profile(np.array([1e-299]))
        g, alpha = profile(np.array([1e-307]))
        assert_allclose(g, 1.0, rtol=1e-14)
        assert_allclose(alpha, 1.0, rtol=1e-14)

    def test_span_refused(self):
        with pytest.raises(NumericalFailureError, match="cannot hold scales"):
            panel_rule(np.cos, [], 1e-100, 1e-100 * MAX_SCALE_SPAN * 2.0)

    @pytest.mark.parametrize("f, kinks, scales", SCAN_RULES, ids=SCAN_RULE_IDS)
    def test_matches_division_by_each_scale(self, f, kinks, scales):
        abs_u, column, weights, reach, unit = panel_rule(f, kinks, scales.min(), scales.max())
        m0, m2 = gaussian_moments(abs_u, column, weights, reach, unit, scales)
        ref0, ref2 = _moments_by_division(abs_u, weights[:, :2] * unit, scales)
        assert_allclose(m0, ref0, rtol=1e-13)
        assert_allclose(m2, ref2, rtol=1e-13)

    # The rule lives on u >= 0 and each node carries f(u) + f(-u).  ReLU on
    # U(-1, 2) has D = (relu(u + 2) - relu(u - 1)) / 3, with kinks at -2 and 1
    # that fold to edges at 2 and 1, and no symmetry.
    @pytest.mark.parametrize("f, kinks, scales", [
        (_uniform_slope_sq(relu(), -1.0, 2.0), [-2.0, 1.0],
         np.linspace(0.0, 10.0 * (1.0 + 3.0 / np.sqrt(12.0)), DEFAULT_SCAN_POINTS)[1:]),
        *SCAN_RULES,
    ], ids=["relu-minus-one-to-two", *SCAN_RULE_IDS])
    def test_folded_rule_matches_two_sided(self, f, kinks, scales):
        rule = panel_rule(f, kinks, scales.min(), scales.max())
        assert np.all(rule[0] > 0.0)
        m0, m2 = gaussian_moments(*rule, scales)
        ref0, ref2 = _two_sided_moments(f, kinks, scales)
        assert_allclose(m0, ref0[:, None] * [1.0, 1.0], rtol=1e-14)
        assert_allclose(m2, ref2[:, None] * [1.0, 1.0], rtol=1e-14)

    # The same over spans of up to 1e6 with scales up to 30, as far as the
    # reference's t-panels resolve tanh's peak and the cos phase's D, which
    # rounds at eps |u|.  Tanh's peak on a wide first panel, from s_min = 2.4
    # up, is what set the halving test's 1e-15 and its test of f (u / R)^2.
    @pytest.mark.parametrize("f, kinks", [
        (_uniform_slope_sq(relu(), -1.0, 2.0), [-2.0, 1.0]),
        *(rule[:2] for rule in SCAN_RULES),
    ], ids=["relu-minus-one-to-two", *SCAN_RULE_IDS])
    @given(top=st.floats(-2.0, 1.5), decades=st.floats(0.0, 6.0))
    @example(top=math.log10(27.47), decades=math.log10(27.47 / 4.86))  # m_2 of tanh read 5e-14 off
    @settings(max_examples=25, deadline=None)
    def test_folded_rule_matches_two_sided_over_spans(self, f, kinks, top, decades):
        scales = np.geomspace(10.0 ** (top - decades), 10.0**top, 5)
        rule = panel_rule(f, kinks, scales.min(), scales.max())
        m0, m2 = gaussian_moments(*rule, scales)
        ref0, ref2 = _two_sided_moments(f, kinks, scales)
        assert_allclose(m0, ref0[:, None] * [1.0, 1.0], rtol=1e-14)
        assert_allclose(m2, ref2[:, None] * [1.0, 1.0], rtol=1e-14)

    # Edges at 0 and at s_min 2^k out to 12 s_max: 14 panels of 48 nodes for
    # the cos phase and 9 for ReLU and tanh, less the nodes past 12 s_max;
    # half of what the same panels on both sides of 0 hold.
    @pytest.mark.parametrize("case, nodes", [(0, 648), (1, 421), (2, 421)],
                             ids=SCAN_RULE_IDS)
    def test_node_count_is_half_the_two_sided_layout(self, case, nodes):
        f, kinks, scales = SCAN_RULES[case]
        abs_u, *_ = panel_rule(f, kinks, scales.min(), scales.max())
        assert abs_u.size == nodes


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
        with pytest.raises(NumericalFailureError):
            maximize_scalar(lambda r: np.nan, (0.0, 1.0), 1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_bad_tol_refused(self, tol):
        # A NaN tol would end golden-section refinement at once.
        with pytest.raises(InvalidArgumentError, match="tol"):
            maximize_scalar(lambda r: -(r - 0.3) ** 2, (0.0, 1.0), tol)


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

    # NaN entries passed the symmetry test, since every comparison with NaN
    # is false, and eigvalsh returned NaN.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_rejected(self, bad, at):
        m = np.eye(2)
        m[at] = m[at[::-1]] = bad
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            sym_eig_max(m)
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            sym_eig_max(np.stack([np.eye(2), m]))

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


class TestStackedNorms:
    def test_stack_equals_slice_calls(self):
        rng = np.random.default_rng(13)
        for shape in [(5, 7, 2), (1, 16, 3), (4, 1, 1), (3, 6, 6)]:
            stack = rng.standard_normal(shape)
            values = spectral_norm(stack)
            assert values.shape == (shape[0],)
            assert [float(v) for v in values] == [spectral_norm(m) for m in stack]

    def test_zero_slice_keeps_max_semantics(self):
        stack = np.zeros((2, 3, 2))
        stack[1] = np.arange(6.0).reshape(3, 2)
        values = spectral_norm(stack)
        assert [float(v) for v in values] == [spectral_norm(m) for m in stack]

    def test_sym_eig_max_stack_equals_slice_calls(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 3, 3))
        stack = a + np.swapaxes(a, -1, -2)
        assert [float(v) for v in sym_eig_max(stack)] == [sym_eig_max(m) for m in stack]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slice_rejected(self, bad):
        stack = np.ones((4, 5, 2))
        stack[2, 3, 1] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            spectral_norm(stack)

    def test_asymmetric_slice_rejected(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            sym_eig_max(stack)

    def test_symmetry_checked_at_each_slice_scale(self):
        # A 1e-6 asymmetry is round-off beside 1e5 entries but not beside 1.
        big = np.array([[1e5, 1.0], [1.0 + 1e-6, 1e5]])
        small = np.array([[1.0, 0.0], [1e-6, 1.0]])
        sym_eig_max(big)
        with pytest.raises(InvalidArgumentError):
            sym_eig_max(np.stack([big, small]))

    def test_non_square_stack_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sym_eig_max(np.ones((2, 3, 2)))


class TestHessianFD:
    def test_negative_norm_squared(self):
        h, coarse = hessian_fd(lambda d: -float(d @ d), 2)
        assert_allclose(h, -2.0 * np.eye(2), atol=1e-6)
        assert_allclose(coarse, -2.0 * np.eye(2), atol=1e-6)

    def test_isotropic_gaussian(self):
        kernel = gaussian_kernel(np.eye(2))
        h, _ = hessian_fd(lambda d: kappa_eval(kernel, d), 2)
        assert_allclose(h, -np.eye(2), atol=1e-4)

    def test_matern(self):
        kernel = matern_kernel(2.0, np.eye(2))
        h, _ = hessian_fd(lambda d: kappa_eval(kernel, d), 2)
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
        h, _ = hessian_fd(lambda d: kappa_eval(kernel, d), 2)
        assert_allclose(h, h.T, atol=0)
