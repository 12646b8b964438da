"""Tests for finite random feature maps and the empirical estimator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerlip.errors import InvalidArgumentError
from kerlip.features import (
    _BLOCK_ELEMENTS,
    RandomFeatureMap,
    _uniform_step,
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


class TestPointChecks:
    FM = build_feature_map(ISO_2D, UNIFORM_PHASE, tanh_activation(), 8, 3)

    # Wrong widths used to raise numpy's raw ValueError in the batch and
    # the Jacobian; non-finite points gave NaN features.
    @pytest.mark.parametrize("method", ["call", "evaluate_batch", "jacobian"])
    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), np.ones(1), np.zeros((2, 2, 2)),
                                   np.array([0.1, np.nan]), np.array([[0.0, 0.0], [np.inf, 0.0]])],
                             ids=["width3", "batch_width3", "width1", "3d", "nan", "batch_inf"])
    def test_bad_points_refused(self, method, x):
        call = {"call": self.FM, "evaluate_batch": self.FM.evaluate_batch,
                "jacobian": lambda x: jacobian(self.FM, x)}[method]
        with pytest.raises(InvalidArgumentError, match="x "):
            call(x)

    def test_batch_rows_are_single_points(self):
        xs = np.array([[0.1, -0.3], [0.7, 0.2]])
        batch = self.FM.evaluate_batch(xs)
        assert_allclose(batch, [self.FM(x) for x in xs], rtol=1e-14)
        assert_allclose(self.FM.evaluate_batch(xs[0]), batch[:1], rtol=1e-14)


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

    @pytest.mark.parametrize("d, bad_width", [(1, 2), (2, 1), (2, 3)])
    def test_grid_width_mismatch_rejected(self, d, bad_width):
        dist = WeightDistribution.isotropic_gaussian(1.0, d)
        fm = build_feature_map(dist, UNIFORM_PHASE, tanh_activation(), 8, 0)
        with pytest.raises(InvalidArgumentError, match=rf"\(5, {bad_width}\).*\(8, {d}\)"):
            empirical_lipschitz(fm, np.zeros((5, bad_width)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, d, bad):
        dist = WeightDistribution.isotropic_gaussian(1.0, d)
        fm = build_feature_map(dist, UNIFORM_PHASE, scaled_cosine(), 8, 0)
        grid = np.zeros((5, d))
        grid[3, 0] = bad
        with pytest.raises(InvalidArgumentError, match=r"\(5, %d\)" % d):
            empirical_lipschitz(fm, grid)

    def test_peak_memory_bounded_at_large_n(self):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 4096, 0)
        grid = default_grid_1d()
        tracemalloc.start()
        try:
            empirical_lipschitz(fm, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _one_shot_estimator(fm, grid):
    """The unblocked estimator: one d=1 expression, else a per-point loop."""
    if fm.d == 1:
        pre = grid @ fm.weights.T + fm.biases
        slopes = fm.activation.derivative(pre)
        norms = np.sqrt((slopes**2 @ fm.weights[:, 0] ** 2) / fm.n_features)
        best = int(np.argmax(norms))
        return float(norms[best]), grid[best]
    best_value, best_point = -np.inf, grid[0]
    for point in grid:
        value = spectral_norm(jacobian(fm, point))
        if value > best_value:
            best_value, best_point = value, point
    return float(best_value), best_point


class TestBlockedEstimatorBitIdentity:
    """Row blocks must not change a single bit of the value or the argmax."""

    @pytest.mark.parametrize("act", [relu(), scaled_cosine(), tanh_activation()],
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 16, 255, 1024, 4096])
    def test_matches_one_shot_estimator(self, act, d, n):
        dist = WeightDistribution.isotropic_gaussian(1.0, d)
        fm = build_feature_map(dist, UNIFORM_PHASE, act, n, 17 * n + d)
        rows = max(1, _BLOCK_ELEMENTS // (n * d))
        rng = np.random.default_rng(n + d)
        sizes = {1, max(1, rows // 2), 2 * rows + 1, 2 * rows + 3}
        grids = [rng.uniform(-1.0, 1.0, size=(size, d)) for size in sorted(sizes)]
        if d == 1 and act.sine_amplitude is None:
            # Cosine features on this uniform grid take the rotation route.
            grids.append(default_grid_1d())
        for grid in grids:
            value, argmax = empirical_lipschitz(fm, grid)
            ref_value, ref_argmax = _one_shot_estimator(fm, grid)
            assert value == ref_value, grid.shape
            assert np.array_equal(argmax, ref_argmax), grid.shape

    @pytest.mark.parametrize("n", [7, 1024])
    def test_relu_kinks_on_grid_points(self, n):
        # Exact dyadic weights and biases put x w + b on ReLU's kink (both
        # zeros of it too) at many grid points; the slope there is 0.
        rng = np.random.default_rng(n)
        w = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
        grid = np.concatenate([np.arange(-8, 9) / 8.0, rng.uniform(-1.0, 1.0, 40)])[:, None]
        b = -w * grid[np.arange(n) % 17, 0]
        w[:2], b[:2] = -1.0, -0.0  # at x = 0, -0.0 + -0.0
        fm = RandomFeatureMap(w[:, None], b, relu())
        assert np.any(grid * w + b == 0.0, axis=1).sum() >= min(n - 1, 17)
        value, argmax = empirical_lipschitz(fm, grid)
        ref_value, ref_argmax = _one_shot_estimator(fm, grid)
        assert value == ref_value
        assert np.array_equal(argmax, ref_argmax)

    @pytest.mark.parametrize("d", [1, 2])
    def test_tied_maximum_in_two_blocks_returns_lower_index(self, d):
        # Shifting the maximiser by 1e-12 flips no ReLU unit, so the
        # Jacobian, and with it the norm, is bit-for-bit the same.
        dist = WeightDistribution.isotropic_gaussian(1.0, d)
        fm = build_feature_map(dist, UNIFORM_PHASE, relu(), 1024, 3)
        rows = max(4, _BLOCK_ELEMENTS // (1024 * d))
        grid = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4 * rows, d))
        top = int(np.argmax([spectral_norm(jacobian(fm, p)) for p in grid]))
        twin = grid[top] + 1e-12
        grid[[1, 2 * rows + 1]] = grid[top], twin
        for pair in ([grid[1], twin], [twin, grid[1]]):
            _, first = empirical_lipschitz(fm, np.array(pair))
            assert np.array_equal(first, pair[0])  # a tie, in either order
        value, argmax = empirical_lipschitz(fm, grid)
        ref_value, ref_argmax = _one_shot_estimator(fm, grid)
        assert np.array_equal(argmax, grid[1])
        assert value == ref_value
        assert np.array_equal(argmax, ref_argmax)


class TestStackedMaps:
    """A stack of maps gives each map the bits it has alone."""

    @pytest.mark.parametrize("act", [scaled_cosine(), relu(), tanh_activation(), identity()],
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 7, 16, 1024])
    def test_stack_matches_each_map_alone(self, act, d, n):
        dist = WeightDistribution.student_t(2.0, np.eye(d)) if n == 7 else \
            WeightDistribution.isotropic_gaussian(1.0, d)
        maps = [build_feature_map(dist, UNIFORM_PHASE, act, n, 31 * n + m) for m in range(7)]
        stack = RandomFeatureMap(np.stack([fm.weights for fm in maps]),
                                 np.stack([fm.biases for fm in maps]), act)
        assert (stack.d, stack.n_features) == (d, n)
        rng = np.random.default_rng(n + d)
        grids = [rng.uniform(-1.0, 1.0, size=(size, d)) for size in (1, 9, 37)]
        if d == 1:
            grids.append(default_grid_1d())  # the rotation route for cos
        for grid in grids:
            values, points = empirical_lipschitz(stack, grid)
            assert values.shape == (7,) and points.shape == (7, d)
            for m, fm in enumerate(maps):
                value, point = empirical_lipschitz(fm, grid)
                assert values[m] == value, (grid.shape, m)
                assert np.array_equal(points[m], point), (grid.shape, m)

    @pytest.mark.parametrize("method", ["__call__", "evaluate_batch", "jacobian",
                                        "empirical_kernel"])
    def test_single_map_methods_refuse_a_stack(self, method):
        stack = build_feature_map(ISO_2D, UNIFORM_PHASE, relu(), 8,
                                  np.arange(3, dtype=np.uint64))
        x = np.zeros(2)
        call = {"__call__": lambda: stack(x),
                "evaluate_batch": lambda: stack.evaluate_batch(x[None]),
                "jacobian": lambda: jacobian(stack, x),
                "empirical_kernel": lambda: empirical_kernel(stack, x, x)}[method]
        with pytest.raises(InvalidArgumentError, match=r"\(3, 8, 2\)"):
            call()

    def test_single_map_returns_a_float_and_a_point(self):
        fm = build_feature_map(ISO_2D, UNIFORM_PHASE, relu(), 8, 0)
        value, point = empirical_lipschitz(fm, np.zeros((3, 2)))
        assert isinstance(value, float) and point.shape == (2,)


ROTATION_RTOL = 1e-12


def _assert_matches_sin_route(fm, grid):
    """Value and argmax of the rotation route against ``_one_shot_estimator``.

    The reference runs on slices of 256 rows, which bounds its
    temporaries on large grids; near-ties may move the argmax, so the
    reference's norm at the returned point is held to the same tolerance.
    """
    value, argmax = empirical_lipschitz(fm, grid)
    ref_value = max(_one_shot_estimator(fm, grid[lo:lo + 256])[0]
                    for lo in range(0, len(grid), 256))
    at_argmax, _ = _one_shot_estimator(fm, argmax[None, :])
    assert abs(value - ref_value) <= ROTATION_RTOL * ref_value
    assert abs(at_argmax - ref_value) <= ROTATION_RTOL * ref_value
    assert any(np.array_equal(argmax, point) for point in grid)


class TestRotationRoute:
    """Cosine features on a uniform d=1 grid: phases by rotation, not np.sin."""

    @pytest.mark.parametrize("n", [1, 7, 16, 255, 1024, 4096])
    def test_default_grid_matches_sin_route(self, n):
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), n, 17 * n + 1)
        _assert_matches_sin_route(fm, default_grid_1d())

    @given(n_points=st.integers(2, 5000),
           x0=st.floats(-5.0, 5.0),
           span=st.floats(-10.0, 10.0),
           n=st.integers(1, 4096),
           student=st.booleans(),
           kappa0=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_uniform_grids_match_sin_route(self, n_points, x0, span, n, student,
                                           kappa0, seed):
        dist = WeightDistribution.student_t(2.0, np.eye(1)) if student else ISO_1D
        fm = build_feature_map(dist, UNIFORM_PHASE, scaled_cosine(kappa0), n, seed)
        grid = np.linspace(x0, x0 + span, n_points)[:, None]
        _assert_matches_sin_route(fm, grid)

    def test_route_needs_a_uniform_grid_of_two_points(self):
        grid = default_grid_1d()[:, 0]
        assert _uniform_step(grid) == (grid[-1] - grid[0]) / 98
        assert _uniform_step(np.linspace(-3.0, 2.0, 5000)) is not None
        assert _uniform_step(grid[:1]) is None
        bent = grid.copy()
        bent[50] += 1e-14
        assert _uniform_step(bent) is None
        for act in (relu(), tanh_activation(), identity()):
            assert act.sine_amplitude is None
        assert scaled_cosine(2.0).sine_amplitude == 2.0


class TestDefaultGrid:
    def test_endpoints_and_midpoint(self):
        grid = default_grid_1d()
        assert grid.shape == (99, 1)
        assert_allclose(grid[0, 0], -0.98)
        assert_allclose(grid[49, 0], 0.0, atol=1e-15)
        assert_allclose(grid[98, 0], 0.98)
