"""Tests for the Monte-Carlo sweep harness."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kerlip.errors import ExperimentIOError, InvalidConfigurationError
from kerlip.experiments import (
    SWEEP_CSV_HEADER,
    QuantileSweepConfig,
    SweepRow,
    kernel_convergence_sweep,
    quantile_sweep,
    write_sweep_csv,
)
from kerlip.features import build_feature_map, default_grid_1d, empirical_lipschitz
from kerlip.kernels import (
    BiasDistribution,
    WeightDistribution,
    derive_seed,
    gaussian_kernel,
    identity,
    kappa_eval,
    laplace_kernel,
    relu,
    scaled_cosine,
    tanh_activation,
)

UNIFORM_PHASE = BiasDistribution.uniform(0.0, 2 * np.pi)
ISO_1D = WeightDistribution.isotropic_gaussian(1.0, 1)


def small_config(**overrides):
    defaults = dict(activation=scaled_cosine(), weight_dist=ISO_1D,
                    bias_dist=UNIFORM_PHASE, n_list=(8, 16),
                    realizations=5, delta=0.9, grid=default_grid_1d(),
                    seed=0, lip_reference=1.0)
    defaults.update(overrides)
    return QuantileSweepConfig(**defaults)


class TestConfigValidation:
    def test_n_list_must_increase(self):
        with pytest.raises(InvalidConfigurationError):
            small_config(n_list=(16, 8))

    def test_delta_range(self):
        with pytest.raises(InvalidConfigurationError):
            small_config(delta=1.0)

    def test_reference_must_be_finite(self):
        with pytest.raises(InvalidConfigurationError):
            small_config(lip_reference=math.inf)

    def test_divergent_kernel_refused(self):
        with pytest.raises(InvalidConfigurationError):
            QuantileSweepConfig.from_shift_invariant(
                laplace_kernel(1), n_list=(8,), realizations=5, delta=0.9,
                grid=default_grid_1d(), seed=0)

    def test_from_shift_invariant_sets_reference(self):
        cfg = QuantileSweepConfig.from_shift_invariant(
            gaussian_kernel(np.eye(1)), n_list=(8,), realizations=5,
            delta=0.9, grid=default_grid_1d(), seed=0)
        assert_allclose(cfg.lip_reference, 1.0)
        assert cfg.activation.name == "cos"
        assert cfg.bias_dist.family == "uniform"


class TestQuantileSweep:
    def test_single_realization(self):
        cfg = small_config(realizations=1, n_list=(16,))
        (row,) = quantile_sweep(cfg)
        fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 16,
                               derive_seed(0, 16, 0))
        value, _ = empirical_lipschitz(fm, default_grid_1d())
        assert_allclose(row.t_hat, value - 1.0, rtol=1e-14)
        assert row.quantile_index == 1

    def test_quantile_against_brute_force(self):
        # Reported t_hat is exactly the ceil(delta I)-th order statistic.
        rng = np.random.default_rng(42)
        for _ in range(50):
            i = int(rng.integers(1, 21))
            delta = float(rng.uniform(0.05, 0.95))
            n = int(2 ** rng.integers(2, 6))
            seed = int(rng.integers(0, 2**31))
            cfg = small_config(realizations=i, delta=delta, n_list=(n,),
                               seed=seed)
            (row,) = quantile_sweep(cfg)
            values = []
            for index in range(i):
                fm = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(),
                                       n, derive_seed(seed, n, index))
                values.append(empirical_lipschitz(fm, default_grid_1d())[0])
            expected = sorted(values)[math.ceil(delta * i) - 1] - 1.0
            assert row.t_hat == expected
            assert row.quantile_index == math.ceil(delta * i)

    def test_thread_count_does_not_change_results(self):
        # Blocks of realizations split evenly, unevenly, and with idle workers.
        for realizations, threads in ((16, 4), (7, 3), (3, 8)):
            rows_serial = quantile_sweep(small_config(realizations=realizations))
            rows_parallel = quantile_sweep(small_config(realizations=realizations,
                                                        threads=threads))
            assert rows_serial == rows_parallel

    def test_nested_mode_prefix_coupling(self):
        # With nesting on, realization i at larger N extends the same draw.
        cfg = small_config(nested=True, n_list=(8, 32))
        for index in range(3):
            seed = derive_seed(cfg.seed, index)
            small = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(),
                                      8, seed)
            big = build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(),
                                    32, seed)
            assert np.array_equal(small.weights, big.weights[:8])
            assert np.array_equal(small.biases, big.biases[:8])

    def test_progress_log(self, tmp_path):
        log = tmp_path / "progress.jsonl"
        rows = quantile_sweep(small_config(), log_path=str(log))
        lines = log.read_text().splitlines()
        assert len(lines) == len(rows)
        first = json.loads(lines[0])
        assert first["N"] == rows[0].N
        assert first["t_hat"] == rows[0].t_hat


def _per_realization_rows(cfg):
    """The sweep as one draw and one estimator call per realization."""
    rows = []
    k = math.ceil(cfg.delta * cfg.realizations)
    for n in cfg.n_list:
        values = []
        for index in range(cfg.realizations):
            seed = derive_seed(cfg.seed, index) if cfg.nested else derive_seed(cfg.seed, n, index)
            fm = build_feature_map(cfg.weight_dist, cfg.bias_dist, cfg.activation, n, seed)
            values.append(empirical_lipschitz(fm, cfg.grid)[0])
        values = np.array(values)
        rows.append(SweepRow(N=n, t_hat=float(np.sort(values)[k - 1] - cfg.lip_reference),
                             quantile_index=k, lip_hat_mean=float(np.mean(values)),
                             lip_hat_sd=float(np.std(values))))
    return rows


GAUSS_1D, STUDENT_1D = ISO_1D, WeightDistribution.student_t(2.0, np.eye(1))
GAUSS_2D = WeightDistribution.isotropic_gaussian(1.3, 2)
STUDENT_2D = WeightDistribution.student_t(3.0, np.array([[2.0, 0.6], [0.6, 1.0]]))
STD_BIAS, POINT_BIAS = BiasDistribution.gaussian(1.0), BiasDistribution.point_mass()
UNEVEN_1D = np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 40))[:, None]
GRID_2D = np.stack(np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 3)), -1).reshape(-1, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlocksKeepEveryBit:
    """Blocks of realizations give the rows of one realization at a time.

    A block holds at most 16 maps at N=1024 and 4 at N=4096, so the
    realization counts there leave a short last block.
    """

    @pytest.mark.parametrize("act, weights, bias, n_list, realizations, grid, nested, threads", [
        (scaled_cosine(), GAUSS_1D, UNIFORM_PHASE, (1, 7, 16), 9, default_grid_1d(), False, 1),
        (scaled_cosine(), STUDENT_1D, UNIFORM_PHASE, (16, 1024), 21, default_grid_1d(), False, 2),
        (scaled_cosine(), GAUSS_1D, STD_BIAS, (7, 4096), 6, UNEVEN_1D, True, 3),
        (relu(), GAUSS_1D, STD_BIAS, (1, 1024, 4096), 10, default_grid_1d(), False, 3),
        (relu(), STUDENT_1D, POINT_BIAS, (16,), 5, default_grid_1d()[:1], True, 2),
        (tanh_activation(), STUDENT_1D, POINT_BIAS, (1, 16), 7, UNEVEN_1D, True, 2),
        (tanh_activation(), GAUSS_1D, UNIFORM_PHASE, (7, 1024), 17, default_grid_1d(), False, 1),
        (identity(), GAUSS_1D, STD_BIAS, (16, 4096), 5, default_grid_1d()[:1], False, 1),
        (scaled_cosine(), GAUSS_2D, UNIFORM_PHASE, (1, 7, 16), 11, GRID_2D, False, 3),
        (relu(), STUDENT_2D, POINT_BIAS, (16, 1024), 18, GRID_2D[:1], True, 2),
        (tanh_activation(), GAUSS_2D, STD_BIAS, (7,), 4, GRID_2D, False, 1),
        (identity(), STUDENT_2D, UNIFORM_PHASE, (16,), 3, GRID_2D, True, 3),
    ])
    def test_rows_match_one_realization_at_a_time(self, act, weights, bias, n_list,
                                                  realizations, grid, nested, threads):
        cfg = QuantileSweepConfig(activation=act, weight_dist=weights, bias_dist=bias,
                                  n_list=n_list, realizations=realizations, delta=0.7,
                                  grid=grid, seed=23, lip_reference=1.0, nested=nested,
                                  threads=threads)
        assert quantile_sweep(cfg) == _per_realization_rows(cfg)

    def test_many_workers_share_the_block_buffers(self):
        # Eight blocks of four maps at N=4096 on more workers than cores,
        # switching threads as often as the interpreter allows.
        cfg = small_config(n_list=(4096,), realizations=30)
        expected = _per_realization_rows(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (5, 8):
                assert quantile_sweep(replace(cfg, threads=threads)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_does_not_grow_with_realizations(self):
        cfg = small_config(n_list=(1024,), realizations=20)
        peaks = []
        for realizations in (20, 200):
            tracemalloc.start()
            try:
                quantile_sweep(replace(cfg, realizations=realizations))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # Drawing every realization at once would hold 200 x 1024 x 16 bytes
        # (3.1 MiB); the blocks hold 256 KiB of draws and the estimator's
        # temporaries.  Only the seeds and values, 8 bytes each and a
        # sorted copy of the values, grow with the realizations.
        assert peaks[1] < 2**20
        assert peaks[1] - peaks[0] < 64 * 180


class TestKernelConvergence:
    PAIRS = [(np.array([a]), np.array([b]))
             for a in np.linspace(-1, 1, 4) for b in np.linspace(-1, 1, 4)]

    def test_large_n_error_small(self):
        results = kernel_convergence_sweep(gaussian_kernel(np.eye(1)),
                                           [2**16], self.PAIRS, seed=0)
        assert results[0][1] < 0.02

    def test_common_random_numbers_nested(self):
        # Errors for all N come from prefixes of one draw: rerunning a
        # smaller N alone reproduces the same value.
        full = kernel_convergence_sweep(gaussian_kernel(np.eye(1)),
                                        [64, 256, 1024], self.PAIRS, seed=5)
        alone = kernel_convergence_sweep(gaussian_kernel(np.eye(1)),
                                         [64, 1024], self.PAIRS, seed=5)
        assert full[0] == alone[0]
        assert full[2] == alone[1]

    def test_rate_slope(self):
        n_list = [2**p for p in range(6, 15)]
        results = kernel_convergence_sweep(gaussian_kernel(np.eye(1)),
                                           n_list, self.PAIRS, seed=1)
        log_n = np.log([n for n, _ in results])
        log_err = np.log([e for _, e in results])
        slope = np.polyfit(log_n, log_err, 1)[0]
        assert -0.7 <= slope <= -0.3

    @pytest.mark.parametrize("pairs", [
        PAIRS,
        [(np.array([a]), np.array([-a - 0.05])) for a in np.linspace(-1, 1, 6)],
        [(np.array([a, b]), np.array([b, a])) for a in (-0.5, 0.25) for b in (0.0, 1.0)],
    ], ids=["product-grid", "no-repeated-point", "d2"])
    def test_one_feature_row_per_point_keeps_every_bit(self, pairs):
        kernel = gaussian_kernel(np.eye(pairs[0][0].size))
        n_list, seed = [16, 256, 4096], 3
        # The sweep with one feature row per pair side.
        fm = build_feature_map(kernel.spectral, UNIFORM_PHASE, scaled_cosine(),
                               n_list[-1], derive_seed(seed, 0))
        scale = np.sqrt(n_list[-1])
        feat_x = fm.evaluate_batch(np.stack([a for a, _ in pairs])) * scale
        feat_y = fm.evaluate_batch(np.stack([b for _, b in pairs])) * scale
        partial = np.cumsum(feat_x * feat_y, axis=1)
        exact = np.array([kappa_eval(kernel, a - b) for a, b in pairs])
        expected = [(n, float(np.max(np.abs(partial[:, n - 1] / n - exact))))
                    for n in n_list]
        assert kernel_convergence_sweep(kernel, n_list, pairs, seed) == expected

    def test_empty_pair_grid_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            kernel_convergence_sweep(gaussian_kernel(np.eye(1)), [16], [], 0)


class TestSweepCsv:
    ROW = SweepRow(N=16, t_hat=0.125, quantile_index=5,
                   lip_hat_mean=1.0625, lip_hat_sd=0.25)

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([self.ROW], path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 2

    def test_round_trip_lossless(self, tmp_path):
        row = SweepRow(N=32, t_hat=-0.1234567890123456789, quantile_index=3,
                       lip_hat_mean=1 / 3, lip_hat_sd=math.pi / 7)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([row], path)
        fields = path.read_text().splitlines()[1].split(",")
        assert int(fields[0]) == row.N
        assert float(fields[1]) == row.t_hat
        assert int(fields[2]) == row.quantile_index
        assert float(fields[3]) == row.lip_hat_mean
        assert float(fields[4]) == row.lip_hat_sd

    def test_empty_rows_refused(self, tmp_path):
        with pytest.raises(ExperimentIOError):
            write_sweep_csv([], tmp_path / "sweep.csv")

    def test_unwritable_path(self):
        with pytest.raises(ExperimentIOError):
            write_sweep_csv([self.ROW], "/no/such/dir/sweep.csv")


def test_frozen_types_compare_and_hash():
    # Array fields make generated == and hash raise; these types compare by identity.
    makers = [lambda: WeightDistribution.gaussian_cov(np.eye(2)),
              lambda: gaussian_kernel(np.eye(2)),
              lambda: build_feature_map(ISO_1D, UNIFORM_PHASE, scaled_cosine(), 4, 0),
              small_config]
    for make in makers:
        a, b = make(), make()
        assert (a == a) is True and (a == b) is False
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
