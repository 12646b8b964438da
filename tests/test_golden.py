"""Golden bytes of every file the CLI writes.

The expected contents were recorded from the CLI at fixed seeds; any
change to the writers, the sweep loop or the numbers behind them shows
up here as a byte difference.  Floats are written with 17 significant
digits, so the low bits depend on the platform's floating point (here
NumPy with OpenBLAS on x86-64).  Every assertion message names the
BLAS build of the failing run, so a mismatch on another CPU or BLAS
reads as a platform difference rather than a regression.
"""

import numpy as np
import pytest

from kerlip.cli import EXIT_OK, main


def _blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("openblas configuration",
                    f"{blas.get('name')} {blas.get('version')}")


BLAS = f"golden bytes differ; this run's BLAS build is {_blas_build()}"

SWEEP = ["quantile-sweep", "--n-list", "8,16,32", "--realizations", "12",
         "--seed", "5"]

GAUSSIAN_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,0.43327428946842605,11,1.149854578826603,0.27437755012347759\n"
    "16,0.37407614428451508,11,1.1338151316338998,0.15152315610887887\n"
    "32,0.35511537549498118,11,1.1660178183781931,0.16221616726761098\n")

MATERN_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,1.0172145722409776,11,1.7612528779444867,0.53064819901060278\n"
    "16,0.71964073557835762,11,1.7000111971241074,0.48702582690789992\n"
    "32,1.0850129591946323,11,1.7892393645160105,0.50119662143489263\n")

RELU_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,0.35144572244816408,11,0.79329408447807659,0.17974852188461227\n"
    "16,0.27632826385383435,11,0.80807766684872817,0.13645202689202418\n"
    "32,0.30395150891344513,11,0.80613326285799713,0.12799707588429826\n")

GAUSSIAN_LOG = (
    '{"N": 8, "t_hat": 0.43327428946842605, "quantile_index": 11, '
    '"lip_hat_mean": 1.149854578826603, "lip_hat_sd": 0.2743775501234776}\n'
    '{"N": 16, "t_hat": 0.3740761442845151, "quantile_index": 11, '
    '"lip_hat_mean": 1.1338151316338998, "lip_hat_sd": 0.15152315610887887}\n'
    '{"N": 32, "t_hat": 0.3551153754949812, "quantile_index": 11, '
    '"lip_hat_mean": 1.166017818378193, "lip_hat_sd": 0.16221616726761098}\n')


def _run(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    return path.read_bytes().decode()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_quantile_sweep_gaussian(threads, tmp_path, capsys):
    log = tmp_path / "rows.jsonl"
    out = _run(SWEEP + ["--kernel", "gaussian", "--threads", threads,
                        "--log", str(log)], tmp_path)
    assert out == GAUSSIAN_SWEEP, BLAS
    assert log.read_bytes().decode() == GAUSSIAN_LOG, BLAS


def test_quantile_sweep_matern(tmp_path, capsys):
    out = _run(SWEEP + ["--kernel", "matern", "--nu", "2"], tmp_path)
    assert out == MATERN_SWEEP, BLAS


def test_quantile_sweep_relu(tmp_path, capsys):
    out = _run(SWEEP + ["--activation", "relu", "--bias", "gaussian:1"], tmp_path)
    assert out == RELU_SWEEP, BLAS


def test_analytic(tmp_path, capsys):
    out = _run(["analytic", "--activation", "relu", "--bias", "gaussian:1"],
               tmp_path)
    assert out == ("method,value,argmax_r,error_estimate\n"
                   "thm34-quadrature,0.70710678118654846,3.7731214867654836,"
                   "2.7084094912295082e-15\n"), BLAS


UNIFORM_PHASE = "uniform:0:6.283185307179586"


@pytest.mark.parametrize("activation, bias, row", [
    ("relu", UNIFORM_PHASE, "1,0,2.2204460492503131e-16"),
    ("tanh", "gaussian:1", "0.68147113104537904,0,1.6291563560764059e-16"),
    ("cos", UNIFORM_PHASE,
     "1.0000000000000007,3.0025341528929754,1.609823385706476e-15"),
])
def test_analytic_other_settings(activation, bias, row, tmp_path, capsys):
    out = _run(["analytic", "--activation", activation, "--bias", bias],
               tmp_path)
    assert out == ("method,value,argmax_r,error_estimate\n"
                   f"thm34-quadrature,{row}\n"), BLAS


def test_shift_invariant_divergent(tmp_path, capsys):
    out = _run(["shift-invariant", "--kernel", "laplace"], tmp_path)
    assert out == "method,value,argmax_r,error_estimate\ndivergent,inf,,0\n", BLAS


def test_kernel_convergence(tmp_path, capsys):
    out = _run(["kernel-convergence", "--kernel", "gaussian", "--n-list",
                "16,64,256", "--pair-grid-size", "5", "--seed", "2"], tmp_path)
    assert out == ("N,sup_error\n"
                   "16,0.37060865023925837\n"
                   "64,0.15729687674866821\n"
                   "256,0.10259420978297151\n"), BLAS
