"""Golden bytes of every file the CLI writes.

The expected contents were recorded from the CLI at fixed seeds; any
change to the writers, the sweep loop or the numbers behind them shows
up here as a byte difference.  Floats are written with 17 significant
digits, so the low bits depend on the platform's floating point (here
NumPy with OpenBLAS on x86-64).
"""

import pytest

from kerlip.cli import EXIT_OK, main

SWEEP = ["quantile-sweep", "--n-list", "8,16,32", "--realizations", "12",
         "--seed", "5"]

GAUSSIAN_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,0.43327428946842672,11,1.149854578826603,0.2743775501234777\n"
    "16,0.37407614428451441,11,1.1338151316339,0.15152315610887887\n"
    "32,0.35511537549498096,11,1.1660178183781931,0.16221616726761093\n")

MATERN_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,1.0172145722409776,11,1.7612528779444867,0.53064819901060289\n"
    "16,0.71964073557835806,11,1.7000111971241074,0.48702582690789947\n"
    "32,1.0850129591946318,11,1.7892393645160103,0.5011966214348923\n")

RELU_SWEEP = (
    "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd\n"
    "8,0.35144572244816374,11,0.79329408447807659,0.17974852188461227\n"
    "16,0.27632826385383402,11,0.80807766684872817,0.13645202689202418\n"
    "32,0.3039515089134448,11,0.80613326285799713,0.12799707588429826\n")

GAUSSIAN_LOG = (
    '{"N": 8, "t_hat": 0.4332742894684267, "quantile_index": 11, '
    '"lip_hat_mean": 1.149854578826603, "lip_hat_sd": 0.2743775501234777}\n'
    '{"N": 16, "t_hat": 0.3740761442845144, "quantile_index": 11, '
    '"lip_hat_mean": 1.1338151316339, "lip_hat_sd": 0.15152315610887887}\n'
    '{"N": 32, "t_hat": 0.35511537549498096, "quantile_index": 11, '
    '"lip_hat_mean": 1.166017818378193, "lip_hat_sd": 0.16221616726761093}\n')


def _run(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    return path.read_bytes().decode()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_quantile_sweep_gaussian(threads, tmp_path, capsys):
    log = tmp_path / "rows.jsonl"
    out = _run(SWEEP + ["--kernel", "gaussian", "--threads", threads,
                        "--log", str(log)], tmp_path)
    assert out == GAUSSIAN_SWEEP
    assert log.read_bytes().decode() == GAUSSIAN_LOG


def test_quantile_sweep_matern(tmp_path, capsys):
    out = _run(SWEEP + ["--kernel", "matern", "--nu", "2"], tmp_path)
    assert out == MATERN_SWEEP


def test_quantile_sweep_relu(tmp_path, capsys):
    out = _run(SWEEP + ["--activation", "relu", "--bias", "gaussian:1"], tmp_path)
    assert out == RELU_SWEEP


def test_analytic(tmp_path, capsys):
    out = _run(["analytic", "--activation", "relu", "--bias", "gaussian:1"],
               tmp_path)
    assert out == ("method,value,argmax_r,error_estimate\n"
                   "thm34-quadrature,0.70710678118654879,0.6025997930911402,"
                   "1.4915878357495836e-15\n")


def test_shift_invariant_divergent(tmp_path, capsys):
    out = _run(["shift-invariant", "--kernel", "laplace"], tmp_path)
    assert out == "method,value,argmax_r,error_estimate\ndivergent,inf,,0\n"


def test_kernel_convergence(tmp_path, capsys):
    out = _run(["kernel-convergence", "--kernel", "gaussian", "--n-list",
                "16,64,256", "--pair-grid-size", "5", "--seed", "2"], tmp_path)
    assert out == ("N,sup_error\n"
                   "16,0.37060865023925837\n"
                   "64,0.15729687674866821\n"
                   "256,0.10259420978297151\n")
