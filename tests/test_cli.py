"""Tests for the command-line interface."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kerlip import cli, errors
from kerlip.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    UsageError,
    main,
    parse_config,
    dump_config,
    write_line_svg,
)


class TestParseConfig:
    def test_relu_example_setting(self):
        cfg, dump = parse_config(["analytic", "--activation", "relu",
                                  "--gamma", "1.0", "--bias", "gaussian:1.0"])
        assert cfg.command == "analytic"
        assert cfg.activation == "relu"
        assert cfg.gamma == 1.0
        assert cfg.bias == "gaussian:1.0"
        assert not dump

    def test_defaults_are_documented(self):
        cfg, _ = parse_config(["analytic"])
        assert cfg.activation == "cos"
        assert cfg.seed == 0  # never wall-clock
        assert cfg.delta == 0.9

    def test_file_then_flag_precedence(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("gamma = 2\n")
        cfg, _ = parse_config(["analytic", "--config", str(f), "--gamma", "1"])
        assert cfg.gamma == 1.0

    def test_file_overrides_default(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# comment line\ngamma = 2\n\nseed = 9\n")
        cfg, _ = parse_config(["analytic", "--config", str(f)])
        assert cfg.gamma == 2.0
        assert cfg.seed == 9

    def test_unknown_key_named_in_error(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("not_a_key = 1\n")
        with pytest.raises(UsageError, match="not_a_key"):
            parse_config(["analytic", "--config", str(f)])

    def test_conflicting_specs_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["analytic", "--kernel", "gaussian"])
        with pytest.raises(UsageError):
            parse_config(["shift-invariant", "--activation", "relu"])
        with pytest.raises(UsageError):
            parse_config(["quantile-sweep", "--kernel", "gaussian",
                          "--activation", "relu"])

    @pytest.mark.parametrize("command", ["analytic", "quantile-sweep",
                                         "crosscheck"])
    def test_dump_config_round_trips(self, command, tmp_path):
        extra = [] if command == "analytic" else ["--kernel", "matern"]
        cfg, _ = parse_config([command] + extra)
        f = tmp_path / "dump.txt"
        f.write_text(dump_config(cfg))
        reparsed, _ = parse_config([command, "--config", str(f)])
        assert reparsed == cfg


class TestExitStatuses:
    # Fixture of 12 invalid invocations, all mapped to the config status.
    INVALID = [
        [],
        ["bogus-command"],
        ["analytic", "--activation", "nope"],
        ["analytic", "--bias", "weird:1"],
        ["analytic", "--bias", "uniform:1"],
        ["analytic", "--gamma", "-1"],
        ["analytic", "--kernel", "gaussian"],
        ["analytic", "--config", "/no/such/file"],
        ["shift-invariant", "--activation", "relu"],
        ["shift-invariant", "--sigma", "diag:1,2,3", "--kernel", "gaussian"],
        ["quantile-sweep", "--kernel", "gaussian", "--delta", "1.5"],
        ["quantile-sweep", "--kernel", "gaussian", "--n-list", "64,16"],
    ]

    @pytest.mark.parametrize("argv", INVALID)
    def test_invalid_invocations(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize("argv, name", [
        (["analytic", "--gamma", "nan"], "gamma"),
        (["analytic", "--bias", "gaussian:nan"], "sd"),
        (["shift-invariant", "--kernel", "matern", "--nu", "inf"], "nu"),
        (["analytic", "--activation", "relu", "--bias", "gaussian:1", "--tol", "nan"], "tol"),
    ])
    def test_non_finite_value_named(self, argv, name, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert "Lip" not in captured.out

    @pytest.mark.parametrize("argv, name", [
        (["empirical", "--seed", "-1"], "seed"),
        (["quantile-sweep", "--kernel", "gaussian", "--seed", "-1"], "seed"),
        (["kernel-convergence", "--kernel", "gaussian", "--seed", "-1"], "seed"),
        (["quantile-sweep", "--kernel", "gaussian", "--n-list", "0,4"], "n_list"),
        (["analytic", "--activation", "relu", "--bias", "gaussian:1", "--r-max", "-1"], "r_max"),
        (["analytic", "--activation", "relu", "--bias", "gaussian:1", "--r-max", "nan"], "r_max"),
    ], ids=["empirical_seed", "sweep_seed", "convergence_seed", "zero_n", "negative_r_max",
            "nan_r_max"])
    def test_bad_value_refused(self, argv, name, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_huge_matern_nu_gives_a_finite_constant(self, capsys):
        # 2 nu / (2 nu - 2) is inf / inf here; nu / (nu - 1) is 1.
        assert main(["shift-invariant", "--kernel", "matern", "--nu", "1e308"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Lip = 1"

    @pytest.mark.parametrize("argv", [
        ["analytic", "--gamma", "1e300"],
        ["analytic", "--gamma", "1e-200"],
        ["empirical", "--gamma", "1e-154"],
        ["shift-invariant", "--kernel", "gaussian", "--gamma", "1e300"],
    ], ids=["analytic_huge", "analytic_tiny", "empirical_subnormal_square", "kernel_huge"])
    @pytest.mark.filterwarnings("error")
    def test_gamma_without_a_normal_square_refused(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "gamma" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_memory_error_status(self, monkeypatch, capsys):
        # Stands in for an allocation numpy refuses, such as --n-list 4294967297.
        def fail(cfg):
            raise MemoryError("Unable to allocate 32.0 GiB for an array with shape "
                              "(4294967297, 1) and data type float64")

        monkeypatch.setitem(cli._DISPATCH, "quantile-sweep", fail)
        assert main(["quantile-sweep", "--kernel", "gaussian"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: Unable to allocate 32.0 GiB for an array with shape "
                       "(4294967297, 1) and data type float64\n")

    def test_bare_memory_error_status(self, monkeypatch, capsys):
        def fail(cfg):
            raise MemoryError

        monkeypatch.setitem(cli._DISPATCH, "analytic", fail)
        assert main(["analytic"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_io_error_status(self, tmp_path, capsys):
        code = main(["quantile-sweep", "--kernel", "gaussian",
                     "--n-list", "8", "--realizations", "2",
                     "--output", "/no/such/dir/out.csv"])
        assert code == EXIT_IO

    def test_hypothesis_violation_status(self, capsys):
        code = main(["analytic", "--activation", "relu", "--bias", "point:0"])
        assert code == EXIT_HYPOTHESIS

    def test_success_status(self, capsys):
        assert main(["analytic"]) == EXIT_OK


# The documented exit status of every package error (module docstring of
# kerlip.cli); a new error class must be added here.
EXIT_STATUS_OF = {
    errors.InvalidArgumentError: EXIT_CONFIG,
    errors.UnsupportedDistributionError: EXIT_CONFIG,
    errors.InvalidConfigurationError: EXIT_CONFIG,
    UsageError: EXIT_CONFIG,
    errors.ExperimentIOError: EXIT_IO,
    errors.NumericalFailureError: EXIT_NUMERICAL,
    errors.HypothesisViolationError: EXIT_HYPOTHESIS,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", sorted(set(_subclasses(errors.KerlipError)),
                                         key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_maps_to_its_exit_status(error, monkeypatch, capsys):
    assert error in EXIT_STATUS_OF, f"{error.__name__} has no documented exit status"

    def fail(cfg):
        raise error("injected")

    monkeypatch.setitem(cli._DISPATCH, "analytic", fail)
    assert main(["analytic"]) == EXIT_STATUS_OF[error]
    err = capsys.readouterr().err
    assert "injected" in err and "Traceback" not in err


class TestCommands:
    def test_analytic_prints_gamma(self, capsys):
        code = main(["analytic", "--activation", "cos", "--gamma", "0.5",
                     "--bias", "uniform:0:6.283185307179586"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Lip = 0.5" in out

    def test_laplace_divergent_message(self, capsys):
        code = main(["shift-invariant", "--kernel", "laplace", "--dim", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Lip = +inf (divergent: infinite second moment)" in out

    def test_gaussian_sigma_diag(self, capsys):
        code = main(["shift-invariant", "--kernel", "gaussian", "--dim", "2",
                     "--sigma", "diag:1,4"])
        assert code == EXIT_OK
        assert "Lip = 2" in capsys.readouterr().out

    def test_sigma_file(self, tmp_path, capsys):
        f = tmp_path / "sigma.txt"
        f.write_text("1 0\n0 4\n")
        code = main(["shift-invariant", "--kernel", "gaussian", "--dim", "2",
                     "--sigma", f"file:{f}"])
        assert code == EXIT_OK
        assert "Lip = 2" in capsys.readouterr().out

    def test_crosscheck_prints_both_routes(self, capsys):
        code = main(["crosscheck", "--kernel", "matern", "--nu", "2",
                     "--sigma", "identity", "--dim", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "thm41-covariance" in out
        assert "thm41-hessian-fd" in out
        values = [float(line.split(":")[1]) for line in out.splitlines()
                  if line.startswith("thm41")]
        assert abs(values[0] - values[1]) <= 1e-2 * values[0]

    def test_crosscheck_anisotropic_matern(self, capsys):
        code = main(["crosscheck", "--kernel", "matern", "--nu", "2",
                     "--dim", "2", "--sigma", "diag:2,1"])
        assert code == EXIT_OK

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crosscheck_nan_gap_is_numerical_failure(self, capsys):
        # gamma(200) overflows in the Matern closed form, so the Hessian
        # route returns NaN; a NaN gap must not pass as agreement.
        code = main(["crosscheck", "--kernel", "matern", "--nu", "200",
                     "--dim", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "relative gap: nan" in captured.out
        assert "numerical failure" in captured.err

    @pytest.mark.parametrize("nu", ["1.0001", "1.1"])
    def test_hessian_oracle_refuses_nu_near_one(self, nu, capsys):
        # The finite-difference Hessian is off by about h**(2 (nu - 1)) relative.
        code = main(["crosscheck", "--kernel", "matern", "--nu", nu])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "too coarse for nu" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("nu", ["1.25", "1.5", "2"])
    def test_crosscheck_passes_away_from_nu_one(self, nu, capsys):
        assert main(["crosscheck", "--kernel", "matern", "--nu", nu]) == EXIT_OK

    def test_empirical_runs(self, capsys):
        code = main(["empirical", "--activation", "cos", "--n-features",
                     "2048", "--seed", "3"])
        assert code == EXIT_OK
        assert "Lip_hat" in capsys.readouterr().out

    def test_quantile_sweep_csv_and_svg(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = main(["quantile-sweep", "--kernel", "gaussian", "--dim", "1",
                     "--n-list", "8,16,32", "--realizations", "20",
                     "--output", str(csv), "--svg", str(svg)])
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd"
        assert len(lines) == 4

        root = ET.parse(svg).getroot()  # valid XML
        polylines = [el for el in root.iter()
                     if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_quantile_sweep_threads_bit_identical(self, tmp_path, capsys):
        outputs = []
        for threads in ("1", "4"):
            path = tmp_path / f"sweep_{threads}.csv"
            code = main(["quantile-sweep", "--kernel", "gaussian",
                         "--n-list", "8,16", "--realizations", "30",
                         "--threads", threads, "--output", str(path)])
            assert code == EXIT_OK
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_kernel_convergence_csv(self, tmp_path, capsys):
        path = tmp_path / "conv.csv"
        code = main(["kernel-convergence", "--kernel", "gaussian",
                     "--n-list", "64,256", "--output", str(path)])
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == "N,sup_error"
        assert len(lines) == 3


class TestSvg:
    def test_single_series_polyline(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_line_svg(path, [16, 32, 64], [0.3, 0.2, 0.1], "t_hat vs N")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        points = polylines[0].attrib["points"].split()
        assert len(points) == 3
