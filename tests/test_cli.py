"""Tests for the command-line interface."""

import contextlib
import dataclasses
import io
import os
import tempfile
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


class TestConfigFileChoices:
    """A config-file value meets the same ``choices`` as its flag."""

    # activation = foo used to die with a raw KeyError, kernel = foo ran
    # as Matern, and --dump-config echoed both.
    @pytest.mark.parametrize("argv, line", [
        (["analytic"], "activation = foo"),
        (["analytic", "--dump-config"], "activation = foo"),
        (["shift-invariant"], "kernel = foo"),
        (["crosscheck", "--dump-config"], "kernel = Matern"),
    ], ids=["analytic", "dump_activation", "shift_invariant", "dump_kernel"])
    def test_bad_choice_refused(self, argv, line, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text(f"seed = 3\n{line}\n")
        assert main([*argv, "--config", str(f)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        key = line.split()[0]
        assert f"{f}:2" in captured.err and repr(key) in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_unset_kernel_round_trips(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("kernel =\nactivation = relu\n")
        cfg, _ = parse_config(["analytic", "--config", str(f)])
        assert cfg.kernel == "" and cfg.activation == "relu"

    def test_unknown_kernel_not_taken_for_matern(self):
        with pytest.raises(UsageError, match="unknown kernel 'foo'"):
            cli.run(cli.RunConfig(command="shift-invariant", kernel="foo"))

    def test_undecodable_file_refused(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_bytes(b"bias = \xff\n")
        assert main(["analytic", "--config", str(f)]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @given(command=st.sampled_from(cli.COMMANDS), key=st.sampled_from(sorted(cli._CONFIG_FIELDS)),
           value=st.text())
    @settings(max_examples=200, deadline=None)
    def test_any_value_dumps_or_exits_2(self, command, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.txt")
            with open(path, "wb") as fh:
                fh.write(f"{key} = {value}\n".encode("utf-8", "surrogatepass"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--dump-config"])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_OK:
            dumped = dict(line.split(" = ", 1) for line in out.getvalue().splitlines()[1:])
            for name, options in cli._FLAG_OPTIONS.items():
                if "choices" in options:
                    default = getattr(cli.RunConfig, name)
                    assert dumped[name] in (*options["choices"], default)


class TestSurface:
    """The CLI surface: a change here is a change of the documented interface."""

    # (option strings or dest, nargs, choices, type, default) of each parser action.
    ACTIONS = [
        (("-h", "--help"), 0, None, None, "==SUPPRESS=="),
        ("command", None, cli.COMMANDS, None, None),
        (("--config",), None, None, None, None),
        (("--dump-config",), 0, None, None, False),
        (("--activation",), None, ("cos", "identity", "relu", "tanh"), "str", None),
        (("--gamma",), None, None, "float", None),
        (("--bias",), None, None, "str", None),
        (("--kernel",), None, ("gaussian", "matern", "laplace"), "str", None),
        (("--nu",), None, None, "float", None),
        (("--sigma",), None, None, "str", None),
        (("--dim",), None, None, "int", None),
        (("--n-features",), None, None, "int", None),
        (("--n-list",), None, None, "str", None),
        (("--realizations",), None, None, "int", None),
        (("--delta",), None, None, "float", None),
        (("--tol",), None, None, "float", None),
        (("--r-max",), None, None, "float", None),
        (("--fd-step",), None, None, "float", None),
        (("--seed",), None, None, "int", None),
        (("--threads",), None, None, "int", None),
        (("--grid-points",), None, None, "int", None),
        (("--pair-grid-size",), None, None, "int", None),
        (("--nested",), 0, None, None, None),
        (("--output",), None, None, "str", None),
        (("--svg",), None, None, "str", None),
        (("--log",), None, None, "str", None),
    ]

    # The documented defaults that an unset flag takes.
    DEFAULTS = {
        "activation": "cos", "gamma": 1.0, "bias": "uniform:0:6.283185307179586",
        "kernel": "", "nu": 2.0, "sigma": "identity", "dim": 1, "n_features": 1024,
        "n_list": "16,32,64,128,256,512,1024,2048,4096", "realizations": 300,
        "delta": 0.9, "tol": 1e-08, "r_max": 0.0, "fd_step": 0.0001, "seed": 0,
        "threads": 1, "grid_points": 99, "pair_grid_size": 10, "nested": False,
        "output": "", "svg": "", "log": "",
    }

    def test_parser_actions(self):
        actions = [(tuple(a.option_strings) or a.dest, a.nargs,
                    None if a.choices is None else tuple(a.choices),
                    getattr(a.type, "__name__", a.type), a.default)
                   for a in cli._build_parser()._actions]
        assert actions == self.ACTIONS

    def test_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)
                    if f.name != "command"}
        assert defaults == self.DEFAULTS

    def test_exit_codes(self):
        assert (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_HYPOTHESIS) == (0, 2, 3, 4, 5)


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

    def test_negative_fd_step_refused(self, capsys):
        # It raised a raw TypeError from a complex power.
        argv = ["crosscheck", "--kernel", "matern", "--nu", "1.75", "--fd-step=-1e-4"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "step h" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("kernel", [["gaussian"], ["matern", "--nu", "1.75"]],
                             ids=["gaussian", "matern"])
    def test_out_of_range_fd_step_is_one_status(self, kernel, capsys):
        # Matern used to exit 4 with "too coarse" here, Gaussian 2.
        argv = ["crosscheck", "--kernel", *kernel, "--dim", "1", "--fd-step", "inf"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "step h must be in [1e-6, 1e-2], got inf" in captured.err
        assert "Traceback" not in captured.err

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

    # Each printed a wrong constant with exit 0.  The first three peak where
    # the default search domain ends; the uniform ones take their argmax at
    # a radius whose quadrature ladder did not converge.
    @pytest.mark.parametrize("activation, bias, gamma, cause", [
        ("cos", "gaussian:1", "0.05", "end of the default search domain"),
        ("cos", "gaussian:1", "0.1", "end of the default search domain"),
        ("cos", "point:0", "0.1", "end of the default search domain"),
        ("cos", "uniform:-1:2", "1", "did not converge"),
        ("relu", "uniform:-1:2", "1", "did not converge"),
    ])
    def test_wrong_supremum_refused(self, activation, bias, gamma, cause, capsys):
        argv = ["analytic", "--activation", activation, "--bias", bias, "--gamma", gamma]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert cause in captured.err and "Traceback" not in captured.err
        for named in (f"gamma = {gamma},", f"bias {bias},", "argmax r = ", "error "):
            assert named in captured.err
        assert captured.out == ""

    # The radius domain scales as gamma, so the scan runs out to r ~ 1e151;
    # its golden-section refinement used to spin once its bracket was a few
    # ulps wide.  ReLU's profile is flat and comes out right; cos's
    # oscillation cannot be resolved out to |u| ~ 1e302.
    @pytest.mark.parametrize("activation, status", [("relu", EXIT_OK), ("cos", EXIT_NUMERICAL)])
    @pytest.mark.filterwarnings("error")
    def test_huge_gamma_answers_at_once(self, activation, status, tmp_path, capsys):
        path = tmp_path / "lip.csv"
        start = time.process_time()
        code = main(["analytic", "--activation", activation, "--bias", "gaussian:1",
                     "--gamma", "1e150", "--output", str(path)])
        assert time.process_time() - start < 1.0
        assert code == status
        captured = capsys.readouterr()
        if status == EXIT_OK:
            value = float(path.read_text().splitlines()[1].split(",")[1])
            assert_allclose(value, 1e150 / np.sqrt(2.0), rtol=1e-12)
        else:
            assert "1-D quadrature did not converge" in captured.err
            assert "Traceback" not in captured.err

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
