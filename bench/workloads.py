"""The benchmark's three workloads and the checks on their outputs.

A workload is a list of operations run in whole rounds.  Each operation
calls kerlip's public API through a module attribute looked up at call
time, so the traced run's wrappers see every call.  Each check compares
an output with an independent reference (``references``) or a property
the method must have, and returns ``None`` or the reason it failed.
"""

import contextlib
import io
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

import kerlip
from kerlip import analytic, cli, experiments
from kerlip.errors import HypothesisViolationError
from kerlip.experiments import QuantileSweepConfig
from kerlip.kernels import BiasDistribution, WeightDistribution

NAMES = ("exact", "sweep", "montecarlo")

UNIFORM_PHASE = BiasDistribution.uniform(0.0, 2.0 * np.pi)
STD_GAUSSIAN = BiasDistribution.gaussian(1.0)

GAMMAS = (0.5, 1.0, 2.0)
NU_RADII = (0.5, 5.0, 15.0, 28.0)

SWEEP_N_LIST_1D = (16, 64, 256, 1024)
SWEEP_N_LIST_2D = (16, 64, 256)
SWEEP_REALIZATIONS_1D = 100
SWEEP_REALIZATIONS_2D = 30
SWEEP_DELTA = 0.9

MC_SAMPLES = (10**6, 10**7)
MC_SIGMAS = 5.0
KCS_N_LIST = tuple(2**p for p in range(6, 17))
KCS_SEEDS = 4
KCS_SLOPE = (-0.7, -0.3)

# Closed forms are exact up to round-off; quadrature against quad is held
# to the ladder's accuracy; finite differences to their O(h^4) error.
CLOSED_FORM_RTOL = 1e-9
QUAD_RTOL = 1e-7
FD_RTOL = 1e-6
ROW_ATOL = 1e-12


@dataclass
class Op:
    """One timed call into kerlip, and the check of its output.

    ``check(output, round_outputs)`` sees the other outputs of the same
    round by operation name.  ``known_fault`` names the program fault that
    makes the check fail on every run; it is empty for operations that
    must pass.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    known_fault: str = ""


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: Callable[[], None]
    sweep_configs: dict = field(default_factory=dict)


def late(module, name, *args, **kwargs):
    """A call to ``module.name`` that resolves the attribute when it runs."""
    return lambda: getattr(module, name)(*args, **kwargs)


def rel_gap(value, expected, rtol, what="value"):
    if not math.isfinite(value):
        return f"{what} {value!r} is not finite (expected {expected!r})"
    if abs(value - expected) > rtol * abs(expected):
        return f"{what} {value!r} differs from {expected!r} by more than {rtol:g} relative"
    return None


def build(name, seed, out_dir):
    return {"exact": exact, "sweep": sweep, "montecarlo": montecarlo}[name](seed, out_dir)


# ---------------------------------------------------------------------------
# exact: the paper's constants.  Its inputs are fixed; the seed does not
# change them, so the two counted faults sit on seed-independent inputs.

MATERN_NU200_FAULT = ("kernels.kappa_eval: gamma_fn(200) overflows, so the Hessian "
                      "oracle returns NaN")
LADDER_CAP_FAULT = ("numerics.expectation_2d_adaptive stops at order 256 without "
                    "converging and gives no signal")


def _rnn_reference(act_name, gamma):
    from references import cos_lipschitz, relu_lipschitz, sup_sqrt_nu

    if act_name == "cos":
        return cos_lipschitz(gamma), CLOSED_FORM_RTOL
    if act_name == "relu":
        return relu_lipschitz(gamma), CLOSED_FORM_RTOL
    # The search domain of rnn_lipschitz for a unit-sd bias is [0, 20 gamma].
    return sup_sqrt_nu("tanh", gamma, 1.0, 20.0 * gamma), QUAD_RTOL


def _check_rnn(act_name, gamma):
    def check(report, _):
        expected, rtol = _rnn_reference(act_name, gamma)
        return rel_gap(report.value, expected, rtol, "Lip")
    return check


def _covariance_and_oracle(kernel):
    covariance = analytic.shift_invariant_lipschitz(kernel)
    try:
        oracle = analytic.hessian_lipschitz_oracle(kernel)
    except HypothesisViolationError as exc:
        oracle = exc
    return covariance, oracle


def _check_shift_invariant(expected):
    def check(pair, _):
        covariance, oracle = pair
        if math.isinf(expected):
            if not (math.isinf(covariance.value) and covariance.method == "divergent"):
                return f"expected a divergent constant, got {covariance!r}"
            if not isinstance(oracle, HypothesisViolationError):
                return f"the Hessian oracle accepted a divergent kernel: {oracle!r}"
            return None
        return (rel_gap(covariance.value, expected, CLOSED_FORM_RTOL, "covariance Lip")
                or rel_gap(oracle.value, expected, FD_RTOL, "Hessian-oracle Lip"))
    return check


def _check_nu(r):
    def check(value, _):
        from references import nu
        return rel_gap(value, nu("tanh", 1.0, 1.0, r), QUAD_RTOL, f"nu({r:g})")
    return check


def exact(seed, out_dir):
    activations = (("cos", kerlip.scaled_cosine(), UNIFORM_PHASE),
                   ("relu", kerlip.relu(), STD_GAUSSIAN),
                   ("tanh", kerlip.tanh_activation(), STD_GAUSSIAN))
    ops = [Op(f"rnn_lipschitz.{name}.gamma{gamma:g}",
              late(analytic, "rnn_lipschitz", act, gamma, bias),
              _check_rnn(name, gamma))
           for name, act, bias in activations for gamma in GAMMAS]

    from references import gaussian_lipschitz, matern_lipschitz

    eye2 = np.eye(2)
    kernels = (("gaussian_diag1_4", kerlip.gaussian_kernel(np.diag([1.0, 4.0])),
                gaussian_lipschitz(np.diag([1.0, 4.0])), ""),
               ("matern_nu2", kerlip.matern_kernel(2.0, eye2), matern_lipschitz(2.0, eye2), ""),
               ("matern_nu200", kerlip.matern_kernel(200.0, eye2),
                matern_lipschitz(200.0, eye2), MATERN_NU200_FAULT),
               ("laplace_d3", kerlip.laplace_kernel(3), math.inf, ""))
    ops += [Op(f"shift_invariant.{name}", lambda k=kernel: _covariance_and_oracle(k),
               _check_shift_invariant(expected), fault)
            for name, kernel, expected, fault in kernels]

    tanh = kerlip.tanh_activation()
    ops += [Op(f"nu_function.tanh.r{r:g}",
               late(analytic, "nu_function", tanh, 1.0, STD_GAUSSIAN, r),
               _check_nu(r), LADDER_CAP_FAULT if r >= 15.0 else "")
            for r in NU_RADII]

    def warm_up():
        # One ladder per quadrature route fills the rule caches to the top order.
        for _, act, bias in activations:
            analytic.nu_function(act, 1.0, bias, 15.0)
        for _, kernel, _, _ in kernels:
            _covariance_and_oracle(kernel)

    return Workload("exact", ops, warm_up)


# ---------------------------------------------------------------------------
# sweep: the quantile-convergence experiment at desk scale.


def _grid_2d(points_per_axis=10):
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_sweep(act_name, weights, bias, reference, cfg):
    def check(rows, _):
        from references import sweep_rows

        expected = sweep_rows(act_name, weights, bias, cfg.n_list, cfg.realizations,
                              cfg.delta, cfg.grid, cfg.seed, reference)
        got = [(r.N, r.t_hat, r.quantile_index, r.lip_hat_mean, r.lip_hat_sd) for r in rows]
        if [g[0] for g in got] != [e[0] for e in expected]:
            return f"rows cover N={[g[0] for g in got]}, expected {list(cfg.n_list)}"
        for g, e in zip(got, expected):
            if g[2] != e[2]:
                return f"N={g[0]}: quantile index {g[2]}, expected {e[2]}"
            for label, a, b in zip(("t_hat", "lip_hat_mean", "lip_hat_sd"),
                                   (g[1], g[3], g[4]), (e[1], e[3], e[4])):
                if not abs(a - b) <= ROW_ATOL * max(1.0, reference):
                    return f"N={g[0]}: {label} {a!r}, independent grid maximum gives {b!r}"
        first, last = abs(got[0][3] - reference), abs(got[-1][3] - reference)
        if not last < first:
            return (f"mean estimate does not approach the reference: |gap| {first:.4g} at "
                    f"N={got[0][0]}, {last:.4g} at N={got[-1][0]}")
        return None
    return check


def _csv_bytes(rows):
    lines = ["N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd"]
    lines += [f"{r.N},{r.t_hat:.17g},{r.quantile_index},{r.lip_hat_mean:.17g},{r.lip_hat_sd:.17g}"
              for r in rows]
    return ("\n".join(lines) + "\n").encode()


def _run_cli(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    with open(path, "rb") as fh:
        return code, fh.read()


def _cli_argv(cfg, n_list, realizations, path):
    return ["quantile-sweep", "--kernel", "gaussian", "--dim", "1",
            "--n-list", ",".join(str(n) for n in n_list),
            "--realizations", str(realizations), "--delta", repr(cfg.delta),
            "--seed", str(cfg.seed), "--threads", "1", "--output", str(path)]


def sweep(seed, out_dir):
    from references import gaussian_lipschitz, matern_lipschitz, relu_lipschitz

    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
    grid_1d = kerlip.default_grid_1d()
    common_1d = dict(n_list=SWEEP_N_LIST_1D, realizations=SWEEP_REALIZATIONS_1D,
                     delta=SWEEP_DELTA, grid=grid_1d)
    eye1, eye2 = np.eye(1), np.eye(2)
    uniform = ("uniform", 0.0, 2.0 * np.pi)
    relu_reference = analytic.rnn_lipschitz(kerlip.relu(), 1.0, STD_GAUSSIAN).value
    settings = {
        "gaussian_rff.d1": (
            QuantileSweepConfig.from_shift_invariant(
                kerlip.gaussian_kernel(eye1), seed=seeds[0], **common_1d),
            ("cos", ("gaussian", eye1), uniform, gaussian_lipschitz(eye1))),
        "matern_rff.d1": (
            QuantileSweepConfig.from_shift_invariant(
                kerlip.matern_kernel(2.0, eye1), seed=seeds[1], **common_1d),
            ("cos", ("student", 2.0, eye1), uniform, matern_lipschitz(2.0, eye1))),
        "relu_network.d1": (
            QuantileSweepConfig(
                activation=kerlip.relu(),
                weight_dist=WeightDistribution.isotropic_gaussian(1.0, 1),
                bias_dist=STD_GAUSSIAN, lip_reference=relu_reference, seed=seeds[2],
                **common_1d),
            ("relu", ("isotropic", 1.0, 1), ("gaussian", 1.0), relu_lipschitz(1.0))),
        "gaussian_rff.d2": (
            QuantileSweepConfig.from_shift_invariant(
                kerlip.gaussian_kernel(eye2), seed=seeds[3], n_list=SWEEP_N_LIST_2D,
                realizations=SWEEP_REALIZATIONS_2D, delta=SWEEP_DELTA, grid=_grid_2d()),
            ("cos", ("gaussian", eye2), uniform, gaussian_lipschitz(eye2))),
    }
    ops = [Op(f"quantile_sweep.{name}", late(experiments, "quantile_sweep", cfg),
              _check_sweep(*spec, cfg))
           for name, (cfg, spec) in settings.items()]

    out_dir.mkdir(parents=True, exist_ok=True)
    cli_cfg = settings["gaussian_rff.d1"][0]
    cli_path = out_dir / f"sweep_cli_{seed}.csv"
    cli_argv = _cli_argv(cli_cfg, cli_cfg.n_list, cli_cfg.realizations, cli_path)

    def check_cli(result, round_outputs):
        code, data = result
        if code != 0:
            return f"cli.main exited with {code}"
        if data != _csv_bytes(round_outputs["quantile_sweep.gaussian_rff.d1"]):
            return "the CLI CSV differs from the library rows of the same configuration"
        return None

    ops.append(Op("cli.quantile_sweep.gaussian_rff.d1", lambda: _run_cli(cli_argv, cli_path),
                  check_cli))

    def warm_up():
        # Two realizations make a tiny sd, which trips the sweep's 5-sd warning.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _warm_up()

    def _warm_up():
        for cfg, _ in settings.values():
            experiments.quantile_sweep(replace(cfg, n_list=cfg.n_list[:1], realizations=2))
        _run_cli(_cli_argv(cli_cfg, cli_cfg.n_list[:1], 2, out_dir / f"warm_up_{seed}.csv"),
                 out_dir / f"warm_up_{seed}.csv")

    configs = {name: cfg for name, (cfg, _) in settings.items() if name.endswith(".d1")}
    return Workload("sweep", ops, warm_up, configs)


# ---------------------------------------------------------------------------
# montecarlo: bulk sampling for the variance decomposition and the kernel
# approximation rate.


def _draw_pair(rng):
    while True:
        x, z = rng.uniform(-1.5, 1.5, size=2), rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(x) >= 0.1 and np.linalg.norm(z) >= 0.1:
            return x, z


def _check_variance(act_name, x, z):
    def check(result, _):
        from references import alpha_beta

        if not (math.isfinite(result.lhs) and math.isfinite(result.rhs)
                and result.lhs_stderr > 0.0):
            return f"non-finite or degenerate result {result!r}"
        gap = abs(result.lhs - result.rhs)
        if gap > MC_SIGMAS * result.lhs_stderr:
            return (f"|lhs - rhs| = {gap:.3g} exceeds {MC_SIGMAS:g} standard errors "
                    f"({result.lhs_stderr:.3g})")
        alpha, beta = alpha_beta(act_name, 1.0, 1.0, float(np.linalg.norm(x)))
        rhs = float(x @ z) ** 2 / float(x @ x) * beta + float(z @ z) * alpha
        return rel_gap(result.rhs, rhs, QUAD_RTOL, "quadrature side")
    return check


def _kcs_runs(kernel, pairs, seeds):
    return [experiments.kernel_convergence_sweep(kernel, list(KCS_N_LIST), pairs, s)
            for s in seeds]


def _check_kcs(pairs, seeds):
    def check(results, _):
        from references import kernel_errors

        log_errors = []
        for seed, result in zip(seeds, results):
            if [n for n, _ in result] != list(KCS_N_LIST):
                return f"seed {seed}: rows cover N={[n for n, _ in result]}"
            errors = np.array([e for _, e in result])
            expected = np.array(kernel_errors(np.eye(1), KCS_N_LIST, pairs, seed))
            if not np.all(np.abs(errors - expected) <= 1e-8 * expected + ROW_ATOL):
                worst = int(np.argmax(np.abs(errors - expected)))
                return (f"seed {seed}: sup error {errors[worst]!r} at N={KCS_N_LIST[worst]}, "
                        f"independent estimate {expected[worst]!r}")
            log_errors.append(np.log(errors))
        slope = float(np.polyfit(np.log(KCS_N_LIST), np.mean(log_errors, axis=0), 1)[0])
        if not KCS_SLOPE[0] <= slope <= KCS_SLOPE[1]:
            return f"kernel-error slope {slope:.3f} outside {KCS_SLOPE}"
        return None
    return check


def montecarlo(seed, out_dir):
    rng = np.random.default_rng(seed)
    ops = []
    for samples in MC_SAMPLES:
        x, z = _draw_pair(rng)
        for name, act in (("relu", kerlip.relu()), ("tanh", kerlip.tanh_activation())):
            mc_seed = int(rng.integers(2**32))
            ops.append(Op(f"variance_decomposition.{name}.{samples:.0e}",
                          late(analytic, "variance_decomposition_check", act, 1.0,
                               STD_GAUSSIAN, x, z, mc_samples=samples, seed=mc_seed),
                          _check_variance(name, x, z)))

    kernel = kerlip.gaussian_kernel(np.eye(1))
    points = np.linspace(-1.0, 1.0, 5)
    pairs = [((a,), (b,)) for a in points for b in points]
    kcs_seeds = [int(s) for s in rng.integers(2**32, size=KCS_SEEDS)]
    # The slope of one draw has a standard deviation of about 0.07, so it
    # leaves [-0.7, -0.3] on about one seed in two hundred; the mean
    # log-error of four draws halves that spread.
    ops.append(Op("kernel_convergence.gaussian.d1", lambda: _kcs_runs(kernel, pairs, kcs_seeds),
                  _check_kcs(pairs, kcs_seeds)))

    def warm_up():
        for name, act in (("relu", kerlip.relu()), ("tanh", kerlip.tanh_activation())):
            analytic.variance_decomposition_check(act, 1.0, STD_GAUSSIAN, np.array([0.6, 0.8]),
                                                  np.array([1.0, 0.0]), mc_samples=10_000, seed=0)
        experiments.kernel_convergence_sweep(kernel, [64, 128], pairs, 0)

    return Workload("montecarlo", ops, warm_up)
