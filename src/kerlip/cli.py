"""Command-line entry point binding all modules.

Commands: ``analytic``, ``shift-invariant``, ``empirical``,
``quantile-sweep``, ``kernel-convergence``, ``crosscheck``.  Flags
override config-file values, which override documented defaults.  All
randomized commands take ``--seed`` (default 0, never wall-clock).

Exit statuses: 0 success, 2 invalid configuration / usage (a run too
large to allocate included), 3 I/O error, 4 numerical failure, 5
hypothesis violation.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import analytic, experiments, kernels
from .errors import (
    ExperimentIOError,
    HypothesisViolationError,
    InvalidArgumentError,
    InvalidConfigurationError,
    NumericalFailureError,
    UnsupportedDistributionError,
)
from .features import build_feature_map, default_grid_1d, empirical_lipschitz
from .kernels import (
    ACTIVATIONS,
    BiasDistribution,
    WeightDistribution,
    gaussian_kernel,
    laplace_kernel,
    matern_kernel,
)

COMMANDS = ("analytic", "shift-invariant", "empirical", "quantile-sweep",
            "kernel-convergence", "crosscheck")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_HYPOTHESIS = 5


class UsageError(InvalidConfigurationError):
    """Bad flags or config file content."""


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run configuration; every field has a default."""

    command: str
    activation: str = "cos"
    gamma: float = 1.0
    bias: str = "uniform:0:6.283185307179586"
    kernel: str = ""
    nu: float = 2.0
    sigma: str = "identity"
    dim: int = 1
    n_features: int = 1024
    n_list: str = "16,32,64,128,256,512,1024,2048,4096"
    realizations: int = 300
    delta: float = 0.9
    tol: float = 1e-8
    r_max: float = 0.0
    fd_step: float = 1e-4
    seed: int = 0
    threads: int = 1
    grid_points: int = 99
    pair_grid_size: int = 10
    nested: bool = False
    output: str = ""
    svg: str = ""
    log: str = ""


_CONFIG_FIELDS = {f.name: f.type for f in dataclass_fields(RunConfig)
                  if f.name != "command"}


# Choices, help and metavar of the flags that have any; every other
# RunConfig field gets a plain ``--field-name`` flag of the field's type.
_FLAG_OPTIONS = {
    "activation": dict(choices=sorted(ACTIVATIONS)),
    "bias": dict(help="uniform:a:b | gaussian:sd | point:0"),
    "kernel": dict(choices=("gaussian", "matern", "laplace")),
    "sigma": dict(help="identity | diag:a,b,... | file:PATH"),
    "n_list": dict(help="comma-separated feature counts"),
    "r_max": dict(help="radius search bound; 0 selects the default domain"),
    "grid_points": dict(help="target size of the dim >= 2 grid; dim 1 always "
                             "uses the 99-point grid"),
    "output": dict(metavar="PATH"),
    "svg": dict(metavar="PATH"),
    "log": dict(metavar="PATH"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerlip",
        allow_abbrev=False,
        description="Lipschitz constants of kernel feature maps: exact values, "
                    "oracles and random-feature experiments.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="flat 'key = value' config file; flags override it")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    for key, kind in _CONFIG_FIELDS.items():
        flag = "--" + key.replace("_", "-")
        options = _FLAG_OPTIONS.get(key, {})
        if kind is bool:
            parser.add_argument(flag, action="store_const", const=True,
                                default=None, **options)
        else:
            parser.add_argument(flag, type=kind, **options)
    return parser


def _coerce(key: str, text: str):
    kind = _CONFIG_FIELDS[key]
    try:
        if kind is bool:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"malformed value for config key {key!r}: {text!r}") from exc


def _read_config_file(path: str) -> dict:
    try:
        text = open(path).read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value.strip())
    return values


def parse_config(argv) -> tuple[RunConfig, bool]:
    """Resolve argv (and an optional config file) into a RunConfig.

    Returns the config and whether ``--dump-config`` was requested.
    Precedence: flags > config file > defaults.
    """
    ns = _build_parser().parse_args(argv)
    merged = {}
    if ns.config is not None:
        merged.update(_read_config_file(ns.config))
    # Conflict rules look only at explicit flags: a config file may carry
    # keys for other commands (e.g. a re-parsed --dump-config snapshot).
    provided = set()
    for key in _CONFIG_FIELDS:
        value = getattr(ns, key)
        if value is not None:
            merged[key] = value
            provided.add(key)
    cfg = RunConfig(command=ns.command, **merged)
    _validate(cfg, provided)
    return cfg, ns.dump_config


def _validate(cfg: RunConfig, provided: set) -> None:
    activation_like = {"activation", "gamma", "bias"} & provided
    kernel_only = {"kernel", "nu", "sigma"} & provided
    if cfg.command in ("analytic", "empirical") and kernel_only:
        raise UsageError(f"{cfg.command} uses an activation specification; "
                         f"{sorted(kernel_only)} conflict with it")
    if cfg.command in ("shift-invariant", "crosscheck") and activation_like:
        raise UsageError(f"{cfg.command} uses a kernel specification; "
                         f"{sorted(activation_like)} conflict with it")
    if cfg.command == "quantile-sweep" and "kernel" in provided and activation_like:
        raise UsageError("give either a kernel or an activation specification, "
                         "not both")
    if not kernels._normal_square(cfg.gamma):
        raise UsageError(f"gamma must be positive and finite, with gamma**2 a normal "
                         f"float, got {cfg.gamma}")
    if cfg.dim < 1:
        raise UsageError(f"dim must be >= 1, got {cfg.dim}")
    if not 0.0 < cfg.delta < 1.0:
        raise UsageError(f"delta must be in (0, 1), got {cfg.delta}")
    _parse_bias(cfg.bias)


def dump_config(cfg: RunConfig) -> str:
    """Config-file text that round-trips through parse_config."""
    lines = [f"# kerlip {cfg.command} configuration"]
    for key in _CONFIG_FIELDS:
        value = getattr(cfg, key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _parse_bias(spec: str) -> BiasDistribution:
    family, *params = spec.split(":")
    if family == "point" and not params:
        params = ["0"]
    try:
        return BiasDistribution(family, tuple(float(p) for p in params))
    except (ValueError, UnsupportedDistributionError) as exc:
        raise UsageError(f"bad bias specification {spec!r}: {exc}") from exc


def _parse_sigma(spec: str, dim: int) -> np.ndarray:
    if spec == "identity":
        return np.eye(dim)
    if spec.startswith("diag:"):
        try:
            entries = [float(v) for v in spec[len("diag:"):].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad sigma specification {spec!r}") from exc
        if len(entries) != dim:
            raise UsageError(f"sigma diagonal has {len(entries)} entries, dim is {dim}")
        return np.diag(entries)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            matrix = np.loadtxt(path, ndmin=2)
        except OSError as exc:
            raise ExperimentIOError(f"cannot read sigma file {path}: {exc}") from exc
        if matrix.shape != (dim, dim):
            raise UsageError(f"sigma file has shape {matrix.shape}, dim is {dim}")
        return matrix
    raise UsageError(f"unknown sigma specification {spec!r}")


def _make_kernel(cfg: RunConfig):
    if not cfg.kernel:
        raise UsageError(f"{cfg.command} requires --kernel")
    if cfg.kernel == "laplace":
        return laplace_kernel(cfg.dim)
    sigma = _parse_sigma(cfg.sigma, cfg.dim)
    if cfg.kernel == "gaussian":
        # --gamma scales the bandwidth: Sigma_eff = gamma^2 Sigma, which for
        # the identity matches the random-Fourier-feature convention.
        return gaussian_kernel(cfg.gamma**2 * sigma)
    return matern_kernel(cfg.nu, sigma)


def _format_lip(value: float) -> str:
    return "+inf" if math.isinf(value) else f"{value:.12g}"


def write_line_svg(path: str, xs, ys, label: str, log_x: bool = True) -> None:
    """Minimal standalone SVG line chart with a single polyline series."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    px = np.log2(xs) if log_x else xs
    width, height, margin = 640, 400, 50
    span_x = np.ptp(px) or 1.0
    span_y = np.ptp(ys) or 1.0
    sx = margin + (px - px.min()) / span_x * (width - 2 * margin)
    sy = height - margin - (ys - ys.min()) / span_y * (height - 2 * margin)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'  <line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'  <text x="{width // 2}" y="{height - 10}" text-anchor="middle">'
        f'{label}</text>\n'
        f'  <polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{points}"/>\n'
        f'</svg>\n')
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ExperimentIOError(f"cannot write SVG to {path}: {exc}") from exc


def _grid_for(cfg: RunConfig) -> np.ndarray:
    if cfg.dim == 1:
        return default_grid_1d()
    per_axis = max(2, int(round(cfg.grid_points ** (1.0 / cfg.dim))))
    while per_axis**cfg.dim > 10_000:
        per_axis -= 1
    axes = [np.linspace(-1.0, 1.0, per_axis)] * cfg.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _n_list(cfg: RunConfig) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in cfg.n_list.split(","))
    except ValueError as exc:
        raise UsageError(f"bad n_list {cfg.n_list!r}") from exc


def _rnn_spec(cfg: RunConfig):
    act = ACTIVATIONS[cfg.activation]()
    bias = _parse_bias(cfg.bias)
    dist = WeightDistribution.isotropic_gaussian(cfg.gamma, cfg.dim)
    return act, dist, bias


def _cmd_analytic(cfg: RunConfig) -> int:
    act, _, bias = _rnn_spec(cfg)
    r_domain = (0.0, cfg.r_max) if cfg.r_max != 0 else None
    report = analytic.rnn_lipschitz(act, cfg.gamma, bias, r_domain, cfg.tol)
    print(f"Lip = {_format_lip(report.value)}  (argmax r = {report.argmax_r:.6g}, "
          f"error estimate {report.error_estimate:.3g})")
    if cfg.output:
        experiments.write_csv(cfg.output, analytic.CSV_HEADER, [report.csv_row()])
    return EXIT_OK


def _cmd_shift_invariant(cfg: RunConfig) -> int:
    kernel = _make_kernel(cfg)
    report = analytic.shift_invariant_lipschitz(kernel)
    if math.isinf(report.value):
        print("Lip = +inf (divergent: infinite second moment)")
    else:
        print(f"Lip = {_format_lip(report.value)}")
    if cfg.output:
        experiments.write_csv(cfg.output, analytic.CSV_HEADER, [report.csv_row()])
    return EXIT_OK


def _cmd_empirical(cfg: RunConfig) -> int:
    act, dist, bias = _rnn_spec(cfg)
    fm = build_feature_map(dist, bias, act, cfg.n_features, cfg.seed)
    value, argmax = empirical_lipschitz(fm, _grid_for(cfg))
    print(f"Lip_hat = {value:.12g} at x = {np.array2string(argmax, precision=6)}")
    return EXIT_OK


def _sweep_config(cfg: RunConfig) -> experiments.QuantileSweepConfig:
    common = dict(n_list=_n_list(cfg), realizations=cfg.realizations,
                  delta=cfg.delta, grid=_grid_for(cfg), seed=cfg.seed,
                  nested=cfg.nested, threads=cfg.threads)
    if cfg.kernel:
        return experiments.QuantileSweepConfig.from_shift_invariant(
            _make_kernel(cfg), **common)
    act, dist, bias = _rnn_spec(cfg)
    reference = analytic.rnn_lipschitz(act, cfg.gamma, bias, tol=cfg.tol).value
    return experiments.QuantileSweepConfig(
        activation=act, weight_dist=dist, bias_dist=bias,
        lip_reference=reference, **common)


def _cmd_quantile_sweep(cfg: RunConfig) -> int:
    sweep_cfg = _sweep_config(cfg)
    rows = experiments.quantile_sweep(sweep_cfg, log_path=cfg.log or None)
    out = cfg.output or "quantile_sweep.csv"
    experiments.write_sweep_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out} "
          f"(reference Lip = {sweep_cfg.lip_reference:.6g})")
    if cfg.svg:
        write_line_svg(cfg.svg, [r.N for r in rows], [r.t_hat for r in rows],
                       "t_hat vs N (log2 N)")
    return EXIT_OK


def _cmd_kernel_convergence(cfg: RunConfig) -> int:
    kernel = _make_kernel(cfg)
    if cfg.dim != 1:
        raise UsageError("kernel-convergence supports dim 1")
    points = np.linspace(-1.0, 1.0, cfg.pair_grid_size)
    pairs = [((a,), (b,)) for a in points for b in points]
    results = experiments.kernel_convergence_sweep(kernel, list(_n_list(cfg)),
                                                   pairs, cfg.seed)
    out = cfg.output or "kernel_convergence.csv"
    experiments.write_csv(out, "N,sup_error", (f"{n},{err:.17g}" for n, err in results))
    print(f"wrote {len(results)} rows to {out}")
    if cfg.svg:
        write_line_svg(cfg.svg, [n for n, _ in results],
                       [e for _, e in results], "sup error vs N (log2 N)")
    return EXIT_OK


def _cmd_crosscheck(cfg: RunConfig) -> int:
    kernel = _make_kernel(cfg)
    covariance = analytic.shift_invariant_lipschitz(kernel)
    hessian = analytic.hessian_lipschitz_oracle(kernel, cfg.fd_step)
    print(f"{covariance.method}: {_format_lip(covariance.value)}")
    print(f"{hessian.method}: {_format_lip(hessian.value)}")
    gap = abs(covariance.value - hessian.value) / covariance.value
    print(f"relative gap: {gap:.3g}")
    if not gap <= 1e-2:  # a NaN gap fails too
        raise NumericalFailureError(
            f"covariance and Hessian routes disagree (relative gap {gap:.3g})")
    return EXIT_OK


_DISPATCH = {
    "analytic": _cmd_analytic,
    "shift-invariant": _cmd_shift_invariant,
    "empirical": _cmd_empirical,
    "quantile-sweep": _cmd_quantile_sweep,
    "kernel-convergence": _cmd_kernel_convergence,
    "crosscheck": _cmd_crosscheck,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit status."""
    return _DISPATCH[cfg.command](cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg, dump = parse_config(argv)
        if dump:
            sys.stdout.write(dump_config(cfg))
            return EXIT_OK
        return run(cfg)
    except SystemExit as exc:  # argparse usage errors
        return EXIT_CONFIG if exc.code else EXIT_OK
    except (InvalidConfigurationError, InvalidArgumentError,
            UnsupportedDistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a run too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
