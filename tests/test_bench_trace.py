"""The benchmark's per-layer trace reads finite numbers off the package.

``bench/tracing.py`` wraps kerlip's public functions from outside and
turns the spans of one round of each workload into per-layer metrics.  A
metric with no spans behind it comes out as NaN, which the benchmark
cannot report; a renamed function, argument or result does the same.
This runs the tracer over a minimal round of the benchmark's phases and
requires every metric to be finite.  The tracer is read from its source
file and run in a fresh module, so nothing is written under ``bench/``.
"""

import math
import time
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import kerlip
from kerlip import analytic, cli, experiments
from kerlip.experiments import QuantileSweepConfig
from kerlip.features import default_grid_1d
from kerlip.kernels import BiasDistribution

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
UNIFORM_PHASE = BiasDistribution.uniform(0.0, 2.0 * np.pi)
STD_GAUSSIAN = BiasDistribution.gaussian(1.0)


def _load_tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _sweep_configs():
    """A d=1 sweep at N = 16, 256 and 1024, and a d=2 sweep at N = 256."""
    axis = np.linspace(-1.0, 1.0, 10)
    grid_2d = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    d1 = QuantileSweepConfig.from_shift_invariant(
        kerlip.gaussian_kernel(np.eye(1)), n_list=(16, 256, 1024), realizations=8,
        delta=0.9, grid=default_grid_1d(), seed=1)
    d2 = QuantileSweepConfig.from_shift_invariant(
        kerlip.gaussian_kernel(np.eye(2)), n_list=(256,), realizations=4, delta=0.9,
        grid=grid_2d, seed=2)
    return d1, d2


def _phases(tmp_path):
    """Each phase's operations.  Every call goes through a module attribute
    looked up when it runs, so the tracer's wrappers see it."""
    d1, d2 = _sweep_configs()
    kernel_1d = kerlip.gaussian_kernel(np.eye(1))
    pairs = [((a,), (b,)) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)]
    cli_argv = ["quantile-sweep", "--kernel", "gaussian", "--n-list", "16",
                "--realizations", "4", "--output", str(tmp_path / "sweep.csv")]
    x, z = np.array([0.6, 0.8]), np.array([1.0, -0.5])
    return {
        "exact": [
            # cos and tanh take the smooth quadrature route, relu the kinked one.
            lambda: analytic.rnn_lipschitz(kerlip.scaled_cosine(), 1.0, UNIFORM_PHASE),
            lambda: analytic.rnn_lipschitz(kerlip.relu(), 1.0, STD_GAUSSIAN),
            lambda: analytic.rnn_lipschitz(kerlip.tanh_activation(), 1.0, STD_GAUSSIAN,
                                           (0.0, 1.0)),
            lambda: analytic.hessian_lipschitz_oracle(kerlip.gaussian_kernel(np.eye(2))),
        ],
        "sweep": [
            lambda: experiments.quantile_sweep(d1),
            lambda: experiments.quantile_sweep(d2),
            lambda: cli.main(cli_argv),
        ],
        "montecarlo": [
            lambda: analytic.variance_decomposition_check(
                kerlip.relu(), 1.0, STD_GAUSSIAN, x, z, mc_samples=10_000, seed=0),
            lambda: experiments.kernel_convergence_sweep(kernel_1d, [64, 128], pairs, 0),
        ],
    }


def test_every_trace_metric_is_finite(tmp_path, capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    plain_s, traced_s = {}, {}
    with warnings.catch_warnings():
        # A few realizations make a small sd, which trips the sweep's 5-sd warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        for phase, ops in _phases(tmp_path).items():
            tracer.phase = phase
            start = time.perf_counter()
            for op in ops:
                op()
            plain_s[phase] = time.perf_counter() - start
            with tracer.installed():
                start = time.perf_counter()
                for op in ops:
                    op()
                traced_s[phase] = time.perf_counter() - start
        tracer.phase = "threads"
        d1, _ = _sweep_configs()
        with tracer.installed():
            for threads in (1, 2):
                experiments.quantile_sweep(replace(d1, threads=threads))
    capsys.readouterr()

    metrics = tracing.layer_metrics(tracer.spans, plain_s, traced_s)
    assert [name for name, _, _ in tracing.PER_LAYER] == list(metrics)
    not_finite = {name: m["value"] for name, m in metrics.items()
                  if not math.isfinite(m["value"])}
    assert not_finite == {}
