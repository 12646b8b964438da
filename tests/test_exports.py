"""Every module's star-import works and its ``__all__`` names exist."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

MODULES = ["numerics", "kernels", "analytic", "features", "experiments", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names(name):
    namespace = {}
    exec(f"from kerlip.{name} import *", namespace)
    module = importlib.import_module(f"kerlip.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"kerlip.{name}.__all__ lists missing {export!r}"
        assert export in namespace


BENCH_READS = "bench/tracing.py reads this name; renaming it breaks the benchmark's trace"


@pytest.mark.parametrize("module, function, argument", [
    ("numerics", "expectation_2d", "zeta_kinks"),
    ("numerics", "expectation_2d_adaptive", "rtol"),
    ("analytic", "rnn_lipschitz", "act"),
    ("features", "empirical_lipschitz", "fm"),
    ("experiments", "quantile_sweep", "cfg"),
    ("kernels", "sample_weights", "n"),
])
def test_argument_names_the_benchmark_reads(module, function, argument):
    fn = getattr(importlib.import_module(f"kerlip.{module}"), function)
    assert argument in inspect.signature(fn).parameters, BENCH_READS


def test_results_the_benchmark_reads():
    from kerlip.kernels import BiasDistribution
    from kerlip.numerics import expectation_2d_adaptive, maximize_scalar

    value, error = expectation_2d_adaptive(lambda z, b: z * z + 0 * b, 1.0,
                                           BiasDistribution.point_mass(), rtol=1e-8)
    assert isinstance(value, float) and error < 1e-8, BENCH_READS
    result = maximize_scalar(lambda t: -(t - 0.3) ** 2, (0.0, 1.0), 1e-6)
    assert result.evaluations > 0, BENCH_READS


def test_no_module_imports_another_modules_private_names():
    package = Path(importlib.import_module("kerlip").__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "kerlip")
            if internal:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_sweep_calls_the_estimator_by_feature_count(monkeypatch):
    # The trace keys features.empirical_lipschitz by (fm.d, fm.n_features).
    from kerlip import experiments
    from kerlip.features import default_grid_1d
    from kerlip.kernels import gaussian_kernel

    seen = []
    estimator = experiments.empirical_lipschitz

    def spy(fm, grid):
        seen.append((fm.d, fm.n_features))
        return estimator(fm, grid)

    monkeypatch.setattr(experiments, "empirical_lipschitz", spy)
    cfg = experiments.QuantileSweepConfig.from_shift_invariant(
        gaussian_kernel(np.eye(1)), n_list=(16, 256, 1024), realizations=20, delta=0.9,
        grid=default_grid_1d(), seed=0)
    experiments.quantile_sweep(cfg)
    assert seen and set(seen) == {(1, 16), (1, 256), (1, 1024)}, BENCH_READS
