"""What a fresh kerlip process loads, and the benchmark's cold set-up.

kerlip never imports scipy: ``scipy.special`` alone costs more start-up
time and memory than numpy and kerlip together, and every Matern kernel,
in ``kappa_eval``, the Hessian oracle and ``crosscheck``, is read off its
Gamma-mixture form.  Each check here runs in a new interpreter, since this
one may already hold scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Representative calls, every Matern route among them, in a process where
# importing scipy raises.  Prints the exit codes and the scipy modules loaded.
SCRIPT = """
import contextlib, io, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np

import kerlip
from kerlip import analytic, cli, experiments
from kerlip.experiments import QuantileSweepConfig

gaussian = kerlip.BiasDistribution.gaussian(1.0)
kernel_1d = kerlip.gaussian_kernel(np.eye(1))
analytic.rnn_lipschitz(kerlip.relu(), 1.0, gaussian)
analytic.variance_decomposition_check(kerlip.relu(), 1.0, gaussian, np.array([0.6, 0.8]),
                                      np.array([1.0, 0.0]), mc_samples=10_000, seed=0)
experiments.quantile_sweep(QuantileSweepConfig.from_shift_invariant(
    kernel_1d, n_list=(16,), realizations=4, delta=0.9, grid=kerlip.default_grid_1d(),
    seed=1))
experiments.kernel_convergence_sweep(kernel_1d, [16, 32], [((0.0,), (0.5,))], 0)
for nu in (2.0, 200.0):
    analytic.hessian_lipschitz_oracle(kerlip.matern_kernel(nu, np.eye(2)))
kerlip.kappa_eval(kerlip.matern_kernel(2.0, np.eye(2)), np.array([0.3, 0.4]))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analytic"]),
             cli.main(["shift-invariant", "--kernel", "matern", "--nu", "2"]),
             cli.main(["crosscheck", "--kernel", "matern", "--nu", "2"]),
             cli.main(["crosscheck", "--kernel", "matern", "--nu", "200", "--dim", "2"]),
             cli.main(["kernel-convergence", "--kernel", "matern", "--nu", "2.5",
                       "--output", "nu2.5.csv"]),
             cli.main(["kernel-convergence", "--kernel", "matern", "--nu", "200",
                       "--output", "nu200.csv"])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _run(argv, **kwargs):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300, **kwargs)


def test_kerlip_never_imports_scipy(tmp_path):
    proc = _run(["-c", SCRIPT], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    assert result["scipy"] == []


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


# exact's warm-up runs outside the benchmark's per-operation try, so a
# change that makes it raise stops the worker before any operation runs.
@pytest.mark.parametrize("workload", ["exact", "sweep", "montecarlo"])
def test_benchmark_setup_runs(workload, tmp_path):
    proc = _run([str(ROOT / "bench" / "worker.py"), "--mode", "setup", "--workload", workload,
                 "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert math.isfinite(result["setup_s"]) and result["setup_s"] > 0
