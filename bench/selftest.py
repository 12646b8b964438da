"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

It runs one round of every workload and requires that only the named
faults fail; it perturbs every output (a constant off by 1e-3, swapped
sweep rows, a swapped CSV line, a Monte-Carlo side moved by ten standard
errors, ...) and requires each check to reject it; it runs the traced run
and one untraced run through ``run.py`` and checks their JSON against
BENCHMARK.json; and it requires ``run.py`` to fail without a result in a
directory that holds only the benchmark.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import worker  # sets one BLAS thread before numpy is imported

import numpy as np  # noqa: E402

from kerlip.analytic import LipschitzReport, VarianceCheck  # noqa: E402
from kerlip.experiments import SweepRow  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def perturbations(output):
    """Wrong variants of a correct output."""
    if isinstance(output, LipschitzReport):
        yield replace(output, value=output.value * (1.0 + 1e-3))
    elif isinstance(output, float):
        yield output * (1.0 + 1e-3)
    elif isinstance(output, tuple) and isinstance(output[0], LipschitzReport):
        covariance, oracle = output
        if isinstance(oracle, LipschitzReport):
            yield covariance, replace(oracle, value=oracle.value * (1.0 + 1e-3))
            yield replace(covariance, value=covariance.value * (1.0 + 1e-3)), oracle
        else:  # divergent kernel: the oracle must refuse and the value be infinite
            yield covariance, LipschitzReport(1.0, "thm41-hessian-fd")
            yield LipschitzReport(1.0, "thm41-covariance"), oracle
    elif isinstance(output, list) and isinstance(output[0], SweepRow):
        yield [output[1], output[0], *output[2:]]
        yield [*output[:-1], replace(output[-1], lip_hat_mean=output[-1].lip_hat_mean + 1e-9)]
        yield [*output[:-1], replace(output[-1], t_hat=output[-1].t_hat + 1e-9)]
    elif isinstance(output, tuple) and isinstance(output[1], bytes):
        code, data = output
        lines = data.decode().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        yield code, ("\n".join(lines) + "\n").encode()
        yield 4, data
    elif isinstance(output, VarianceCheck):
        yield replace(output, lhs=output.rhs + 10.0 * output.lhs_stderr)
        yield replace(output, rhs=output.rhs * (1.0 + 1e-3), lhs=output.rhs * (1.0 + 1e-3))
    elif isinstance(output, list) and isinstance(output[0], list):
        first = list(output[0])
        n, err = first[-1]
        first[-1] = (n, err * (1.0 + 1e-3))
        yield [first, *output[1:]]
    else:
        fail(f"no perturbation for output {type(output).__name__}")


def test_rounds_and_checks():
    import workloads

    for name in workloads.NAMES:
        workload, _ = worker.set_up(name, SEED)
        rounds = worker.run_rounds(workload, 0.0)
        failed, correct = worker.check_rounds(workload, rounds)
        known = sum(1 for op in workload.ops if op.known_fault)
        if not correct or failed != known:
            fail(f"{name}: {failed} failures, {known} named faults, correct={correct}")
        outputs = rounds[0][0]
        rejected = 0
        for op in workload.ops:
            if op.known_fault:
                continue
            for wrong in perturbations(outputs[op.name]):
                if worker._verdict(op, wrong, {**outputs, op.name: wrong}) is None:
                    fail(f"{name}/{op.name}: the check accepted a perturbed output")
                rejected += 1
        print(f"selftest: {name}: {len(workload.ops)} operations, {failed} named faults, "
              f"{rejected} perturbed outputs rejected", flush=True)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=200)


def test_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", "montecarlo", "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace))
        if proc.returncode != 0:
            fail(f"run.py --trace {trace} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail(f"run.py --trace {trace}: keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
            fail(f"run.py --trace {trace}: {result}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"run.py --trace {trace}: metrics {got} differ from BENCHMARK.json {expected}")
        bad = [name for name, m in result["metrics"].items() if not np.isfinite(m["value"])]
        if bad:
            fail(f"run.py --trace {trace}: non-finite metrics {bad}")
        print(f"selftest: run.py --trace {trace}: {len(got)} metrics match BENCHMARK.json",
              flush=True)


def test_fails_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"run.py without sources exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"selftest: run.py without sources exits {proc.returncode} with no result", flush=True)


if __name__ == "__main__":
    test_rounds_and_checks()
    test_run_py()
    test_fails_without_sources()
    print("selftest: OK")
