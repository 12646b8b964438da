"""kerlip benchmark: run one workload and print its result as one JSON line.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics ``ops_per_s``,
``setup_s`` and ``peak_rss_mib``; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The work runs in child processes
(``worker.py``) so that every set-up is timed from a cold interpreter;
``setup_s`` is the median of ``SETUP_SAMPLES`` of them.  This file
imports nothing outside the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact", "sweep", "montecarlo")
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # the whole run, every child included

UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def _worker(mode, args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    command = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker --mode {mode} ran past the {BUDGET_S:g} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker --mode {mode} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker --mode {mode} printed no result")
    return json.loads(lines[-1])


def run(args):
    if not (ROOT / "src" / "kerlip" / "__init__.py").is_file():
        raise BenchError(f"no kerlip sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        result = _worker("trace", args, deadline)
        return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    setups = [_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = _worker("run", args, deadline)
    result["setup_s"] = statistics.median([*setups, result["setup_s"]])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result[name], "unit": unit}
                        for name, unit in UNITS.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
