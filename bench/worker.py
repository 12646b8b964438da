"""One benchmark process: set up a workload, run it, check its outputs.

Started by ``run.py``; prints one JSON object as its last line.  Modes:

* ``setup``: time the set-up alone (imports, inputs, reference constants
  and one warm-up pass) and exit;
* ``run``: set up, run whole rounds of the workload for ``--seconds``,
  then check every output;
* ``trace``: set up all three workloads, run each operation once
  untraced and once traced, run the d=1 sweeps at one and two threads,
  check everything and report the per-layer metrics.

OpenBLAS and OpenMP get one thread before numpy is imported: a second
BLAS thread overcommits a 2-core machine and makes times unsteady.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))


def set_up(name, seed):
    """Build and warm a workload; returns it and the seconds this took,
    counted from before ``import kerlip``."""
    start = time.perf_counter()
    import workloads  # imports kerlip, numpy and scipy.special

    workload = workloads.build(name, seed, OUT_DIR)
    workload.warm_up()
    return workload, time.perf_counter() - start


def timed(op, tracer=None):
    """Runs one operation; returns its output (or the exception it raised)
    and its wall time."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = op.run()
        else:
            with tracer.span(f"bench.{op.name}"):
                output = op.run()
    except Exception as exc:  # a raising operation fails its check
        output = exc
    return output, time.perf_counter() - start


def run_rounds(workload, seconds):
    """Whole rounds of the workload's operations for about ``seconds``: a
    new round starts only if it would end nearer to the deadline than
    stopping now (there is at least one round).  Returns
    ``[(outputs by name, times), ...]``."""
    begin = time.perf_counter()
    rounds = []
    while True:
        outputs, times = {}, []
        for op in workload.ops:
            outputs[op.name], seconds_taken = timed(op)
            times.append(seconds_taken)
        rounds.append((outputs, times))
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def paired_round(workload, tracer):
    """One untraced and one traced round, each operation run untraced and
    then traced back to back, so both see the same machine load."""
    plain, traced = ({}, []), ({}, [])
    for op in workload.ops:
        for (outputs, times), active in ((plain, None), (traced, tracer)):
            with tracer.installed() if active else contextlib.nullcontext():
                outputs[op.name], seconds_taken = timed(op, active)
            times.append(seconds_taken)
    return [plain, traced]


def check_rounds(workload, rounds):
    """Checks every output; returns ``(failed, correct)``.

    An output equal to the first one checked for the same operation shares
    its verdict.  ``correct`` is false when an operation without a named
    fault fails.
    """
    verdicts = {}
    failed = 0
    correct = True
    for outputs, _ in rounds:
        for op in workload.ops:
            output = outputs[op.name]
            first = verdicts.get(op.name)
            if first is not None and first[0] == output:
                reason = first[1]
            else:
                reason = _verdict(op, output, outputs)
                if first is None:
                    verdicts[op.name] = (output, reason)
                    if reason:
                        label = f"known fault: {op.known_fault}" if op.known_fault else "FAILED"
                        print(f"{workload.name}/{op.name}: {label}: {reason}", file=sys.stderr)
            if reason:
                failed += 1
                correct &= bool(op.known_fault)
    return failed, correct


def _verdict(op, output, outputs):
    if isinstance(output, Exception):
        return f"raised {output!r}"
    try:
        return op.check(output, outputs)
    except Exception as exc:  # a check that cannot read the output rejects it
        return f"check raised {exc!r}"


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ops_per_s(workload, rounds):
    """Operations per second from the per-operation median time of the run."""
    per_round = sum(statistics.median(times[i] for _, times in rounds)
                    for i in range(len(workload.ops)))
    return len(workload.ops) / per_round


def mode_setup(args):
    _, setup_s = set_up(args.workload, args.seed)
    return {"setup_s": setup_s}


def mode_run(args):
    workload, setup_s = set_up(args.workload, args.seed)
    rounds = run_rounds(workload, args.seconds)
    rss = peak_rss_mib()
    failed, correct = check_rounds(workload, rounds)
    return {"correct": correct, "attempted": len(rounds) * len(workload.ops),
            "failed": failed, "setup_s": setup_s, "ops_per_s": ops_per_s(workload, rounds),
            "peak_rss_mib": rss}


def _bits(rows):
    return [(r.N, r.quantile_index, *(float(v).hex() for v in
                                      (r.t_hat, r.lip_hat_mean, r.lip_hat_sd))) for r in rows]


def mode_trace(args):
    from dataclasses import replace

    import tracing
    import workloads
    from kerlip import experiments

    loaded = {name: set_up(name, args.seed)[0] for name in workloads.NAMES}
    tracer = tracing.Tracer()
    plain_s, traced_s = {}, {}
    attempted = failed = 0
    correct = True
    for name, workload in loaded.items():
        tracer.phase = name
        rounds = paired_round(workload, tracer)
        plain_s[name], traced_s[name] = sum(rounds[0][1]), sum(rounds[1][1])
        n_failed, ok = check_rounds(workload, rounds)
        correct &= ok
        if name == args.workload:
            attempted, failed = 2 * len(workload.ops), n_failed

    tracer.phase = "threads"
    with tracer.installed():
        for name, cfg in loaded["sweep"].sweep_configs.items():
            one = experiments.quantile_sweep(replace(cfg, threads=1))
            two = experiments.quantile_sweep(replace(cfg, threads=2))
            if _bits(one) != _bits(two):
                print(f"sweep/{name}: threads=2 rows differ from threads=1", file=sys.stderr)
                correct = False

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": tracing.layer_metrics(tracer.spans, plain_s, traced_s)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=("exact", "sweep", "montecarlo"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    mode = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}[args.mode]
    print(json.dumps(mode(args)), flush=True)


if __name__ == "__main__":
    main()
