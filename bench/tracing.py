"""Spans around the calls into kerlip's six modules, made from outside.

``Tracer.installed()`` replaces every public function of ``numerics``,
``kernels``, ``analytic``, ``features``, ``experiments`` and ``cli`` (and
``RandomFeatureMap.evaluate_batch``) by a wrapper that records a span, in
every namespace that binds the function: ``experiments`` imports
``build_feature_map``, ``empirical_lipschitz`` and ``derive_seed`` by
name, ``analytic`` imports ``sample_weights``, and the package re-exports
most of them.  Leaving the context restores the originals.  Nothing under
``src/`` is edited.

``layer_metrics`` turns the spans of one traced round of each workload into
the per-layer metrics listed in ``PER_LAYER``.
"""

import contextlib
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "kernels", "analytic", "features", "experiments", "cli")

# (name, unit, better).  BENCHMARK.json lists the same metrics.
PER_LAYER = (
    ("numerics.expectation_2d.calls", "count", "lower"),
    ("numerics.expectation_2d.self_s", "s", "lower"),
    ("numerics.expectation_2d.kinked_us_per_call", "us", "lower"),
    ("numerics.expectation_2d.smooth_us_per_call", "us", "lower"),
    ("numerics.ladder.rungs_per_call", "count", "lower"),
    ("numerics.ladder.unconverged", "count", "lower"),
    ("numerics.maximize_scalar.evaluations", "count", "lower"),
    ("numerics.maximize_scalar.self_s", "s", "lower"),
    ("numerics.spectral_norm.calls", "count", "lower"),
    ("numerics.spectral_norm.us_per_call", "us", "lower"),
    ("kernels.derive_seed.calls", "count", "lower"),
    ("kernels.derive_seed.us_per_call", "us", "lower"),
    ("kernels.sample_weights.rows", "count", "lower"),
    ("kernels.sample_weights.rows_per_s", "1/s", "higher"),
    ("kernels.kappa_eval.calls", "count", "lower"),
    ("analytic.rnn_lipschitz.cos_s", "s", "lower"),
    ("analytic.rnn_lipschitz.relu_s", "s", "lower"),
    ("analytic.rnn_lipschitz.tanh_s", "s", "lower"),
    ("analytic.alpha_beta.s", "s", "lower"),
    ("analytic.variance_decomposition_check.mc_s", "s", "lower"),
    ("analytic.hessian_lipschitz_oracle.us_per_call", "us", "lower"),
    ("features.empirical_lipschitz.us_per_call.N16", "us", "lower"),
    ("features.empirical_lipschitz.us_per_call.N256", "us", "lower"),
    ("features.empirical_lipschitz.us_per_call.N1024", "us", "lower"),
    ("features.empirical_lipschitz.us_per_call.d2_N256", "us", "lower"),
    ("features.build_feature_map.us_per_call", "us", "lower"),
    ("features.evaluate_batch.s", "s", "lower"),
    ("experiments.quantile_sweep.self_s", "s", "lower"),
    ("experiments.kernel_convergence_sweep.s", "s", "lower"),
    ("experiments.thread_speedup", "ratio", "higher"),
    ("experiments.thread_speedup.threads1_s", "s", "lower"),
    ("experiments.thread_speedup.threads2_s", "s", "lower"),
    ("cli.main.overhead_s", "s", "lower"),
    ("trace.overhead_pct.exact", "%", "lower"),
    ("trace.overhead_pct.sweep", "%", "lower"),
    ("trace.overhead_pct.montecarlo", "%", "lower"),
)


class Span:
    __slots__ = ("id", "parent", "name", "phase", "start", "end", "ok", "info")

    def __init__(self, id_, parent, name, phase):
        self.id, self.parent, self.name, self.phase = id_, parent, name, phase
        self.start = self.end = 0.0
        self.ok = False
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


# What a span records besides its times, read from the call's arguments and
# return value.  Each takes (bound arguments, result).
def _kinked(a, _):
    return a.get("zeta_kinks") is not None


def _ladder(a, result):
    return {"error": float(result[1]), "rtol": a["rtol"]}


INFO = {
    "numerics.expectation_2d": _kinked,
    "numerics.expectation_2d_adaptive": _ladder,
    "numerics.maximize_scalar": lambda a, r: r.evaluations,
    "kernels.sample_weights": lambda a, r: int(a["n"]),
    "analytic.rnn_lipschitz": lambda a, r: a["act"].name,
    "features.empirical_lipschitz": lambda a, r: [a["fm"].d, a["fm"].n_features],
    "experiments.quantile_sweep": lambda a, r: a["cfg"].threads,
}


class Tracer:
    """Records spans, with their parent on the same thread, in memory."""

    def __init__(self):
        self.spans = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name, self.phase)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
            span.ok = True
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name, fn):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if info:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = info(bound.arguments, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _find_patches(self):
        package = importlib.import_module("kerlip")
        modules = {layer: importlib.import_module(f"kerlip.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        patches = []
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    patches += [(ns, name, obj, wrapper)
                                for name, value in list(vars(ns).items()) if value is obj]
        feature_map = modules["features"].RandomFeatureMap
        original = feature_map.evaluate_batch
        patches.append((feature_map, "evaluate_batch", original,
                        self.wrap("features.evaluate_batch", original)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)
        try:
            yield self
        finally:
            for ns, name, original, _ in self._patches:
                setattr(ns, name, original)


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def layer_metrics(spans, round_seconds, traced_seconds):
    """Per-layer metrics from the spans of one traced round of each workload
    (phases named after the workloads) and of the ``threads`` phase, which
    runs the same sweeps at one and at two threads.

    ``round_seconds`` and ``traced_seconds`` map each workload to the wall
    time of its untraced and traced round, which gives the tracing overhead.
    """
    rounds = [s for s in spans if s.phase in round_seconds]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    by_name = defaultdict(list)
    for s in rounds:
        by_name[s.name].append(s)

    def self_time(s):
        return s.duration - sum(c.duration for c in children[s.id])

    def library_time(s):
        """Time under ``s`` spent in modules other than cli."""
        return sum(library_time(c) if c.name.startswith("cli.") else c.duration
                   for c in children[s.id])

    def us_per_call(spans_, keep=lambda s: True):
        return 1e6 * _mean([s.duration for s in spans_ if s.ok and keep(s)])

    # Quadrature counts come from exact alone: its inputs do not depend on
    # the seed, while montecarlo's alpha_beta radius does.
    e2d = [s for s in by_name["numerics.expectation_2d"] if s.phase == "exact"]
    ladders = [s for s in by_name["numerics.expectation_2d_adaptive"] if s.phase == "exact"]
    rungs = sum(1 for s in ladders for c in children[s.id] if c.name == "numerics.expectation_2d")
    samples = by_name["kernels.sample_weights"]
    rnn = by_name["analytic.rnn_lipschitz"]
    variance = by_name["analytic.variance_decomposition_check"]
    threads1, threads2 = (sum(s.duration for s in spans if s.phase == "threads"
                              and s.name == "experiments.quantile_sweep" and s.info == n)
                          for n in (1, 2))

    values = {
        "numerics.expectation_2d.calls": len(e2d),
        "numerics.expectation_2d.self_s": sum(self_time(s) for s in e2d),
        "numerics.expectation_2d.kinked_us_per_call":
            us_per_call(e2d, lambda s: s.info),
        "numerics.expectation_2d.smooth_us_per_call":
            us_per_call(e2d, lambda s: not s.info),
        "numerics.ladder.rungs_per_call": rungs / len(ladders) if ladders else float("nan"),
        "numerics.ladder.unconverged":
            sum(1 for s in ladders if not s.info["error"] < s.info["rtol"]),
        "numerics.maximize_scalar.evaluations":
            sum(s.info for s in by_name["numerics.maximize_scalar"]),
        "numerics.maximize_scalar.self_s":
            sum(self_time(s) for s in by_name["numerics.maximize_scalar"]),
        "numerics.spectral_norm.calls": len(by_name["numerics.spectral_norm"]),
        "numerics.spectral_norm.us_per_call": us_per_call(by_name["numerics.spectral_norm"]),
        "kernels.derive_seed.calls": len(by_name["kernels.derive_seed"]),
        "kernels.derive_seed.us_per_call": us_per_call(by_name["kernels.derive_seed"]),
        "kernels.sample_weights.rows": sum(s.info for s in samples),
        "kernels.sample_weights.rows_per_s":
            sum(s.info for s in samples) / sum(s.duration for s in samples),
        "kernels.kappa_eval.calls": len(by_name["kernels.kappa_eval"]),
        **{f"analytic.rnn_lipschitz.{act}_s": _mean([s.duration for s in rnn if s.info == act])
           for act in ("cos", "relu", "tanh")},
        "analytic.alpha_beta.s": sum(s.duration for s in by_name["analytic.alpha_beta"]),
        "analytic.variance_decomposition_check.mc_s":
            sum(s.duration - sum(c.duration for c in children[s.id]
                                 if c.name == "analytic.alpha_beta") for s in variance),
        "analytic.hessian_lipschitz_oracle.us_per_call":
            us_per_call(by_name["analytic.hessian_lipschitz_oracle"]),
        **{f"features.empirical_lipschitz.us_per_call.{label}":
           us_per_call(by_name["features.empirical_lipschitz"], lambda s, key=key: s.info == key)
           for label, key in (("N16", [1, 16]), ("N256", [1, 256]), ("N1024", [1, 1024]),
                              ("d2_N256", [2, 256]))},
        "features.build_feature_map.us_per_call":
            us_per_call(by_name["features.build_feature_map"]),
        "features.evaluate_batch.s": sum(s.duration for s in by_name["features.evaluate_batch"]),
        "experiments.quantile_sweep.self_s":
            sum(self_time(s) for s in by_name["experiments.quantile_sweep"] if s.info == 1),
        "experiments.kernel_convergence_sweep.s":
            sum(s.duration for s in by_name["experiments.kernel_convergence_sweep"]),
        "experiments.thread_speedup": threads1 / threads2 if threads2 else float("nan"),
        "experiments.thread_speedup.threads1_s": threads1,
        "experiments.thread_speedup.threads2_s": threads2,
        "cli.main.overhead_s":
            sum(s.duration - library_time(s) for s in by_name["cli.main"]),
        **{f"trace.overhead_pct.{name}": 100.0 * (traced_seconds[name] / seconds - 1.0)
           for name, seconds in round_seconds.items()},
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
