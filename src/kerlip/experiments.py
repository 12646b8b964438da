"""Monte-Carlo harness for the quantile-convergence and kernel-approximation studies.

Sweeps are embarrassingly parallel over realizations; determinism is
guaranteed by per-index derived seeds, so the worker count never changes
the output.
"""

import contextlib
import json
import math
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .errors import ExperimentIOError, InvalidConfigurationError
from .features import RandomFeatureMap, build_feature_map, empirical_lipschitz
from .kernels import (
    Activation,
    BiasDistribution,
    ShiftInvariantKernel,
    WeightDistribution,
    derive_seed,
    kappa_eval,
    scaled_cosine,
)

__all__ = [
    "QuantileSweepConfig",
    "SweepRow",
    "quantile_sweep",
    "kernel_convergence_sweep",
    "write_csv",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = "N,t_hat,quantile_index,lip_hat_mean,lip_hat_sd"


@dataclass(frozen=True, eq=False)
class QuantileSweepConfig:
    """Configuration of one quantile-convergence sweep.

    ``lip_reference`` is the analytic Lipschitz constant that the
    empirical estimates are compared against; it must be finite.
    """

    activation: Activation
    weight_dist: WeightDistribution
    bias_dist: BiasDistribution
    n_list: tuple[int, ...]
    realizations: int
    delta: float
    grid: np.ndarray = field(repr=False)
    seed: int
    lip_reference: float
    nested: bool = False
    threads: int = 1

    def __post_init__(self):
        n_list = tuple(int(n) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
            raise InvalidConfigurationError(
                f"n_list must be nonempty and strictly increasing, got {n_list}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if not math.isfinite(self.lip_reference):
            raise InvalidConfigurationError(
                "lip_reference must be finite; divergent feature maps have no "
                "quantile curve")
        if self.realizations < 1:
            raise InvalidConfigurationError(
                f"realizations must be >= 1, got {self.realizations}")
        if self.threads < 1:
            raise InvalidConfigurationError(f"threads must be >= 1, got {self.threads}")

    @staticmethod
    def from_shift_invariant(kernel: ShiftInvariantKernel, **kwargs) -> "QuantileSweepConfig":
        """Cosine-feature sweep for a shift-invariant kernel."""
        from .analytic import shift_invariant_lipschitz

        report = shift_invariant_lipschitz(kernel)
        if math.isinf(report.value):
            raise InvalidConfigurationError(
                "kernel is divergent; no finite Lipschitz reference exists")
        kwargs.setdefault("lip_reference", report.value)
        return QuantileSweepConfig(
            activation=scaled_cosine(),
            weight_dist=kernel.spectral,
            bias_dist=BiasDistribution.uniform(0.0, 2.0 * np.pi),
            **kwargs)


@dataclass(frozen=True)
class SweepRow:
    """Summary of one feature count ``N`` in a quantile sweep."""

    N: int
    t_hat: float
    quantile_index: int
    lip_hat_mean: float
    lip_hat_sd: float


#: Bytes of the weights and biases that one block of realizations is drawn
#: into.  Each worker allocates its buffers once per ``N``.
_BLOCK_BYTES = 256 * 1024


def _lipschitz_values(cfg: QuantileSweepConfig, n: int, mapper) -> np.ndarray:
    """Grid Lipschitz estimates of the ``cfg.realizations`` maps of ``n`` features.

    Realization ``i`` draws from ``derive_seed(cfg.seed, n, i)``, or from
    ``derive_seed(cfg.seed, i)`` when nested, as ``build_feature_map``
    would.  One vectorised pass seeds every realization, and the
    realizations go in blocks: another pass keys a block's Philox streams,
    each map is drawn into the block's buffers, and one
    ``empirical_lipschitz`` call takes the whole stack.
    """
    dist, bias, total = cfg.weight_dist, cfg.bias_dist, cfg.realizations
    size = min(total, max(1, _BLOCK_BYTES // (8 * n * (dist.d + 1))))
    starts = range(0, total, size)
    seeds = kernels._derive_seeds(cfg.seed, () if cfg.nested else (n,), range(total))
    free = queue.SimpleQueue()
    for _ in range(min(cfg.threads, len(starts))):
        free.put((np.empty((size, n, dist.d)), np.empty((size, n)), None))

    def block(lo: int) -> np.ndarray:
        count = min(size, total - lo)
        keys = kernels._stream_keys(seeds[lo:lo + count], dist, bias)
        w, b, streams = free.get()
        try:
            for j in range(count):
                streams = kernels._keyed_streams(keys, j, streams)
                for _ in kernels._draw_blocks(dist, bias, n, streams, w[j], b[j]):
                    pass
            maps = RandomFeatureMap(w[:count], b[:count], cfg.activation)
            return empirical_lipschitz(maps, cfg.grid)[0]
        finally:
            free.put((w, b, streams))

    return np.concatenate(list(mapper(block, starts)))


def quantile_sweep(cfg: QuantileSweepConfig,
                   log_path: Optional[str] = None) -> list[SweepRow]:
    """Empirical quantile of the Lipschitz gap for each feature count.

    For each ``N``, draws ``I`` independent feature maps, estimates their
    Lipschitz constants on the grid, and reports the ``ceil(delta I)``-th
    order statistic minus the analytic reference.  The quantile may be
    negative (the grid maximum can undershoot); it is reported signed.
    """
    rows: list[SweepRow] = []
    quantile_index = math.ceil(cfg.delta * cfg.realizations)
    log = open(log_path, "w") if log_path is not None else contextlib.nullcontext()
    with log as log_fh, ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        # Blocks arrive in index order whichever worker ran them.
        mapper = map if cfg.threads == 1 else pool.map
        for n in cfg.n_list:
            values = _lipschitz_values(cfg, n, mapper)
            order = np.sort(values)
            row = SweepRow(
                N=n,
                t_hat=float(order[quantile_index - 1] - cfg.lip_reference),
                quantile_index=quantile_index,
                lip_hat_mean=float(np.mean(values)),
                lip_hat_sd=float(np.std(values)),
            )
            rows.append(row)
            # Loose concentration sanity bound; a violation is worth a look
            # but is expected occasionally at small N, so warn, don't fail.
            if row.lip_hat_mean > cfg.lip_reference + 5.0 * row.lip_hat_sd:
                warnings.warn(
                    f"N={n}: lip_hat_mean {row.lip_hat_mean:.6g} exceeds "
                    f"lip_reference + 5 sd", RuntimeWarning, stacklevel=2)
            if log_fh is not None:
                log_fh.write(json.dumps(row.__dict__) + "\n")
                log_fh.flush()
    return rows


def kernel_convergence_sweep(kernel: ShiftInvariantKernel,
                             n_list: list[int], pair_grid, seed: int
                             ) -> list[tuple[int, float]]:
    """Sup error of the empirical kernel over a pair grid, per feature count.

    Uses common random numbers: one draw at the largest ``N`` and nested
    prefixes for the smaller counts, so the error sequence reflects pure
    Monte-Carlo averaging.
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list or n_list[0] < 1:
        raise InvalidConfigurationError(f"invalid n_list: {n_list}")
    pairs = [(np.atleast_1d(np.asarray(a, dtype=float)),
              np.atleast_1d(np.asarray(b, dtype=float))) for a, b in pair_grid]
    if not pairs:
        raise InvalidConfigurationError("pair_grid must be nonempty")

    n_max = n_list[-1]
    fm = build_feature_map(kernel.spectral, BiasDistribution.uniform(0.0, 2.0 * np.pi),
                           scaled_cosine(), n_max, derive_seed(seed, 0))
    # Each distinct point gets one feature row, however many pairs share it.
    points, which = np.unique(np.stack([p for pair in pairs for p in pair]), axis=0,
                              return_inverse=True)
    which = which.reshape(len(pairs), 2)
    # Unnormalized features: k_N is the mean of the first N products.
    features = fm.evaluate_batch(points) * np.sqrt(n_max)
    partial = features[which[:, 0]]
    partial *= features[which[:, 1]]
    np.cumsum(partial, axis=1, out=partial)
    exact = np.array([kappa_eval(kernel, a - b) for a, b in pairs])

    results = []
    for n in n_list:
        k_n = partial[:, n - 1] / n
        results.append((n, float(np.max(np.abs(k_n - exact)))))
    return results


def write_csv(path, header: str, lines) -> None:
    """Write a header line and data lines as a newline-terminated CSV file."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join([header, *lines]) + "\n")
    except OSError as exc:
        raise ExperimentIOError(f"cannot write {path}: {exc}") from exc


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV with 17-significant-digit floats."""
    if not rows:
        raise ExperimentIOError("rows must be nonempty")
    write_csv(path, SWEEP_CSV_HEADER,
              (f"{row.N},{row.t_hat:.17g},{row.quantile_index},"
               f"{row.lip_hat_mean:.17g},{row.lip_hat_sd:.17g}" for row in rows))
