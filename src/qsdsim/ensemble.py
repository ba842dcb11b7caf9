"""Deterministic execution of trajectory ensembles.

The work is split into fixed-size index chunks, run one after another by
the chunk runner of :mod:`qsdsim.noise` (``noise.run_chunks``): each chunk
spawns the streams of its indices together (``noise.spawn``, whose streams
are bit-identical to ``NoiseStream(seed, i)``) and returns its values, the
draws of its streams and its task's counts, and results are reduced in
chunk order.  Trajectory i draws only from its own stream, so a run is
bitwise reproducible across reruns.  The chunk size fixes the bits of a jump
run, whose batches gather the rows still active, and no bit of a diffusive
one.  A heavy chunk of a task that gives its row cost runs half in a forked
child, with the bits of the unsplit chunk.  The first chunk that fails
stops the run.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import complex_standard_error
from .noise import _CHUNK, run_chunks

__all__ = [
    "EnsembleResult",
    "BenchmarkPoint",
    "EnsembleError",
    "run_ensemble",
    "relative_rms_error",
    "benchmark_sweep",
]


class EnsembleError(RuntimeError):
    """A trajectory chunk failed: ``trajectories`` is its index range
    (lo, hi) and ``error`` the exception it raised."""

    def __init__(self, lo: int, hi: int, error: Exception):
        self.trajectories = (lo, hi)
        self.error = error
        super().__init__(
            f"ensemble execution failed for trajectories [{lo}, {hi}): "
            f"{type(error).__name__}: {error}"
        )


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble mean series with statistical errors and run accounting.

    ``std_error[k]`` follows the complex 2-vector convention:
    sqrt((var Re + var Im) / n) of the per-trajectory values at node k,
    which ``samples`` holds as an (n, nodes) array.  ``extras`` holds the
    tasks' counts, summed over chunks.
    """

    grid: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n: int
    method: str
    wall_time_seconds: float
    draws_total: int
    samples: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkPoint:
    """One (method, ensemble size) benchmark measurement."""

    method: str
    n: int
    rms_relative_error: float
    est_std: float
    wall_time_seconds: float
    draws_total: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("rms_relative_error", "est_std", "wall_time_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def run_ensemble(
    task,
    n: int,
    seed: int,
    grid=None,
    method: str = "",
    chunk_size: int = _CHUNK,
    row_cost: int = 0,
) -> EnsembleResult:
    """Run ``task`` over ``n`` trajectories and reduce to mean and error.

    ``task(streams)`` receives the streams for one contiguous index chunk
    and must return ``(values, counts)``: a complex array of shape
    (len(streams), n_nodes), drawing all its randomness from the given
    streams, and a dict of integer counts, which are summed key by key in
    chunk order into ``extras``.  Chunks run serially in index order.
    ``row_cost``, one row's complex multiply-adds per step, lets a heavy
    chunk split between two processes; a task whose values depend on its
    batch (a jump task) passes 0 and never splits.  The first chunk that
    raises stops the run with an :class:`EnsembleError` naming its index
    range.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    start = time.perf_counter()
    samples, extras, draws = run_chunks(task, n, seed, row_cost, chunk_size, EnsembleError)
    mean = samples.mean(axis=0)
    std_error = np.array(
        [complex_standard_error(samples[:, k]) for k in range(samples.shape[1])]
    )
    wall = time.perf_counter() - start
    out_grid = np.arange(samples.shape[1], dtype=float) if grid is None else np.asarray(grid, dtype=float)
    if out_grid.size != samples.shape[1]:
        raise ValueError(
            f"grid length {out_grid.size} does not match task output width {samples.shape[1]}"
        )
    return EnsembleResult(
        grid=out_grid,
        mean=mean,
        std_error=std_error,
        n=n,
        method=method,
        wall_time_seconds=wall,
        draws_total=draws,
        samples=samples,
        extras=extras,
    )


def relative_rms_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """sqrt(sum |est - ref|^2 / sum |ref|^2) over a common grid."""
    est = np.asarray(estimate)
    ref = np.asarray(reference)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = float(np.sum(np.abs(ref) ** 2))
    if denom == 0.0:
        raise ValueError("reference series is identically zero")
    return float(np.sqrt(np.sum(np.abs(est - ref) ** 2) / denom))


def benchmark_sweep(
    runner,
    reference: np.ndarray,
    n_list,
    methods,
    seed: int,
) -> list[BenchmarkPoint]:
    """Accuracy/cost sweep over ensemble sizes for each method.

    ``runner(method, n, seed)`` must return an :class:`EnsembleResult` on the
    same grid as ``reference``.  Each (method, n) point gets its own derived
    seed so the points are statistically independent.  ``est_std`` is the
    aggregated statistical error sqrt(sum se^2) normalized like the rms
    error, so the two columns are directly comparable.
    """
    ref = np.asarray(reference)
    denom = np.sqrt(float(np.sum(np.abs(ref) ** 2)))
    if denom == 0.0:
        raise ValueError("reference series is identically zero")
    points = []
    salt = 0
    for method in methods:
        for n in n_list:
            res = runner(method, int(n), seed + 7919 * salt)
            salt += 1
            points.append(
                BenchmarkPoint(
                    method=method,
                    n=res.n,
                    rms_relative_error=relative_rms_error(res.mean, ref),
                    est_std=float(np.sqrt(np.sum(res.std_error**2))) / denom,
                    wall_time_seconds=res.wall_time_seconds,
                    draws_total=res.draws_total,
                )
            )
    return points
