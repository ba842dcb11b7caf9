"""Deterministic execution of trajectory ensembles.

The work is split into fixed-size index chunks, run one after another: each
chunk spawns the streams of its indices together (``noise.spawn``, whose
streams are bit-identical to ``NoiseStream(seed, i)``) and returns its
values, the draws of its streams and its task's counts, and results are
reduced in chunk order.  Trajectory i draws only from its own stream, and
the chunk size alone fixes the batch widths the engines see, so a run is
bitwise reproducible across reruns.  The width matters because BLAS rounds
the columns of its kernel's column remainder differently; a chunk that
``QsdEngine`` splits between two processes at a multiple of 64 rows keeps
every bit.  The first chunk that fails stops the run.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import complex_standard_error
from .noise import _CHUNK, spawn

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
) -> EnsembleResult:
    """Run ``task`` over ``n`` trajectories and reduce to mean and error.

    ``task(streams)`` receives the streams for one contiguous index chunk
    and must return ``(values, counts)``: a complex array of shape
    (len(streams), n_nodes), drawing all its randomness from the given
    streams, and a dict of integer counts, which are summed key by key in
    chunk order into ``extras``.  Chunks run serially in index order; their
    boundaries are fixed by ``chunk_size`` alone, which therefore fixes the
    last bits of the result.  The first chunk that raises stops the run with
    an :class:`EnsembleError` naming its index range.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    start = time.perf_counter()
    values, draws, extras = [], 0, {}
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        try:
            streams = spawn(seed, lo, hi)
            out = task(streams)
            if not (isinstance(out, tuple) and len(out) == 2):
                raise TypeError(f"task returned {type(out).__name__}, expected (values, counts)")
            chunk = np.asarray(out[0])
            if chunk.ndim != 2 or chunk.shape[0] != hi - lo:
                raise ValueError(
                    f"task returned shape {chunk.shape}, expected ({hi - lo}, n_nodes)"
                )
        except Exception as err:  # noqa: BLE001 - re-raised with the chunk's range
            raise EnsembleError(lo, hi, err) from err
        values.append(chunk)
        draws += sum(s.draws for s in streams)
        del streams  # free this chunk's generators before the next are built
        for key, count in out[1].items():
            extras[key] = extras.get(key, 0) + count

    samples = np.concatenate(values, axis=0)
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
