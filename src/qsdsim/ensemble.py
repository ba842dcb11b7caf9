"""Deterministic execution of trajectory ensembles.

:func:`run_chunks` is the one chunk loop of every ensemble, the
doubled-space estimators' (through :func:`run_ensemble`) and the coupled
pair's (:mod:`qsdsim.gisin`).  The work is split into fixed-size index
chunks, run one after another: each chunk spawns the streams of its indices
together (``noise.spawn``, whose streams are bit-identical to
``NoiseStream(seed, i)``) and returns its values, the draws of its streams
and its task's counts, and results are reduced in chunk order.  Trajectory
i draws only from its own stream, so a run is bitwise reproducible across
reruns.  The chunk size fixes the bits of a jump run, whose batches gather
the rows still active, and no bit of a diffusive one.

A heavy chunk of a task that gives its row cost is split: a forked chunk
worker runs the whole task on the chunk's upper streams while this process
runs it on the lower ones, and the worker sends back its values, counts and
draws in one pickled message (:func:`_halves`), with the bits of the
unsplit chunk.  A split that meets an instability is run again, unsplit, so
a chunk raises what its unsplit run raises.  The first chunk that fails
stops the run.
"""

import os
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InstabilityError
from .noise import spawn

__all__ = [
    "EnsembleResult",
    "BenchmarkPoint",
    "EnsembleError",
    "run_ensemble",
    "complex_standard_error",
    "relative_rms_error",
    "benchmark_sweep",
]

# trajectories stepped together by every ensemble.  It fixes the bits of a
# jump run, whose products gather the rows still active in a round; the
# diffusive engines' bits do not depend on it (tests/test_correlations.py)
_CHUNK = 2048

# a chunk whose rows take at least this many complex multiply-adds per step
# in all (the task's row cost x rows), on at least _SPLIT_MIN_BATCH rows, is
# split with a forked child.  At d = 2 with one channel that is every
# doubled chunk of 512 rows and up (see tools/dscan.py)
_SPLIT_GATE = 2**13
_SPLIT_MIN_BATCH = 128
# the split point is a multiple of this many rows: BLAS rounds a column
# differently only in its kernel's column remainder, which a split at such a
# multiple leaves where it was
_SPLIT_ALIGN = 64


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


def complex_standard_error(samples: np.ndarray) -> float:
    """Standard error of a complex sample mean.

    Treats each value as the 2-vector (Re, Im) and returns
    sqrt((var(Re) + var(Im)) / n) with unbiased componentwise variances;
    zero for a single sample.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        return 0.0
    return float(
        np.sqrt((np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)) / n)
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a forked child may take over part of this process's work:
    fork is available, a second CPU can run the child, and no other thread
    could hold a lock across the fork."""
    return hasattr(os, "fork") and _cpu_count() >= 2 and threading.active_count() == 1


def run_chunks(task, n: int, seed: int, row_cost: int = 0, chunk_size: int = _CHUNK,
               wrap=None):
    """Run ``task`` over trajectories [0, n) in chunks of ``chunk_size``,
    one after another, and return (values, counts, draws).

    ``task(streams)`` receives the streams ``spawn(seed, lo, hi)`` of one
    chunk and returns ``(values, counts)``: an array with one row per
    stream, and a dict of integer counts.  The values of every chunk are
    concatenated in row order, the counts summed key by key and the streams'
    draws summed.  ``row_cost`` is one row's complex multiply-adds per step,
    which decides whether a chunk is split (:func:`_chunk`); 0 keeps
    every chunk in process.  The first chunk that raises stops the run, with
    ``wrap(lo, hi, error)`` raised in place of its error when ``wrap`` is
    given.
    """
    values, counts, draws = [], {}, 0
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        try:
            chunk, chunk_counts, chunk_draws = _chunk(task, seed, lo, hi, row_cost)
        except Exception as err:
            if wrap is None:
                raise
            raise wrap(lo, hi, err) from err
        values.append(chunk)
        _add(counts, chunk_counts)
        draws += chunk_draws
    return np.concatenate(values), counts, draws


def _chunk(task, seed: int, lo: int, hi: int, row_cost: int):
    """(values, counts, draws) of ``task`` on the streams of [lo, hi).

    A chunk of at least ``_SPLIT_MIN_BATCH`` rows whose rows take at least
    ``_SPLIT_GATE`` multiply-adds per step in all is split where the host
    allows a fork (:func:`_halves`).  If either half raises an
    InstabilityError, the chunk runs again in process on fresh streams, and
    whatever that run does stands.
    """
    streams = spawn(seed, lo, hi)
    if (row_cost and row_cost * len(streams) >= _SPLIT_GATE
            and len(streams) >= _SPLIT_MIN_BATCH and _can_fork()):
        try:
            split = _halves(task, streams)
        except InstabilityError:
            streams = spawn(seed, lo, hi)
        else:
            if split is not None:
                return split
    values, counts = _checked(task(streams), len(streams))
    return values, counts, sum(s.draws for s in streams)


def _halves(task, streams):
    """:func:`_chunk`'s result with ``task(streams[h:])`` run in a forked
    chunk worker while this process runs ``task(streams[:h])``, or None
    where ``fork`` fails.

    h is the multiple of ``_SPLIT_ALIGN`` nearest half the chunk, so each
    row has the bits of the unsplit run.  The worker pickles its values, its
    counts and each of its streams' draws, or the exception its task raised,
    into one pipe and exits with status 0, or 1 where the sending raises; it
    never returns into the caller's code.  That exception is raised here as
    it is, and a worker that exits without its result is a RuntimeError.
    However this process's half ends, it closes its end of the pipe and
    kills and reaps a worker it has not reaped.
    """
    import signal

    h = _SPLIT_ALIGN * round(len(streams) / (2 * _SPLIT_ALIGN))
    theirs = streams[h:]
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            try:
                values, counts = _checked(task(theirs), len(theirs))
                sent = values, counts, [s.draws for s in theirs]
            except Exception as err:  # noqa: BLE001 - raised in the parent
                import traceback

                # a traceback does not pickle; a note does, and prints with it
                err.add_note("raised in the chunk worker:\n"
                             + "".join(traceback.format_exception(err)))
                sent = err
            with os.fdopen(writer, "wb") as out:
                pickle.dump(sent, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    try:
        mine, counts = _checked(task(streams[:h]), h)
        message = []
        while part := os.read(reader, 1 << 20):
            message.append(part)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = 0
    finally:
        os.close(reader)
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if code or not message:
        raise RuntimeError(f"chunk worker exited (exit code {code}) without its result")
    sent = pickle.loads(b"".join(message))
    if isinstance(sent, Exception):
        raise sent
    values, their_counts, draws = sent
    for stream, count in zip(theirs, draws):
        stream.draws = count
    counts = _add(dict(counts), their_counts)
    return np.concatenate([mine, values]), counts, sum(s.draws for s in streams)


def _checked(out, rows: int):
    """A task's ``(values, counts)``, after checking that it is such a pair
    with one row of values per stream."""
    if not (isinstance(out, tuple) and len(out) == 2):
        raise TypeError(f"task returned {type(out).__name__}, expected (values, counts)")
    values = np.asarray(out[0])
    if values.ndim != 2 or values.shape[0] != rows:
        raise ValueError(f"task returned shape {values.shape}, expected ({rows}, n_nodes)")
    return values, out[1]


def _add(counts: dict, more: dict) -> dict:
    """``counts`` with ``more`` added key by key."""
    for key, count in more.items():
        counts[key] = counts.get(key, 0) + count
    return counts
