"""Reproducible complex Wiener increments for trajectory ensembles.

Trajectory i of a run owns the stream ``NoiseStream(seed, i)``, derived from
(seed, i) through numpy's SeedSequence spawn-key mechanism, so the
noise seen by trajectory i never depends on how many trajectories run, on
scheduling, or on chunking.  The estimators build a chunk's streams together
with :func:`spawn`, which computes SeedSequence's seed words for every index
of the chunk at once in uint32 arithmetic; its streams are bit-identical to
``NoiseStream(seed, i)``.  A complex increment dxi has independent real and
imaginary parts, each Gaussian with variance dt/2, which gives
E[dxi] = E[dxi^2] = 0 and E[|dxi|^2] = dt.

All draws are counted: ``draws`` is the number of underlying real random
numbers consumed (two per complex increment, one per uniform), which is the
currency of the cost model reported by the benchmark.

The rules every integrator shares also live here, so that the engines, the
master-equation oracle and the command line can all import them without a
cycle: :func:`check_step` (a step size is finite and positive),
:func:`grid_steps` (times on the dt grid as integer step counts) and
:func:`wiener_steps` (each step's increments for a batch of streams).

:func:`wiener_steps` draws in process, in blocks of ``NOISE_BLOCK`` steps
into one reused buffer, with one fill routine (:func:`_fill`).

:func:`run_chunks` is the one chunk loop of every ensemble, the
doubled-space estimators' and the coupled pair's: it spawns each chunk's
streams, runs the chunk's task on them and sums the draws and counts.  A
heavy chunk is split: a forked child runs the whole task on the chunk's
upper streams while this process runs it on the lower ones, and the child
sends back its values, counts and draws in one pickled message
(:func:`_forked`).  A split that meets an instability is run again,
unsplit, so a chunk raises what its unsplit run raises.
"""

import contextlib
import math
import os
import pickle
import threading
from functools import cache

import numpy as np

from .errors import InstabilityError

__all__ = ["NoiseStream"]

# steps of noise generated per block in batched runs; bounds memory while
# keeping per-trajectory draw order identical to stepwise generation
NOISE_BLOCK = 256

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

# SeedSequence's constants (numpy/random/bit_generator.pyx): the entropy pool
# of four uint32 words is filled by hashmix with (INIT_A, MULT_A) and mixed by
# mix; generate_state hashes the pool words with (INIT_B, MULT_B)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def check_step(value: float, name: str = "dt") -> float:
    """Return ``value`` if it is a finite, positive step size, else raise."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def grid_steps(times, dt: float, label: str = "node") -> list[int]:
    """Number of dt steps from time 0 to each of ``times``.

    Every time must be an integer multiple of dt within 1e-9 max(1, |t|),
    and the times must be non-negative and strictly increasing, so that no
    two nodes fall on the same step.
    """
    check_step(dt)
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a non-empty 1-D array")
    with np.errstate(over="ignore"):
        ratio = grid / dt
    if not np.all(np.isfinite(ratio)):
        raise ValueError(f"time grid must hold finite multiples of dt={dt}")
    steps = np.rint(ratio)
    off = np.abs(steps * dt - grid) > 1e-9 * np.maximum(1.0, np.abs(grid))
    if np.any(off):
        t = grid[np.argmax(off)]
        raise ValueError(f"{label}={t} is not an integer multiple of dt={dt}")
    if grid[0] < 0 or np.any(np.diff(steps) <= 0):
        raise ValueError("time grid must be non-negative and strictly increasing")
    return [int(k) for k in steps]


class NoiseStream:
    """Seeded random stream for one trajectory.

    Attributes
    ----------
    seed:
        Base ensemble seed.
    trajectory_index:
        Index of the trajectory this stream belongs to.
    draws:
        Count of real random numbers consumed so far.

    ``_words``, for :func:`spawn` only, is the PCG64 seed state that
    ``SeedSequence(entropy=seed, spawn_key=(trajectory_index,))`` generates,
    wrapped in the adapter of :func:`_seed_words_type`.
    """

    def __init__(self, seed: int, trajectory_index: int = 0, *, _words=None):
        self.seed = int(seed)
        self.trajectory_index = int(trajectory_index)
        if _words is None:
            _check_seed(self.seed, self.trajectory_index)
            _words = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.trajectory_index,))
        self._gen = np.random.Generator(np.random.PCG64(_words))
        self.draws = 0

    def wiener(self, n_channels: int, dt: float) -> np.ndarray:
        """One time step of complex increments, shape (n_channels,)."""
        z = self._gen.standard_normal(2 * n_channels)
        self.draws += 2 * n_channels
        scale = np.sqrt(0.5 * dt)
        return scale * (z[0::2] + 1j * z[1::2])

    def wiener_block(
        self, n_steps: int, n_channels: int, dt: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``n_steps`` consecutive steps at once, shape (n_steps, n_channels).

        Consumes the generator in exactly the same order as ``n_steps``
        successive :meth:`wiener` calls, so blocked and stepwise consumers
        see bitwise-identical noise.  With ``out``, a C-contiguous complex
        array of that shape, the increments are written into it and it is
        returned: the normals fill its float view, (real, imaginary) pairs
        in the order :meth:`wiener` takes them, and are scaled in place.
        """
        if out is None:
            out = np.empty((n_steps, n_channels), dtype=complex)
        elif out.shape != (n_steps, n_channels) or out.dtype != complex:
            raise ValueError(
                f"out must be a complex array of shape {(n_steps, n_channels)}, "
                f"got {out.dtype} {out.shape}"
            )
        _fill((self,), out[None], dt)
        return out

    def uniform(self, size: int | None = None):
        """One uniform draw on [0, 1) as a float, or with ``size`` an array
        of ``size`` draws, the same numbers as ``size`` successive calls."""
        if size is None:
            self.draws += 1
            return float(self._gen.random())
        self.draws += size
        return self._gen.random(size)


def _check_seed(seed: int, trajectory_index: int):
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trajectory_index < 0:
        raise ValueError(f"trajectory_index must be >= 0, got {trajectory_index}")


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays; the hash constant
    advances by ``mult`` with every call, whatever the value."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _state_words(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of a batch of entropy
    words, shape (batch, 4).

    ``entropy`` holds at least ``_POOL_SIZE`` uint32 arrays, word k of every
    sequence in the k-th, broadcast together over the batch.  The pool is
    filled and mixed as ``SeedSequence.mix_entropy`` does it, step for step.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # eight uint32 words, cycling over the pool, paired little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return np.stack([halves[2 * j] | halves[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)


@cache
def _seed_words_type():
    """An ``ISeedSequence`` serving precomputed PCG64 seed words.

    Made on first use, so that importing qsdsim does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 seeds itself with one request of this form
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("precomputed seed words serve only generate_state(4, np.uint64)")
            return self.words

    return SeedWords


def spawn(seed: int, lo: int, hi: int) -> list[NoiseStream]:
    """The streams ``NoiseStream(seed, i)`` for i in [lo, hi), built together.

    Below 2^32 an index is one spawn word, and SeedSequence's entropy pool
    and seed state are computed for all such indices at once; each stream
    is seeded from its row, so the streams are bit-identical to
    ``NoiseStream(seed, i)``.  Larger indices go through SeedSequence one by
    one.  A negative seed or index is a ValueError.
    """
    seed, lo, hi = int(seed), int(lo), int(hi)
    _check_seed(seed, lo)
    streams, stop = [], min(hi, 2**32)
    if lo < stop:
        # the seed's little-endian 32-bit words, which a spawned SeedSequence
        # pads with zeros to the pool size
        n_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
        entropy = [np.array([seed >> 32 * k & _MASK32], dtype=np.uint32) for k in range(n_words)]
        index = np.uint32(lo) + np.arange(stop - lo, dtype=np.uint32)
        words_type = _seed_words_type()
        streams = [
            NoiseStream(seed, i, _words=words_type(row))
            for i, row in zip(range(lo, stop), _state_words(entropy + [index]))
        ]
    streams += [NoiseStream(seed, i) for i in range(max(lo, 2**32), hi)]
    return streams


def _fill(streams, block: np.ndarray, dt: float):
    """Write the next ``span`` steps of each stream's increments into the
    (len(streams), span, n_channels) complex ``block``, row i from
    streams[i], and count them.

    Each row is filled by one ``standard_normal`` call on its float view,
    which consumes the generator exactly as ``span`` successive
    :meth:`NoiseStream.wiener` calls do, and the whole block is then scaled
    once by sqrt(dt/2), the product each of those calls takes.
    """
    parts = block.view(float)
    span, n_channels = block.shape[1:]
    for stream, row in zip(streams, parts):
        stream._gen.standard_normal(out=row)
        stream.draws += 2 * n_channels * span
    parts *= np.sqrt(0.5 * dt)


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


class _Child:
    """The parent's end of a process forked by :func:`_forked`."""

    def __init__(self, name: str, pid: int, reader: int):
        self.name, self.pid, self.reader = name, pid, reader

    def result(self):
        """The object the child sent, once it has exited; a child that
        exits without sending one is reaped and named in a RuntimeError."""
        chunks = []
        while chunk := os.read(self.reader, 1 << 20):
            chunks.append(chunk)
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        code = os.waitstatus_to_exitcode(status)
        if code or not chunks:
            raise RuntimeError(f"{self.name} exited (exit code {code}) without its result")
        return pickle.loads(b"".join(chunks))


@contextlib.contextmanager
def _forked(name: str, body):
    """Run ``body()`` in a forked child process, which sends what it returns
    to the parent pickled, and yield a :class:`_Child` for it, or None
    where ``os.fork`` fails.

    The child exits with status 0 once it has sent the result and 1 when
    ``body`` or the sending raises; it never returns into the caller's
    code.  However the block ends, the parent closes its end of the pipe
    and kills and reaps a child it has not reaped.
    """
    import signal

    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            with os.fdopen(writer, "wb") as out:
                pickle.dump(body(), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    child = _Child(name, pid, reader)
    try:
        yield child
    finally:
        os.close(reader)
        if child.pid:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)


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
    child while this process runs ``task(streams[:h])``, or None where
    ``fork`` fails.

    h is the multiple of ``_SPLIT_ALIGN`` nearest half the chunk, so each
    row has the bits of the unsplit run.  The child sends its values, its
    counts and each of its streams' draws, or the exception its task
    raised, which is raised here as it is.
    """
    h = _SPLIT_ALIGN * round(len(streams) / (2 * _SPLIT_ALIGN))
    theirs = streams[h:]

    def body():
        try:
            values, counts = _checked(task(theirs), len(theirs))
        except Exception as err:  # noqa: BLE001 - raised in the parent
            import traceback

            # a traceback does not pickle; a note does, and prints with it
            err.add_note("raised in the chunk worker:\n" + "".join(traceback.format_exception(err)))
            return err
        return values, counts, [s.draws for s in theirs]

    with _forked("chunk worker", body) as child:
        if child is None:
            return None
        mine, counts = _checked(task(streams[:h]), h)
        sent = child.result()
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


def wiener_steps(streams, n_steps: int, n_channels: int, dt: float):
    """Yield the increments of each of ``n_steps`` steps, shape
    (n_channels, len(streams)): column i holds streams[i]'s draw.

    The noise is drawn in blocks of ``NOISE_BLOCK`` steps into one
    (batch, steps, n_channels) buffer, each step a strided view of it, and
    each stream is consumed exactly as by stepwise generation.  A block
    overwrites the buffer, so a caller that keeps a step beyond the next
    one must copy it.
    """
    buffer = np.empty((len(streams), min(NOISE_BLOCK, n_steps), n_channels), dtype=complex)
    for done in range(0, n_steps, NOISE_BLOCK):
        span = min(NOISE_BLOCK, n_steps - done)
        block = buffer[:, :span]
        _fill(streams, block, dt)
        for k in range(span):
            yield block[:, k].T
