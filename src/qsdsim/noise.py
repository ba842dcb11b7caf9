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
into one reused buffer, with one fill routine (:func:`_fill`).  A batch
that ``diffusion._column_worker`` splits draws the same way on both sides
of the split: each process draws its own rows' noise, and the caller then
restores the worker's final generator states and counts its draws, so the
increments, the draw counts and every later draw from the same streams
are the bits of the unsplit run.  :func:`_forked` is the fork lifecycle of
that worker: the fork, the child's exit, the two pipes that pace it, the
named error of a child that exits early, and the kill and reap however the
caller ends.
"""

import contextlib
import math
import os
import threading
from functools import cache

import numpy as np

__all__ = ["NoiseStream"]

# steps of noise generated per block in batched runs; bounds memory while
# keeping per-trajectory draw order identical to stepwise generation
NOISE_BLOCK = 256

# uint64 words of one PCG64 state in a column worker's mapping
_STATE_WORDS = 6
_MASK64 = 0xFFFFFFFFFFFFFFFF

# trajectories stepped together by every ensemble.  BLAS rounds a column
# of a product differently when it falls in the kernel's column remainder,
# which the batch width decides, so this fixes the last bits of every
# estimate; a batch split at a multiple of 64 rows keeps them
_CHUNK = 2048

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


def _shared(*specs) -> list:
    """One array per (shape, dtype) of ``specs``, all in one anonymous
    shared mapping, which a process and the children it forks later both
    see; give the specs in order of falling item size, so that each array
    is aligned."""
    import mmap

    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    mapping = mmap.mmap(-1, sum(sizes))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        arrays.append(np.frombuffer(mapping, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


class _Child:
    """The parent's end of a process forked by :func:`_forked`.

    The child writes a byte to ``ready`` each time it has put something in
    memory the two share; the parent reads it with :meth:`wait`, and gives
    that memory back with :meth:`release`, a byte on ``free``.
    """

    def __init__(self, name: str, pid: int, ready: int, free: int):
        self.name, self.pid, self.ready, self.free = name, pid, ready, free

    def wait(self, what: str):
        """Block until the child's next byte on ``ready``; a child that has
        exited instead is reaped and named in a RuntimeError."""
        if not os.read(self.ready, 1):
            _, status = os.waitpid(self.pid, 0)
            self.pid = 0
            raise RuntimeError(
                f"{self.name} exited (exit code {os.waitstatus_to_exitcode(status)}) "
                f"before {what}"
            )

    def release(self):
        """Send the child a byte on ``free``; a child that has exited is
        named by the next :meth:`wait`."""
        with contextlib.suppress(BrokenPipeError):
            os.write(self.free, b"\0")


@contextlib.contextmanager
def _forked(name: str, body):
    """Run ``body(ready, free)`` in a forked child process, and yield a
    :class:`_Child` for it, or None where ``os.fork`` fails.

    The child writes to the ``ready`` pipe and reads the ``free`` pipe; it
    exits with status 0 when ``body`` returns and 1 when it raises, and
    never returns into the caller's code.  However the block ends, the
    parent closes its pipe ends and kills and reaps the child.
    """
    import signal

    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(ready_r)
            os.close(free_w)
            body(ready_w, free_r)
            status = 0
        finally:
            os._exit(status)
    os.close(ready_w)
    os.close(free_r)
    child = _Child(name, pid, ready_r, free_w)
    try:
        yield child
    finally:
        os.close(ready_r)
        os.close(free_w)
        if child.pid:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)


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


def _save(streams, words: np.ndarray):
    """Write each stream's PCG64 state into its row of ``words``: the
    128-bit state and increment as (low, high) words, then ``has_uint32``
    and ``uinteger``."""
    for stream, row in zip(streams, words):
        state = stream._gen.bit_generator.state
        pcg = state["state"]
        row[:] = [pcg["state"] & _MASK64, pcg["state"] >> 64, pcg["inc"] & _MASK64,
                  pcg["inc"] >> 64, state["has_uint32"], state["uinteger"]]


def _restore(streams, words: np.ndarray):
    """Set each stream's PCG64 state from its row of ``words`` (see
    :func:`_save`)."""
    for stream, (lo, hi, inc_lo, inc_hi, has_uint32, uinteger) in zip(streams, words.tolist()):
        stream._gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
