"""Reproducible complex Wiener increments for trajectory ensembles.

Each trajectory owns an independent substream derived from (seed,
trajectory_index) through numpy's SeedSequence spawn-key mechanism, so the
noise seen by trajectory i never depends on how many trajectories run, on
scheduling, or on chunking.  A complex increment dxi has independent real and
imaginary parts, each Gaussian with variance dt/2, which gives
E[dxi] = E[dxi^2] = 0 and E[|dxi|^2] = dt.

All draws are counted: ``draws`` is the number of underlying real random
numbers consumed (two per complex increment, one per uniform), which is the
currency of the cost model reported by the benchmark.

The rules every integrator shares also live here, so that the engines, the
master-equation oracle and the command line can all import them without a
cycle: :func:`check_step` (a step size is finite and positive),
:func:`grid_steps` (times on the dt grid as integer step counts) and
:func:`wiener_blocks` (batched noise in blocks of ``NOISE_BLOCK`` steps).
"""

import math

import numpy as np

__all__ = ["NoiseStream", "substream", "wiener_increments"]

# steps of noise generated per block in batched runs; bounds memory while
# keeping per-trajectory draw order identical to stepwise generation
NOISE_BLOCK = 256


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
    """

    def __init__(self, seed: int, trajectory_index: int = 0):
        if trajectory_index < 0:
            raise ValueError(f"trajectory_index must be >= 0, got {trajectory_index}")
        self.seed = int(seed)
        self.trajectory_index = int(trajectory_index)
        self._gen = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(self.trajectory_index,))
            )
        )
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
        parts = out.view(float)
        self._gen.standard_normal(out=parts)
        self.draws += 2 * n_channels * n_steps
        parts *= np.sqrt(0.5 * dt)
        return out

    def uniform(self) -> float:
        """One uniform draw on [0, 1)."""
        self.draws += 1
        return float(self._gen.random())

    def complex_normals(self, n: int) -> np.ndarray:
        """n standard complex Gaussians (components N(0, 1/2) each)."""
        z = self._gen.standard_normal(2 * n)
        self.draws += 2 * n
        return np.sqrt(0.5) * (z[0::2] + 1j * z[1::2])


def substream(seed: int, trajectory_index: int) -> NoiseStream:
    """Independent stream for trajectory ``trajectory_index`` under ``seed``."""
    return NoiseStream(seed, trajectory_index)


def wiener_increments(stream: NoiseStream, n_channels: int, dt: float) -> np.ndarray:
    """Draw one step of complex Wiener increments from ``stream``."""
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    return stream.wiener(n_channels, check_step(dt))


def wiener_blocks(streams, n_steps: int, n_channels: int, dt: float):
    """Yield the increments of ``n_steps`` steps in blocks of at most
    ``NOISE_BLOCK`` steps, each of shape (len(streams), span, n_channels).

    Row i of every block comes from one ``wiener_block`` call on streams[i],
    so each stream is consumed exactly as by stepwise generation.  Every
    block is a view of one buffer that the next block overwrites.
    """
    buffer = np.empty((len(streams), min(NOISE_BLOCK, n_steps), n_channels), dtype=complex)
    for done in range(0, n_steps, NOISE_BLOCK):
        span = min(NOISE_BLOCK, n_steps - done)
        block = buffer[:, :span]
        for i, stream in enumerate(streams):
            stream.wiener_block(span, n_channels, dt, out=block[i])
        yield block
