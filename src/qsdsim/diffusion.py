r"""Diffusive (state-diffusion) trajectory unraveling of the master equation.

Two Euler-Maruyama schemes over complex Wiener increments dxi_j with
E[dxi_i dxi_j^*] = delta_ij dt:

normalized
    d psi = -i H psi dt
            + (1/2) sum_j [2 <L_j^dag> L_j - L_j^dag L_j - <L_j><L_j^dag>] psi dt
            + sum_j (L_j - <L_j>) psi dxi_j
    with <X> = <psi|X|psi> for the unit-norm state; the state is
    renormalized after every step (the continuum equation preserves the norm
    pathwise, the discrete step only to O(dt)).

quasi_linear
    d psi = -i H psi dt + sum_j L_j psi (dxi_j + <L_j^dag> dt)
            - (1/2) sum_j L_j^dag L_j psi dt
    where <L_j^dag> is taken in the normalized direction of the current
    state; the propagated state is never renormalized and the estimator
    divides by its squared norm instead.

Both schemes run unchanged on the doubled space.  The duplicated operators
are block-diagonal, so a DoubledState input is stepped block by block with
the model's own d x d operators, both blocks driven by the same noise, and
expectations and norms are summed over both blocks; the duplicated model
(``extend_model``) is never built.  Ensemble averages of the block inner
product 2 <upper|A|lower> then estimate Heisenberg-picture matrix elements
between the two stacked states.

The drift is ``LindbladModel.generator``; the step-size check, the dt grid
rule and the blocked noise come from :mod:`qsdsim.noise`.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .hilbert import DoubledState, Ket, LindbladModel, Operator
from .noise import NoiseStream, check_step, grid_steps, wiener_blocks

__all__ = [
    "SdeConfig",
    "Trajectory",
    "QsdEngine",
    "step_normalized",
    "step_quasilinear",
    "propagate",
    "estimate_matrix_element",
    "complex_standard_error",
]

SCHEMES = ("normalized", "quasi_linear")


@dataclass(frozen=True)
class SdeConfig:
    """Step size and scheme selection for the diffusive integrators.

    ``renormalize_each_step`` applies to the normalized scheme only; the
    quasi-linear scheme never rescales the propagated state (the estimator
    divides by the squared norm instead).
    """

    dt: float
    scheme: str = "normalized"
    renormalize_each_step: bool = True

    def __post_init__(self):
        check_step(self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One realization sampled at grid nodes.

    ``norm_history[k]`` is the norm of the state at node k before any
    renormalization was applied on the step landing there (node 0 records
    the initial norm).
    """

    times: np.ndarray
    states: list
    norm_history: np.ndarray


class QsdEngine:
    """Batched Euler-Maruyama propagation of many trajectories at once.

    Each row of the (batch, dim) input is one trajectory; a row of width
    2 dim is a doubled state, whose two blocks are stepped with the model's
    own d x d operators under the row's shared noise, expectations and norms
    summed over both blocks.  Trajectory i draws its noise from streams[i],
    in the same order as a stepwise single-trajectory run, so batching never
    changes the noise a trajectory sees.  Overflow during a step is not
    warned about: it makes a norm non-finite, which raises InstabilityError
    naming the first trajectory it hit.

    Internally the batch is column-major, a (dim, k, batch) array with k = 1
    for kets and k = 2 for doubled states, so every elementwise operation and
    every sum over the dimension runs on contiguous rows of length batch.
    A step is one product with the stacked (dim (1 + n_channels), dim)
    matrix of the Euler drift I + dt G and every L_j, and one norm.
    """

    def __init__(self, model: LindbladModel, dt: float, scheme: str = "normalized"):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.dt = check_step(dt)
        self.scheme = scheme
        self.dim = model.dim
        self.n_channels = model.n_channels
        drift = np.eye(model.dim) + dt * model.generator()
        self._stack = np.concatenate([drift] + [op.matrix for op in model.lindblads])

    def _step(self, x: np.ndarray, inv_norm2, dxi: np.ndarray) -> np.ndarray:
        """One step of column-major states ``x`` (dim, k, batch).

        ``inv_norm2`` holds each trajectory's 1 / <psi|psi>, or is None for
        unit states; ``dxi`` holds the (n_channels, batch) increments.
        """
        dt = self.dt
        y = (self._stack @ x.reshape(self.dim, -1)).reshape(-1, *x.shape)
        out, lx = y[0], y[1:]
        ell = (x.conj() * lx).sum(axis=(1, 2))  # <psi|L_j psi>, shape (c, batch)
        if inv_norm2 is not None:
            ell *= inv_norm2
        ell_c = ell.conj()
        # complex products stay out of place: numpy's in-place complex
        # multiply rounds differently for different lengths, and a
        # trajectory must not depend on the size of its batch
        coeff = ell_c * dt + dxi
        for l_psi, c_j in zip(lx, coeff):
            out += l_psi * c_j
        if self.scheme == "normalized":
            # sum_j <L_j> dxi_j + (dt/2) |<L_j>|^2, as <L_j> (coeff_j - (dt/2) <L_j>^*);
            # the increments are a strided view, read once above
            shrink = ((coeff - ell_c * (0.5 * dt)) * ell).sum(axis=0)
            out -= x * shrink
        return out

    def run(
        self,
        states: np.ndarray,
        streams: Sequence[NoiseStream],
        n_steps: int,
        record_steps: Sequence[int] = (),
        on_record=None,
    ) -> np.ndarray:
        """Advance ``states`` by ``n_steps`` steps of size dt.

        ``record_steps`` lists step counts (0 = before stepping) at which
        ``on_record(slot, states, norms)`` fires; for the normalized scheme
        ``states`` is post-renormalization and ``norms`` holds the
        pre-renormalization norms of the step landing there.
        """
        x = _columns(states, self.dim)
        if len(streams) != x.shape[2]:
            raise ValueError(
                f"need one stream per row: {len(streams)} streams, batch {x.shape[2]}"
            )
        slots = _record_slots(record_steps, n_steps)
        blocks = wiener_blocks(streams, n_steps, self.n_channels, self.dt)
        increments = (block[:, k, :].T for block in blocks for k in range(block.shape[1]))
        return _rows(self._advance(x, increments, n_steps, slots, on_record, streams))

    def _advance(self, x, increments, n_steps, slots, on_record=None, streams=None):
        """Step column-major ``x`` once per (n_channels, batch) entry of
        ``increments``, checking every norm; the loop behind :meth:`run` and
        the single-step functions."""
        renorm = self.scheme == "normalized"
        norm2 = _real_inner(x, x)
        if 0 in slots and on_record is not None:
            on_record(slots[0], _rows(x), np.sqrt(norm2))
        if n_steps == 0:
            return x
        if not np.all(np.isfinite(norm2)):
            raise _unstable_row(
                "state norm became non-finite during propagation", ~np.isfinite(norm2), streams
            )
        if np.any(norm2 == 0.0):
            raise _unstable_row(
                "state norm underflowed to zero during propagation", norm2 == 0.0, streams
            )
        inv_norm2 = 1.0 / norm2
        for done, dxi in enumerate(increments, start=1):
            # overflow shows up as a non-finite norm, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                x = self._step(x, inv_norm2, dxi)
                norm2 = _real_inner(x, x)
            if not (norm2.min() > 0.0 and norm2.max() < np.inf):
                if not np.all(np.isfinite(norm2)):
                    raise _unstable_row(
                        f"non-finite state norm after step {done}", ~np.isfinite(norm2), streams
                    )
                if renorm:
                    raise _unstable_row(
                        f"zero state norm after step {done}", norm2 == 0.0, streams
                    )
                if done < n_steps:
                    raise _unstable_row(
                        "state norm underflowed to zero during propagation",
                        norm2 == 0.0, streams,
                    )
            norms = np.sqrt(norm2)
            if renorm:
                x *= 1.0 / norms
                inv_norm2 = None
            elif done < n_steps:  # a zero norm is allowed after the last step
                inv_norm2 = 1.0 / norm2
            if done in slots and on_record is not None:
                on_record(slots[done], _rows(x), norms)
        return x


def _columns(states, dim: int) -> np.ndarray:
    """(batch, k dim) rows, k = 1 for kets and 2 for doubled states, as a
    new C-contiguous (dim, k, batch) array: [i, blk, b] is amplitude i of
    block blk of trajectory b."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] not in (dim, 2 * dim):
        raise ValueError(
            f"states of shape {states.shape} match neither engine dimension {dim} "
            f"nor its doubled space {2 * dim}"
        )
    batch, width = states.shape
    return states.reshape(batch, width // dim, dim).transpose(2, 1, 0).copy()


def _rows(x: np.ndarray) -> np.ndarray:
    """The (batch, k dim) rows of column-major states, as a new array."""
    return np.array(x.transpose(2, 1, 0).reshape(x.shape[2], -1))


def _real_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re <x|y> for each trajectory of column-major ``x`` and ``y``, summed
    over all blocks."""
    # float views (dim, k, 2 batch): real, imaginary, real, ...
    sums = np.einsum("ijb,ijb->b", x.view(float), y.view(float))
    return sums[0::2] + sums[1::2]



def _record_slots(record_steps, n_steps: int) -> dict:
    """Slot of each distinct step count in ``record_steps``, in order."""
    record = sorted(set(int(k) for k in record_steps))
    if record and (record[0] < 0 or record[-1] > n_steps):
        raise ValueError("record steps must lie within [0, n_steps]")
    return {k: i for i, k in enumerate(record)}


def _unstable_row(what: str, bad: np.ndarray, streams=None) -> InstabilityError:
    """InstabilityError ``what``, naming the trajectory of the first row
    flagged in ``bad`` when the rows' noise ``streams`` are known."""
    if streams is not None:
        what += f" (first at trajectory {streams[int(np.argmax(bad))].trajectory_index})"
    return InstabilityError(what)


def _split_state(state, model: LindbladModel):
    """A Ket or DoubledState as a flat vector (the doubled one stacked) plus
    whether it is doubled; the engines step either with the base model."""
    if isinstance(state, DoubledState):
        if state.dim != model.dim:
            raise ValueError(
                f"dimension mismatch: doubled state blocks {state.dim}, model {model.dim}"
            )
        return state.vector(), True
    if isinstance(state, Ket):
        if state.dim != model.dim:
            raise ValueError(f"dimension mismatch: state {state.dim}, model {model.dim}")
        return state.amplitudes.copy(), False
    raise TypeError(f"expected Ket or DoubledState, got {type(state).__name__}")


def _pack_state(vec: np.ndarray, dim: int, doubled: bool):
    if doubled:
        return DoubledState.from_vector(vec, dim)
    return Ket(vec)


def _single_step(state, model: LindbladModel, dt: float, scheme: str, increments):
    vec, doubled = _split_state(state, model)
    engine = QsdEngine(model, dt, scheme)
    dxi = np.asarray(increments, dtype=complex).reshape(-1, 1)
    if dxi.shape[0] != model.n_channels:
        raise ValueError(f"expected {model.n_channels} increments, got {dxi.shape[0]}")
    x = engine._advance(_columns(vec.reshape(1, -1), model.dim), [dxi], 1, {})
    return _pack_state(_rows(x)[0], model.dim, doubled)


def step_normalized(state, model: LindbladModel, dt: float, increments: np.ndarray):
    """One renormalized Euler-Maruyama step; returns the same state type.

    ``increments`` holds one complex Wiener increment per channel.  A
    DoubledState is stepped block by block with the model's operators and
    expectations over the whole stacked vector.
    """
    return _single_step(state, model, dt, "normalized", increments)


def step_quasilinear(state, model: LindbladModel, dt: float, increments: np.ndarray):
    """One quasi-linear Euler-Maruyama step; no renormalization."""
    return _single_step(state, model, dt, "quasi_linear", increments)


def propagate(
    state0,
    model: LindbladModel,
    config: SdeConfig,
    stream: NoiseStream,
    t_grid,
) -> Trajectory:
    """Integrate one realization, sampling states at the grid nodes.

    The grid must start at the initial time of ``state0`` and every node
    must be an integer number of dt steps from the first.
    """
    grid = np.asarray(t_grid, dtype=float)
    steps = grid_steps(grid - grid[:1], config.dt)  # counted from the first node
    vec, doubled = _split_state(state0, model)
    engine = QsdEngine(model, config.dt, config.scheme)

    recorded: list[np.ndarray] = [None] * len(steps)
    norms = np.zeros(len(steps))

    def on_record(slot, states, pre_norms):
        recorded[slot] = states[0].copy()
        norms[slot] = pre_norms[0]

    engine.run(vec.reshape(1, -1), [stream], steps[-1], steps, on_record)
    states = [_pack_state(v, model.dim, doubled) for v in recorded]
    return Trajectory(times=grid.copy(), states=states, norm_history=norms)


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


def estimate_matrix_element(
    samples: Sequence[DoubledState],
    observable: Operator,
    scheme: str = "normalized",
) -> tuple[complex, float]:
    """Matrix-element estimate from doubled-space samples at one time.

    For the normalized scheme each sample contributes 2 <upper|A|lower>;
    for the quasi-linear scheme the contribution is divided by the squared
    norm of the stacked vector.  Returns (mean, standard_error).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not samples:
        raise ValueError("need at least one sample")
    vals = np.empty(len(samples), dtype=complex)
    for i, s in enumerate(samples):
        if not isinstance(s, DoubledState):
            raise TypeError("samples must be DoubledState instances")
        raw = 2.0 * np.vdot(s.upper.amplitudes, observable.matrix @ s.lower.amplitudes)
        if scheme == "quasi_linear":
            nrm2 = s.norm() ** 2
            if nrm2 == 0.0:
                raise InstabilityError("quasi-linear sample has zero norm")
            raw /= nrm2
        vals[i] = raw
    return complex(vals.mean()), complex_standard_error(vals)
