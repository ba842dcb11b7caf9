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

Both schemes run unchanged on the doubled space: a DoubledState input is
propagated with the block-diagonal duplicated operators, expectations taken
over the whole stacked vector.  Ensemble averages of the block inner product
2 <upper|A|lower> then estimate Heisenberg-picture matrix elements between
the two stacked states.

The drift is ``LindbladModel.generator``; the step-size check, the dt grid
rule and the blocked noise come from :mod:`qsdsim.noise`.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .hilbert import DoubledState, Ket, LindbladModel, Operator, extend_model
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

    States are rows of a (batch, dim) array; trajectory i draws its noise
    from streams[i], in the same order as a stepwise single-trajectory run,
    so batching never changes any individual realization.
    """

    def __init__(self, model: LindbladModel, dt: float, scheme: str = "normalized"):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.dt = check_step(dt)
        self.scheme = scheme
        self.dim = model.dim
        self.n_channels = model.n_channels
        self._ls_t = [np.ascontiguousarray(op.matrix.T) for op in model.lindblads]
        # transposed for row-state matmuls
        self._drift_t = np.ascontiguousarray(model.generator().T)

    def _step(self, states: np.ndarray, dxi: np.ndarray, streams=None) -> np.ndarray:
        dt = self.dt
        norm2 = np.einsum("bi,bi->b", states.conj(), states).real
        if not np.all(np.isfinite(norm2)):
            raise _unstable_row(
                "state norm became non-finite during propagation", ~np.isfinite(norm2), streams
            )
        if np.any(norm2 == 0.0):
            raise _unstable_row(
                "state norm underflowed to zero during propagation", norm2 == 0.0, streams
            )
        out = states + dt * (states @ self._drift_t)
        if self.scheme == "normalized":
            for j, l_t in enumerate(self._ls_t):
                lpsi = states @ l_t
                ell = np.einsum("bi,bi->b", states.conj(), lpsi) / norm2
                coeff = dxi[:, j] + ell.conj() * dt
                out += coeff[:, None] * lpsi
                out -= (ell * dxi[:, j] + 0.5 * np.abs(ell) ** 2 * dt)[:, None] * states
        else:
            for j, l_t in enumerate(self._ls_t):
                lpsi = states @ l_t
                ell = np.einsum("bi,bi->b", states.conj(), lpsi) / norm2
                coeff = dxi[:, j] + ell.conj() * dt
                out += coeff[:, None] * lpsi
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
        states = np.array(states, dtype=complex)
        batch, dim = states.shape
        if dim != self.dim:
            raise ValueError(f"state width {dim} does not match engine dimension {self.dim}")
        if len(streams) != batch:
            raise ValueError(f"need one stream per row: {len(streams)} streams, batch {batch}")
        record = sorted(set(int(k) for k in record_steps))
        if record and (record[0] < 0 or record[-1] > n_steps):
            raise ValueError("record steps must lie within [0, n_steps]")
        slots = {k: i for i, k in enumerate(record)}
        renorm = self.scheme == "normalized"

        if 0 in slots and on_record is not None:
            on_record(slots[0], states, np.linalg.norm(states, axis=1))

        done = 0
        for block in wiener_blocks(streams, n_steps, self.n_channels, self.dt):
            for k in range(block.shape[1]):
                states = self._step(states, block[:, k, :], streams)
                done += 1
                norms = np.linalg.norm(states, axis=1)
                if not np.all(np.isfinite(norms)):
                    raise _unstable_row(
                        f"non-finite state norm after step {done}", ~np.isfinite(norms), streams
                    )
                if renorm:
                    if np.any(norms == 0.0):
                        raise _unstable_row(
                            f"zero state norm after step {done}", norms == 0.0, streams
                        )
                    states /= norms[:, None]
                if done in slots and on_record is not None:
                    on_record(slots[done], states, norms)
        return states


def _unstable_row(what: str, bad: np.ndarray, streams=None) -> InstabilityError:
    """InstabilityError ``what``, naming the trajectory of the first row
    flagged in ``bad`` when the rows' noise ``streams`` are known."""
    if streams is not None:
        what += f" (first at trajectory {streams[int(np.argmax(bad))].trajectory_index})"
    return InstabilityError(what)


def _split_state(state, model: LindbladModel):
    """Map a Ket or DoubledState plus base model onto flat-array form."""
    if isinstance(state, DoubledState):
        if state.dim != model.dim:
            raise ValueError(
                f"dimension mismatch: doubled state blocks {state.dim}, model {model.dim}"
            )
        return state.vector(), extend_model(model), True
    if isinstance(state, Ket):
        if state.dim != model.dim:
            raise ValueError(f"dimension mismatch: state {state.dim}, model {model.dim}")
        return state.amplitudes.copy(), model, False
    raise TypeError(f"expected Ket or DoubledState, got {type(state).__name__}")


def _pack_state(vec: np.ndarray, model: LindbladModel, doubled: bool):
    if doubled:
        return DoubledState.from_vector(vec, model.dim)
    return Ket(vec)


def step_normalized(state, model: LindbladModel, dt: float, increments: np.ndarray):
    """One renormalized Euler-Maruyama step; returns the same state type.

    ``increments`` holds one complex Wiener increment per channel.  A
    DoubledState is stepped with the block-diagonal duplicated operators and
    expectations over the whole stacked vector.
    """
    vec, run_model, doubled = _split_state(state, model)
    engine = QsdEngine(run_model, dt, "normalized")
    dxi = np.asarray(increments, dtype=complex).reshape(1, -1)
    if dxi.shape[1] != model.n_channels:
        raise ValueError(
            f"expected {model.n_channels} increments, got {dxi.shape[1]}"
        )
    out = engine._step(vec.reshape(1, -1), dxi)[0]
    norm = np.linalg.norm(out)
    if not np.isfinite(norm) or norm == 0.0:
        raise InstabilityError("step produced a non-finite or zero-norm state")
    return _pack_state(out / norm, model, doubled)


def step_quasilinear(state, model: LindbladModel, dt: float, increments: np.ndarray):
    """One quasi-linear Euler-Maruyama step; no renormalization."""
    vec, run_model, doubled = _split_state(state, model)
    engine = QsdEngine(run_model, dt, "quasi_linear")
    dxi = np.asarray(increments, dtype=complex).reshape(1, -1)
    if dxi.shape[1] != model.n_channels:
        raise ValueError(
            f"expected {model.n_channels} increments, got {dxi.shape[1]}"
        )
    out = engine._step(vec.reshape(1, -1), dxi)[0]
    if not np.all(np.isfinite(out)):
        raise InstabilityError("step produced non-finite amplitudes")
    return _pack_state(out, model, doubled)


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
    vec, run_model, doubled = _split_state(state0, model)
    engine = QsdEngine(run_model, config.dt, config.scheme)

    recorded: list[np.ndarray] = [None] * len(steps)
    norms = np.zeros(len(steps))

    def on_record(slot, states, pre_norms):
        recorded[slot] = states[0].copy()
        norms[slot] = pre_norms[0]

    engine.run(vec.reshape(1, -1), [stream], steps[-1], steps, on_record)
    states = [_pack_state(v, model, doubled) for v in recorded]
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
