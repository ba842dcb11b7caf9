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

Both schemes run unchanged on the doubled space.  :class:`QsdEngine` steps
a batch of rows, each a ket of width d or a stacked doubled state of width
2d.  The duplicated operators are block-diagonal, so a doubled row is
stepped block by block with the model's own d x d operators, both blocks
driven by the same noise, and expectations and norms are summed over both
blocks; the duplicated model (``extend_model``) is never built.  Ensemble
averages of the block inner product 2 <upper|A|lower> then estimate
Heisenberg-picture matrix elements between the two stacked states
(:mod:`qsdsim.correlations`).  There is no single-trajectory stepper: one
trajectory is a batch of one row.

The drift is ``LindbladModel.generator``; the step-size check, the dt grid
rule and the per-step noise come from :mod:`qsdsim.noise`.  A large run's
noise is drawn by a forked producer process while the engine steps (see
``noise.wiener_steps``), with the same bits as in process; ``run`` closes
the noise iterator however it ends, so no producer outlives it.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .hilbert import LindbladModel
from .noise import NoiseStream, check_step, wiener_steps

__all__ = [
    "SCHEMES",
    "SdeConfig",
    "QsdEngine",
    "complex_standard_error",
]

SCHEMES = ("normalized", "quasi_linear", "jump")
_DIFFUSIVE = SCHEMES[:2]


@dataclass(frozen=True)
class SdeConfig:
    """Step size and unraveling of a trajectory estimate.

    ``scheme`` selects the engine: "normalized" and "quasi_linear" are the
    diffusive schemes of :class:`QsdEngine`, "jump" is the jump unraveling
    of :class:`qsdsim.jumps.JumpEngine`.  The normalized and jump engines
    renormalize the state every step; the quasi-linear one never rescales
    it, and the estimators divide by its squared norm instead.
    """

    dt: float
    scheme: str = "normalized"

    def __post_init__(self):
        check_step(self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


class QsdEngine:
    """Batched Euler-Maruyama propagation of many trajectories at once.

    Each row of the (batch, dim) input is one trajectory; a row of width
    2 dim is a doubled state, whose two blocks are stepped with the model's
    own d x d operators under the row's shared noise, expectations and norms
    summed over both blocks.  Row i draws its noise from streams[i],
    in the same order as stepwise ``NoiseStream.wiener`` draws, so batching
    never changes the noise a trajectory sees.  Overflow during a step is not
    warned about: it makes a norm non-finite, which raises InstabilityError
    naming the first trajectory it hit.

    Internally the batch is column-major, a (dim, k, batch) array with k = 1
    for kets and k = 2 for doubled states, so every elementwise operation and
    every sum over the dimension runs on contiguous rows of length batch.
    A step is one product with the stacked (dim (1 + n_channels), dim)
    matrix of the Euler drift I + dt G and every L_j, and one norm.
    """

    def __init__(self, model: LindbladModel, dt: float, scheme: str = "normalized"):
        if scheme not in _DIFFUSIVE:
            raise ValueError(
                f"scheme {scheme!r} is not a diffusive scheme, expected one of {_DIFFUSIVE}"
            )
        self.dt = check_step(dt)
        self.scheme = scheme
        self.dim = model.dim
        self.n_channels = model.n_channels
        self._stack = _euler_stack(model, dt)

    def _step(self, x: np.ndarray, inv_norm2, dxi: np.ndarray) -> np.ndarray:
        """One step of column-major states ``x`` (dim, k, batch).

        ``inv_norm2`` holds each trajectory's 1 / <psi|psi>, or is None for
        unit states; ``dxi`` holds the (n_channels, batch) increments.
        """
        y = _stacked(self._stack, x)
        ell = (x.conj() * y[1:]).sum(axis=(1, 2))  # <psi|L_j psi>, shape (c, batch)
        if inv_norm2 is not None:
            ell *= inv_norm2
        return _euler_update(x, y, ell, ell.conj(), dxi, self.dt, self.scheme == "normalized")

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
        increments = wiener_steps(streams, n_steps, self.n_channels, self.dt)
        try:
            return _rows(self._advance(x, increments, n_steps, slots, on_record, streams))
        finally:
            # ends a noise producer now, even when an error's traceback
            # keeps this frame alive
            increments.close()

    def _advance(self, x, increments, n_steps, slots, on_record=None, streams=None):
        """Step column-major ``x`` once per (n_channels, batch) entry of
        ``increments``, checking every norm; the loop behind :meth:`run`."""
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


def _euler_stack(model: LindbladModel, dt: float) -> np.ndarray:
    """The stacked (dim (1 + n_channels), dim) matrix (I + dt G; L_1; ...; L_c):
    one product with it gives a batch's Euler drift and every L_j psi."""
    drift = np.eye(model.dim) + dt * model.generator()
    return np.concatenate([drift] + [op.matrix for op in model.lindblads])


def _stacked(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (m, dim, k, batch) products of each (dim, dim) block of the stacked
    (m dim, dim) ``stack`` with every block of column-major ``x``."""
    return (stack @ x.reshape(x.shape[0], -1)).reshape(-1, *x.shape)


def _euler_update(x, y, e, m, dxi, dt: float, compensate: bool) -> np.ndarray:
    """The Euler-Maruyama step y[0] + sum_j y[j+1] (dxi_j + m_j dt) of
    column-major ``x``, where ``y = _stacked(euler stack, x)``; with
    ``compensate`` it also subtracts x sum_j e_j (dxi_j + (dt/2) m_j).

    ``e`` and ``m`` broadcast against the (n_channels, k, batch) or
    (n_channels, batch) coefficients: the state's <L_j> and <L_j>^* for
    :class:`QsdEngine`, the cross coefficients and their block-swapped
    conjugates for the coupled pair.  Writes into ``y[0]``.
    """
    out = y[0]
    # complex products stay out of place: numpy's in-place complex
    # multiply rounds differently for different lengths, and a
    # trajectory must not depend on the size of its batch
    coeff = m * dt + dxi
    for l_x, c_j in zip(y[1:], coeff):
        out += l_x * c_j
    if compensate:
        # sum_j e_j dxi_j + (dt/2) e_j m_j, as e_j (coeff_j - (dt/2) m_j);
        # the increments are a strided view, read once above
        out -= x * ((coeff - m * (0.5 * dt)) * e).sum(axis=0)
    return out


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
