r"""Heisenberg-picture matrix elements and two-time correlation functions.

A matrix element <bra| A(t) |ket> between two different states is estimated
by stacking the pair into one doubled-space vector (bra, ket)/sqrt(2)
(``hilbert.make_doubled_state``, a plain (2d,) array), propagating it with
an unraveling of the duplicated dynamics, and averaging
2 <upper_t| A |lower_t> over realizations.  The engines are built on the
base model and step the two blocks with its d x d operators; only the
oracle (``master.doubled_block_evolution``) builds the duplicated model.

A two-time correlation <A(t + tau) B(t)> follows the same pattern with a
trajectory-dependent pair: each realization starts from the given Ket, or
from a Haar-random ket when there is none, propagates that single-space
state through the preparation time t, applies the perturbation B to
form the stacked vector (psi_t, B psi_t)/sqrt(w) with weight
w = 1 + ||B psi_t||^2, continues on the doubled space over tau, and averages
w <upper|A|lower>.  At tau = 0 the
weight cancels exactly and each realization contributes <psi_t| A B |psi_t>.

Both estimates run through one path, ``_estimate``, and differ only in how
each row starts; ``SdeConfig.scheme`` alone picks the engine that steps the
states, ``JumpEngine`` for "jump" and ``QsdEngine`` otherwise.  A chunk task
returns its values together with its counts: the jumps its engines made, as
``jumps_total``, for the jump unraveling, and nothing for the diffusive ones.
"""

import numpy as np

from .diffusion import QsdEngine, SdeConfig, _row_cost
from .ensemble import EnsembleResult, run_ensemble
from .hilbert import Ket, LindbladModel, Operator, _check_dims, _check_unit, make_doubled_state
from .jumps import JumpEngine
from .noise import _fill, grid_steps

__all__ = [
    "heisenberg_element",
    "correlate",
]


def _haar_rows(streams, dim: int) -> np.ndarray:
    """One Haar-random unit ket per stream, shape (len(streams), dim).

    Each stream draws one step of ``dim`` standard complex normals (wiener
    at dt = 1, N(0, 1/2) parts) into its row, all in one fill, and all rows
    are normalized at once.  The rare zero row is redrawn from its own
    stream until it is not.
    """
    rows = np.empty((len(streams), 1, dim), dtype=complex)
    _fill(streams, rows, 1.0)
    norms = _row_norms(rows)
    for i in np.flatnonzero(norms == 0.0):  # probability zero, but stay total
        while norms[i] == 0.0:
            _fill(streams[i : i + 1], rows[i : i + 1], 1.0)
            norms[i] = _row_norms(rows[i : i + 1])[0]
    return rows[:, 0] / norms[:, None]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each (1, dim) complex row, rounded as
    ``np.linalg.norm`` rounds one: sqrt(re . re + im . im), each a dot
    product over the row's strided real or imaginary parts."""
    re, im = rows.real, rows.imag
    return np.sqrt(
        (re @ re.swapaxes(1, 2))[:, 0, 0] + (im @ im.swapaxes(1, 2))[:, 0, 0]
    )


def _engine(model: LindbladModel, sde: SdeConfig):
    """The engine of the unraveling that ``sde.scheme`` names."""
    if sde.scheme == "jump":
        return JumpEngine(model, sde.dt)
    return QsdEngine(model, sde.dt, sde.scheme)


def _run(engine, counts: dict, states, streams, n_steps, record_steps=(), on_record=None):
    """``engine.run``, adding the jumps a jump engine made to ``counts``."""
    out = engine.run(states, streams, n_steps, record_steps, on_record)
    if isinstance(engine, JumpEngine):
        jumps = int(engine.last_jump_counts.sum())
        counts["jumps_total"] = counts.get("jumps_total", 0) + jumps
    return out


def _estimate(observable, model, sde, grid, node_steps, n, seed, start) -> EnsembleResult:
    """The doubled-space estimate of both estimators.

    Each chunk task takes its rows' stacked states and weights w from
    ``start(engine, counts, streams)`` and records w <upper|A|lower> (per
    norm^2 for the quasi-linear scheme) at the nodes ``node_steps``.  A
    diffusive task gives the runner its doubled row's cost, so that a heavy
    chunk may split between two processes; a jump task gives 0, so that it
    never splits, because its bits depend on the batch it runs in.
    """
    quasi = sde.scheme == "quasi_linear"

    def task(streams):
        engine, counts = _engine(model, sde), {}
        theta, weights = start(engine, counts, streams)
        d = engine.dim
        a_mat = observable.matrix
        vals = np.empty((theta.shape[0], len(node_steps)), dtype=complex)

        def on_record(slot, states, norms):
            inner = np.einsum("bi,ij,bj->b", states[:, :d].conj(), a_mat, states[:, d:])
            if quasi:
                inner = inner / norms**2
            vals[:, slot] = weights * inner

        _run(engine, counts, theta, streams, node_steps[-1], node_steps, on_record)
        return vals, counts

    jump = sde.scheme == "jump"
    method = "jump" if jump else f"qsd-{sde.scheme}"
    return run_ensemble(task, n, seed, grid=grid, method=method,
                        row_cost=0 if jump else _row_cost(model))


def heisenberg_element(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    n_trajectories: int,
    sde: SdeConfig,
    seed: int,
) -> EnsembleResult:
    """Ensemble estimate of <bra| A(t) |ket> on ``t_grid``.

    Stacks the pair into (bra, ket)/sqrt(2) and averages the doubled-space
    estimator over ``n_trajectories`` realizations of the unraveling that
    ``sde.scheme`` names.
    """
    # a pair of the wrong width would be stepped as something else
    _check_dims(model, observable=observable, bra=bra_state, ket=ket_state)
    grid = np.asarray(t_grid, dtype=float)
    node_steps = grid_steps(grid, sde.dt)
    _check_unit(bra_state=bra_state, ket_state=ket_state)
    base = make_doubled_state(bra_state.normalized(), ket_state.normalized())

    def start(engine, counts, streams):
        return np.tile(base, (len(streams), 1)), np.full(len(streams), 2.0)

    return _estimate(observable, model, sde, grid, node_steps, n_trajectories, seed, start)


def correlate(
    observable: Operator,
    perturbation: Operator,
    model: LindbladModel,
    t: float,
    tau_grid,
    n_trajectories: int,
    sde: SdeConfig,
    seed: int,
    initial: Ket | None = None,
) -> EnsembleResult:
    """Ensemble estimate of <A(t + tau) B(t)> over ``tau_grid``, by the
    unraveling that ``sde.scheme`` names.

    Each trajectory is prepared for time ``t``: from ``initial`` (a Ket,
    normalized here) when one is given, else from its own Haar-random ket,
    in which case ``t`` is a warmup meant to reach stationarity.
    """
    if initial is not None and not isinstance(initial, Ket):
        raise TypeError(f"initial must be a Ket or None, got {type(initial).__name__}")
    parts = {"observable": observable, "perturbation": perturbation}
    if initial is not None:
        parts["initial"] = initial
    _check_dims(model, **parts)
    psi0 = None if initial is None else initial.normalized().amplitudes
    # fail on incommensurate times before any trajectory work starts
    (pre_steps,) = grid_steps([t], sde.dt, "t")
    grid = np.asarray(tau_grid, dtype=float)
    node_steps = grid_steps(grid, sde.dt, "tau node")

    def start(engine, counts, streams):
        if psi0 is None:
            states = _haar_rows(streams, model.dim)
        else:
            states = np.tile(psi0, (len(streams), 1))
        if pre_steps > 0:
            states = _run(engine, counts, states, streams, pre_steps)
            if sde.scheme == "quasi_linear":
                states = states / np.linalg.norm(states, axis=1)[:, None]
        b_psi = states @ perturbation.matrix.T
        weights = 1.0 + np.einsum("bi,bi->b", b_psi.conj(), b_psi).real
        theta = np.concatenate([states, b_psi], axis=1) / np.sqrt(weights)[:, None]
        return theta, weights

    return _estimate(observable, model, sde, grid, node_steps, n_trajectories, seed, start)
