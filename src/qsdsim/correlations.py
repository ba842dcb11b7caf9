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

Both unravelings share these estimators; ``SdeConfig.scheme`` alone picks
the engine that steps the states, ``JumpEngine`` for "jump" and
``QsdEngine`` otherwise.  A chunk task returns its values together with
its counts: the jumps its engines made, as ``jumps_total``, for the jump
unraveling, and nothing for the diffusive ones.  A diffusive task gives the
ensemble runner its doubled row's cost, so that a heavy chunk may split
between two processes; a jump task gives none, because its bits depend on
the batch it runs in.
"""

import numpy as np

from .diffusion import QsdEngine, SdeConfig, _row_cost
from .ensemble import EnsembleResult, run_ensemble
from .hilbert import Ket, LindbladModel, Operator, _check_dims, make_doubled_state
from .jumps import JumpEngine
from .noise import grid_steps

__all__ = [
    "heisenberg_element",
    "correlate",
]


def _haar_rows(streams, dim: int) -> np.ndarray:
    """One Haar-random unit ket per stream, shape (len(streams), dim).

    Each stream draws one block of standard complex normals (wiener at
    dt = 1, N(0, 1/2) parts) into its row, and all rows are normalized at
    once.  The rare zero row is redrawn from its own stream until it is not.
    """
    rows = np.empty((len(streams), 1, dim), dtype=complex)
    for stream, row in zip(streams, rows):
        stream.wiener_block(1, dim, 1.0, out=row)
    norms = _row_norms(rows)
    for i in np.flatnonzero(norms == 0.0):  # probability zero, but stay total
        while norms[i] == 0.0:
            streams[i].wiener_block(1, dim, 1.0, out=rows[i])
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


def _method(sde: SdeConfig) -> str:
    return "jump" if sde.scheme == "jump" else f"qsd-{sde.scheme}"


def _split_cost(model: LindbladModel, sde: SdeConfig) -> int:
    """The ``row_cost`` of a chunk task: a doubled row's for the diffusive
    schemes, 0 for the jump unraveling, so that no jump chunk splits."""
    return 0 if sde.scheme == "jump" else _row_cost(model)


def _normalize_rows(states: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(states, axis=1)
    return states / norms[:, None]


def _doubled_series_chunk(
    engine,
    counts: dict,
    streams,
    theta: np.ndarray,
    weights: np.ndarray,
    observable: Operator,
    sde: SdeConfig,
    node_steps: list[int],
):
    """Propagate stacked states over the recording grid, returning the
    weighted block inner products w <upper|A|lower> (per norm^2 for the
    quasi-linear scheme) for every trajectory and node, and ``counts``."""
    d = engine.dim
    a_mat = observable.matrix
    vals = np.empty((theta.shape[0], len(node_steps)), dtype=complex)
    quasi = sde.scheme == "quasi_linear"

    def on_record(slot, states, norms):
        inner = np.einsum("bi,ij,bj->b", states[:, :d].conj(), a_mat, states[:, d:])
        if quasi:
            inner = inner / norms**2
        vals[:, slot] = weights * inner

    _run(engine, counts, theta, streams, node_steps[-1], node_steps, on_record)
    return vals, counts


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
    base = make_doubled_state(bra_state.normalized(), ket_state.normalized())

    def task(streams):
        theta = np.tile(base, (len(streams), 1))
        weights = np.full(len(streams), 2.0)
        return _doubled_series_chunk(
            _engine(model, sde), {}, streams, theta, weights, observable, sde, node_steps
        )

    return run_ensemble(task, n_trajectories, seed, grid=grid, method=_method(sde),
                        row_cost=_split_cost(model, sde))


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
    start = None if initial is None else initial.normalized().amplitudes
    # fail on incommensurate times before any trajectory work starts
    (pre_steps,) = grid_steps([t], sde.dt, "t")
    grid = np.asarray(tau_grid, dtype=float)
    node_steps = grid_steps(grid, sde.dt, "tau node")

    def task(streams):
        engine, counts = _engine(model, sde), {}
        if start is None:
            states = _haar_rows(streams, model.dim)
        else:
            states = np.tile(start, (len(streams), 1))
        if pre_steps > 0:
            states = _run(engine, counts, states, streams, pre_steps)
            if sde.scheme == "quasi_linear":
                states = _normalize_rows(states)
        b_psi = states @ perturbation.matrix.T
        weights = 1.0 + np.einsum("bi,bi->b", b_psi.conj(), b_psi).real
        theta = np.concatenate([states, b_psi], axis=1) / np.sqrt(weights)[:, None]
        return _doubled_series_chunk(
            engine, counts, streams, theta, weights, observable, sde, node_steps
        )

    return run_ensemble(task, n_trajectories, seed, grid=grid, method=_method(sde),
                        row_cost=_split_cost(model, sde))
