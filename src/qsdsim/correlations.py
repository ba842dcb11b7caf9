r"""Heisenberg-picture matrix elements and two-time correlation functions.

A matrix element <bra| A(t) |ket> between two different states is estimated
by stacking the pair into one doubled-space vector (bra, ket)/sqrt(2),
propagating it with an unraveling of the duplicated dynamics, and averaging
2 <upper_t| A |lower_t> over realizations.  The engines are built on the
base model and step the two blocks with its d x d operators; only the
oracle (``master.doubled_block_evolution``) builds the duplicated model.

A two-time correlation <A(t + tau) B(t)> follows the same pattern with a
trajectory-dependent pair: each realization propagates a single-space state
through warmup and t, applies the perturbation B to form the stacked vector
(psi_t, B psi_t)/sqrt(w) with weight w = 1 + ||B psi_t||^2, continues on the
doubled space over tau, and averages w <upper|A|lower>.  At tau = 0 the
weight cancels exactly and each realization contributes <psi_t| A B |psi_t>.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import QsdEngine, SdeConfig
from .ensemble import EnsembleResult, run_ensemble
from .hilbert import Ket, LindbladModel, Operator, make_doubled_state
from .noise import NoiseStream, grid_steps

__all__ = [
    "CorrelationRequest",
    "prepare_initial",
    "heisenberg_element",
    "correlate",
]

INITIAL_SPECS = ("steady_state", "random_uniform")


@dataclass(frozen=True, eq=False)
class CorrelationRequest:
    """Specification of one two-time correlation estimate.

    ``initial`` is either an explicit Ket (used as-is, no warmup applied) or
    one of the named specs: "random_uniform" draws a Haar-uniform ket per
    trajectory and relaxes it for ``warmup_time``; "steady_state" is the
    same with the understanding that the warmup should reach stationarity
    (default 30 inverse decay rates when built through the CLI).
    """

    observable: Operator
    perturbation: Operator
    t: float
    tau_grid: np.ndarray
    n_trajectories: int
    sde: SdeConfig
    initial: "Ket | str" = "steady_state"
    warmup_time: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.tau_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("tau_grid must be a non-empty 1-D array")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("tau_grid must be non-negative and strictly increasing")
        object.__setattr__(self, "tau_grid", grid)
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.warmup_time < 0:
            raise ValueError(f"warmup_time must be >= 0, got {self.warmup_time}")
        if self.n_trajectories < 2:
            raise ValueError(f"n_trajectories must be >= 2, got {self.n_trajectories}")
        if self.observable.dim != self.perturbation.dim:
            raise ValueError(
                f"operator dimension mismatch: observable {self.observable.dim}, "
                f"perturbation {self.perturbation.dim}"
            )
        if isinstance(self.initial, str):
            if self.initial not in INITIAL_SPECS:
                raise ValueError(
                    f"unknown initial spec {self.initial!r}, expected a Ket or one of {INITIAL_SPECS}"
                )
        elif not isinstance(self.initial, Ket):
            raise TypeError("initial must be a Ket or a named spec string")


def _haar_rows(streams, dim: int) -> np.ndarray:
    out = np.empty((len(streams), dim), dtype=complex)
    for i, stream in enumerate(streams):
        vec = stream.complex_normals(dim)
        norm = np.linalg.norm(vec)
        while norm == 0.0:  # probability zero, but stay total
            vec = stream.complex_normals(dim)
            norm = np.linalg.norm(vec)
        out[i] = vec / norm
    return out


def _default_engine_factory(model: LindbladModel, sde: SdeConfig):
    return QsdEngine(model, sde.dt, sde.scheme)


def _normalize_rows(states: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(states, axis=1)
    return states / norms[:, None]


def _doubled_series_chunk(
    streams,
    theta: np.ndarray,
    weights: np.ndarray,
    model: LindbladModel,
    observable: Operator,
    sde: SdeConfig,
    node_steps: list[int],
    engine_factory,
) -> np.ndarray:
    """Propagate stacked states over the recording grid, returning the
    weighted block inner products w <upper|A|lower> (per norm^2 for the
    quasi-linear scheme) for every trajectory and node."""
    d = model.dim
    a_mat = observable.matrix
    vals = np.empty((theta.shape[0], len(node_steps)), dtype=complex)
    quasi = sde.scheme == "quasi_linear"

    def on_record(slot, states, norms):
        inner = np.einsum("bi,ij,bj->b", states[:, :d].conj(), a_mat, states[:, d:])
        if quasi:
            inner = inner / norms**2
        vals[:, slot] = weights * inner

    engine = engine_factory(model, sde)
    engine.run(theta, streams, node_steps[-1], node_steps, on_record)
    return vals


def _correlation_chunk(
    streams,
    request: CorrelationRequest,
    model: LindbladModel,
    engine_factory,
    pre_steps: int,
    node_steps: list[int],
) -> np.ndarray:
    sde = request.sde
    if isinstance(request.initial, Ket):
        states = np.tile(request.initial.normalized().amplitudes, (len(streams), 1))
    else:
        states = _haar_rows(streams, model.dim)
    if pre_steps > 0:
        engine = engine_factory(model, sde)
        states = engine.run(states, streams, pre_steps)
        if sde.scheme == "quasi_linear":
            states = _normalize_rows(states)
    b_psi = states @ request.perturbation.matrix.T
    weights = 1.0 + np.einsum("bi,bi->b", b_psi.conj(), b_psi).real
    theta = np.concatenate([states, b_psi], axis=1) / np.sqrt(weights)[:, None]
    return _doubled_series_chunk(
        streams,
        theta,
        weights,
        model,
        request.observable,
        sde,
        node_steps,
        engine_factory,
    )


def prepare_initial(
    initial: "Ket | str",
    model: LindbladModel,
    warmup_time: float,
    sde: SdeConfig,
    stream: NoiseStream,
    engine_factory=None,
) -> Ket:
    """Single-trajectory initial state: explicit ket, or Haar draw + warmup.

    An explicit Ket is returned unchanged (normalized); the named specs draw
    a Haar-uniform ket from ``stream`` and relax it for ``warmup_time``
    under the model's unraveled dynamics.
    """
    if isinstance(initial, Ket):
        return initial.normalized()
    if initial not in INITIAL_SPECS:
        raise ValueError(f"unknown initial spec {initial!r}")
    factory = engine_factory or _default_engine_factory
    states = _haar_rows([stream], model.dim)
    (steps,) = grid_steps([warmup_time], sde.dt, "warmup_time")
    if steps > 0:
        states = factory(model, sde).run(states, [stream], steps)
        if sde.scheme == "quasi_linear":
            states = _normalize_rows(states)
    return Ket(states[0])


def heisenberg_element(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    n_trajectories: int,
    sde: SdeConfig,
    seed: int,
    workers: int = 1,
    engine_factory=None,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Trajectory estimate of <bra| A(t) |ket> on ``t_grid``.

    Stacks the pair into (bra, ket)/sqrt(2) and averages the doubled-space
    estimator over ``n_trajectories`` realizations.
    """
    grid = np.asarray(t_grid, dtype=float)
    node_steps = grid_steps(grid, sde.dt)
    theta0 = make_doubled_state(bra_state.normalized(), ket_state.normalized())
    factory = engine_factory or _default_engine_factory
    base = theta0.vector()

    def task(streams):
        theta = np.tile(base, (len(streams), 1))
        weights = np.full(len(streams), 2.0)
        return _doubled_series_chunk(
            streams, theta, weights, model, observable, sde, node_steps, factory
        )

    return run_ensemble(
        task,
        n_trajectories,
        seed,
        workers=workers,
        grid=grid,
        method=f"qsd-{sde.scheme}" if factory is _default_engine_factory else "custom",
        keep_samples=keep_samples,
    )


def correlate(
    request: CorrelationRequest,
    model: LindbladModel,
    seed: int,
    workers: int = 1,
    engine_factory=None,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Trajectory estimate of <A(t + tau) B(t)> over ``request.tau_grid``."""
    if request.observable.dim != model.dim:
        raise ValueError(
            f"dimension mismatch: observable {request.observable.dim}, model {model.dim}"
        )
    # fail on incommensurate times before any trajectory work starts
    dt = request.sde.dt
    if isinstance(request.initial, Ket):
        (pre_steps,) = grid_steps([request.t], dt, "t")
    else:
        (pre_steps,) = grid_steps(
            [request.warmup_time + request.t], dt, "warmup_time + t"
        )
    node_steps = grid_steps(request.tau_grid, dt, "tau node")
    factory = engine_factory or _default_engine_factory

    def task(streams):
        return _correlation_chunk(
            streams, request, model, factory, pre_steps, node_steps
        )

    return run_ensemble(
        task,
        request.n_trajectories,
        seed,
        workers=workers,
        grid=request.tau_grid,
        method=f"qsd-{request.sde.scheme}" if factory is _default_engine_factory else "custom",
        keep_samples=keep_samples,
    )
