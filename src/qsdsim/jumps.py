r"""Piecewise-deterministic jump unraveling of the master equation.

Between jumps the normalized state follows the non-Hermitian drift
H - (i/2) sum_j L_j^dag L_j (first-order update, renormalized every
substep).  Jumps are sampled by the survival-threshold method: one uniform
threshold is drawn per inter-jump interval and compared against the
accumulated no-jump probability prod_k (1 - p(t_k)) with per-substep
p = dt sum_j ||L_j psi||^2; when the product drops below the threshold the
trajectory jumps, a second uniform selects the channel with weights
||L_j psi||^2, and the state is replaced by L_j psi / ||L_j psi||.

Per substep this is exactly a Bernoulli(p) jump decision, but only two
random numbers are consumed per jump (the channel draw and the next
threshold), plus one initial threshold per trajectory segment.  A substep
with p > 0.1 aborts: the first-order scheme needs a smaller dt.

The same machinery runs on the doubled space for matrix elements and
two-time correlations.  The duplicated operators are block-diagonal, so the
engine steps a doubled state block by block with the model's own d x d
operators, jump probabilities and norms summed over both blocks, and a zero
block stays zero through drifts and jumps alike.

The no-jump drift is built from ``LindbladModel.generator`` and the step is
checked by ``noise.check_step``, as in the diffusive engine.
"""

import threading
from dataclasses import dataclass, replace

import numpy as np

from .correlations import CorrelationRequest, correlate, heisenberg_element
from .diffusion import (
    SdeConfig,
    _columns,
    _pack_state,
    _real_inner,
    _record_slots,
    _rows,
    _split_state,
    _unstable_row,
)
from .ensemble import EnsembleResult
from .errors import InstabilityError
from .hilbert import Ket, LindbladModel, Operator
from .noise import NoiseStream, check_step

__all__ = [
    "JumpControl",
    "JumpEngine",
    "step_jump",
    "jump_matrix_element",
    "jump_correlate",
]

MAX_JUMP_PROBABILITY = 0.1


@dataclass
class JumpControl:
    """Waiting-time sampler state carried between substeps.

    ``threshold`` is the uniform the survival probability is compared
    against; ``survival`` accumulates prod (1 - p) since the last jump.
    With a fresh control per substep the decision degenerates to an
    independent Bernoulli(p) draw per call.
    """

    threshold: float
    survival: float = 1.0
    jumps: int = 0

    @classmethod
    def start(cls, stream: NoiseStream) -> "JumpControl":
        return cls(threshold=stream.uniform())


class JumpEngine:
    """Batched jump-unraveling propagation, API-compatible with QsdEngine.

    Rows of width 2 dim are doubled states, stepped block by block with the
    model's d x d operators like in QsdEngine, and the batch is stepped
    column-major in the same way.  A substep is one product with the stacked
    (2 dim, dim) matrix of the no-jump map I + dt G and sum_j L_j^dag L_j,
    and one norm.
    """

    def __init__(self, model: LindbladModel, dt: float,
                 max_jump_probability: float = MAX_JUMP_PROBABILITY):
        self.dt = check_step(dt)
        if not 0 < max_jump_probability <= 1:
            raise ValueError(
                f"max_jump_probability must be in (0, 1], got {max_jump_probability}"
            )
        self.dim = model.dim
        self.max_jump_probability = max_jump_probability
        self._ls = [op.matrix for op in model.lindblads]
        no_jump = np.eye(model.dim) + dt * model.generator()
        self._stack = np.concatenate([no_jump, model.ldl_sum()])
        self.last_jump_counts: np.ndarray | None = None

    def _jump(self, psi: np.ndarray, stream: NoiseStream) -> np.ndarray:
        """L_j psi / ||L_j psi|| for the pre-jump (dim, k) columns ``psi`` of
        one trajectory, channel j drawn with weight ||L_j psi||^2."""
        candidates = [lmat @ psi for lmat in self._ls]
        weights = [float(np.vdot(c, c).real) for c in candidates]
        total = sum(weights)
        if total <= 0.0:
            raise InstabilityError("jump selected with zero total jump weight")
        pick = stream.uniform() * total
        acc = 0.0
        channel = len(weights) - 1
        for j, w in enumerate(weights):
            acc += w
            if pick < acc:
                channel = j
                break
        return candidates[channel] / np.sqrt(weights[channel])

    def run(
        self,
        states: np.ndarray,
        streams,
        n_steps: int,
        record_steps=(),
        on_record=None,
        controls: "list[JumpControl] | None" = None,
    ) -> np.ndarray:
        """Advance normalized states by ``n_steps`` substeps.

        Records fire exactly like in QsdEngine; the norms handed to
        ``on_record`` are the pre-renormalization norms of the update that
        landed on the node.  Fresh waiting-time controls are drawn from the
        streams unless ``controls`` is given; per-trajectory jump counts are
        left in ``last_jump_counts``.
        """
        x = _columns(states, self.dim)
        batch = x.shape[2]
        if len(streams) != batch:
            raise ValueError(f"need one stream per row: {len(streams)} streams, batch {batch}")
        slots = _record_slots(record_steps, n_steps)
        if controls is None:
            controls = [JumpControl.start(s) for s in streams]
        elif len(controls) != batch:
            raise ValueError("need one control per trajectory")
        thresholds = np.array([c.threshold for c in controls])
        survival = np.array([c.survival for c in controls])
        jumps = np.zeros(batch, dtype=np.int64)

        if 0 in slots and on_record is not None:
            on_record(slots[0], _rows(x), np.sqrt(_real_inner(x, x)))

        dt = self.dt
        for step in range(1, n_steps + 1):
            # overflow shows up as a non-finite norm, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                new, ldl_psi = (self._stack @ x.reshape(self.dim, -1)).reshape(2, *x.shape)
                p_tot = dt * _real_inner(x, ldl_psi)
                norms = np.sqrt(_real_inner(new, new))
            worst = float(p_tot.max(initial=0.0))
            if worst > self.max_jump_probability:
                raise _unstable_row(
                    f"jump probability {worst:.3g} exceeds "
                    f"{self.max_jump_probability} at substep {step}; reduce dt",
                    p_tot > self.max_jump_probability, streams,
                )
            survival *= 1.0 - p_tot
            jump_rows = np.flatnonzero(survival < thresholds)
            if not (norms.min() > 0.0 and norms.max() < np.inf):
                degenerate = ~np.isfinite(norms) | (norms == 0.0)
                degenerate[jump_rows] &= ~np.isfinite(norms[jump_rows])
                if np.any(degenerate):
                    raise _unstable_row(
                        f"degenerate no-jump update at substep {step}", degenerate, streams
                    )
            if jump_rows.size:
                for i in jump_rows:
                    new[:, :, i] = self._jump(x[:, :, i], streams[i])
                    thresholds[i] = streams[i].uniform()
                norms[jump_rows] = 1.0
                survival[jump_rows] = 1.0
                jumps[jump_rows] += 1
            new *= 1.0 / norms
            x = new
            if step in slots and on_record is not None:
                on_record(slots[step], _rows(x), norms)

        for c, thr, sur, jmp in zip(controls, thresholds, survival, jumps):
            c.threshold = float(thr)
            c.survival = float(sur)
            c.jumps += int(jmp)
        self.last_jump_counts = jumps
        return _rows(x)


def step_jump(
    state,
    model: LindbladModel,
    dt: float,
    stream: NoiseStream,
    control: JumpControl | None = None,
):
    """One jump-unraveling substep on a Ket or DoubledState.

    Without ``control`` the jump decision is an independent Bernoulli with
    probability dt sum_j ||L_j state||^2 (one fresh threshold per call); a
    persistent control carries the waiting-time sampler across calls so a
    whole inter-jump interval consumes only the two draws of its jump.
    """
    vec, doubled = _split_state(state, model)
    controls = [control] if control is not None else None
    out = JumpEngine(model, dt).run(vec.reshape(1, -1), [stream], 1, controls=controls)[0]
    return _pack_state(out, model.dim, doubled)


class _JumpFactory:
    """Engine factory that totals jump counts across all chunks it serves."""

    def __init__(self):
        self._engines: list[JumpEngine] = []
        self._lock = threading.Lock()

    def __call__(self, model: LindbladModel, sde: SdeConfig) -> JumpEngine:
        engine = JumpEngine(model, sde.dt)
        with self._lock:
            self._engines.append(engine)
        return engine

    def total_jumps(self) -> int:
        with self._lock:
            return int(
                sum(
                    int(engine.last_jump_counts.sum())
                    for engine in self._engines
                    if engine.last_jump_counts is not None
                )
            )


def jump_matrix_element(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    n_trajectories: int,
    dt: float,
    seed: int,
    workers: int = 1,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Jump-unraveling estimate of <bra| A(t) |ket>; same estimator as the
    diffusive doubled-space scheme, 2 <upper|A|lower> averaged."""
    factory = _JumpFactory()
    res = heisenberg_element(
        observable,
        bra_state,
        ket_state,
        model,
        t_grid,
        n_trajectories,
        SdeConfig(dt=dt, scheme="normalized"),
        seed,
        workers=workers,
        engine_factory=factory,
        keep_samples=keep_samples,
    )
    return replace(
        res, method="jump", extras={**res.extras, "jumps_total": factory.total_jumps()}
    )


def jump_correlate(
    request: CorrelationRequest,
    model: LindbladModel,
    seed: int,
    workers: int = 1,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Jump-unraveling estimate of <A(t + tau) B(t)>; both the preparation
    segment and the doubled-space segment use the jump scheme."""
    factory = _JumpFactory()
    res = correlate(
        request,
        model,
        seed,
        workers=workers,
        engine_factory=factory,
        keep_samples=keep_samples,
    )
    return replace(
        res, method="jump", extras={**res.extras, "jumps_total": factory.total_jumps()}
    )
