r"""Event-driven jump unraveling of the master equation.

Between jumps a trajectory follows the no-jump propagator U = exp(dt G),
G = -iH - (1/2) sum_j L_j^dag L_j, applied exactly on the dt grid.  Since
G + G^dag = -sum_j L_j^dag L_j <= 0, U is a contraction: for a unit state
psi, S(m) = ||U^m psi||^2 is the exact probability that no jump happens
within m substeps, and it never increases.  Jumps are sampled by the
survival-threshold (waiting-time) method.  One uniform threshold r is drawn
per inter-jump interval, and the trajectory jumps at the first substep m
with S(m) < r.  A second uniform picks channel j with weight
||L_j phi||^2 at the state phi one substep before the jump, and the state
becomes L_j phi / ||L_j phi||.  Where every weight vanishes there (a jump
within the first substep after landing in the kernel of every L_j), the
weights and the jump are taken at the jump substep itself.

Jump times lie on the dt grid, but the drift between them carries no
discretization error, so dt does not limit stability.  Only two random
numbers are consumed per jump, the channel draw and the next threshold,
taken by one ``uniform(2)`` call on the trajectory's stream, plus one
threshold per trajectory at the start of every ``run``, which starts each
trajectory afresh with survival 1.

``run`` moves the whole batch in lock-step rounds, to each record node and
then to ``n_steps``.  Within a round, the jump substep of every trajectory
is found at once by binary lifting over the cached powers U^(2^k): each
level tries one power on every trajectory still short of the round's end
and keeps it where the survival stays at or above the threshold.  A round
therefore costs about log2(steps) small products per jump instead of one
per substep.  At every record node and at the end the states are
renormalized and their survival carried on.

The same machinery runs on the doubled space for matrix elements and
two-time correlations.  The duplicated operators are block-diagonal, so the
engine steps a doubled state block by block with the model's own d x d
operators, jump weights and norms summed over both blocks, and a zero block
stays zero through drifts and jumps alike.

:class:`JumpEngine` is an engine like ``QsdEngine``, with the same ``run``
signature; the estimators in :mod:`qsdsim.correlations` build it for
``SdeConfig(dt, scheme="jump")`` and total its ``last_jump_counts`` per
chunk.  The propagator is built from ``LindbladModel.generator`` and the
step is checked by ``noise.check_step``, as in the diffusive engine.
"""

import math

import numpy as np

from .diffusion import _columns, _real_inner, _record_slots, _rows, _stacked, _unstable_row
from .hilbert import LindbladModel
from .noise import check_step

__all__ = ["JumpEngine"]

# exp(a) is a degree-16 Taylor polynomial of a / 2^s, ||a / 2^s||_1 <= 1/2,
# squared s times; the truncation error is below 0.5^17 / 17! = 2e-20.
# Rounding grows about like 2^s eps in the squarings, so beyond ||a||_1 = 2^32
# (an error near 1e-6, enough to let the survival grow) no result is given.
_TAYLOR_DEGREE = 16
_TAYLOR_RADIUS = 0.5
_MAX_NORM = 2.0**32


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a complex square matrix by scaling and squaring; NaN
    throughout when ``a`` is not finite or its 1-norm exceeds 2^32."""
    a = np.ascontiguousarray(a, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not norm <= _MAX_NORM:
        return np.full_like(a, np.nan)
    squarings = math.ceil(math.log2(norm / _TAYLOR_RADIUS)) if norm > _TAYLOR_RADIUS else 0
    scaled = a / 2.0**squarings
    eye = np.eye(len(a), dtype=complex)
    out = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        out = eye + (scaled @ out) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    return out


class JumpEngine:
    """Batched jump-unraveling propagation, API-compatible with QsdEngine.

    Rows of width 2 dim are doubled states, stepped block by block with the
    model's d x d operators like in QsdEngine, and the batch is column-major
    in the same way.  ``__init__`` computes the no-jump propagator
    U = exp(dt G); ``run`` squares it into the powers U^(2^k) it needs and
    keeps them for later runs.  A round of ``run`` costs one product with
    each power per trajectory still moving, and each jump one product with
    the stacked (n_channels dim, dim) matrix of every L_j.
    """

    def __init__(self, model: LindbladModel, dt: float):
        self.dt = check_step(dt)
        self.dim = model.dim
        self._ls = np.concatenate([op.matrix for op in model.lindblads])
        with np.errstate(over="ignore", invalid="ignore"):
            step = _expm(dt * model.generator())
        self._finite = bool(np.all(np.isfinite(step)))
        self._powers = [step]  # U^(2^k) for k = 0, 1, ...
        self.last_jump_counts: np.ndarray | None = None

    def _propagate(self, power: int, x: np.ndarray) -> np.ndarray:
        """U^(2^power) applied to every block of column-major ``x``."""
        while len(self._powers) <= power:
            self._powers.append(self._powers[-1] @ self._powers[-1])
        return _stacked(self._powers[power], x)[0]

    def run(
        self,
        states: np.ndarray,
        streams,
        n_steps: int,
        record_steps=(),
        on_record=None,
    ) -> np.ndarray:
        """Advance states by ``n_steps`` substeps.

        Records fire at the same steps as in QsdEngine, with unit states;
        the norms handed to ``on_record`` are those of the no-jump
        propagation since the previous record node or jump, before
        renormalization (1 where a jump lands on the node).  The input
        states are normalized first.  When ``n_steps > 0`` every trajectory
        starts with survival 1 and a fresh threshold, one uniform drawn from
        each stream in stream order; with no steps nothing is drawn.
        Per-trajectory jump counts are left in ``last_jump_counts``.
        """
        x = _columns(states, self.dim)
        batch = x.shape[2]
        if len(streams) != batch:
            raise ValueError(f"need one stream per row: {len(streams)} streams, batch {batch}")
        slots = _record_slots(record_steps, n_steps)
        jumps = np.zeros(batch, dtype=np.int64)

        norms = np.sqrt(_real_inner(x, x))
        if 0 in slots and on_record is not None:
            on_record(slots[0], _rows(x), norms)
        if n_steps > 0:
            if not self._finite:
                raise _unstable_row(
                    f"no-jump propagator exp(dt G) at dt={self.dt} is not finite or "
                    f"||dt G||_1 exceeds 2^32; reduce dt", np.ones(batch, dtype=bool), streams,
                )
            degenerate = ~np.isfinite(norms) | (norms == 0.0)
            if np.any(degenerate):
                raise _unstable_row("degenerate initial state", degenerate, streams)
            x /= norms
            thresholds = np.array([s.uniform() for s in streams])
            survival = np.ones(batch)
            start = 0
            for stop in sorted((set(slots) | {n_steps}) - {0}):
                norms = self._advance(x, stop - start, survival, thresholds, jumps, streams)
                if stop in slots and on_record is not None:
                    on_record(slots[stop], _rows(x), norms)
                start = stop

        self.last_jump_counts = jumps
        return _rows(x)

    def _advance(self, x, span, survival, thresholds, jumps, streams) -> np.ndarray:
        """Move the unit columns of ``x`` by ``span`` substeps in place,
        updating each trajectory's ``survival``, ``thresholds`` and
        ``jumps``; returns the norms of the last no-jump stretch."""
        norms = np.ones(x.shape[2])
        left = np.full(x.shape[2], span)
        active = np.arange(x.shape[2])
        while active.size:
            phi = np.take(x, active, axis=2)
            reach = left[active]
            carried = survival[active]
            limit = thresholds[active]
            # moved = the most substeps m <= reach with carried S(m) >= limit
            moved = np.zeros(active.size, dtype=np.int64)
            for k in reversed(range(int(reach.max()).bit_length())):
                trial = self._propagate(k, phi)
                take = (moved + (1 << k) <= reach) & (carried * _real_inner(trial, trial) >= limit)
                phi = np.where(take, trial, phi)
                moved += take * (1 << k)

            arrived = moved == reach
            rows = active[arrived]
            landed = np.compress(arrived, phi, axis=2)
            norm2 = _real_inner(landed, landed)
            if not np.all(norm2 > 0.0):
                raise _unstable_row(
                    f"degenerate no-jump update over {span} substeps",
                    np.isin(np.arange(x.shape[2]), rows[~(norm2 > 0.0)]), streams,
                )
            survival[rows] = carried[arrived] * norm2
            norms[rows] = np.sqrt(norm2)
            x[:, :, rows] = landed / norms[rows]

            # the rest jump at substep moved + 1, from phi = U^moved psi
            rows = active[~arrived]
            if rows.size:
                pre = np.compress(~arrived, phi, axis=2)
                x[:, :, rows] = self._jump(pre, rows, thresholds, streams)
                survival[rows] = 1.0
                jumps[rows] += 1
                norms[rows] = 1.0
                left[rows] = (reach - moved - 1)[~arrived]
            active = rows[left[rows] > 0]
        return norms

    def _jump(self, pre, rows, thresholds, streams) -> np.ndarray:
        """Unit jumped states for the pre-jump columns ``pre`` of trajectories
        ``rows``, channel j drawn with weight ||L_j pre||^2; draws each
        trajectory's channel and its next entry of ``thresholds``."""
        weights, candidates = self._channels(pre)
        dark = weights.sum(axis=0) == 0.0
        if np.any(dark):
            # the jump fell in the first substep after a jump into the
            # kernel of every L_j: take it at the jump substep
            weights[:, dark], candidates[..., dark] = self._channels(
                self._propagate(0, np.compress(dark, pre, axis=2))
            )
        total = weights.sum(axis=0)
        bad = ~((total > 0.0) & (total < np.inf))
        if np.any(bad):
            raise _unstable_row(
                "jump selected with zero total jump weight",
                np.isin(np.arange(len(streams)), rows[bad]), streams,
            )
        # one call per trajectory: its channel pick, then its next threshold
        draws = np.array([streams[i].uniform(2) for i in rows])
        picks = draws[:, 0] * total
        thresholds[rows] = draws[:, 1]
        # the first channel whose cumulative weight exceeds the pick
        channel = np.minimum((picks >= np.cumsum(weights, axis=0)).sum(axis=0), len(weights) - 1)
        chosen = np.take_along_axis(candidates, channel[None, None, None, :], axis=0)[0]
        return chosen / np.sqrt(np.take_along_axis(weights, channel[None, :], axis=0)[0])

    def _channels(self, x):
        """(n_channels, n) weights ||L_j x||^2 and (n_channels, dim, k, n)
        states L_j x of column-major ``x``."""
        lx = _stacked(self._ls, x)
        return (lx.real**2 + lx.imag**2).sum(axis=(1, 2)), lx
