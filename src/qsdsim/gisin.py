r"""Coupled-pair unraveling for matrix elements, and why it is not used.

Instead of doubling the Hilbert space, one can couple two single-space
states through cross-expectation coefficients

    l_j(a, b) = <a| L_j |b> / <a|b>

and drive both with the same complex Wiener increments:

    d ket = -i H ket dt
            + (1/2) sum_j [2 l_j(ket, bra)^* L_j - L_j^dag L_j
                           - l_j(bra, ket) l_j(ket, bra)^*] ket dt
            + sum_j (L_j - l_j(bra, ket)) ket dxi_j

and symmetrically for the bra-side state with the two argument orders
swapped everywhere.  This scheme preserves <bra_t|ket_t> exactly in the
continuum (the matrix element of the identity is right for every single
realization), and the plain average of <bra_t| A |ket_t> estimates the
Heisenberg matrix element with no reweighting.

The quasi-linear variant drops the nonlinear compensation terms in the same
way the quasi-linear state-diffusion equation does, keeping the cross drift
coefficients:

    d ket = -i H ket dt + sum_j L_j ket (dxi_j + l_j(ket, bra)^* dt)
            - (1/2) sum_j L_j^dag L_j ket dt

(bra-side with swapped coefficient l_j(bra, ket)^*, same increments).  In
the continuum this is ray-equivalent to the full scheme, so the estimator
<bra|A|ket> renormalized by the scalar-product ratio
<bra_0|ket_0> / <bra_t|ket_t> reproduces it realization by realization and
keeps the identity element exact.  Numerically, however, the deterministic
part is unstable for dissipative models: the scalar product in the
denominators of l_j decays toward zero, fluctuations are amplified, and the
estimates degrade systematically after a fraction of a decay time.  This
module exists to quantify that failure; production estimates use the
doubled-space schemes.

Realizations whose scalar product magnitude falls below a floor (default
1e-12) are aborted and excluded from the averages from that node on;
realizations that overflow are likewise flagged.  Both counts, the per-node
surviving ensemble sizes, and the worst scalar-product drift appear in the
instability report.

The kernel shares its drift (``LindbladModel.generator``), its step check,
its dt grid rule and its noise blocks with the doubled-space engines.
"""

import time
from dataclasses import dataclass

import numpy as np

from .diffusion import complex_standard_error
from .errors import InstabilityError
from .hilbert import Ket, LindbladModel, Operator
from .noise import check_step, grid_steps, substream, wiener_blocks

__all__ = [
    "CoupledPair",
    "GisinResult",
    "step_coupled",
    "step_coupled_quasilinear",
    "run_coupled_ensemble",
    "instability_report",
]

DEFAULT_FLOOR = 1e-12
VARIANTS = ("unity", "quasi_linear")


@dataclass(frozen=True, eq=False)
class CoupledPair:
    """Bra-side and ket-side states evolving under shared noise.

    ``scalar_products`` records <bra|ket> after each applied step (index 0
    is the initial value); the full scheme keeps it constant up to
    discretization error, the quasi-linear variant lets it wander.
    """

    bra_side: Ket
    ket_side: Ket
    scalar_products: tuple = ()

    def __post_init__(self):
        if self.bra_side.dim != self.ket_side.dim:
            raise ValueError(
                f"dimension mismatch: {self.bra_side.dim} vs {self.ket_side.dim}"
            )
        if not self.scalar_products:
            object.__setattr__(
                self, "scalar_products", (self.bra_side.overlap(self.ket_side),)
            )

    @property
    def dim(self) -> int:
        return self.bra_side.dim

    def scalar_product(self) -> complex:
        return self.scalar_products[-1]


@dataclass(frozen=True, eq=False)
class GisinResult:
    """Ensemble estimates plus stability diagnostics for the coupled scheme."""

    grid: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n: int
    n_alive: np.ndarray
    variant: str
    aborted: int
    overflowed: int
    max_scalar_drift: float
    wall_time_seconds: float
    draws_total: int


class _PairKernel:
    """Euler-Maruyama stepping of coupled pairs, batched over rows.

    The kernel itself never aborts; callers decide how rows with degenerate
    scalar products are handled (raise for single pairs, freeze and tally
    for ensembles).
    """

    def __init__(self, model: LindbladModel, dt: float, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        self.dt = check_step(dt)
        self.variant = variant
        self.n_channels = model.n_channels
        self.dim = model.dim
        self._ls_t = [np.ascontiguousarray(op.matrix.T) for op in model.lindblads]
        self._drift_t = np.ascontiguousarray(model.generator().T)

    @staticmethod
    def scalar_products(kets: np.ndarray, bras: np.ndarray) -> np.ndarray:
        return np.einsum("bi,bi->b", bras.conj(), kets)

    def step(self, kets: np.ndarray, bras: np.ndarray, dxi: np.ndarray):
        """Advance all rows by one step; returns (new_kets, new_bras).

        Assumes the caller already verified the scalar products are usable
        as denominators.
        """
        dt = self.dt
        sp = self.scalar_products(kets, bras)
        drift_kets = kets @ self._drift_t
        drift_bras = bras @ self._drift_t
        new_kets = kets + dt * drift_kets
        new_bras = bras + dt * drift_bras
        for j, l_t in enumerate(self._ls_t):
            l_kets = kets @ l_t
            l_bras = bras @ l_t
            # l_j(ket, bra) = <ket|L_j|bra> / <ket|bra>; <ket|bra> = conj(sp)
            l_ket_bra = np.einsum("bi,bi->b", kets.conj(), l_bras) / sp.conj()
            l_bra_ket = np.einsum("bi,bi->b", bras.conj(), l_kets) / sp
            xi = dxi[:, j]
            if self.variant == "unity":
                new_kets += dt * (
                    l_ket_bra.conj()[:, None] * l_kets
                    - 0.5 * (l_bra_ket * l_ket_bra.conj())[:, None] * kets
                )
                new_bras += dt * (
                    l_bra_ket.conj()[:, None] * l_bras
                    - 0.5 * (l_ket_bra * l_bra_ket.conj())[:, None] * bras
                )
                new_kets += xi[:, None] * l_kets - (xi * l_bra_ket)[:, None] * kets
                new_bras += xi[:, None] * l_bras - (xi * l_ket_bra)[:, None] * bras
            else:
                new_kets += (xi + l_ket_bra.conj() * dt)[:, None] * l_kets
                new_bras += (xi + l_bra_ket.conj() * dt)[:, None] * l_bras
        return new_kets, new_bras


def _step_pair(
    pair: CoupledPair,
    model: LindbladModel,
    dt: float,
    increments: np.ndarray,
    variant: str,
    floor: float,
) -> CoupledPair:
    if pair.dim != model.dim:
        raise ValueError(f"dimension mismatch: pair {pair.dim}, model {model.dim}")
    dxi = np.asarray(increments, dtype=complex).reshape(1, -1)
    if dxi.shape[1] != model.n_channels:
        raise ValueError(f"expected {model.n_channels} increments, got {dxi.shape[1]}")
    sp = pair.scalar_product()
    if abs(sp) < floor:
        raise InstabilityError(
            f"scalar product magnitude {abs(sp):.3e} below floor {floor:g}; "
            "realization aborted"
        )
    kernel = _PairKernel(model, dt, variant)
    kets = pair.ket_side.amplitudes.reshape(1, -1)
    bras = pair.bra_side.amplitudes.reshape(1, -1)
    new_kets, new_bras, = kernel.step(kets, bras, dxi)
    if not (np.all(np.isfinite(new_kets)) and np.all(np.isfinite(new_bras))):
        raise InstabilityError("coupled step produced non-finite amplitudes")
    new_sp = complex(np.vdot(new_bras[0], new_kets[0]))
    return CoupledPair(
        bra_side=Ket(new_bras[0]),
        ket_side=Ket(new_kets[0]),
        scalar_products=pair.scalar_products + (new_sp,),
    )


def step_coupled(
    pair: CoupledPair,
    model: LindbladModel,
    dt: float,
    increments: np.ndarray,
    floor: float = DEFAULT_FLOOR,
) -> CoupledPair:
    """One step of the scalar-product-preserving coupled scheme."""
    return _step_pair(pair, model, dt, increments, "unity", floor)


def step_coupled_quasilinear(
    pair: CoupledPair,
    model: LindbladModel,
    dt: float,
    increments: np.ndarray,
    floor: float = DEFAULT_FLOOR,
) -> CoupledPair:
    """One step of the quasi-linear coupled variant (shared increments,
    cross drift coefficients, no nonlinear compensation)."""
    return _step_pair(pair, model, dt, increments, "quasi_linear", floor)


def run_coupled_ensemble(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    dt: float,
    n: int,
    seed: int,
    variant: str = "quasi_linear",
    floor: float = DEFAULT_FLOOR,
) -> GisinResult:
    """Ensemble estimate of <bra| A(t) |ket> with the coupled-pair scheme.

    Estimator: plain mean of <bra_t|A|ket_t> for the full scheme; for the
    quasi-linear variant each value is renormalized by
    <bra_0|ket_0>/<bra_t|ket_t>.  Aborted and overflowed rows are frozen and
    excluded from the mean and error from that node on; ``n_alive`` tracks
    how many realizations still contribute at each node.
    """
    grid = np.asarray(t_grid, dtype=float)
    steps = grid_steps(grid, dt)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    start = time.perf_counter()
    kernel = _PairKernel(model, dt, variant)
    bra0 = bra_state.normalized().amplitudes
    ket0 = ket_state.normalized().amplitudes
    sp0 = complex(np.vdot(bra0, ket0))
    if abs(sp0) < floor:
        raise ValueError("initial states are orthogonal; the scheme is undefined")

    kets = np.tile(ket0, (n, 1))
    bras = np.tile(bra0, (n, 1))
    streams = [substream(seed, i) for i in range(n)]
    alive = np.ones(n, dtype=bool)
    aborted = np.zeros(n, dtype=bool)
    overflowed = np.zeros(n, dtype=bool)
    vals = np.full((n, len(steps)), np.nan + 0j, dtype=complex)
    max_drift = 0.0
    slots = {k: i for i, k in enumerate(steps)}

    def record(slot: int):
        sp = kernel.scalar_products(kets[alive], bras[alive])
        inner = np.einsum(
            "bi,ij,bj->b", bras[alive].conj(), observable.matrix, kets[alive]
        )
        if variant == "quasi_linear":
            vals[alive, slot] = inner * (sp0 / sp)
        else:
            vals[alive, slot] = inner

    if 0 in slots:
        record(slots[0])
    done = 0
    # aborted rows keep drawing to preserve per-trajectory draw sequences;
    # their states stay frozen
    for noise in wiener_blocks(streams, steps[-1], model.n_channels, dt):
        for k in range(noise.shape[1]):
            if np.any(alive):
                sp = kernel.scalar_products(kets[alive], bras[alive])
                degenerate = np.abs(sp) < floor
                if np.any(degenerate):
                    rows = np.nonzero(alive)[0][degenerate]
                    aborted[rows] = True
                    alive[rows] = False
                if np.any(alive):
                    idx = np.nonzero(alive)[0]
                    new_kets, new_bras = kernel.step(
                        kets[idx], bras[idx], noise[idx, k, :]
                    )
                    finite = np.isfinite(new_kets).all(axis=1) & np.isfinite(
                        new_bras
                    ).all(axis=1)
                    if not np.all(finite):
                        bad = idx[~finite]
                        overflowed[bad] = True
                        alive[bad] = False
                    good = idx[finite]
                    kets[good] = new_kets[finite]
                    bras[good] = new_bras[finite]
                    sp_now = kernel.scalar_products(kets[good], bras[good])
                    if sp_now.size:
                        drift = float(np.max(np.abs(sp_now - sp0)))
                        max_drift = max(max_drift, drift)
            done += 1
            if done in slots:
                record(slots[done])

    n_alive = np.sum(~np.isnan(vals.real), axis=0)
    mean = np.empty(len(steps), dtype=complex)
    std_error = np.empty(len(steps))
    # surviving samples can be astronomically large shortly before a row is
    # flagged; an overflowing variance is reported as inf rather than warned
    with np.errstate(over="ignore"):
        for kdx in range(len(steps)):
            col = vals[~np.isnan(vals[:, kdx].real), kdx]
            if col.size == 0:
                mean[kdx] = np.nan
                std_error[kdx] = np.nan
            else:
                mean[kdx] = col.mean()
                std_error[kdx] = complex_standard_error(col)
    return GisinResult(
        grid=grid.copy(),
        mean=mean,
        std_error=std_error,
        n=n,
        n_alive=n_alive.astype(int),
        variant=variant,
        aborted=int(aborted.sum()),
        overflowed=int(overflowed.sum()),
        max_scalar_drift=max_drift,
        wall_time_seconds=time.perf_counter() - start,
        draws_total=sum(s.draws for s in streams),
    )


def instability_report(result: GisinResult) -> dict:
    """JSON-ready stability summary of a coupled-scheme ensemble run."""
    return {
        "variant": result.variant,
        "n_trajectories": result.n,
        "aborted": result.aborted,
        "overflowed": result.overflowed,
        "max_scalar_product_drift": result.max_scalar_drift,
        "grid": [float(t) for t in result.grid],
        "n_alive": [int(v) for v in result.n_alive],
        "sample_variance": [
            float(se**2 * max(na, 1)) for se, na in zip(result.std_error, result.n_alive)
        ],
    }
