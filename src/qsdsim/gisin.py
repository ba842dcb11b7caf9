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
its dt grid rule, its per-step noise, its layout and its update with the
doubled-space engines: the batch is one column-major (dim, 2, batch) array,
ket-side states in block 0 and bra-side states in block 1, and a step is a
single product with the stacked matrix (I + dt G; L_1; ...; L_c) followed by
``diffusion._euler_update``, the Euler-Maruyama update of ``QsdEngine``
given the cross coefficients l_j in place of <L_j>.  Every row is
stepped every step.  While every row of a batch lives, a step's output is
the next state and no mask is built; from the first step on which a row
aborts or overflows, aborted and overflowed rows are frozen by a mask.  The
rows run in the ensemble runner's chunks of ``_CHUNK`` (2048), each with
its own streams, batch and noise, so memory does not grow with the ensemble
size; as for every ensemble, the chunk size fixes the last bits of a run.
A chunk whose steps are heavy enough (``diffusion._heavy``, the gate of
``QsdEngine`` too) is split: a forked column worker steps its upper rows
while the caller steps the lower, each drawing its own rows' noise, with
the same bits (``diffusion._column_worker``).  The worker is killed and
reaped however the chunk ends, so none outlives it.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .diffusion import (
    _column_worker,
    _euler_stack,
    _euler_update,
    _heavy,
    _record_slots,
    _split_point,
    _stacked,
    complex_standard_error,
)
from .hilbert import Ket, LindbladModel, Operator, _check_dims
from .noise import _CHUNK, check_step, grid_steps, spawn, wiener_steps

__all__ = [
    "DEFAULT_FLOOR",
    "VARIANTS",
    "GisinResult",
    "run_coupled_ensemble",
    "instability_report",
]

DEFAULT_FLOOR = 1e-12
VARIANTS = ("unity", "quasi_linear")


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
    draws_total: int


class _PairKernel:
    """Euler-Maruyama stepping of coupled pairs, batched over rows.

    The batch is one C-contiguous (dim, 2, batch) array: block 0 holds the
    ket-side states, block 1 the bra-side states, so every elementwise
    operation and every sum over the dimension runs on contiguous rows of
    length batch.  A step is one product with the stacked
    (dim (1 + n_channels), dim) matrix of the Euler drift I + dt G and every
    L_j and the Euler-Maruyama update, both shared with
    :class:`qsdsim.diffusion.QsdEngine`.  :meth:`advance`
    steps every row and never raises: rows it aborts or flags as overflowed
    are frozen by a mask, and the ensemble tallies them.
    """

    def __init__(self, model: LindbladModel, dt: float, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        self.dt = check_step(dt)
        self.variant = variant
        self._stack = _euler_stack(model, self.dt)

    def step(self, x: np.ndarray, sp: np.ndarray, dxi: np.ndarray, products) -> np.ndarray:
        """One step of column-major pairs ``x`` whose scalar products
        <bra|ket> are ``sp``; ``dxi`` holds the (n_channels, batch)
        increments, shared by both blocks.  The step's stacked product goes
        into ``products``, a (1 + n_channels, dim, 2, batch) array that
        does not hold ``x``; the new pairs are its block 0."""
        y = _stacked(self._stack, x, products)
        # cross[j, blk] = <other|L_j self> / <other|self>: l_j(bra, ket) for
        # the ket block, l_j(ket, bra) for the bra block; the drift takes
        # l_j(self, other)^*, the other block's coefficient conjugated
        den = np.empty((2, len(sp)), dtype=complex)
        den[0] = sp
        np.conjugate(sp, out=den[1])
        cross = (x[:, ::-1].conj() * y[1:]).sum(axis=1) / den
        return _euler_update(
            x, y, cross, cross[:, ::-1].conj(), dxi[:, None], self.dt, self.variant == "unity"
        )

    def advance(self, x: np.ndarray, increments, floor: float, on_step):
        """Step pairs ``x`` once per (n_channels, batch) entry of
        ``increments``; returns (x, sp, aborted, overflowed).

        Before a step, rows with |<bra|ket>| below ``floor`` are aborted;
        after it, rows whose scalar product (its magnitude included) is
        non-finite are flagged as overflowed: under IEEE arithmetic a
        non-finite amplitude makes <bra|ket> non-finite too, even opposite
        a zero amplitude.  Either way the row keeps its last state and
        scalar product from then on.  ``on_step(done, x, sp, alive)`` fires
        before the first step (done = 0) and after every step.

        While every row lives, a step's output is the next state, and one
        test of the smallest magnitude and one of the summed magnitudes
        stand in for the masks; from the first step on which a row may
        abort or overflow, every step is masked.
        """
        sp = _scalar_products(x)
        mag = np.abs(sp)
        alive = np.ones(x.shape[2], dtype=bool)
        aborted = np.zeros_like(alive)
        overflowed = np.zeros_like(alive)
        on_step(0, x, sp, alive)
        # the state lives in block 0 of one product buffer while the next
        # step writes into the other, until the masked steps copy into it
        products = np.empty((2, len(self._stack) // x.shape[0], *x.shape), dtype=complex)
        free = 0
        lean = True
        # dead and degenerate rows may divide by zero or overflow; the
        # masks discard what they produce
        with np.errstate(all="ignore"):
            for done, dxi in enumerate(increments, start=1):
                lean = lean and mag.min() >= floor
                if not lean:
                    low = alive & (mag < floor)
                    aborted |= low
                    alive &= ~low
                new = self.step(x, sp, dxi, products[free])
                new_sp = _scalar_products(new)
                new_mag = np.abs(new_sp)  # inf where only the magnitude overflows
                lean = lean and np.isfinite(new_mag.sum())
                if lean:
                    x, sp, mag = new, new_sp, new_mag
                    free ^= 1
                else:
                    finite = np.isfinite(new_mag)
                    overflowed |= alive & ~finite
                    alive &= finite
                    np.copyto(x, new, where=alive)
                    sp = np.where(alive, new_sp, sp)
                    mag = np.where(alive, new_mag, mag)
                on_step(done, x, sp, alive)
        return x, sp, aborted, overflowed


def _scalar_products(x: np.ndarray) -> np.ndarray:
    """<bra|ket> of each pair of column-major ``x``."""
    return (x[:, 1].conj() * x[:, 0]).sum(axis=0)


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
    _check_dims(model, observable=observable, bra=bra_state, ket=ket_state)
    grid = np.asarray(t_grid, dtype=float)
    steps = grid_steps(grid, dt)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    kernel = _PairKernel(model, dt, variant)
    bra0 = bra_state.normalized().amplitudes
    ket0 = ket_state.normalized().amplitudes
    sp0 = complex(np.vdot(bra0, ket0))
    if abs(sp0) < floor:
        raise ValueError(
            f"initial scalar product magnitude {abs(sp0):.3e} is below the floor "
            f"{floor:g}; the scheme is undefined"
        )

    vals = np.full((len(steps), n), np.nan + 0j, dtype=complex)
    slots = _record_slots(steps, steps[-1])
    drift = np.zeros(1)  # the largest scalar-product drift so far
    aborted = overflowed = draws = 0

    def on_step(cols, drift, done, x, sp, alive):
        if done:  # frozen rows keep the finite scalar product they had
            step_drift = np.maximum.reduce(np.abs(sp - sp0), where=alive, initial=0.0)
            drift[0] = max(drift[0], float(step_drift))
        if done in slots:
            with np.errstate(all="ignore"):  # dead rows may divide by zero
                inner = (x[:, 1].conj() * (observable.matrix @ x[:, 0])).sum(axis=0)
                if variant == "quasi_linear":
                    inner = inner * (sp0 / sp)
            cols[slots[done]] = np.where(alive, inner, np.nan)

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        x = np.empty((model.dim, 2, hi - lo), dtype=complex)
        x[:, 0] = ket0[:, None]
        x[:, 1] = bra0[:, None]
        streams = spawn(seed, lo, hi)
        low, bad = _run_chunk(kernel, x, streams, steps[-1], model.n_channels, floor,
                              on_step, vals[:, lo:hi], drift)
        aborted += low
        overflowed += bad
        draws += sum(s.draws for s in streams)
        del streams  # free this chunk's generators before the next are built

    n_alive = np.sum(~np.isnan(vals.real), axis=1)
    mean = np.empty(len(steps), dtype=complex)
    std_error = np.empty(len(steps))
    # surviving samples can be astronomically large shortly before a row is
    # flagged; an overflowing variance is reported as inf rather than warned
    with np.errstate(over="ignore"):
        for kdx, row in enumerate(vals):
            col = row[~np.isnan(row.real)]
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
        aborted=aborted,
        overflowed=overflowed,
        max_scalar_drift=float(drift[0]),
        draws_total=draws,
    )


def _run_chunk(kernel, x, streams, n_steps, n_channels, floor, on_step, cols, drift):
    """Step one chunk of pairs ``x``, row i drawing from ``streams[i]``,
    and return its aborted and overflowed counts.  ``on_step(cols, drift,
    done, x, sp, alive)`` records the chunk's (nodes, batch) values into
    ``cols`` and raises the one-element drift bound ``drift``.

    A chunk whose steps are heavy enough (``diffusion._heavy``) is split
    (:func:`_split_chunk`); otherwise it is stepped here.
    """
    if n_steps > 0 and _heavy(kernel._stack, x):
        counts = _split_chunk(kernel, x, streams, n_steps, n_channels, floor, on_step, cols, drift)
        if counts is not None:
            return counts
    # every row keeps drawing, aborted ones included, so that a
    # trajectory's draw sequence does not depend on when it stops
    increments = wiener_steps(streams, n_steps, n_channels, kernel.dt)
    _, _, low, bad = kernel.advance(x, increments, floor, partial(on_step, cols, drift))
    return int(low.sum()), int(bad.sum())


def _split_chunk(kernel, x, streams, n_steps, n_channels, floor, on_step, cols, drift):
    """:func:`_run_chunk` with rows [h, batch) stepped by a forked column
    worker (``diffusion._column_worker``), or None where ``fork`` fails.

    The worker records its rows' values into a shared (nodes, batch - h)
    array and its own drift bound, and at the end writes its aborted and
    overflowed counts; the caller copies them in once the worker is done.
    No bit of the values, counts, drift or draws differs from the unsplit
    chunk's.
    """
    h = _split_point(x.shape[2])
    specs = (((cols.shape[0], x.shape[2] - h), complex), ((1,), float), ((2,), np.int64))

    def work(increments, arrays, ready, free):
        their_cols, their_drift, counts = arrays
        _, _, low, bad = kernel.advance(x[:, :, h:].copy(), increments, floor,
                                        partial(on_step, their_cols, their_drift))
        counts[:] = low.sum(), bad.sum()

    with _column_worker(streams, h, n_steps, n_channels, kernel.dt, specs, work) as split:
        if split is None:
            return None
        _, _, low, bad = kernel.advance(x[:, :, :h].copy(), split.increments, floor,
                                        partial(on_step, cols[:, :h], drift))
        split.child.wait("the end of its run")
        split.restore()
        their_cols, their_drift, counts = split.arrays
        cols[:, h:] = their_cols
        drift[0] = max(drift[0], their_drift[0])
        return int(low.sum()) + int(counts[0]), int(bad.sum()) + int(counts[1])


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
