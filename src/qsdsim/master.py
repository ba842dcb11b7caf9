r"""Deterministic master-equation reference solutions.

Everything stochastic in this package is checked against this module.  It
integrates the Lindblad master equation

    d(rho)/dt = -i[H, rho] + (1/2) sum_j (2 L_j rho L_j^dag
                - L_j^dag L_j rho - rho L_j^dag L_j)

with classical fixed-step 4th-order Runge-Kutta acting on d x d matrices.
Writing the generator as L(X) = G X + X G^dag + sum_j L_j X L_j^dag with
G = -iH - (1/2) sum_j L_j^dag L_j (``LindbladModel.generator``, the same
matrix the trajectory engines drift with), one RK4 step of this autonomous
linear system equals the degree-4 Taylor polynomial of exp(h*L), applied in
Horner form X + h L(X + h/2 L(X + h/3 L(X + h/4 L X))).  Above d = 8
(``STEP_MAP_MAX_DIM``) each step acts on the d x d matrix at O(d^3).  At
d <= 8, where that step is almost all numpy call overhead, :func:`evolve`
applies it once to the d^2 basis matrices and then advances vec(X) by one
product with the resulting (d^2 x d^2) step map per substep, O(d^4) but a
single call; a gap of fewer than d^2 substeps whose step length has no map
yet keeps the d x d steps.  The dense Liouvillian, built from the same
factors, is needed only by :func:`steady_state`.

Every time grid in this module means the same thing: its nodes are absolute
times, non-negative and non-decreasing, and the seed state sits at time 0
whether or not the grid contains 0.  :func:`evolve` is the one function that
reads the nodes; everything else hands its grid on unchanged.

The same propagator applied to non-Hermitian seeds |ket><bra| yields
Heisenberg-picture matrix elements between different states (quantum
regression), and applied on the doubled space it provides the reference for
the doubled-space trajectory estimators: each block of the doubled density
matrix obeys the original master equation independently.
"""

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    _HERMITICITY_TOL,
    Ket,
    LindbladModel,
    Operator,
    _as_complex_matrix,
    _check_dims,
    _hermitian_deviation,
    extend_model,
    make_doubled_state,
)
from .noise import check_step

__all__ = [
    "DensityMatrix",
    "DegenerateSteadyStateError",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "regression_matrix_element",
    "doubled_block_evolution",
    "doubled_matrix_element",
    "two_time_correlation",
]

DEFAULT_H_ODE = 1e-3
# largest d stepped with the (d^2 x d^2) RK4 step map: d^4 multiply-adds a
# step against 8(c + 2) d^3 for the factor form, and the map is <= 64 KB
STEP_MAP_MAX_DIM = 8
# relative singular-value cutoff of the Liouvillian kernel in steady_state
KERNEL_TOL = 1e-10


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian kernel is not one-dimensional."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense complex matrix, optionally validated as a physical state.

    The entries are checked, copied and frozen like an ``Operator``'s: the
    matrix must be square with finite entries.  With ``hermitian=True`` it
    must also be Hermitian within 1e-12 and positive semidefinite within
    -1e-10; seeds such as |ket><bra| set ``hermitian=False`` and skip those
    two checks.  Unit trace is not required (sub-normalized blocks are
    legitimate inputs); trace preservation is asserted by :func:`evolve`
    instead.
    """

    entries: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        mat = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", mat)
        if self.hermitian:
            dev = _hermitian_deviation(mat)
            if not dev <= _HERMITICITY_TOL:
                raise ValueError(f"matrix flagged hermitian deviates by {dev:.3e}")
            lowest = float(np.linalg.eigvalsh(mat).min())
            if lowest < -1e-10:
                raise ValueError(f"matrix flagged hermitian has eigenvalue {lowest:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    @classmethod
    def from_ket(cls, state: Ket) -> "DensityMatrix":
        return cls(np.outer(state.amplitudes, state.amplitudes.conj()), hermitian=True)


def _vec(rho: np.ndarray) -> np.ndarray:
    # column stacking
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def _generator_factors(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the generator written as L(X) = sum_k A_k X B_k.

    A = (G, I, L_1, ..., L_c) and B = (I, G^dag, L_1^dag, ..., L_c^dag), each
    returned as its d x d blocks stacked into an (m d, d) array, m = c + 2.
    """
    eye = np.eye(model.dim, dtype=complex)
    lmats = [op.matrix for op in model.lindblads]
    gen = model.generator()
    left = np.concatenate([gen, eye, *lmats])
    right = np.concatenate([eye, gen.conj().T, *(lmat.conj().T for lmat in lmats)])
    return left, right


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Dense (d^2 x d^2) Liouvillian in column-stacking convention.

    With vec(A X B) = (B^T kron A) vec(X), the generator
    L(X) = sum_k A_k X B_k of :func:`_generator_factors` reads
    sum_k B_k^T kron A_k.
    """
    d = model.dim
    left, right = _generator_factors(model)
    pairs = zip(left.reshape(-1, d, d), right.reshape(-1, d, d))
    a, b = next(pairs)
    out = np.kron(b.T, a)
    for a, b in pairs:
        out += np.kron(b.T, a)
    return out


def _rk4_steps(
    x: np.ndarray, left: np.ndarray, right: np.ndarray, h: float, n_steps: int
) -> np.ndarray:
    """``n_steps`` classical RK4 steps of dX/dt = L(X), in Horner form."""
    d = x.shape[0]
    m = left.shape[0] // d
    scaled = [left * (h / k) for k in (4, 3, 2, 1)]
    for _ in range(n_steps):
        y = x
        for a in scaled:
            # (h/k) L(Y): the blocks A_k Y side by side, times B stacked
            ay = (a @ y).reshape(m, d, d).transpose(1, 0, 2).reshape(d, m * d)
            y = x + ay @ right
        x = y
    return x


def _step_map(left: np.ndarray, right: np.ndarray, h: float) -> np.ndarray:
    """The (d^2 x d^2) matrix of one RK4 step of length ``h``, acting on vec(X).

    Column k is vec of the :func:`_rk4_steps` step applied to the k-th basis
    matrix; the step is linear, so the map equals it up to rounding.
    """
    d = left.shape[1]
    basis = np.eye(d * d, dtype=complex)
    return np.stack(
        [_vec(_rk4_steps(_unvec(e, d), left, right, h, 1)) for e in basis], axis=1
    )


def evolve(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_grid,
    h_ode: float = DEFAULT_H_ODE,
) -> list[DensityMatrix]:
    """Integrate the master equation, returning the state at every grid node.

    ``rho0`` is the state at time 0 and the nodes are absolute times, so the
    first node is reached after ``t_grid[0]``; a grid starting above 0 gives,
    bit for bit, the tail of the same grid with 0 prepended.  The trace of
    the result is checked against the seed's trace at every node (the
    generator is trace-preserving; drift beyond 1e-10 raises).

    At d <= ``STEP_MAP_MAX_DIM`` each substep is one product with the step's
    (d^2 x d^2) matrix (:func:`_step_map`, built once per distinct substep
    length in the call, and only for a gap of at least d^2 substeps); other
    steps act on the d x d matrix.
    """
    _check_dims(model, state=rho0)
    check_step(h_ode, "h_ode")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("time grid nodes must be finite")
    if np.any(np.diff(grid) < 0):
        raise ValueError("time grid must be non-decreasing")
    if grid[0] < 0:
        raise ValueError(f"grid nodes must be >= 0, got {grid[0]}")
    d = model.dim
    left, right = _generator_factors(model)
    maps = {}
    mat = rho0.entries
    tr0 = complex(np.trace(mat))
    out = []
    for node_index, (t, gap) in enumerate(zip(grid, np.diff(grid, prepend=0.0))):
        if gap > 0:
            n_sub = max(1, int(np.ceil(gap / h_ode - 1e-12)))
            h = gap / n_sub
            step = maps.get(h)
            # overflow shows up as a non-finite trace, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                # a map costs d^2 steps to build: not worth it for a shorter gap
                if step is None and d <= STEP_MAP_MAX_DIM and n_sub >= d * d:
                    step = maps[h] = _step_map(left, right, h)
                if step is None:
                    mat = _rk4_steps(mat, left, right, h, n_sub)
                else:
                    vec = _vec(mat)
                    # ndarray.dot, not @: with threaded OpenBLAS, matmul's 64 x 64
                    # matrix-vector product stalls for 0.2-3 ms whenever another
                    # core is busy, where dot takes a few microseconds
                    for _ in range(n_sub):
                        vec = step.dot(vec)
                    mat = _unvec(vec, d)
        drift = abs(complex(np.trace(mat)) - tr0)
        if not drift <= 1e-10 * (1.0 + abs(tr0)):  # NaN fails too
            if not np.isfinite(drift):
                raise RuntimeError(f"state became non-finite by node {node_index} (t = {t:g})")
            raise RuntimeError(f"trace drift {drift:.3e} exceeds tolerance")
        # integration preserves hermiticity only up to roundoff
        node = 0.5 * (mat + mat.conj().T) if rho0.hermitian else mat
        out.append(DensityMatrix(node, hermitian=rho0.hermitian))
    return out


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unique trace-1 kernel element of the Liouvillian via SVD.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel is empty at tolerance ``KERNEL_TOL`` (relative to the
        largest singular value) or has dimension > 1.
    """
    gen = build_liouvillian(model)
    _, svals, vh = np.linalg.svd(gen)
    n_null = int(np.sum(svals <= KERNEL_TOL * float(svals.max())))
    if n_null != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel has dimension {n_null} at tolerance {KERNEL_TOL:g}; "
            "the steady state is not unique"
        )
    candidate = _unvec(vh[-1].conj(), model.dim)
    candidate = 0.5 * (candidate + candidate.conj().T)
    tr = complex(np.trace(candidate))
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("kernel element is traceless")
    rho = candidate / tr
    residual = float(np.linalg.norm(gen @ _vec(rho)))
    if residual > 1e-8:
        raise RuntimeError(f"steady-state residual {residual:.3e} too large")
    return DensityMatrix(rho, hermitian=True)


def _trace_series(
    observable: Operator, seed: np.ndarray, model: LindbladModel, t_grid, h_ode: float
) -> np.ndarray:
    """Tr{A X(t)} at every node, X evolved from the (non-Hermitian) seed."""
    states = evolve(DensityMatrix(seed, hermitian=False), model, t_grid, h_ode)
    return np.array(
        [complex(np.trace(observable.matrix @ s.entries)) for s in states]
    )


def regression_matrix_element(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    h_ode: float = DEFAULT_H_ODE,
) -> np.ndarray:
    """Heisenberg-picture matrix element series <bra| A(t) |ket>.

    Evolves the seed |ket><bra| with the master-equation propagator and
    returns Tr{A X(t)} at every node of ``t_grid``.
    """
    _check_dims(model, observable=observable, bra=bra_state, ket=ket_state)
    seed = np.outer(ket_state.amplitudes, bra_state.amplitudes.conj())
    return _trace_series(observable, seed, model, t_grid, h_ode)


def doubled_block_evolution(
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    h_ode: float = DEFAULT_H_ODE,
) -> list[DensityMatrix]:
    """Evolve the doubled-space projector of the stacked pair.

    The seed is the rank-1 projector of (bra_state, ket_state)/sqrt(2); its
    lower-left block |ket><bra|/2 carries the matrix-element information and,
    like every block, obeys the original master equation on its own.
    """
    _check_dims(model, bra=bra_state, ket=ket_state)
    theta0 = make_doubled_state(bra_state, ket_state)
    seed = DensityMatrix(np.outer(theta0, theta0.conj()), hermitian=True)
    return evolve(seed, extend_model(model), t_grid, h_ode)


def doubled_matrix_element(
    observable: Operator,
    bra_state: Ket,
    ket_state: Ket,
    model: LindbladModel,
    t_grid,
    h_ode: float = DEFAULT_H_ODE,
) -> np.ndarray:
    """Matrix element series 2 Tr{A rho_21(t)} from the doubled evolution."""
    _check_dims(model, observable=observable)
    d = model.dim
    states = doubled_block_evolution(bra_state, ket_state, model, t_grid, h_ode)
    return np.array(
        [
            2.0 * complex(np.trace(observable.matrix @ s.entries[d:, :d]))
            for s in states
        ]
    )


def two_time_correlation(
    observable: Operator,
    perturbation: Operator,
    model: LindbladModel,
    t: float,
    tau_grid,
    rho0: DensityMatrix | None = None,
    h_ode: float = DEFAULT_H_ODE,
) -> np.ndarray:
    """Correlation series <A(t + tau) B(t)> for tau over ``tau_grid``.

    ``rho0`` (default: the steady state) is evolved to time ``t``, the seed
    B rho(t) is formed, propagated over ``tau_grid``, and Tr{A X(tau)} is
    returned at every node.  At tau = 0 this is Tr{A B rho(t)}.
    """
    _check_dims(model, observable=observable, perturbation=perturbation)
    if rho0 is not None:
        _check_dims(model, rho0=rho0)
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    rho_t = steady_state(model) if rho0 is None else rho0
    if t > 0:
        # at t = 0 the start is used as given: evolve would re-hermitize it
        rho_t = evolve(rho_t, model, [t], h_ode)[-1]
    seed = perturbation.matrix @ rho_t.entries
    return _trace_series(observable, seed, model, tau_grid, h_ode)
