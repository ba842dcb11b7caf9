"""Finite-dimensional Hilbert-space primitives.

State vectors, operators, and Lindblad models for open-system trajectory
simulation, plus the doubled-space construction used to turn matrix-element
problems between two different states into ordinary expectation problems:
``make_doubled_state`` stacks a pair (bra_state, ket_state) into one plain
(2d,) vector on H (+) H, and ``extend_model`` duplicates every system
operator block-diagonally, so both blocks see identical dynamics.
``LindbladModel.generator`` builds the non-Hermitian generator
G = -iH - (1/2) sum_j L_j^dag L_j once for every integrator and the
master-equation oracle.

Models are built for two systems: the two-level atom (``decay_model``,
``driven_decay_model``) and the damped, driven cavity truncated to any
number of Fock states (``driven_cavity_model``).

Conventions: for the two-level atom, basis index 0 is the ground state and
index 1 the excited state; ``sigma_minus`` maps excited to ground.  The decay
rate gamma is fixed to 1, i.e. all times are in units of the inverse decay
rate, and the resonant drive Hamiltonian is (omega/2)(sigma_plus+sigma_minus).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ket",
    "Operator",
    "LindbladModel",
    "make_doubled_state",
    "extend_model",
    "basis_ket",
    "sigma_minus",
    "sigma_plus",
    "drive_hamiltonian",
    "decay_model",
    "driven_decay_model",
    "annihilation",
    "driven_cavity_model",
]

_HERMITICITY_TOL = 1e-12


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {vec.shape}")
    if vec.size < 1:
        raise ValueError("state vector must have dimension >= 1")
    if not np.all(np.isfinite(vec)):
        raise ValueError("state vector must have finite amplitudes")
    return _freeze(vec.copy())


def _as_complex_matrix(values) -> np.ndarray:
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator must have finite entries")
    return _freeze(mat.copy())


def _hermitian_deviation(mat: np.ndarray) -> float:
    """max |A - A^dag| over the entries; inf where the difference overflows."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(mat - mat.conj().T)))


@dataclass(frozen=True, eq=False)
class Ket:
    """Immutable state vector with complex amplitudes.

    Parameters
    ----------
    amplitudes:
        1-D complex array-like of length >= 1.  The stored array is copied
        and marked read-only.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Ket":
        """The unit ket along this one.

        The amplitudes are first divided by the power of two at the largest
        real or imaginary part, so the norm neither overflows nor underflows;
        scaling by a power of two is exact, so the result equals the plain
        ``amplitudes / norm()`` wherever that does not overflow.
        """
        parts = self.amplitudes.view(float)
        largest = np.max(np.abs(parts))
        if largest == 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        scaled = np.ldexp(parts, -np.frexp(largest)[1]).view(complex)
        return Ket(scaled / np.linalg.norm(scaled))

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square operator on a finite-dimensional space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T)

    def is_hermitian(self, tol: float = _HERMITICITY_TOL) -> bool:
        return bool(_hermitian_deviation(self.matrix) <= tol)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus a family of Lindblad (collapse) operators.

    The Hamiltonian must be Hermitian within 1e-12 and all operators must
    share one dimension.  Collapse operators are unconstrained.
    """

    hamiltonian: Operator
    lindblads: tuple[Operator, ...]

    def __post_init__(self):
        lindblads = tuple(self.lindblads)
        object.__setattr__(self, "lindblads", lindblads)
        dim = self.hamiltonian.dim
        dev = _hermitian_deviation(self.hamiltonian.matrix)
        if not dev <= _HERMITICITY_TOL:
            raise ValueError(
                f"hamiltonian is not Hermitian (max deviation {dev:.3e} > {_HERMITICITY_TOL})"
            )
        for k, op in enumerate(lindblads):
            if op.dim != dim:
                raise ValueError(
                    f"lindblad operator {k} has dimension {op.dim}, expected {dim}"
                )

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def n_channels(self) -> int:
        return len(self.lindblads)

    def ldl_sum(self) -> np.ndarray:
        """sum_j L_j^dag L_j, accumulated channel by channel from zero."""
        return sum(
            (op.matrix.conj().T @ op.matrix for op in self.lindblads),
            np.zeros((self.dim, self.dim), dtype=complex),
        )

    def generator(self) -> np.ndarray:
        """G = -iH - (1/2) sum_j L_j^dag L_j.

        The no-jump drift of every unraveling, and the one-sided part of the
        master equation, L(rho) = G rho + rho G^dag + sum_j L_j rho L_j^dag.
        """
        return -1j * self.hamiltonian.matrix - 0.5 * self.ldl_sum()


def _check_dims(model: LindbladModel, **parts) -> None:
    """Raise a ValueError naming the first of ``parts`` (Kets or Operators)
    whose dimension is not the model's."""
    for name, part in parts.items():
        if part.dim != model.dim:
            raise ValueError(f"dimension mismatch: {name} {part.dim}, model {model.dim}")


def _check_unit(**states: Ket) -> None:
    """Raise a ValueError naming the first of ``states`` that has zero norm
    or is not normalized to within 1e-9."""
    for name, state in states.items():
        n = state.norm()
        if n == 0.0:
            raise ValueError(f"{name} has zero norm")
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized: norm {n!r}")


def make_doubled_state(bra_state: Ket, ket_state: Ket) -> np.ndarray:
    """Stack two normalized states into the unit-norm doubled vector.

    Returns the (2d,) vector (bra_state, ket_state)/sqrt(2): its upper block
    is the bra side and its lower block the ket side of the matrix element,
    so its rank-1 projector has the bra-side and ket-side outer products in
    its diagonal blocks and |ket><bra|/2 in the lower-left block.

    Raises
    ------
    ValueError
        If the inputs differ in dimension, have zero norm, or are not
        normalized to within 1e-9.
    """
    if bra_state.dim != ket_state.dim:
        raise ValueError(
            f"dimension mismatch: {bra_state.dim} vs {ket_state.dim}"
        )
    _check_unit(bra_state=bra_state, ket_state=ket_state)
    s = 1.0 / np.sqrt(2.0)
    return np.concatenate([bra_state.amplitudes * s, ket_state.amplitudes * s])


def extend_model(model: LindbladModel) -> LindbladModel:
    """Duplicate every operator block-diagonally onto the doubled space.

    Both blocks of a doubled vector then evolve under identical dynamics;
    nothing couples them except shared noise in the stochastic schemes.
    """
    def doubled(op: Operator) -> Operator:
        d = op.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = op.matrix
        out[d:, d:] = op.matrix
        return Operator(out)

    return LindbladModel(
        hamiltonian=doubled(model.hamiltonian),
        lindblads=tuple(doubled(op) for op in model.lindblads),
    )


def basis_ket(dim: int, index: int) -> Ket:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return Ket(vec)


def sigma_minus() -> Operator:
    """Lowering operator |ground><excited| in the (ground, excited) basis."""
    return Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def sigma_plus() -> Operator:
    """Raising operator |excited><ground| in the (ground, excited) basis."""
    return Operator(np.array([[0.0, 0.0], [1.0, 0.0]]))


def drive_hamiltonian(omega: float) -> Operator:
    """Resonant drive (omega/2)(sigma_plus + sigma_minus)."""
    return Operator(0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]]))


def decay_model() -> LindbladModel:
    """Two-level atom with unit-rate spontaneous decay and no drive."""
    return LindbladModel(hamiltonian=drive_hamiltonian(0.0), lindblads=(sigma_minus(),))


def driven_decay_model(omega: float) -> LindbladModel:
    """Two-level atom with unit-rate decay and resonant drive of strength omega."""
    return LindbladModel(hamiltonian=drive_hamiltonian(omega), lindblads=(sigma_minus(),))


def annihilation(dim: int) -> Operator:
    """Lowering operator a of a cavity truncated to ``dim`` Fock states,
    a|k> = sqrt(k) |k - 1>."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return Operator(np.diag(np.sqrt(np.arange(1.0, dim)), k=1))


def driven_cavity_model(dim: int, drive: float = 1.0) -> LindbladModel:
    """Cavity truncated to ``dim`` Fock states, damped at unit rate (L = a)
    and driven on resonance, H = drive (a + a^dag)."""
    a = annihilation(dim).matrix
    return LindbladModel(hamiltonian=Operator(drive * (a + a.T)), lindblads=(Operator(a),))
