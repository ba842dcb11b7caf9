"""State, operator, and doubled-space construction tests."""

import numpy as np
import pytest

from qsdsim import (
    Ket,
    LindbladModel,
    Operator,
    annihilation,
    basis_ket,
    decay_model,
    drive_hamiltonian,
    driven_cavity_model,
    driven_decay_model,
    extend_model,
    make_doubled_state,
    sigma_minus,
    sigma_plus,
)

from conftest import random_ket, random_model


def test_ket_basics():
    psi = Ket([1.0, 1j])
    assert psi.dim == 2
    assert psi.norm() == pytest.approx(np.sqrt(2.0))
    assert psi.normalized().norm() == pytest.approx(1.0)
    assert psi.overlap(Ket([0.0, 1.0])) == pytest.approx(-1j)


def test_ket_is_immutable():
    psi = Ket([1.0, 0.0])
    with pytest.raises((ValueError, RuntimeError)):
        psi.amplitudes[0] = 2.0


def test_zero_norm_state_cannot_be_normalized():
    with pytest.raises(ValueError):
        Ket([0.0, 0.0]).normalized()


def test_ket_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Ket(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Ket([])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
def test_ket_and_operator_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        Ket([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Operator([[bad]])
    with pytest.raises(ValueError, match="finite"):
        Operator([[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize(
    "matrix",
    [[[0, 1e308], [-1e308, 0]], [[0, 1.7e308j], [1.7e308j, 0]], [[0, -1e308], [1e308, 0]]],
)
def test_hermiticity_check_of_huge_entries_does_not_overflow(matrix):
    # A - A^dag overflows here; the verdict is still "not Hermitian", with no
    # numpy warning (the suite turns RuntimeWarnings into errors)
    op = Operator(matrix)
    assert not op.is_hermitian()
    with pytest.raises(ValueError, match="not Hermitian"):
        LindbladModel(hamiltonian=op, lindblads=(Operator(np.zeros((2, 2))),))
    assert Operator([[1e308, 1e308], [1e308, -1e308]]).is_hermitian()


@pytest.mark.parametrize(
    "amplitudes",
    [[1e308, 1e308], [1e308 + 1e308j, 1e308], [1.7e308, -1.7e308j], [1e-200, 1e-200j],
     [5e-324, 0.0]],
)
def test_normalized_neither_overflows_nor_underflows(amplitudes):
    psi = Ket(amplitudes).normalized()
    assert psi.norm() == pytest.approx(1.0, abs=1e-15)
    # same direction: the unit ket is a positive multiple of the input
    direction = np.array(amplitudes) / np.max(np.abs(amplitudes))
    expected = direction / np.linalg.norm(direction)
    assert np.allclose(psi.amplitudes, expected, rtol=0, atol=1e-15)


def test_normalized_equals_plain_division_when_it_does_not_overflow(rng):
    for dim in (1, 2, 3, 8, 32):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            vec = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            plain = vec / np.linalg.norm(vec)
            assert np.array_equal(Ket(vec).normalized().amplitudes, plain)


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        Ket([1.0, 0.0]).overlap(Ket([1.0, 0.0, 0.0]))


def test_operator_dag_of_product(rng):
    a = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    ab = Operator(a.matrix @ b.matrix)
    expected = b.dag().matrix @ a.dag().matrix
    assert np.max(np.abs(ab.dag().matrix - expected)) < 1e-13


def test_operator_hermiticity_flag():
    assert Operator([[0.0, 1.0], [1.0, 0.0]]).is_hermitian()
    assert not sigma_minus().is_hermitian()


def test_two_level_algebra():
    sm, sp = sigma_minus(), sigma_plus()
    number = sp.matrix @ sm.matrix
    assert np.allclose(number, np.diag([0.0, 1.0]))
    assert np.allclose(sm.matrix @ sm.matrix, 0.0)


def test_drive_hamiltonian_eigenvalues():
    ham = drive_hamiltonian(10.0)
    assert ham.is_hermitian()
    vals = np.sort(np.linalg.eigvalsh(ham.matrix))
    assert np.allclose(vals, [-5.0, 5.0])


def test_model_validation():
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=sigma_minus(), lindblads=())
    with pytest.raises(ValueError):
        LindbladModel(
            hamiltonian=drive_hamiltonian(1.0),
            lindblads=(Operator(np.eye(3)),),
        )


def test_model_with_no_channels_is_allowed():
    model = LindbladModel(hamiltonian=drive_hamiltonian(1.0), lindblads=())
    assert model.n_channels == 0
    assert model.dim == 2


def test_builtin_models():
    assert decay_model().n_channels == 1
    driven = driven_decay_model(4.0)
    assert np.allclose(driven.hamiltonian.matrix, [[0.0, 2.0], [2.0, 0.0]])


def test_basis_ket_bounds():
    assert np.allclose(basis_ket(3, 2).amplitudes, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        basis_ket(2, 2)


def test_make_doubled_state_blocks():
    bra = Ket([1.0, 0.0])
    ket = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    theta = make_doubled_state(bra, ket)
    s = 1.0 / np.sqrt(2.0)
    assert theta.shape == (4,)
    assert np.allclose(theta[:2], [s, 0.0])
    assert np.allclose(theta[2:], [0.5, 0.5])
    assert np.linalg.norm(theta) == pytest.approx(1.0)


def test_make_doubled_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        make_doubled_state(Ket([1.0, 1.0]), Ket([1.0, 0.0]))
    with pytest.raises(ValueError):
        make_doubled_state(Ket([1.0, 0.0]), Ket([1.0, 0.0, 0.0]))


def test_projector_blocks_and_positivity(rng):
    bra = random_ket(rng, 3)
    ket = random_ket(rng, 3)
    theta = make_doubled_state(bra, ket)
    rho = np.outer(theta, theta.conj())
    d = 3
    # lower-left block carries |ket><bra| / 2
    expected = 0.5 * np.outer(ket.amplitudes, bra.amplitudes.conj())
    assert np.max(np.abs(rho[d:, :d] - expected)) < 1e-14
    bra_projector = np.outer(bra.amplitudes, bra.amplitudes.conj())
    assert np.max(np.abs(rho[:d, :d] - 0.5 * bra_projector)) < 1e-14
    assert np.trace(rho).real == pytest.approx(np.linalg.norm(theta) ** 2, abs=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() >= -1e-14
    assert np.sum(evals > 1e-12) == 1


def test_extend_model_blocks_and_spectrum(rng):
    model = random_model(rng, 3, 2)
    ext = extend_model(model)
    assert ext.dim == 6
    for orig, ext_op in zip(
        (model.hamiltonian,) + model.lindblads,
        (ext.hamiltonian,) + ext.lindblads,
    ):
        mat = ext_op.matrix
        assert np.array_equal(mat[:3, :3], orig.matrix)
        assert np.array_equal(mat[3:, 3:], orig.matrix)
        assert not mat[:3, 3:].any()
        assert not mat[3:, :3].any()
        # spectrum is the original one with doubled multiplicity
        ref = np.sort_complex(np.concatenate([np.linalg.eigvals(orig.matrix)] * 2))
        got = np.sort_complex(np.linalg.eigvals(mat))
        assert np.max(np.abs(got - ref)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_driven_cavity_model(dim):
    a = annihilation(dim).matrix
    fock = np.arange(dim)
    # a|k> = sqrt(k)|k-1>, so a^dag a counts the photons
    assert np.allclose(a.conj().T @ a, np.diag(fock))
    model = driven_cavity_model(dim, drive=0.5)
    assert model.dim == dim and model.n_channels == 1
    assert np.array_equal(model.lindblads[0].matrix, a)
    assert np.array_equal(model.hamiltonian.matrix, 0.5 * (a + a.conj().T))
    with pytest.raises(ValueError, match="dimension"):
        annihilation(0)
