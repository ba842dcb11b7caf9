"""Deterministic master-equation oracle tests."""

import tracemalloc

import numpy as np
import pytest

from qsdsim import master
from qsdsim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    Ket,
    LindbladModel,
    Operator,
    basis_ket,
    build_liouvillian,
    decay_model,
    doubled_block_evolution,
    doubled_matrix_element,
    drive_hamiltonian,
    driven_decay_model,
    evolve,
    extend_model,
    make_doubled_state,
    regression_matrix_element,
    sigma_minus,
    sigma_plus,
    steady_state,
    two_time_correlation,
)
from qsdsim.master import _unvec, _vec

from conftest import analytic_decay_element, decay_element_setup, random_ket, random_model


def direct_rhs(model, rho):
    ham = model.hamiltonian.matrix
    out = -1j * (ham @ rho - rho @ ham)
    for op in model.lindblads:
        lmat = op.matrix
        ldl = lmat.conj().T @ lmat
        out += lmat @ rho @ lmat.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def test_liouvillian_matches_direct_action(rng):
    model = random_model(rng, 3, 2)
    gen = build_liouvillian(model)
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = _unvec(gen @ _vec(rho), 3)
    assert np.max(np.abs(got - direct_rhs(model, rho))) < 1e-12


def test_liouvillian_annihilates_trace():
    model = driven_decay_model(3.0)
    gen = build_liouvillian(model)
    # Tr L[X] = 0 for every X: vec(I) is a left null vector
    left = _vec(np.eye(2)) @ gen
    assert np.max(np.abs(left)) < 1e-13


def test_closed_system_coherence_rotates():
    model = LindbladModel(hamiltonian=drive_hamiltonian(2.0), lindblads=())
    rho0 = DensityMatrix.from_ket(basis_ket(2, 1))
    out = evolve(rho0, model, [0.0, np.pi / 2.0])[-1]
    # half a Rabi period at omega = 2 swaps the populations
    assert out.entries[1, 1].real == pytest.approx(0.0, abs=1e-8)
    assert out.entries[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_decay_population_is_exponential():
    rho0 = DensityMatrix.from_ket(basis_ket(2, 1))
    grid = np.linspace(0.0, 4.0, 9)
    states = evolve(rho0, decay_model(), grid)
    excited = np.array([s.entries[1, 1].real for s in states])
    assert np.max(np.abs(excited - np.exp(-grid))) < 1e-8


def test_evolution_keeps_state_physical():
    rho0 = DensityMatrix.from_ket(Ket(np.array([1.0, 1j]) / np.sqrt(2.0)))
    states = evolve(rho0, driven_decay_model(5.0), np.linspace(0.0, 3.0, 7))
    for s in states:
        assert np.max(np.abs(s.entries - s.entries.conj().T)) < 1e-10
        assert s.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(s.entries).min() > -1e-10


def test_rk4_error_drops_16x_per_halving():
    rho0 = DensityMatrix.from_ket(basis_ket(2, 1))
    grid = np.array([0.0, 1.0])
    exact = np.exp(-1.0)

    def error(h):
        out = evolve(rho0, decay_model(), grid, h_ode=h)[-1]
        return abs(out.entries[1, 1].real - exact)

    ratio = error(0.04) / error(0.02)
    assert 12.0 <= ratio <= 20.0


def taylor4_reference(model, seed, grid, h_ode):
    # one RK4 step of the linear master equation is the degree-4 Taylor
    # polynomial of exp(h L); build it on the dense Liouvillian
    gen = build_liouvillian(model)
    d = model.dim
    out = [seed]
    vec = _vec(seed)
    for gap in np.diff(grid):
        n_sub = max(1, int(np.ceil(gap / h_ode - 1e-12)))
        hgen = gen * (gap / n_sub)
        step_map = np.eye(d * d, dtype=complex)
        term = np.eye(d * d, dtype=complex)
        for k in range(1, 5):
            term = term @ hgen / k
            step_map = step_map + term
        for _ in range(n_sub):
            vec = step_map @ vec
        out.append(_unvec(vec, d))
    return out


def assert_matches_taylor_map(rng, model):
    # uneven gaps exercise the substep rule n_sub = ceil(gap / h_ode); the
    # last gap's 65 substeps are enough for the step map up to d = 8
    grid = np.array([0.0, 0.05, 0.12, 0.3, 1.6])
    h_ode = 0.02
    dim = model.dim
    ket, bra = random_ket(rng, dim), random_ket(rng, dim)
    seed = np.outer(ket.amplitudes, bra.amplitudes.conj())
    got = evolve(DensityMatrix(seed, hermitian=False), model, grid, h_ode)
    want = taylor4_reference(model, seed, grid, h_ode)
    for state, ref in zip(got, want):
        assert np.max(np.abs(state.entries - ref)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 8, 9])
def test_matrix_rk4_matches_taylor_map_of_liouvillian(rng, dim):
    # d = 8 is stepped with the step map, d = 9 with the d x d factors
    for channels in (1, 2, 3):
        assert_matches_taylor_map(rng, random_model(rng, dim, channels))


def test_doubled_rk4_matches_taylor_map_of_liouvillian(rng):
    for channels in (1, 2):
        assert_matches_taylor_map(rng, extend_model(random_model(rng, 2, channels)))


def handed_substeps(monkeypatch, rng, dim, grid):
    """(h, n_steps) of every _rk4_steps call made by one evolution."""
    handed = []
    rk4_steps = master._rk4_steps

    def counting(x, left, right, h, n_steps):
        handed.append((h, n_steps))
        return rk4_steps(x, left, right, h, n_steps)

    monkeypatch.setattr(master, "_rk4_steps", counting)
    rho0 = DensityMatrix.from_ket(random_ket(rng, dim))
    evolve(rho0, random_model(rng, dim, 1), grid, h_ode=1e-3)
    return handed


@pytest.mark.parametrize("dim", [2, 9])
def test_step_map_replaces_the_substeps_at_small_dimension(rng, dim, monkeypatch):
    # 15 gaps of 50 substeps; rounding in the gaps gives a few distinct h
    handed = handed_substeps(monkeypatch, rng, dim, np.linspace(0.0, 0.75, 16))
    total = sum(n for _, n in handed)
    if dim == 2:
        distinct = {h for h, _ in handed}
        assert all(n == 1 for _, n in handed)
        assert total <= dim**2 * len(distinct) < 750
    else:
        assert total == 750


def test_no_step_map_above_dimension_8(rng, monkeypatch):
    # one gap of 100 substeps would pay for the 81 steps of a map at d = 9,
    # but d = 9 lies above the map's boundary: every substep is stepped
    handed = handed_substeps(monkeypatch, rng, 9, [0.0, 0.1])
    assert [n for _, n in handed] == [100]


def test_a_gap_shorter_than_the_map_build_is_stepped_directly(rng, monkeypatch):
    # 10 substeps at d = 8, where a step map would cost 64 steps to build
    handed = handed_substeps(monkeypatch, rng, 8, [0.0, 0.01])
    assert [n for _, n in handed] == [10]


def test_evolve_never_builds_the_dense_liouvillian(rng, monkeypatch):
    def refuse(model):
        raise AssertionError("evolve must not build the dense Liouvillian")

    monkeypatch.setattr(master, "build_liouvillian", refuse)
    observable, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.0, 1.0, 5)
    series = regression_matrix_element(observable, bra, ket, model, grid)
    assert np.max(np.abs(series - analytic_decay_element(grid))) < 1e-8

    dim = 16
    big = random_model(rng, dim, 2)
    rho0 = DensityMatrix.from_ket(random_ket(rng, dim))
    tracemalloc.start()
    try:
        states = evolve(rho0, big, [0.0, 0.01, 0.02])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 3
    # one dense d^2 x d^2 complex array would take 16 d^4 bytes
    assert peak < 16 * dim**4


@pytest.mark.parametrize("h_ode", [0.0, -1e-3, float("nan"), float("inf")])
def test_evolve_rejects_non_finite_or_non_positive_step(h_ode):
    rho0 = DensityMatrix.from_ket(basis_ket(2, 1))
    with pytest.raises(ValueError, match="finite and positive"):
        evolve(rho0, decay_model(), [0.0, 1.0], h_ode=h_ode)


@pytest.mark.parametrize(
    "grid,needle",
    [
        ([], "non-empty 1-D"),
        ([[0.0, 1.0]], "non-empty 1-D"),
        ([1.0, 0.5], "non-decreasing"),
        ([-0.5, 1.0], "grid nodes must be >= 0, got -0.5"),
        ([0.0, float("nan")], "finite"),
        ([0.5, float("inf")], "finite"),
    ],
)
def test_evolve_rejects_bad_grid(grid, needle):
    rho0 = DensityMatrix.from_ket(basis_ket(2, 0))
    with pytest.raises(ValueError, match=needle):
        evolve(rho0, decay_model(), grid)


def test_correlation_rejects_a_negative_or_nan_start():
    for t in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="t must be >= 0"):
            two_time_correlation(sigma_plus(), sigma_minus(), decay_model(), t, [0.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))
    DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=False)


@pytest.mark.parametrize(
    "entries,hermitian,needle",
    [
        *[([[bad, 0.0], [0.0, 1.0]], hermitian, "finite entries")
          for bad in (np.nan, np.inf) for hermitian in (True, False)],
        # A - A^dag overflows: a named error, not a numpy warning
        ([[1.0, 1e308], [-1e308, 1.0]], True, "deviates by inf"),
    ],
)
def test_density_matrix_names_bad_entries(entries, hermitian, needle):
    with pytest.raises(ValueError, match=needle):
        DensityMatrix(np.array(entries), hermitian=hermitian)


def test_evolve_names_the_node_where_the_state_becomes_non_finite():
    # the generator -(1/2) 1e200 |1><1| is finite; the RK4 steps overflow
    model = LindbladModel(Operator(np.zeros((2, 2))), (Operator(1e100 * sigma_minus().matrix),))
    with pytest.raises(RuntimeError, match=r"non-finite by node 1 \(t = 0.5\)"):
        regression_matrix_element(
            sigma_plus(), basis_ket(2, 1), Ket(np.array([1.0, 1.0])), model, [0.0, 0.5]
        )


_WIDE_KET = Ket(np.ones(3) / np.sqrt(3.0))
_WIDE_OP = Operator(np.eye(3))
_TWO = dict(observable=sigma_plus(), bra_state=basis_ket(2, 1), ket_state=basis_ket(2, 0))


@pytest.mark.parametrize(
    "oracle,kwargs,name",
    [
        (regression_matrix_element, {**_TWO, "bra_state": _WIDE_KET}, "bra"),
        (regression_matrix_element, {**_TWO, "ket_state": _WIDE_KET}, "ket"),
        (regression_matrix_element, {**_TWO, "observable": _WIDE_OP}, "observable"),
        (doubled_matrix_element, {**_TWO, "bra_state": _WIDE_KET}, "bra"),
        (doubled_matrix_element, {**_TWO, "observable": _WIDE_OP}, "observable"),
        (doubled_block_evolution, {"bra_state": _WIDE_KET, "ket_state": _WIDE_KET}, "bra"),
        (doubled_block_evolution, {"bra_state": _TWO["bra_state"], "ket_state": _WIDE_KET},
         "ket"),
        (two_time_correlation,
         {"observable": _WIDE_OP, "perturbation": sigma_minus(), "t": 0.5}, "observable"),
        (two_time_correlation,
         {"observable": sigma_plus(), "perturbation": _WIDE_OP, "t": 0.5}, "perturbation"),
        (two_time_correlation,
         {"observable": sigma_plus(), "perturbation": sigma_minus(), "t": 0.0,
          "rho0": DensityMatrix(np.eye(3) / 3.0)}, "rho0"),
    ],
)
def test_oracles_name_a_mismatched_dimension_before_any_work(oracle, kwargs, name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle work started")

    for work in ("evolve", "steady_state", "build_liouvillian"):
        monkeypatch.setattr(master, work, refuse)
    grid = "tau_grid" if oracle is two_time_correlation else "t_grid"
    with pytest.raises(ValueError, match=f"^dimension mismatch: {name} 3, model 2$"):
        oracle(model=decay_model(), **{grid: [0.0, 0.5]}, **kwargs)


def test_regression_element_constant_without_dynamics():
    model = LindbladModel(hamiltonian=Operator(np.zeros((2, 2))), lindblads=())
    bra, ket = basis_ket(2, 1), Ket(np.array([0.6, 0.8]))
    series = regression_matrix_element(Operator(np.eye(2)), bra, ket, model, [0.0, 1.0, 2.0])
    assert np.allclose(series, bra.overlap(ket), atol=1e-12)


def test_regression_element_matches_analytic_decay():
    observable, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.0, 4.0, 17)
    series = regression_matrix_element(observable, bra, ket, model, grid)
    assert np.max(np.abs(series - analytic_decay_element(grid))) < 1e-8


def test_grids_are_absolute_times():
    # a grid that does not contain zero still means absolute times: the
    # seed always sits at t = 0, never at the first node
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.5, 1.0, 2.0])
    states = evolve(DensityMatrix.from_ket(basis_ket(2, 1)), model, grid)
    excited = np.array([s.entries[1, 1].real for s in states])
    assert np.max(np.abs(excited - np.exp(-grid))) < 1e-8
    series = regression_matrix_element(observable, bra, ket, model, grid)
    assert np.max(np.abs(series - analytic_decay_element(grid))) < 1e-8
    doubled = doubled_matrix_element(observable, bra, ket, model, grid)
    assert np.max(np.abs(doubled - analytic_decay_element(grid))) < 1e-8
    with pytest.raises(ValueError):
        regression_matrix_element(observable, bra, ket, model, [-1.0, 0.0])


def test_late_grid_is_the_tail_of_the_grid_from_zero(rng):
    model = random_model(rng, 3, 2)
    bra, ket = random_ket(rng, 3), random_ket(rng, 3)
    obs = Operator(rng.standard_normal((3, 3)))
    rho0 = DensityMatrix.from_ket(ket)
    late = np.array([0.3, 0.7, 0.7, 1.25])
    oracles = {
        "evolve": lambda g: [s.entries for s in evolve(rho0, model, g)],
        "regression": lambda g: regression_matrix_element(obs, bra, ket, model, g),
        "correlation": lambda g: two_time_correlation(obs, obs, model, 0.4, g),
        "doubled": lambda g: [s.entries for s in doubled_block_evolution(bra, ket, model, g)],
    }
    for name, oracle in oracles.items():
        got = np.asarray(oracle(late))
        want = np.asarray(oracle(np.concatenate([[0.0], late])))[1:]
        assert got.tobytes() == want.tobytes(), name


def test_doubled_route_agrees_with_regression(rng):
    grid = np.linspace(0.0, 2.0, 5)
    for _ in range(3):
        dim = int(rng.integers(2, 4))
        model = random_model(rng, dim, int(rng.integers(1, 3)))
        observable = Operator(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        bra, ket = random_ket(rng, dim), random_ket(rng, dim)
        direct = regression_matrix_element(observable, bra, ket, model, grid)
        doubled = doubled_matrix_element(observable, bra, ket, model, grid)
        assert np.max(np.abs(direct - doubled)) < 1e-9


def test_doubled_evolution_conserves_trace_and_positivity():
    observable, bra, ket, model = decay_element_setup()
    states = doubled_block_evolution(bra, ket, model, np.linspace(0.0, 10.0, 6))
    for s in states:
        assert s.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(s.entries).min() > -1e-10


def test_doubled_lower_block_obeys_original_master_equation():
    observable, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.0, 3.0, 7)
    states = doubled_block_evolution(bra, ket, model, grid)
    theta0 = make_doubled_state(bra, ket)
    seed = DensityMatrix(np.outer(theta0[2:], theta0[:2].conj()), hermitian=False)
    alone = evolve(seed, model, grid)
    for full, block in zip(states, alone):
        assert np.max(np.abs(full.entries[2:, :2] - block.entries)) < 1e-10


def test_steady_state_of_decay_is_ground():
    rho = steady_state(decay_model())
    assert np.max(np.abs(rho.entries - np.diag([1.0, 0.0]))) < 1e-12


def test_steady_state_residual_is_tiny():
    model = driven_decay_model(10.0)
    rho = steady_state(model)
    gen = build_liouvillian(model)
    assert np.linalg.norm(gen @ _vec(rho.entries)) < 1e-12
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)


def test_steady_state_degenerate_kernel_raises():
    model = LindbladModel(hamiltonian=Operator(np.zeros((2, 2))), lindblads=())
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(model)


# finite entries, so a finite generator, whose Liouvillian still overflows:
# its diagonal holds G_ii + conj(G_jj), about -3.4e308i at i = 0, j = 1
_OVERFLOWING = LindbladModel(Operator(np.diag([1.7e308, -1.7e308])), (sigma_minus(),))


def test_an_overflowing_liouvillian_is_a_named_error():
    # the suite turns numpy's overflow warning into an error, so building
    # the matrix must not warn either
    gen = build_liouvillian(_OVERFLOWING)
    assert not np.all(np.isfinite(gen))
    message = "the Liouvillian of this model overflows; no steady state is computed"
    with pytest.raises(RuntimeError, match=message):
        steady_state(_OVERFLOWING)
    with pytest.raises(RuntimeError, match=message):
        two_time_correlation(sigma_plus(), sigma_minus(), _OVERFLOWING, 0.0, [0.0])


def test_two_time_correlation_identities():
    model = driven_decay_model(6.0)
    a_op, b_op = sigma_plus(), sigma_minus()
    rho_ss = steady_state(model)
    tau_grid = np.linspace(0.0, 2.0, 5)
    series = two_time_correlation(a_op, b_op, model, 1.0, tau_grid)
    # tau = 0 reduces to an equal-time expectation in the stationary state
    expected0 = np.trace(a_op.matrix @ b_op.matrix @ rho_ss.entries)
    assert series[0] == pytest.approx(expected0, abs=1e-8)
    # B = I gives the plain one-time expectation at t + tau
    ident = two_time_correlation(a_op, Operator(np.eye(2)), model, 0.0, tau_grid)
    expect_a = np.trace(a_op.matrix @ rho_ss.entries)
    assert np.max(np.abs(ident - expect_a)) < 1e-8


def test_two_time_correlation_oscillates_at_drive_frequency():
    omega = 10.0
    model = driven_decay_model(omega)
    tau_grid = np.linspace(0.0, 3.0, 301)
    series = two_time_correlation(sigma_plus(), sigma_minus(), model, 0.0, tau_grid)
    signal = series.real - series.real.mean()
    freqs = np.fft.rfftfreq(signal.size, d=tau_grid[1] - tau_grid[0])
    peak = freqs[np.argmax(np.abs(np.fft.rfft(signal)))] * 2.0 * np.pi
    assert peak == pytest.approx(omega, rel=0.15)
