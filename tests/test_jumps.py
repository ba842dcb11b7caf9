"""Jump (piecewise-deterministic) unraveling tests."""

import numpy as np
import pytest
from scipy import stats

from qsdsim import (
    CorrelationRequest,
    DensityMatrix,
    DoubledState,
    InstabilityError,
    JumpControl,
    JumpEngine,
    Ket,
    SdeConfig,
    basis_ket,
    decay_model,
    driven_decay_model,
    correlate,
    evolve,
    heisenberg_element,
    regression_matrix_element,
    sigma_plus,
    substream,
    two_time_correlation,
)

from conftest import decay_element_setup


def test_jump_engine_validation():
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            JumpEngine(decay_model(), dt)


def test_ground_state_never_jumps():
    stream = substream(0, 0)
    engine = JumpEngine(decay_model(), 1e-2)
    out = engine.run(basis_ket(2, 0).amplitudes.reshape(1, -1), [stream], 200)
    assert np.array_equal(out[0], basis_ket(2, 0).amplitudes)
    assert engine.last_jump_counts.sum() == 0
    # only the initial waiting-time threshold was drawn
    assert stream.draws == 1


def test_two_draws_per_jump_accounting():
    n, steps = 50, 2000
    engine = JumpEngine(driven_decay_model(3.0), 1e-3)
    states = np.tile(basis_ket(2, 1).amplitudes, (n, 1))
    streams = [substream(12, i) for i in range(n)]
    engine.run(states, streams, steps)
    assert engine.last_jump_counts.sum() > 0
    for stream, jumps in zip(streams, engine.last_jump_counts):
        assert stream.draws == 1 + 2 * int(jumps)


def test_waiting_times_are_exponential():
    # excited atom with unit decay rate: first-jump times ~ Exp(1)
    n, dt = 2000, 2e-3
    engine = JumpEngine(decay_model(), dt)
    states = np.tile(basis_ket(2, 1).amplitudes, (n, 1))
    streams = [substream(99, i) for i in range(n)]
    controls = [JumpControl.start(s) for s in streams]
    first_jump = np.full(n, -1.0)
    for step in range(1, 6001):
        states = engine.run(states, streams, 1, controls=controls)
        fresh = [
            i for i, c in enumerate(controls) if c.jumps > 0 and first_jump[i] < 0
        ]
        for i in fresh:
            first_jump[i] = step * dt
        if np.all(first_jump > 0):
            break
    times = first_jump[first_jump > 0]
    assert times.size >= n - 1
    _, p_value = stats.kstest(times, "expon")
    assert p_value > 0.01


def test_trajectory_covariance_matches_master_equation():
    model = decay_model()
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    n, dt, t = 3000, 1e-3, 1.0
    engine = JumpEngine(model, dt)
    states = np.tile(psi0, (n, 1))
    streams = [substream(7, i) for i in range(n)]
    out = engine.run(states, streams, int(round(t / dt)))
    outer = np.einsum("bi,bj->bij", out, out.conj())
    rho = evolve(DensityMatrix.from_ket(Ket(psi0)), model, [0.0, t])[-1].entries
    for r in range(2):
        for c in range(2):
            vals = outer[:, r, c]
            se = np.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / n)
            assert abs(vals.mean() - rho[r, c]) < 4.0 * se


def test_zero_lower_block_is_preserved_through_jumps():
    from qsdsim import step_jump

    model = decay_model()
    state = DoubledState(basis_ket(2, 1), Ket([0.0, 0.0]))
    stream = substream(4, 0)
    control = JumpControl.start(stream)
    for _ in range(300):
        state = step_jump(state, model, 1e-2, stream, control)
        assert not state.lower.amplitudes.any()
    assert control.jumps > 0


def test_excessive_jump_probability_raises():
    engine = JumpEngine(decay_model(), 0.15)
    with pytest.raises(InstabilityError, match="reduce dt"):
        engine.run(
            np.tile(basis_ket(2, 1).amplitudes, (1, 1)), [substream(0, 0)], 1
        )


def test_persistent_control_draw_economy():
    from qsdsim import step_jump

    model = decay_model()
    stream = substream(42, 0)
    control = JumpControl.start(stream)
    state = basis_ket(2, 1)
    for _ in range(400):
        state = step_jump(state, model, 5e-3, stream, control)
    assert control.jumps >= 1
    assert stream.draws == 1 + 2 * control.jumps


def test_jump_matrix_element_against_oracle():
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.5, 1.0, 2.0])
    sde = SdeConfig(dt=1e-3, scheme="jump")
    res = heisenberg_element(
        observable, bra, ket, model, grid, n_trajectories=600, sde=sde, seed=6
    )
    oracle = regression_matrix_element(observable, bra, ket, model, grid)
    assert np.all(np.abs(res.mean - oracle) < 4.0 * res.std_error)
    assert res.method == "jump"
    assert list(res.extras) == ["jumps_total"]
    assert res.extras["jumps_total"] > 0
    # one threshold per trajectory plus two draws per jump
    assert res.draws_total == res.n + 2 * res.extras["jumps_total"]


def test_jump_correlate_against_oracle():
    model = driven_decay_model(4.0)
    psi0 = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    tau_grid = np.array([0.0, 0.5, 1.0])
    request = CorrelationRequest(
        observable=sigma_plus(),
        perturbation=sigma_plus(),
        t=0.5,
        tau_grid=tau_grid,
        n_trajectories=800,
        sde=SdeConfig(dt=1e-3, scheme="jump"),
        initial=psi0,
    )
    res = correlate(request, model, seed=11)
    assert res.method == "jump"
    assert list(res.extras) == ["jumps_total"]
    oracle = two_time_correlation(
        sigma_plus(), sigma_plus(), model, 0.5, tau_grid,
        rho0=DensityMatrix.from_ket(psi0),
    )
    # the tau = 0 node is exact per realization, so its error can be zero
    tol = np.maximum(4.0 * res.std_error, 1e-12)
    assert np.all(np.abs(res.mean - oracle) < tol)
    # two run segments per trajectory, each drawing one threshold
    assert res.draws_total == 2 * res.n + 2 * res.extras["jumps_total"]
