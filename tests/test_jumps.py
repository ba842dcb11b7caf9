"""Jump (piecewise-deterministic) unraveling tests."""

import numpy as np
import pytest
from scipy import linalg, stats

from qsdsim import (
    CorrelationRequest,
    DensityMatrix,
    DoubledState,
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
    make_doubled_state,
    regression_matrix_element,
    sigma_plus,
    substream,
    two_time_correlation,
)

from conftest import decay_element_setup, random_ket, random_model
from qsdsim.jumps import _expm


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


@pytest.mark.parametrize("dt", [0.15, 0.5])
def test_survival_matches_oracle_at_large_dt(dt):
    # the no-jump drift is exact, so at any dt the fraction of rows still in
    # |e> at each grid node is the oracle's rho_ee(t) = exp(-t); the jumps
    # fall on the dt grid
    n, n_steps = 4000, int(round(3.0 / dt))
    model = decay_model()
    grid = dt * np.arange(n_steps + 1)
    rho = evolve(DensityMatrix.from_ket(basis_ket(2, 1)), model, grid)
    oracle = np.array([r.entries[1, 1].real for r in rho])
    np.testing.assert_allclose(oracle, np.exp(-grid), rtol=1e-6)
    survived = np.empty(n_steps + 1)

    def on_record(slot, states, norms):
        survived[slot] = np.mean(np.abs(states[:, 1]) ** 2 > 0.5)

    engine = JumpEngine(model, dt)
    states = np.tile(basis_ket(2, 1).amplitudes, (n, 1))
    streams = [substream(21, i) for i in range(n)]
    engine.run(states, streams, n_steps, range(n_steps + 1), on_record)
    sigma = np.sqrt(oracle * (1.0 - oracle) / n)
    assert np.all(np.abs(survived - oracle) <= 4.0 * sigma + 1e-12)
    assert engine.last_jump_counts.max() == 1
    for stream, jumps in zip(streams, engine.last_jump_counts):
        assert stream.draws == 1 + 2 * int(jumps)


def test_jump_from_a_dark_state_is_taken_at_the_jump_substep():
    # |g> is dark for L = sigma_minus; a threshold of 1 forces a jump in the
    # first substep, whose weights vanish one substep before it
    model = driven_decay_model(3.0)
    stream = substream(5, 0)
    control = JumpControl(threshold=1.0)
    engine = JumpEngine(model, 0.1)
    out = engine.run(basis_ket(2, 0).amplitudes.reshape(1, -1), [stream], 1, controls=[control])
    assert control.jumps == 1 and control.survival == 1.0
    assert stream.draws == 2
    assert abs(abs(out[0, 0]) - 1.0) < 1e-15 and out[0, 1] == 0.0


@pytest.mark.parametrize("dim,channels", [(2, 1), (3, 2), (8, 3)])
def test_expm_matches_scipy(dim, channels):
    rng = np.random.default_rng(60 + dim)
    generator = random_model(rng, dim, channels).generator()
    scale = np.abs(generator).sum(axis=0).max()
    for size in (1e-4, 1e-2, 0.3, 0.5, 1.0, 7.0, 50.0):
        a = generator * (size / scale)
        want = linalg.expm(a)
        got = _expm(a)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), size


def test_segmented_runs_match_one_run():
    rng = np.random.default_rng(77)
    model = random_model(rng, 3, 2)
    states = np.array([
        make_doubled_state(random_ket(rng, 3), random_ket(rng, 3)).vector() for _ in range(6)
    ])
    dt, n_steps = 1e-2, 300

    def started(seed):
        streams = [substream(seed, i) for i in range(len(states))]
        return streams, [JumpControl.start(s) for s in streams]

    streams, controls = started(3)
    engine = JumpEngine(model, dt)
    whole = engine.run(states, streams, n_steps, controls=controls)
    assert engine.last_jump_counts.sum() > 6
    split_streams, split_controls = started(3)
    out = states
    for start, stop in zip([0, 1, 37, 38, 150], [1, 37, 38, 150, n_steps]):
        out = engine.run(out, split_streams, stop - start, controls=split_controls)
    assert [c.jumps for c in controls] == [c.jumps for c in split_controls]
    assert [s.draws for s in streams] == [s.draws for s in split_streams]
    assert [c.threshold for c in controls] == [c.threshold for c in split_controls]
    np.testing.assert_allclose(
        [c.survival for c in split_controls], [c.survival for c in controls], rtol=1e-12
    )
    np.testing.assert_allclose(out, whole, rtol=0, atol=1e-12)


def test_stepwise_calls_match_one_run():
    from qsdsim import step_jump

    model = driven_decay_model(3.0)
    psi0 = Ket(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    dt, n_steps = 1e-2, 400
    stream = substream(8, 0)
    control = JumpControl.start(stream)
    whole = JumpEngine(model, dt).run(
        psi0.amplitudes.reshape(1, -1), [stream], n_steps, controls=[control]
    )[0]
    assert control.jumps >= 2
    step_stream = substream(8, 0)
    step_control = JumpControl.start(step_stream)
    state = psi0
    for _ in range(n_steps):
        state = step_jump(state, model, dt, step_stream, step_control)
    assert step_control.jumps == control.jumps
    assert step_stream.draws == stream.draws
    np.testing.assert_allclose(state.amplitudes, whole, rtol=0, atol=1e-12)


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
