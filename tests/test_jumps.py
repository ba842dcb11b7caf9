"""Jump (piecewise-deterministic) unraveling tests."""

import numpy as np
import pytest
from scipy import linalg, stats

from qsdsim import (
    DensityMatrix,
    InstabilityError,
    JumpEngine,
    Ket,
    NoiseStream,
    SdeConfig,
    basis_ket,
    decay_model,
    driven_decay_model,
    correlate,
    evolve,
    heisenberg_element,
    regression_matrix_element,
    sigma_plus,
    two_time_correlation,
)

from conftest import decay_element_setup, random_ket, random_model
from qsdsim.diffusion import _columns, _rows
from qsdsim.jumps import _expm


def test_jump_engine_validation():
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            JumpEngine(decay_model(), dt)


def test_run_rejects_stream_mismatch_and_degenerate_rows():
    engine = JumpEngine(decay_model(), 1e-2)
    states = np.tile(basis_ket(2, 1).amplitudes, (3, 1))
    streams = [NoiseStream(0, 10 + i) for i in range(3)]
    with pytest.raises(ValueError, match="need one stream per row: 2 streams, batch 3"):
        engine.run(states, streams[:2], 5)
    for bad in (0.0, np.nan, np.inf):
        states[2] = bad
        with pytest.raises(InstabilityError, match="degenerate initial state .*trajectory 12"):
            engine.run(states, streams, 5)
    # the check comes before any waiting-time threshold is drawn
    assert all(s.draws == 0 for s in streams)


def test_ground_state_never_jumps():
    stream = NoiseStream(0, 0)
    engine = JumpEngine(decay_model(), 1e-2)
    out = engine.run(basis_ket(2, 0).amplitudes.reshape(1, -1), [stream], 200)
    assert np.array_equal(out[0], basis_ket(2, 0).amplitudes)
    assert engine.last_jump_counts.sum() == 0
    # only the initial waiting-time threshold was drawn
    assert stream.draws == 1
    # a run of no substeps draws no threshold
    engine.run(out, [stream], 0)
    assert stream.draws == 1


def test_two_draws_per_jump_accounting():
    n, steps = 50, 2000
    engine = JumpEngine(driven_decay_model(3.0), 1e-3)
    states = np.tile(basis_ket(2, 1).amplitudes, (n, 1))
    streams = [NoiseStream(12, i) for i in range(n)]
    engine.run(states, streams, steps)
    assert engine.last_jump_counts.sum() > 0
    for stream, jumps in zip(streams, engine.last_jump_counts):
        assert stream.draws == 1 + 2 * int(jumps)


def test_waiting_times_are_exponential():
    # excited atom with unit decay rate: first-jump times ~ Exp(1); the one
    # jump takes |e> to the dark |g>, so the first node with |psi_e|^2 < 0.5
    # is the substep of the jump
    n, dt, n_steps = 2000, 2e-3, 6000
    first_jump = np.full(n, -1.0)

    def on_record(slot, states, norms):
        fresh = (np.abs(states[:, 1]) ** 2 < 0.5) & (first_jump < 0)
        first_jump[fresh] = slot * dt

    engine = JumpEngine(decay_model(), dt)
    states = np.tile(basis_ket(2, 1).amplitudes, (n, 1))
    streams = [NoiseStream(99, i) for i in range(n)]
    engine.run(states, streams, n_steps, range(n_steps + 1), on_record)
    times = first_jump[first_jump > 0]
    assert times.size >= n - 1
    assert times.size == np.count_nonzero(engine.last_jump_counts)
    _, p_value = stats.kstest(times, "expon")
    assert p_value > 0.01


def test_trajectory_covariance_matches_master_equation():
    model = decay_model()
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    n, dt, t = 3000, 1e-3, 1.0
    engine = JumpEngine(model, dt)
    states = np.tile(psi0, (n, 1))
    streams = [NoiseStream(7, i) for i in range(n)]
    out = engine.run(states, streams, int(round(t / dt)))
    outer = np.einsum("bi,bj->bij", out, out.conj())
    rho = evolve(DensityMatrix.from_ket(Ket(psi0)), model, [0.0, t])[-1].entries
    for r in range(2):
        for c in range(2):
            vals = outer[:, r, c]
            se = np.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / n)
            assert abs(vals.mean() - rho[r, c]) < 4.0 * se


def test_zero_lower_block_is_preserved_through_jumps():
    lower = []

    def on_record(slot, states, norms):
        lower.append(np.abs(states[0, 2:]).max())

    # upper block the excited state, lower block zero
    state = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=complex)
    engine = JumpEngine(decay_model(), 1e-2)
    engine.run(state, [NoiseStream(4, 0)], 300, range(301), on_record)
    assert lower == [0.0] * 301
    assert engine.last_jump_counts[0] > 0


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
    streams = [NoiseStream(21, i) for i in range(n)]
    engine.run(states, streams, n_steps, range(n_steps + 1), on_record)
    sigma = np.sqrt(oracle * (1.0 - oracle) / n)
    assert np.all(np.abs(survived - oracle) <= 4.0 * sigma + 1e-12)
    assert engine.last_jump_counts.max() == 1
    for stream, jumps in zip(streams, engine.last_jump_counts):
        assert stream.draws == 1 + 2 * int(jumps)


def test_jump_from_a_dark_state_is_taken_at_the_jump_substep():
    # |g> is dark for L = sigma_minus; a threshold of 1 forces a jump in the
    # first substep, whose weights vanish one substep before it
    stream = NoiseStream(5, 0)
    engine = JumpEngine(driven_decay_model(3.0), 0.1)
    x = _columns(basis_ket(2, 0).amplitudes.reshape(1, -1), 2)
    survival, thresholds, jumps = np.ones(1), np.ones(1), np.zeros(1, dtype=np.int64)
    engine._advance(x, 1, survival, thresholds, jumps, [stream])
    assert jumps[0] == 1 and survival[0] == 1.0
    # the channel pick and the next threshold
    assert stream.draws == 2 and thresholds[0] < 1.0
    out = _rows(x)
    assert abs(abs(out[0, 0]) - 1.0) < 1e-15 and out[0, 1] == 0.0


def test_jump_applies_the_channel_to_the_state_one_substep_before(rng):
    # a threshold of 1 forces a jump in the first substep, from psi itself:
    # the channel is drawn with weights ||L_j psi||^2 and applied to psi,
    # not to U psi at the jump substep
    model = random_model(rng, 3, 2)
    psi = random_ket(rng, 3).amplitudes
    x = _columns(psi.reshape(1, -1), 3)
    survival, thresholds, jumps = np.ones(1), np.ones(1), np.zeros(1, dtype=np.int64)
    JumpEngine(model, 0.1)._advance(x, 1, survival, thresholds, jumps, [NoiseStream(5, 0)])
    assert jumps[0] == 1
    candidates = [op.matrix @ psi for op in model.lindblads]
    weights = np.array([np.vdot(c, c).real for c in candidates])
    pick = NoiseStream(5, 0).uniform(2)[0] * weights.sum()
    j = int(np.searchsorted(np.cumsum(weights), pick, side="right"))
    assert np.allclose(_rows(x)[0], candidates[j] / np.sqrt(weights[j]), rtol=0, atol=1e-12)


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
    res = correlate(
        sigma_plus(), sigma_plus(), model, 0.5, tau_grid, 800,
        SdeConfig(dt=1e-3, scheme="jump"), seed=11, initial=psi0,
    )
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
