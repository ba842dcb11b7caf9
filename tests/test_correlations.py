"""Matrix-element and two-time-correlation estimators on the doubled space."""

import numpy as np
import pytest

from qsdsim import (
    Ket,
    NoiseStream,
    Operator,
    QsdEngine,
    SdeConfig,
    basis_ket,
    correlate,
    decay_model,
    doubled_matrix_element,
    driven_decay_model,
    heisenberg_element,
    sigma_minus,
    sigma_plus,
    steady_state,
    two_time_correlation,
)

from qsdsim.correlations import _haar_rows
from qsdsim.noise import spawn

from conftest import decay_element_setup, random_ket, random_model


def haar_rows(streams, dim):
    out = np.empty((len(streams), dim), dtype=complex)
    for i, stream in enumerate(streams):
        vec = stream.wiener(dim, 1.0)
        out[i] = vec / np.linalg.norm(vec)
    return out


def test_correlate_validation(monkeypatch):
    sde = SdeConfig(dt=1e-2)
    good = dict(observable=sigma_plus(), perturbation=sigma_minus(), model=decay_model(),
                t=0.0, tau_grid=[0.0, 0.5], n_trajectories=10, sde=sde, seed=0)
    correlate(**good)

    def no_streams(*args):
        raise AssertionError("a stream was built before the arguments were checked")

    # every bad argument is named before run_ensemble builds a stream
    monkeypatch.setattr("qsdsim.ensemble.spawn", no_streams)
    for bad in (
        {"tau_grid": [0.5, 0.5]},
        {"tau_grid": [-0.5, 0.0]},
        {"t": -1.0},
        {"t": -1.0, "initial": Ket([1.0, 0.0])},
        {"n_trajectories": 1},
        {"perturbation": Operator(np.eye(3))},
    ):
        with pytest.raises(ValueError):
            correlate(**{**good, **bad})
    # the Haar-random start is initial=None; no string names it
    for initial in ("thermal", "steady_state", 3):
        with pytest.raises(TypeError, match="initial must be a Ket or None"):
            correlate(**good, initial=initial)
    # a zero-norm ket is a named error before any trajectory work
    with pytest.raises(ValueError, match="cannot normalize a zero-norm state"):
        correlate(**good, initial=Ket([0.0, 0.0]))


def test_incommensurate_time_rejected():
    with pytest.raises(ValueError, match="t=0.005 is not an integer multiple"):
        correlate(
            sigma_plus(), sigma_minus(), decay_model(), 0.005, [0.0, 0.5], 4,
            SdeConfig(dt=1e-2), seed=0, initial=basis_ket(2, 1),
        )


@pytest.mark.parametrize("grid", [[1.0, 0.5, 1.0], [0.5, 0.7, 0.7]])
def test_unordered_grid_rejected(grid):
    observable, bra, ket, model = decay_element_setup()
    for scheme in ("normalized", "jump"):
        with pytest.raises(ValueError, match="strictly increasing"):
            heisenberg_element(
                observable, bra, ket, model, grid, 4, SdeConfig(dt=1e-2, scheme=scheme),
                seed=0,
            )


def test_zero_delay_value_is_exact_per_realization():
    # at tau = 0 the weight cancels and every realization contributes
    # <psi_t| A B |psi_t> for its own normalized state
    model = decay_model()
    a_op, b_op = sigma_plus(), sigma_minus()
    psi0 = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    n, t, dt, seed = 8, 0.5, 1e-2, 123
    for scheme in ("normalized", "quasi_linear"):
        sde = SdeConfig(dt=dt, scheme=scheme)
        res = correlate(a_op, b_op, model, t, [0.0, 0.3], n, sde, seed, initial=psi0)
        streams = [NoiseStream(seed, i) for i in range(n)]
        states = np.tile(psi0.amplitudes, (n, 1))
        states = QsdEngine(model, dt, scheme).run(states, streams, int(round(t / dt)))
        states /= np.linalg.norm(states, axis=1)[:, None]
        ab = a_op.matrix @ b_op.matrix
        expected = np.einsum("bi,ij,bj->b", states.conj(), ab, states)
        assert np.max(np.abs(res.samples[:, 0] - expected)) < 1e-12


def test_identity_perturbation_reduces_to_single_space_run():
    # with B = I both halves of the stacked vector stay equal under shared
    # noise, so each realization reproduces the one-state expectation value
    # of the trajectory continued with the same stream
    model = decay_model()
    a_op = sigma_plus()
    psi0 = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    n, t, dt, seed = 8, 0.5, 1e-2, 321
    tau_grid = np.array([0.0, 0.25, 0.5])
    sde = SdeConfig(dt=dt)
    res = correlate(a_op, Operator(np.eye(2)), model, t, tau_grid, n, sde, seed, initial=psi0)

    streams = [NoiseStream(seed, i) for i in range(n)]
    engine = QsdEngine(model, dt)
    states = engine.run(np.tile(psi0.amplitudes, (n, 1)), streams, int(round(t / dt)))
    manual = np.empty((n, tau_grid.size), dtype=complex)

    def on_record(slot, recorded, norms):
        manual[:, slot] = np.einsum("bi,ij,bj->b", recorded.conj(), a_op.matrix, recorded)

    node_steps = [int(round(tau / dt)) for tau in tau_grid]
    engine.run(states, streams, node_steps[-1], node_steps, on_record)
    assert np.max(np.abs(res.samples - manual)) < 1e-12


def test_estimator_is_linear_in_observable():
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.0, 0.5])
    kwargs = dict(
        bra_state=bra, ket_state=ket, model=model, t_grid=grid,
        n_trajectories=16, sde=SdeConfig(dt=1e-2), seed=5,
    )
    base = heisenberg_element(observable, **kwargs)
    scaled = heisenberg_element(Operator(2.5 * observable.matrix), **kwargs)
    assert np.max(np.abs(scaled.samples - 2.5 * base.samples)) < 1e-12


def test_heisenberg_element_matches_oracle_on_random_model(rng):
    dim = 3
    model = random_model(rng, dim, 2, scale=0.7)
    observable = Operator(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    bra, ket = random_ket(rng, dim), random_ket(rng, dim)
    grid = np.array([0.0, 0.5, 1.0])
    res = heisenberg_element(
        observable, bra, ket, model, grid,
        n_trajectories=800, sde=SdeConfig(dt=2e-3), seed=42,
    )
    oracle = doubled_matrix_element(observable, bra, ket, model, grid)
    for k in range(grid.size):
        tol = max(4.0 * res.std_error[k], 1e-12)
        assert abs(res.mean[k] - oracle[k]) < tol
    assert res.method == "qsd-normalized"
    assert res.extras == {}


def zero_delay(initial, t=0.0, scheme="normalized", seed=0):
    """<sigma_plus sigma_minus> = |psi_e|^2 at tau = 0 after preparing
    ``initial`` (a Haar-random ket if None) for ``t``."""
    return correlate(
        sigma_plus(), sigma_minus(), decay_model(), t, [0.0], 4,
        SdeConfig(dt=1e-2, scheme=scheme), seed, initial,
    )


@pytest.mark.parametrize("scheme", ["normalized", "jump"])
def test_explicit_initial_is_normalized_and_draws_nothing(scheme):
    # |psi_e|^2 of the unnormalized (0, 2i) would be 4
    res = zero_delay(Ket([0.0, 2.0j]), scheme=scheme)
    assert res.samples.shape == (4, 1)
    assert np.allclose(res.samples, 1.0, rtol=0.0, atol=1e-14)
    # no segment takes a step, so not even a jump threshold is drawn
    assert res.draws_total == 0


def test_warmup_relaxes_decay_to_ground_reproducibly():
    res = zero_delay(None, t=15.0, seed=8)
    assert 0.0 <= res.mean[0].real < 1e-5
    again = zero_delay(None, t=15.0, seed=8)
    assert np.array_equal(res.mean, again.mean)


def test_dimensions_are_checked_against_the_model():
    # a d = 1 pair stacks to width 2 = d and would be stepped as a ket
    sde = SdeConfig(dt=0.01)
    cases = [
        (Operator(np.eye(1)), Ket([1.0]), Ket([1.0]), "observable 1, model 2"),
        (sigma_plus(), Ket([1.0, 0.0, 0.0]), Ket([0.0, 1.0, 0.0]), "bra 3, model 2"),
        (Operator(np.eye(3)), basis_ket(2, 0), basis_ket(2, 1), "observable 3, model 2"),
    ]
    for observable, bra, ket, message in cases:
        with pytest.raises(ValueError, match=f"dimension mismatch: {message}"):
            heisenberg_element(observable, bra, ket, decay_model(), [0.1], 4, sde, 1)
    with pytest.raises(ValueError, match="dimension mismatch: initial 3, model 2"):
        zero_delay(Ket([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
def test_batched_haar_starts_match_per_row_normalization(dim):
    # one draw per stream and one normalization of all rows give the bits of
    # per-row wiener draws divided by np.linalg.norm
    streams, ref_streams = spawn(4, 0, 300), [NoiseStream(4, i) for i in range(300)]
    assert _haar_rows(streams, dim).tobytes() == haar_rows(ref_streams, dim).tobytes()
    assert [s.draws for s in streams] == [s.draws for s in ref_streams] == [2 * dim] * 300


class _ZeroFirstBlock:
    """A stream's generator whose first normals are drawn and then zeroed."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def standard_normal(self, out):
        self.calls += 1
        self.gen.standard_normal(out=out)
        if self.calls == 1:
            out[...] = 0.0
        return out


def test_haar_start_redraws_only_a_zero_row_from_its_own_stream():
    dim = 3
    streams = [NoiseStream(9, i) for i in range(4)]
    streams[2]._gen = _ZeroFirstBlock(streams[2]._gen)
    rows = _haar_rows(streams, dim)

    want = haar_rows([NoiseStream(9, i) for i in range(4)], dim)
    assert np.array_equal(np.delete(rows, 2, axis=0), np.delete(want, 2, axis=0))
    # row 2 is the second draw of stream (9, 2), and the redraw is counted
    ref = NoiseStream(9, 2)
    ref.wiener(dim, 1.0)
    assert rows[2].tobytes() == haar_rows([ref], dim)[0].tobytes()
    assert streams[2]._gen.calls == 2
    assert [s.draws for s in streams] == [2 * dim, 2 * dim, 4 * dim, 2 * dim]


def test_warmup_reaches_stationary_covariance():
    # relaxed Haar ensemble matches the steady state componentwise
    model = driven_decay_model(10.0)
    dt, warmup, n = 2e-3, 12.0, 2000
    streams = [NoiseStream(31, i) for i in range(n)]
    states = haar_rows(streams, 2)
    states = QsdEngine(model, dt).run(states, streams, int(round(warmup / dt)))
    outer = np.einsum("bi,bj->bij", states, states.conj())
    rho = steady_state(model).entries
    for r in range(2):
        for c in range(2):
            vals = outer[:, r, c]
            se = np.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / n)
            assert abs(vals.mean() - rho[r, c]) < 4.0 * se


def test_fluorescence_correlation_matches_oracle():
    omega = 10.0
    model = driven_decay_model(omega)
    dt = 2e-3
    tau_grid = np.linspace(0.0, 1.5, 7)
    res = correlate(
        sigma_plus(), sigma_minus(), model, 10.0, tau_grid, 1500, SdeConfig(dt=dt), seed=77
    )
    oracle = two_time_correlation(sigma_plus(), sigma_minus(), model, 0.0, tau_grid)
    dev = np.abs(res.mean - oracle)
    assert np.all(dev < 3.0 * res.std_error)
    assert res.method == "qsd-normalized"
    assert res.extras == {}
