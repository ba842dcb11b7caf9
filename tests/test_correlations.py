"""Matrix-element and two-time-correlation estimators on the doubled space."""

import os
import signal
from functools import partial

import numpy as np
import pytest

from qsdsim import (
    EnsembleError,
    Ket,
    LindbladModel,
    NoiseStream,
    Operator,
    QsdEngine,
    SdeConfig,
    basis_ket,
    correlate,
    decay_model,
    doubled_matrix_element,
    driven_cavity_model,
    driven_decay_model,
    heisenberg_element,
    sigma_minus,
    sigma_plus,
    steady_state,
    two_time_correlation,
)

from qsdsim import correlations, noise
from qsdsim.correlations import _haar_rows
from qsdsim.ensemble import run_ensemble
from qsdsim.noise import spawn

from conftest import (
    deadline,
    decay_element_setup,
    in_chunk_worker,
    no_child_left,
    random_ket,
    random_model,
    recorded_forks,
)


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
    monkeypatch.setattr("qsdsim.noise.spawn", no_streams)
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


# Whole-task splits: the ensemble runner splits a heavy diffusive chunk
# between this process and a forked chunk worker, each running the whole
# task on its rows; the ``splits`` fixture sets the gate to 0.


def observed(run):
    """The samples' bytes, the counts and the draws of ``run()``, or its
    error's type and message."""
    try:
        res = run()
    except EnsembleError as err:
        return type(err.error).__name__, str(err)
    return res.samples.tobytes(), res.extras, res.draws_total


def unsplit(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(noise, "_SPLIT_GATE", float("inf"))
        return observed(run)


def element_run(dim, channels, scheme, n):
    """A heisenberg_element run on a random model, recorded at four nodes."""
    rng = np.random.default_rng(dim * n)
    model = random_model(rng, dim, channels, scale=0.5)
    observable = Operator(np.diag(np.arange(1.0, dim + 1)))
    return partial(heisenberg_element, observable, random_ket(rng, dim), random_ket(rng, dim),
                   model, [0.0, 0.01, 0.15, 0.2], n, SdeConfig(1e-3, scheme), seed=5)


def correlate_run(dim, scheme, n, initial=None):
    """A correlate run on a random model: preparation, then a tau segment."""
    rng = np.random.default_rng(dim + n)
    model = random_model(rng, dim, 2, scale=0.5)
    a_op = Operator(np.diag(np.arange(1.0, dim + 1)))
    return partial(correlate, a_op, model.lindblads[0], model, 0.05, [0.0, 0.02, 0.05], n,
                   SdeConfig(1e-3, scheme), 6, initial)


@pytest.mark.parametrize(
    "run,forks",
    [
        (element_run(2, 1, "normalized", 300), 1),
        (element_run(3, 2, "quasi_linear", 130), 1),
        (element_run(8, 1, "normalized", 200), 1),
        # two chunks, both split
        (element_run(2, 2, "quasi_linear", 2048 + 300), 2),
        # Haar starts, a preparation and a tau segment
        (correlate_run(3, "normalized", 300), 1),
        (correlate_run(2, "quasi_linear", 2048 + 130), 2),
        (correlate_run(4, "quasi_linear", 192, Ket(np.ones(4))), 1),
    ],
)
def test_a_chunk_split_in_two_gives_the_bits_of_the_unsplit_one(splits, monkeypatch, run, forks):
    with deadline(60):
        split = observed(run)
    assert len(splits) == forks
    assert split == unsplit(monkeypatch, run)
    assert len(split) == 3 and split[2] > 0
    no_child_left()


# Under the quasi-linear scheme with H = 0 and L = 1000 I, a step multiplies
# the norm by about 5000 at dt = 0.01: a row scaled by 1e150 overflows its
# norm at step 2, one scaled by 1e140 at step 4.  Rows [0, 128) of 200 stay
# in this process and rows [128, 200) go to the chunk worker.
_GROWTH = LindbladModel(Operator(np.zeros((2, 2))), (Operator(1e3 * np.eye(2)),))


def growing_run(monkeypatch, scales, grid):
    """heisenberg_element on ``_GROWTH`` over 200 trajectories, each
    starting row scaled by ``scales`` {trajectory: factor}."""
    chunk = correlations._doubled_series_chunk

    def scaled(engine, counts, streams, theta, *args):
        with np.errstate(invalid="ignore"):  # inf times a zero amplitude
            for row, stream in zip(theta, streams):
                row *= scales.get(stream.trajectory_index, 1.0)
        return chunk(engine, counts, streams, theta, *args)

    monkeypatch.setattr(correlations, "_doubled_series_chunk", scaled)
    observable, bra, ket, _ = decay_element_setup()
    return partial(heisenberg_element, Operator(np.eye(2)), bra, ket, _GROWTH, grid, 200,
                   SdeConfig(0.01, "quasi_linear"), seed=0)


@pytest.mark.parametrize(
    "scales,grid,expected",
    [
        # the earliest step wins, in either half
        ({10: 1e140, 150: 1e150}, (0, 0.01, 0.06), "after step 2 (first at trajectory 150)"),
        ({10: 1e150, 150: 1e140}, (0, 0.01, 0.03, 0.06), "after step 2 (first at trajectory 10)"),
        # at one step, the lowest row
        ({100: 1e150, 130: 1e150}, (0.06,), "after step 2 (first at trajectory 100)"),
        # only the worker's half fails, at a record and after the last one
        ({199: 1e150}, (0, 0.01, 0.03, 0.06), "after step 2 (first at trajectory 199)"),
        ({199: 1e140}, (0, 0.01, 0.06), "after step 4 (first at trajectory 199)"),
        # before stepping, the finiteness check comes first
        ({5: 0.0, 140: np.nan}, (0.03,), "became non-finite during propagation "
                                           "(first at trajectory 140)"),
        ({5: np.inf, 140: 0.0}, (0.06,), "became non-finite during propagation "
                                         "(first at trajectory 5)"),
    ],
)
def test_a_chunk_split_in_two_raises_the_instability_of_the_unsplit_one(
    splits, monkeypatch, scales, grid, expected
):
    run = growing_run(monkeypatch, scales, grid)
    with deadline(60):
        split = observed(run)
    assert len(splits) == 1
    whole = unsplit(monkeypatch, run)
    assert whole[0] == "InstabilityError"
    assert whole[1].endswith(expected), whole[1]
    assert split == whole
    no_child_left()


def test_a_chunk_worker_that_raises_passes_its_error_on(splits, monkeypatch):
    def fail():
        raise MemoryError("no room for a block")

    in_chunk_worker(monkeypatch, fail)
    with deadline(60):
        failed = observed(element_run(2, 1, "normalized", 200))
    assert len(splits) == 1
    assert failed == ("MemoryError", "ensemble execution failed for trajectories [0, 200): "
                                     "MemoryError: no room for a block")
    no_child_left()


def test_a_killed_chunk_worker_is_named_and_reaped(splits, monkeypatch):
    in_chunk_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with deadline(60):
        failed = observed(correlate_run(2, "normalized", 200))
    assert failed == ("RuntimeError", "ensemble execution failed for trajectories [0, 200): "
                      "RuntimeError: chunk worker exited (exit code -9) without its result")
    no_child_left()


def test_no_jump_task_splits(splits):
    observable, bra, ket, model = decay_element_setup()
    sde = SdeConfig(0.01, "jump")
    heisenberg_element(observable, bra, ket, model, [0.0, 0.1], 300, sde, seed=0)
    correlate(sigma_plus(), sigma_minus(), model, 0.1, [0.0, 0.1], 300, sde, seed=0)
    assert splits == []


def test_the_gate_takes_every_diffusive_chunk_of_the_benchmark(monkeypatch):
    # a doubled d = 2 row with one channel takes 4 x 2 x 2 multiply-adds a
    # step: every g1 chunk (2048 and 1024 rows) splits, and so does each
    # doubled chunk of 512 rows and up; the d = 32 cavity splits at 128
    forks = recorded_forks(monkeypatch)
    assert noise._SPLIT_GATE == 2**13
    sde = SdeConfig(1e-3)
    g1 = partial(correlate, sigma_plus(), sigma_minus(), driven_decay_model(10.0), 0.0,
                 [0.0, 1e-3], sde=sde, seed=0)
    g1(n_trajectories=511)
    assert forks == []
    g1(n_trajectories=512)
    assert len(forks) == 1
    cavity = driven_cavity_model(32)
    heisenberg_element(Operator(cavity.lindblads[0].matrix), basis_ket(32, 0), basis_ket(32, 1),
                       cavity, [1e-3], 128, sde, seed=0)
    assert len(forks) == 2
    no_child_left()


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("scheme", ["normalized", "quasi_linear"])
def test_the_chunk_size_fixes_no_bit_of_a_diffusive_run(in_process, monkeypatch, dim, scheme):
    # BLAS rounds a product column by its place in the kernel's unroll,
    # which a chunk boundary at any multiple of 4 columns leaves in place;
    # the jump engine gathers each round's active rows and has no such rule
    runs = (element_run(dim, 2, scheme, 2100), correlate_run(dim, scheme, 2100))
    seen = []
    for chunk_size in (512, 1000, 2048, 4096):
        monkeypatch.setattr(correlations, "run_ensemble",
                            partial(run_ensemble, chunk_size=chunk_size))
        seen.append([observed(run) for run in runs])
    assert all(runs == seen[0] for runs in seen[1:])
