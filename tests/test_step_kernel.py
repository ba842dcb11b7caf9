"""The column-major step kernels against row-major reference steps.

The references below are the engines' step formulas in their plain
row-major form: one (batch, width) array, doubled rows stepped with the
block-diagonal operators of ``extend_model``, and noise drawn stepwise with
``NoiseStream.wiener``.  The engines step doubled rows block by block with
the model's own operators, so agreement also shows that the two blocks see
the same dynamics and share their noise.
"""

import sys

import numpy as np
import pytest

from conftest import decay_element_setup, random_ket, random_model
from qsdsim import (
    CorrelationRequest,
    DoubledState,
    JumpEngine,
    Ket,
    QsdEngine,
    SdeConfig,
    correlate,
    driven_decay_model,
    extend_model,
    heisenberg_element,
    jump_correlate,
    jump_matrix_element,
    make_doubled_state,
    sigma_minus,
    sigma_plus,
    step_jump,
    step_normalized,
    step_quasilinear,
    substream,
)

DIMS = (2, 3, 8)
CHANNELS = (1, 2, 3)
BATCH = 6
TOL = 1e-12


def reference_qsd_step(states, model, dt, scheme, dxi):
    """One row-major Euler-Maruyama step of (batch, dim) states."""
    norm2 = np.einsum("bi,bi->b", states.conj(), states).real
    out = states + dt * (states @ model.generator().T)
    for j, op in enumerate(model.lindblads):
        lpsi = states @ op.matrix.T
        ell = np.einsum("bi,bi->b", states.conj(), lpsi) / norm2
        out += (dxi[:, j] + ell.conj() * dt)[:, None] * lpsi
        if scheme == "normalized":
            out -= (ell * dxi[:, j] + 0.5 * np.abs(ell) ** 2 * dt)[:, None] * states
    if scheme == "normalized":
        out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def reference_qsd_run(states, model, dt, scheme, streams, n_steps):
    for _ in range(n_steps):
        dxi = np.array([s.wiener(model.n_channels, dt) for s in streams])
        states = reference_qsd_step(states, model, dt, scheme, dxi)
    return states


def reference_jump_run(states, model, dt, streams, n_steps):
    """Row-major survival-threshold jump substeps; returns the states and
    the number of jumps of each row."""
    ldl = model.ldl_sum()
    no_jump = np.eye(model.dim) + dt * model.generator()
    thresholds = np.array([s.uniform() for s in streams])
    survival = np.ones(len(streams))
    jumps = np.zeros(len(streams), dtype=int)
    for _ in range(n_steps):
        p_tot = dt * np.einsum("bi,bi->b", states.conj(), states @ ldl.T).real
        assert p_tot.max() <= 0.1
        next_survival = survival * (1.0 - p_tot)
        jump = next_survival < thresholds
        new = states @ no_jump.T
        new /= np.linalg.norm(new, axis=1)[:, None]
        for i in np.nonzero(jump)[0]:
            candidates = [op.matrix @ states[i] for op in model.lindblads]
            weights = np.array([np.linalg.norm(c) ** 2 for c in candidates])
            pick = streams[i].uniform() * weights.sum()
            acc, channel = 0.0, len(weights) - 1
            for j, w in enumerate(weights):
                acc += w
                if pick < acc:
                    channel = j
                    break
            new[i] = candidates[channel] / np.linalg.norm(candidates[channel])
            thresholds[i] = streams[i].uniform()
        survival = np.where(jump, 1.0, next_survival)
        jumps += jump
        states = new
    return states, jumps


def random_rows(rng, model, doubled):
    """Unit rows: kets, or stacked pairs (bra, ket)/sqrt(2)."""
    rows = []
    for _ in range(BATCH):
        if doubled:
            pair = make_doubled_state(random_ket(rng, model.dim), random_ket(rng, model.dim))
            rows.append(pair.vector())
        else:
            rows.append(random_ket(rng, model.dim).amplitudes)
    return np.array(rows)


def assert_rows_close(got, want):
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= TOL, err.max()


def cases():
    for dim in DIMS:
        for channels in CHANNELS:
            for doubled in (False, True):
                yield pytest.param(dim, channels, doubled,
                                   id=f"d{dim}-c{channels}-{'doubled' if doubled else 'ket'}")


@pytest.mark.parametrize("scheme", ["normalized", "quasi_linear"])
@pytest.mark.parametrize("n_steps", [1, 200])
@pytest.mark.parametrize("dim,channels,doubled", cases())
def test_qsd_engine_matches_row_major_reference(dim, channels, doubled, n_steps, scheme):
    rng = np.random.default_rng(1000 * dim + 10 * channels + doubled)
    model = random_model(rng, dim, channels)
    states = random_rows(rng, model, doubled)
    dt = 1e-3
    got = QsdEngine(model, dt, scheme).run(
        states, [substream(3, i) for i in range(BATCH)], n_steps
    )
    ref_model = extend_model(model) if doubled else model
    want = reference_qsd_run(
        states, ref_model, dt, scheme, [substream(3, i) for i in range(BATCH)], n_steps
    )
    assert_rows_close(got, want)


@pytest.mark.parametrize("dim,channels,doubled", cases())
def test_single_step_functions_match_reference(dim, channels, doubled):
    rng = np.random.default_rng(7 * dim + channels + 100 * doubled)
    model = random_model(rng, dim, channels)
    ref_model = extend_model(model) if doubled else model
    vec = random_rows(rng, model, doubled)[0]
    state = DoubledState.from_vector(vec, dim) if doubled else Ket(vec)
    dxi = substream(5, 0).wiener(channels, 1e-3)
    for step, scheme in ((step_normalized, "normalized"), (step_quasilinear, "quasi_linear")):
        out = step(state, model, 1e-3, dxi)
        assert isinstance(out, type(state))
        got = out.vector() if doubled else out.amplitudes
        want = reference_qsd_step(vec.reshape(1, -1), ref_model, 1e-3, scheme, dxi[None])
        assert_rows_close(got.reshape(1, -1), want)


@pytest.mark.parametrize("n_steps", [1, 200])
@pytest.mark.parametrize("dim,channels,doubled", cases())
def test_jump_engine_matches_row_major_reference(dim, channels, doubled, n_steps):
    rng = np.random.default_rng(500 + 1000 * dim + 10 * channels + doubled)
    model = random_model(rng, dim, channels)
    states = random_rows(rng, model, doubled)
    # the largest possible jump probability per substep is 0.05
    dt = 0.05 / np.linalg.eigvalsh(model.ldl_sum()).max()
    engine = JumpEngine(model, dt)
    streams = [substream(8, i) for i in range(BATCH)]
    got = engine.run(states, streams, n_steps)
    ref_model = extend_model(model) if doubled else model
    ref_streams = [substream(8, i) for i in range(BATCH)]
    want, jumps = reference_jump_run(states, ref_model, dt, ref_streams, n_steps)
    assert np.array_equal(engine.last_jump_counts, jumps)
    assert [s.draws for s in streams] == [s.draws for s in ref_streams]
    assert_rows_close(got, want)
    if n_steps == 200:
        assert jumps.sum() > 0


def test_step_jump_matches_reference_on_doubled_state(rng):
    model = random_model(rng, 3, 2)
    pair = make_doubled_state(random_ket(rng, 3), random_ket(rng, 3))
    dt = 0.05 / np.linalg.eigvalsh(model.ldl_sum()).max()
    stream = substream(2, 0)
    state = pair
    for _ in range(50):
        state = step_jump(state, model, dt, stream)
    ref_stream = substream(2, 0)
    want = pair.vector().reshape(1, -1)
    for _ in range(50):
        want, _ = reference_jump_run(want, extend_model(model), dt, [ref_stream], 1)
    assert_rows_close(state.vector().reshape(1, -1), want)
    assert stream.draws == ref_stream.draws


def test_estimators_never_extend_the_model(monkeypatch):
    def refuse(model):
        raise AssertionError("extend_model called")

    for name, module in list(sys.modules.items()):
        if name.startswith("qsdsim") and hasattr(module, "extend_model"):
            monkeypatch.setattr(module, "extend_model", refuse)

    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.1, 0.2])
    for fn in (heisenberg_element, jump_matrix_element):
        extra = {"sde": SdeConfig(dt=1e-2)} if fn is heisenberg_element else {"dt": 1e-2}
        res = fn(observable, bra, ket, model, grid, n_trajectories=4, seed=1, **extra)
        assert np.all(np.isfinite(res.mean))
    request = CorrelationRequest(
        observable=sigma_plus(), perturbation=sigma_minus(), t=0.1,
        tau_grid=np.array([0.0, 0.1]), n_trajectories=4, sde=SdeConfig(dt=1e-2),
        initial="random_uniform", warmup_time=0.1,
    )
    for fn in (correlate, jump_correlate):
        res = fn(request, driven_decay_model(2.0), seed=1)
        assert np.all(np.isfinite(res.mean))
