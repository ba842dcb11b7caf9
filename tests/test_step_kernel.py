"""The column-major step kernels against row-major reference steps.

The references below are the engines' step formulas in their plain
row-major form: one (batch, width) array, doubled rows stepped with the
block-diagonal operators of ``extend_model``, and noise drawn stepwise with
``NoiseStream.wiener``.  The engines step doubled rows block by block with
the model's own operators, so agreement also shows that the two blocks see
the same dynamics and share their noise.  The coupled-pair reference steps
separate (batch, dim) arrays of kets and bras, one product per operator.
"""

import sys

import numpy as np
import pytest

from conftest import decay_element_setup, random_ket, random_model
from qsdsim import (
    CorrelationRequest,
    CoupledPair,
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
    step_coupled,
    step_coupled_quasilinear,
    step_jump,
    step_normalized,
    step_quasilinear,
    substream,
)
from qsdsim.gisin import VARIANTS, _PairKernel

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


def reference_pair_step(kets, bras, model, dt, variant, dxi):
    """One row-major coupled-pair step of (batch, dim) kets and bras."""
    sp = np.einsum("bi,bi->b", bras.conj(), kets)
    new_kets = kets + dt * (kets @ model.generator().T)
    new_bras = bras + dt * (bras @ model.generator().T)
    for j, op in enumerate(model.lindblads):
        l_kets = kets @ op.matrix.T
        l_bras = bras @ op.matrix.T
        # l_j(ket, bra) = <ket|L_j|bra> / <ket|bra>; <ket|bra> = conj(sp)
        l_ket_bra = np.einsum("bi,bi->b", kets.conj(), l_bras) / sp.conj()
        l_bra_ket = np.einsum("bi,bi->b", bras.conj(), l_kets) / sp
        xi = dxi[:, j]
        if variant == "unity":
            new_kets += dt * (
                l_ket_bra.conj()[:, None] * l_kets
                - 0.5 * (l_bra_ket * l_ket_bra.conj())[:, None] * kets
            )
            new_bras += dt * (
                l_bra_ket.conj()[:, None] * l_bras
                - 0.5 * (l_ket_bra * l_bra_ket.conj())[:, None] * bras
            )
            new_kets += xi[:, None] * l_kets - (xi * l_bra_ket)[:, None] * kets
            new_bras += xi[:, None] * l_bras - (xi * l_ket_bra)[:, None] * bras
        else:
            new_kets += (xi + l_ket_bra.conj() * dt)[:, None] * l_kets
            new_bras += (xi + l_bra_ket.conj() * dt)[:, None] * l_bras
    return new_kets, new_bras


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


def random_pair_rows(rng, dim):
    """(batch, dim) unit kets and unit bras."""
    kets = np.array([random_ket(rng, dim).amplitudes for _ in range(BATCH)])
    bras = np.array([random_ket(rng, dim).amplitudes for _ in range(BATCH)])
    return kets, bras


def pair_cases():
    for dim in DIMS:
        for channels in CHANNELS:
            yield pytest.param(dim, channels, id=f"d{dim}-c{channels}")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_steps", [1, 200])
@pytest.mark.parametrize("dim,channels", pair_cases())
def test_pair_kernel_matches_row_major_reference(dim, channels, n_steps, variant):
    rng = np.random.default_rng(2000 + 1000 * dim + 10 * channels)
    model = random_model(rng, dim, channels)
    kets, bras = random_pair_rows(rng, dim)
    # at dt = 1e-3 some unity rows blow up within 200 steps (norms near
    # 1e41), and a one-ulp change of their start moves the reference itself
    # by 1e-5; at 1e-4 every row stays well conditioned
    dt = 1e-4
    streams = [substream(6, i) for i in range(BATCH)]
    increments = [np.array([s.wiener(channels, dt) for s in streams]) for _ in range(n_steps)]
    x = np.stack([kets.T, bras.T], axis=1)  # (dim, 2, batch)
    x, _, aborted, overflowed = _PairKernel(model, dt, variant).advance(
        x, (dxi.T for dxi in increments), 1e-12, lambda *_: None
    )
    assert not aborted.any() and not overflowed.any()
    want_kets, want_bras = kets, bras
    for dxi in increments:
        want_kets, want_bras = reference_pair_step(want_kets, want_bras, model, dt, variant, dxi)
    assert_rows_close(x[:, 0].T, want_kets)
    assert_rows_close(x[:, 1].T, want_bras)


@pytest.mark.parametrize("dim,channels", pair_cases())
def test_coupled_step_functions_match_reference(dim, channels):
    rng = np.random.default_rng(3000 + 7 * dim + channels)
    model = random_model(rng, dim, channels)
    kets, bras = random_pair_rows(rng, dim)
    pair = CoupledPair(bra_side=Ket(bras[0]), ket_side=Ket(kets[0]))
    dxi = substream(5, 1).wiener(channels, 1e-3)
    for step, variant in ((step_coupled, "unity"), (step_coupled_quasilinear, "quasi_linear")):
        out = step(pair, model, 1e-3, dxi)
        want_kets, want_bras = reference_pair_step(
            kets[:1], bras[:1], model, 1e-3, variant, dxi[None]
        )
        assert_rows_close(out.ket_side.amplitudes.reshape(1, -1), want_kets)
        assert_rows_close(out.bra_side.amplitudes.reshape(1, -1), want_bras)
        assert out.scalar_products[:1] == pair.scalar_products
        assert out.scalar_product() == pytest.approx(
            np.vdot(want_bras[0], want_kets[0]), rel=TOL
        )
