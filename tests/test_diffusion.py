"""Diffusive unraveling: stepping, propagation, estimator identities."""

import numpy as np
import pytest

from qsdsim import (
    DensityMatrix,
    DoubledState,
    InstabilityError,
    JumpEngine,
    Ket,
    Operator,
    QsdEngine,
    SdeConfig,
    basis_ket,
    complex_standard_error,
    decay_model,
    estimate_matrix_element,
    evolve,
    make_doubled_state,
    propagate,
    sigma_plus,
    step_normalized,
    step_quasilinear,
    substream,
)

from conftest import decay_element_setup, random_ket, random_model


def test_sde_config_validation():
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SdeConfig(dt=dt)
        with pytest.raises(ValueError, match="finite and positive"):
            QsdEngine(decay_model(), dt)
    with pytest.raises(ValueError):
        SdeConfig(dt=0.1, scheme="euler")
    assert SdeConfig(dt=0.1, scheme="jump").scheme == "jump"


def test_qsd_engine_rejects_the_jump_scheme():
    # SdeConfig accepts "jump", but only JumpEngine runs it
    with pytest.raises(ValueError, match="'jump'"):
        QsdEngine(decay_model(), 1e-2, "jump")


def test_excited_state_is_deterministic_fixed_direction():
    # zero increments: the decay drift only shrinks |e> along itself, so the
    # renormalized step returns exactly the same direction
    psi = basis_ket(2, 1)
    out = step_normalized(psi, decay_model(), 1e-3, np.zeros(1, dtype=complex))
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12


def test_ground_state_is_dark_for_quasilinear():
    psi = basis_ket(2, 0)
    increments = np.array([0.3 + 0.4j])
    out = step_quasilinear(psi, decay_model(), 1e-3, increments)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_step_preserves_state_type():
    observable, bra, ket, model = decay_element_setup()
    theta = make_doubled_state(bra, ket)
    dxi = substream(0, 0).wiener(1, 1e-3)
    assert isinstance(step_normalized(theta, model, 1e-3, dxi), DoubledState)
    assert isinstance(step_normalized(ket, model, 1e-3, dxi), Ket)
    assert isinstance(step_quasilinear(theta, model, 1e-3, dxi), DoubledState)


def test_step_rejects_wrong_increment_count():
    with pytest.raises(ValueError):
        step_normalized(basis_ket(2, 0), decay_model(), 1e-3, np.zeros(2, dtype=complex))
    with pytest.raises(TypeError):
        step_normalized(np.zeros(2), decay_model(), 1e-3, np.zeros(1, dtype=complex))


def test_normalized_step_keeps_unit_norm():
    psi = Ket(np.array([0.6, 0.8]))
    stream = substream(7, 0)
    for _ in range(50):
        psi = step_normalized(psi, decay_model(), 1e-2, stream.wiener(1, 1e-2))
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_repeated_huge_kicks_raise_instability():
    psi = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(InstabilityError):
        for _ in range(5):
            psi = step_quasilinear(
                psi, decay_model(), 1e-3, np.array([1e200 + 0j])
            )


def test_propagate_is_bitwise_reproducible():
    observable, bra, ket, model = decay_element_setup()
    config = SdeConfig(dt=1e-2, scheme="normalized")
    grid = np.linspace(0.0, 1.0, 5)
    a = propagate(make_doubled_state(bra, ket), model, config, substream(3, 5), grid)
    b = propagate(make_doubled_state(bra, ket), model, config, substream(3, 5), grid)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.vector(), sb.vector())
    assert np.array_equal(a.norm_history, b.norm_history)


def test_propagate_records_grid_and_types():
    config = SdeConfig(dt=1e-2)
    grid = np.array([0.0, 0.5, 1.0])
    traj = propagate(basis_ket(2, 1), decay_model(), config, substream(0, 0), grid)
    assert np.array_equal(traj.times, grid)
    assert len(traj.states) == 3
    assert all(isinstance(s, Ket) for s in traj.states)
    assert traj.norm_history[0] == pytest.approx(1.0)
    for s in traj.states:
        assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_propagate_rejects_incommensurate_grid():
    config = SdeConfig(dt=1e-2)
    with pytest.raises(ValueError):
        propagate(basis_ket(2, 0), decay_model(), config, substream(0, 0), [0.0, 0.005])


@pytest.mark.parametrize("engine_cls", [QsdEngine, JumpEngine])
@pytest.mark.parametrize("dim", [None, 2, 3, 8], ids=["decay", "d2", "d3", "d8"])
def test_batched_run_matches_single_runs(engine_cls, dim):
    # dim None is the decay model, whose operators make every product exact,
    # so a row's result is bitwise the same in a batch and alone.  For random
    # models BLAS rounds a (dim, dim) @ (dim, batch) product differently for
    # different batch widths, so rows agree only to the last bits.
    rows, n_steps = 7, 50
    if dim is None:
        _, _, ket, model = decay_element_setup()
        states = np.tile(ket.amplitudes, (rows, 1))
    else:
        rng = np.random.default_rng(40 + dim)
        model = random_model(rng, dim, 2)
        states = np.array([random_ket(rng, dim).amplitudes for _ in range(rows)])
    # keeps each jump probability below 0.05 per substep
    dt = min(1e-2, 0.05 / np.linalg.eigvalsh(model.ldl_sum()).max())
    out = engine_cls(model, dt).run(states, [substream(9, i) for i in range(rows)], n_steps)
    for i in range(rows):
        alone = engine_cls(model, dt).run(states[i : i + 1], [substream(9, i)], n_steps)
        if dim is None:
            assert np.array_equal(out[i], alone[0])
        else:
            np.testing.assert_allclose(out[i], alone[0], rtol=0, atol=1e-12)


def test_run_validates_shapes_and_records():
    engine = QsdEngine(decay_model(), 1e-2)
    states = np.tile(basis_ket(2, 1).amplitudes, (2, 1))
    streams = [substream(0, i) for i in range(2)]
    with pytest.raises(ValueError):
        engine.run(states, streams[:1], 5)
    with pytest.raises(ValueError):
        engine.run(states, streams, 5, record_steps=[7])
    with pytest.raises(ValueError):
        engine.run(np.zeros((2, 3), dtype=complex), streams, 5)


def pre_renorm_norm_drift(dt, n_steps, batch=64):
    model = decay_model()
    engine = QsdEngine(model, dt)
    base = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    states = np.tile(base, (batch, 1))
    streams = [substream(77, i) for i in range(batch)]
    drifts = []

    def on_record(slot, recorded, norms):
        drifts.append(np.abs(norms**2 - 1.0).mean())

    engine.run(states, streams, n_steps, record_steps=range(1, n_steps + 1), on_record=on_record)
    return float(np.mean(drifts))


def test_norm_drift_scales_linearly_in_dt():
    coarse = pre_renorm_norm_drift(1e-2, 100)
    fine = pre_renorm_norm_drift(1e-3, 1000)
    assert 5.0 <= coarse / fine <= 20.0


def test_estimator_identity_at_time_zero():
    observable, bra, ket, model = decay_element_setup()
    theta = make_doubled_state(bra, ket)
    expected = complex(np.vdot(bra.amplitudes, observable.matrix @ ket.amplitudes))
    for scheme in ("normalized", "quasi_linear"):
        mean, se = estimate_matrix_element([theta, theta], observable, scheme)
        assert mean == pytest.approx(expected, abs=1e-14)
        assert se == 0.0


def test_estimator_input_validation():
    observable, bra, ket, model = decay_element_setup()
    theta = make_doubled_state(bra, ket)
    with pytest.raises(ValueError):
        estimate_matrix_element([], observable)
    with pytest.raises(TypeError):
        estimate_matrix_element([ket], observable)
    with pytest.raises(ValueError):
        estimate_matrix_element([theta], observable, "other")


def test_schemes_agree_with_master_equation():
    # both unravelings reproduce Tr{A rho(t)} for a single-space ensemble
    model = decay_model()
    number = Operator(np.diag([0.0, 1.0]))
    base = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    t, dt, n = 1.0, 1e-3, 400
    rho_t = evolve(DensityMatrix.from_ket(Ket(base)), model, [0.0, t])[-1]
    expected = float(np.trace(number.matrix @ rho_t.entries).real)
    for scheme in ("normalized", "quasi_linear"):
        engine = QsdEngine(model, dt, scheme)
        states = np.tile(base, (n, 1))
        streams = [substream(15, i) for i in range(n)]
        out = engine.run(states, streams, int(round(t / dt)))
        norm2 = np.einsum("bi,bi->b", out.conj(), out).real
        vals = np.einsum("bi,ij,bj->b", out.conj(), number.matrix, out).real / norm2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) < 4.0 * se


def test_complex_standard_error_conventions():
    assert complex_standard_error(np.array([1.0 + 0j])) == 0.0
    assert complex_standard_error(np.array([0.0, 2.0])) == pytest.approx(1.0)
    assert complex_standard_error(np.array([1 + 1j, 1 - 1j])) == pytest.approx(1.0)
