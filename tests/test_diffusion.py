"""Diffusive unraveling: the QsdEngine step, its checks and its statistics."""

import numpy as np
import pytest

from qsdsim import (
    DensityMatrix,
    InstabilityError,
    JumpEngine,
    Ket,
    NoiseStream,
    Operator,
    QsdEngine,
    SdeConfig,
    basis_ket,
    complex_standard_error,
    decay_model,
    evolve,
)
from qsdsim.diffusion import _columns

from conftest import decay_element_setup, qsd_step, random_ket, random_model


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
    psi = basis_ket(2, 1).amplitudes.reshape(1, -1)
    out = qsd_step(decay_model(), 1e-3, "normalized", psi, np.zeros((1, 1)))
    assert np.max(np.abs(out - psi)) < 1e-12


def test_ground_state_is_dark_for_quasilinear():
    psi = basis_ket(2, 0).amplitudes.reshape(1, -1)
    out = qsd_step(decay_model(), 1e-3, "quasi_linear", psi, np.array([[0.3 + 0.4j]]))
    assert np.array_equal(out, psi)


@pytest.mark.parametrize("scheme", ["normalized", "quasi_linear"])
def test_doubled_rows_stay_doubled(scheme):
    # a row of width 2d is a doubled state: a zero lower block stays zero,
    # and the upper block then follows the ket run under the same noise
    _, _, ket, model = decay_element_setup()
    engine = QsdEngine(model, 1e-3, scheme)
    doubled = np.concatenate([ket.amplitudes, np.zeros(2)]).reshape(1, -1)
    out = engine.run(doubled, [NoiseStream(0, 0)], 30)
    alone = engine.run(ket.amplitudes.reshape(1, -1), [NoiseStream(0, 0)], 30)
    assert out.shape == (1, 4) and alone.shape == (1, 2)
    assert not out[0, 2:].any()
    np.testing.assert_allclose(out[:, :2], alone, rtol=0, atol=1e-14)


def test_normalized_run_keeps_unit_norm():
    norms = []

    def on_record(slot, states, pre_norms):
        norms.append(np.linalg.norm(states[0]))

    engine = QsdEngine(decay_model(), 1e-2)
    psi = np.array([[0.6, 0.8]], dtype=complex)
    engine.run(psi, [NoiseStream(7, 0)], 50, range(1, 51), on_record)
    assert len(norms) == 50
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_repeated_huge_kicks_raise_instability():
    psi = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    engine = QsdEngine(decay_model(), 1e-3, "quasi_linear")
    kicks = [np.array([[1e200 + 0j]])] * 5
    with pytest.raises(InstabilityError, match="non-finite state norm after step 1"):
        engine._advance(_columns(psi, 2), kicks, 5, {})


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
    out = engine_cls(model, dt).run(states, [NoiseStream(9, i) for i in range(rows)], n_steps)
    for i in range(rows):
        alone = engine_cls(model, dt).run(states[i : i + 1], [NoiseStream(9, i)], n_steps)
        if dim is None:
            assert np.array_equal(out[i], alone[0])
        else:
            np.testing.assert_allclose(out[i], alone[0], rtol=0, atol=1e-12)


def test_run_validates_shapes_and_records():
    engine = QsdEngine(decay_model(), 1e-2)
    states = np.tile(basis_ket(2, 1).amplitudes, (2, 1))
    streams = [NoiseStream(0, i) for i in range(2)]
    with pytest.raises(ValueError):
        engine.run(states, streams[:1], 5)
    with pytest.raises(ValueError):
        engine.run(states, streams, 5, record_steps=[7])
    with pytest.raises(ValueError):
        engine.run(np.zeros((2, 3), dtype=complex), streams, 5)
    with pytest.raises(ValueError):  # one trajectory is a batch of one row
        engine.run(basis_ket(2, 1).amplitudes, streams[:1], 5)


@pytest.mark.parametrize(
    "bad,what",
    [(0.0, "underflowed to zero"), (np.nan, "became non-finite"), (np.inf, "became non-finite")],
)
def test_degenerate_initial_row_is_named(bad, what):
    states = np.tile(basis_ket(2, 1).amplitudes, (3, 1))
    states[1] = bad
    streams = [NoiseStream(0, 10 + i) for i in range(3)]
    with pytest.raises(InstabilityError, match=f"{what} .*first at trajectory 11"):
        QsdEngine(decay_model(), 1e-2).run(states, streams, 5)
    assert all(s.draws == 0 for s in streams)


def pre_renorm_norm_drift(dt, n_steps, batch=64):
    model = decay_model()
    engine = QsdEngine(model, dt)
    base = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    states = np.tile(base, (batch, 1))
    streams = [NoiseStream(77, i) for i in range(batch)]
    drifts = []

    def on_record(slot, recorded, norms):
        drifts.append(np.abs(norms**2 - 1.0).mean())

    engine.run(states, streams, n_steps, record_steps=range(1, n_steps + 1), on_record=on_record)
    return float(np.mean(drifts))


def test_norm_drift_scales_linearly_in_dt():
    coarse = pre_renorm_norm_drift(1e-2, 100)
    fine = pre_renorm_norm_drift(1e-3, 1000)
    assert 5.0 <= coarse / fine <= 20.0


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
        streams = [NoiseStream(15, i) for i in range(n)]
        out = engine.run(states, streams, int(round(t / dt)))
        norm2 = np.einsum("bi,bi->b", out.conj(), out).real
        vals = np.einsum("bi,ij,bj->b", out.conj(), number.matrix, out).real / norm2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) < 4.0 * se


def test_complex_standard_error_conventions():
    assert complex_standard_error(np.array([1.0 + 0j])) == 0.0
    assert complex_standard_error(np.array([0.0, 2.0])) == pytest.approx(1.0)
    assert complex_standard_error(np.array([1 + 1j, 1 - 1j])) == pytest.approx(1.0)
