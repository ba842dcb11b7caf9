"""Diffusive unraveling: the QsdEngine step, its checks and its statistics."""

import math
import mmap
import os
import signal

import numpy as np
import pytest

from qsdsim import (
    DensityMatrix,
    InstabilityError,
    JumpEngine,
    Ket,
    LindbladModel,
    NoiseStream,
    Operator,
    QsdEngine,
    SdeConfig,
    basis_ket,
    complex_standard_error,
    decay_model,
    driven_cavity_model,
    driven_decay_model,
    evolve,
)
from qsdsim import diffusion, noise
from qsdsim.diffusion import _columns, _heavy, _split_point
from qsdsim.noise import spawn

from conftest import deadline, decay_element_setup, qsd_step, random_ket, random_model


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


# Column worker: QsdEngine.run splits a batch of at least 128 rows above a
# per-step work gate, which the ``splits`` fixture sets to 0.


def observed_run(engine, states, n_steps, record_steps=(), lo=0):
    """Final rows, records, draws and the next draws of one run whose row i
    draws from ``NoiseStream(3, lo + i)``, or the InstabilityError message
    and the records made before it."""
    streams = spawn(3, lo, lo + len(states))
    records = []

    def on_record(slot, rows, norms):
        records.append((slot, rows.tobytes(), norms.tobytes()))

    try:
        out = engine.run(states, streams, n_steps, record_steps, on_record)
    except InstabilityError as err:
        return str(err), records
    after = [s.wiener(engine.n_channels, 0.5).tobytes() + s.uniform(3).tobytes()
             for s in streams]
    return out.tobytes(), records, [s.draws for s in streams], after


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def unsplit(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(diffusion, "_SPLIT_GATE", math.inf)
        return run()


@pytest.mark.parametrize(
    "dim,channels,doubled,scheme,batch,record_steps",
    [
        (2, 1, False, "normalized", 130, (0, 1, 299, 300)),
        (3, 2, True, "quasi_linear", 300, (0, 256, 300)),
        (8, 1, True, "normalized", 200, ()),
        (4, 3, False, "quasi_linear", 129, (300,)),
        # a handover at every step
        (2, 2, True, "normalized", 192, tuple(range(301))),
    ],
)
def test_a_split_run_gives_the_bits_of_the_unsplit_one(
    splits, monkeypatch, dim, channels, doubled, scheme, batch, record_steps
):
    rng = np.random.default_rng(dim * batch)
    model = random_model(rng, dim, channels, scale=0.5)
    width = 2 * dim if doubled else dim
    states = np.array([random_ket(rng, width).amplitudes for _ in range(batch)])
    engine = QsdEngine(model, 1e-3, scheme)

    def run():
        return observed_run(engine, states, 300, record_steps, lo=5)

    with deadline(60):
        split = run()
    assert len(splits) == 1
    whole = unsplit(monkeypatch, run)
    assert len(splits) == 1
    assert split == whole
    assert [slot for slot, *_ in split[1]] == list(range(len(record_steps)))
    no_child_left()


def growing_rows(scales, batch=200):
    """Unit kets in rows, scaled by ``scales`` {row: factor}."""
    states = np.tile(np.array([1.0, 1.0]) / np.sqrt(2.0), (batch, 1))
    for row, scale in scales.items():
        states[row] *= scale
    return states.astype(complex)


# Under the quasi-linear scheme with H = 0 and L = 1000 I, a step multiplies
# the norm by about 5000 at dt = 0.01: a row scaled by 1e150 overflows its
# norm at step 2, one scaled by 1e140 at step 4.  Rows [0, 128) of 200 stay
# in this process and rows [128, 200) go to the worker.
_GROWTH = LindbladModel(Operator(np.zeros((2, 2))), (Operator(1e3 * np.eye(2)),))


@pytest.mark.parametrize(
    "scales,record_steps,expected",
    [
        # the earliest step wins, in either part
        ({10: 1e140, 150: 1e150}, (0, 1), "after step 2 (first at trajectory 150)"),
        ({10: 1e150, 150: 1e140}, (0, 1, 3, 5), "after step 2 (first at trajectory 10)"),
        # at one step, the lowest row
        ({100: 1e150, 130: 1e150}, (), "after step 2 (first at trajectory 100)"),
        # the worker's failure found at a record, and after the last one
        ({199: 1e150}, (0, 1, 3, 5), "after step 2 (first at trajectory 199)"),
        ({199: 1e140}, (0, 1), "after step 4 (first at trajectory 199)"),
        # before stepping, the finiteness check comes first
        ({5: 0.0, 140: np.nan}, (0, 3), "became non-finite during propagation "
                                         "(first at trajectory 140)"),
        ({5: np.inf, 140: 0.0}, (), "became non-finite during propagation "
                                    "(first at trajectory 5)"),
    ],
)
def test_a_split_run_raises_the_instability_of_the_unsplit_one(
    splits, monkeypatch, scales, record_steps, expected
):
    engine = QsdEngine(_GROWTH, 0.01, "quasi_linear")
    states = growing_rows(scales)

    def run():
        return observed_run(engine, states, 6, record_steps)

    with deadline(60):
        split = run()
    assert len(splits) == 1
    whole = unsplit(monkeypatch, run)
    assert whole[0].endswith(expected), whole[0]
    assert split == whole
    no_child_left()


def test_a_killed_column_worker_is_a_named_error(splits):
    engine = QsdEngine(_GROWTH, 0.01, "quasi_linear")

    def on_record(slot, rows, norms):
        if slot == 0:
            os.kill(splits[0], signal.SIGKILL)

    with deadline(60):
        with pytest.raises(
            RuntimeError, match=r"column worker exited \(exit code -9\) before record 2 of 3"
        ):
            engine.run(growing_rows({}), spawn(0, 0, 200), 3, (0, 1, 3), on_record)
    no_child_left()


def test_an_on_record_that_raises_reaps_the_column_worker(splits):
    engine = QsdEngine(_GROWTH, 0.01, "quasi_linear")

    def on_record(slot, rows, norms):
        if slot == 1:
            raise ValueError("no room for this record")

    with deadline(60):
        with pytest.raises(ValueError, match="no room"):
            engine.run(growing_rows({}), spawn(0, 0, 200), 3, (0, 1, 3), on_record)
    assert len(splits) == 1
    no_child_left()


def test_a_failed_fork_steps_in_process(splits, monkeypatch):
    engine = QsdEngine(random_model(np.random.default_rng(8), 3, 2), 1e-3)
    states = np.array([random_ket(np.random.default_rng(i), 6).amplitudes for i in range(150)])

    def run():
        return observed_run(engine, states, 20, (0, 20))

    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork)
    stepped_here = run()
    assert stepped_here == unsplit(monkeypatch, run)


def test_a_column_worker_that_raises_is_a_named_error(splits, monkeypatch):
    parent, fill = os.getpid(), noise._fill

    def failing(streams, block, dt):
        if os.getpid() != parent:
            raise MemoryError("no room for a block")
        fill(streams, block, dt)

    monkeypatch.setattr(noise, "_fill", failing)
    engine = QsdEngine(_GROWTH, 0.01, "quasi_linear")
    with deadline(60):
        with pytest.raises(
            RuntimeError, match=r"column worker exited \(exit code 1\) before the end of its run"
        ):
            engine.run(growing_rows({}), spawn(0, 0, 200), 3)
    assert len(splits) == 1
    no_child_left()


@pytest.mark.parametrize(
    "dim,doubled,batch,n_steps", [(2, False, 128, 1), (2, True, 200, 300), (4, True, 1024, 500)]
)
def test_a_column_workers_mapping_holds_its_rows_and_no_noise(
    splits, monkeypatch, dim, doubled, batch, n_steps
):
    # tracemalloc does not see an mmap, so its size is taken where it is made
    sizes, real_mmap = [], mmap.mmap

    def recorded(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real_mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recorded)
    rng = np.random.default_rng(dim * batch)
    width = 2 * dim if doubled else dim
    states = np.array([random_ket(rng, width).amplitudes for _ in range(batch)])
    engine = QsdEngine(random_model(rng, dim, 1, scale=0.5), 1e-3)
    with deadline(60):
        engine.run(states, spawn(0, 0, batch), n_steps, (0, n_steps), lambda *record: None)
    assert len(splits) == 1
    # per worker row: its PCG64 state, its amplitudes and its norm; then
    # the header and the room for a failure's message
    tail = batch - _split_point(batch)
    assert sizes == [tail * (6 * 8 + width * 16 + 8) + 5 * 8 + 1024]


def test_the_gate_counts_stack_rows_dimension_blocks_and_batch(monkeypatch):
    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)
    monkeypatch.setattr(diffusion, "_SPLIT_GATE", 6 * 3 * 2 * 200)

    def heavy(stack_rows, dim, k, batch):
        return _heavy(np.zeros((stack_rows, dim)), np.zeros((dim, k, batch)))

    # (stack rows, dim, blocks, batch) at the gate, then one factor short
    for shape in ((6, 3, 2, 200), (12, 3, 1, 200), (6, 3, 1, 400), (8, 2, 2, 225)):
        assert heavy(*shape), shape
    for shape in ((6, 3, 2, 199), (6, 3, 1, 200), (3, 3, 2, 200), (6, 2, 2, 200)):
        assert not heavy(*shape), shape


def test_no_batch_under_128_rows_or_without_a_fork_is_split(monkeypatch):
    monkeypatch.setattr(diffusion, "_SPLIT_GATE", 0)
    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)
    x = np.zeros((2, 1, 128))
    assert _heavy(np.zeros((4, 2)), x)
    assert not _heavy(np.zeros((4, 2)), x[:, :, :127])
    monkeypatch.setattr(noise, "_cpu_count", lambda: 1)
    assert not _heavy(np.zeros((4, 2)), x)


def test_small_or_light_batches_are_not_split(monkeypatch, splits):
    engine = QsdEngine(random_model(np.random.default_rng(8), 4, 1), 1e-3)
    rows = np.array([random_ket(np.random.default_rng(i), 8).amplitudes for i in range(128)])
    engine.run(rows[:127], spawn(0, 0, 127), 2)
    engine.run(rows, spawn(0, 0, 128), 0)
    assert splits == []
    # a doubled d = 4 row with one channel: 8 x 4 x 2 multiply-adds a row
    monkeypatch.setattr(diffusion, "_SPLIT_GATE", 8 * 4 * 2 * 128 + 1)
    engine.run(rows, spawn(0, 0, 128), 2)
    assert splits == []
    monkeypatch.setattr(diffusion, "_SPLIT_GATE", 8 * 4 * 2 * 128)
    engine.run(rows, spawn(0, 0, 128), 2)
    assert len(splits) == 1


def test_every_g1_batch_and_the_cavity_run_are_split(monkeypatch):
    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)

    def splits(engine, batch, width):
        return _heavy(engine._stack, _columns(np.zeros((batch, width)), engine.dim))

    # the driven atom of fluorescence-g1, d = 2 with one channel: 4 x 2
    # multiply-adds a ket row, twice that a doubled row
    g1 = QsdEngine(driven_decay_model(10.0), 1e-3)
    for batch in (1024, 2048):
        assert splits(g1, batch, 2) and splits(g1, batch, 4)
    assert not splits(g1, 1023, 2)
    assert splits(g1, 512, 4) and not splits(g1, 511, 4)
    # the benchmark's d = 32 cavity element, one chunk of 512 doubled rows;
    # a 127-row batch never splits, however heavy its steps
    cavity = QsdEngine(driven_cavity_model(32), 1e-3)
    assert splits(cavity, 512, 64)
    assert not splits(cavity, 127, 64)
