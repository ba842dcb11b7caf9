"""Coupled-pair scheme: mean correctness, conservation, and instability."""

import math
import os
import signal
import tracemalloc
from functools import partial

import numpy as np
import pytest

from qsdsim import (
    LindbladModel,
    NoiseStream,
    Operator,
    SdeConfig,
    basis_ket,
    heisenberg_element,
    instability_report,
    regression_matrix_element,
    run_coupled_ensemble,
)
from qsdsim import gisin, noise
from qsdsim.gisin import DEFAULT_FLOOR, VARIANTS, _PairKernel
from qsdsim.noise import _CHUNK, spawn, wiener_steps

from conftest import (
    deadline,
    decay_element_setup,
    in_chunk_worker,
    no_child_left,
    random_ket,
    random_model,
)


def pair_rows(bras, kets):
    """Column-major (dim, 2, batch) pairs: kets in block 0, bras in block 1."""
    return np.stack([np.asarray(kets).T, np.asarray(bras).T], axis=1).astype(complex)


def stepwise_increments(streams, n_steps, dt):
    """(1, batch) increments of one channel, drawn step by step."""
    for _ in range(n_steps):
        yield np.array([s.wiener(1, dt) for s in streams]).T


def skip(*_):
    pass


def test_dimension_mismatch_is_named():
    observable, bra, ket, model = decay_element_setup()
    with pytest.raises(ValueError, match="dimension mismatch: bra 3, model 2"):
        run_coupled_ensemble(observable, basis_ket(3, 0), ket, model, [0.1], 1e-2, 10, seed=0)
    with pytest.raises(ValueError, match="dimension mismatch: observable 3, model 2"):
        run_coupled_ensemble(Operator(np.eye(3)), bra, ket, model, [0.1], 1e-2, 10, seed=0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_trivial_model_leaves_pair_unchanged(variant):
    model = LindbladModel(hamiltonian=Operator(np.zeros((2, 2))), lindblads=())
    observable, bra, ket, _ = decay_element_setup()
    start = pair_rows([bra.amplitudes], [ket.amplitudes])
    x, sp, aborted, overflowed = _PairKernel(model, 1e-2, variant).advance(
        start.copy(), [np.zeros((0, 1), dtype=complex)], 1e-12, skip
    )
    assert np.array_equal(x, start)
    assert sp[0] == np.vdot(bra.amplitudes, ket.amplitudes)
    assert not aborted.any() and not overflowed.any()


def test_kernel_validation():
    observable, bra, ket, model = decay_element_setup()
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            _PairKernel(model, dt, "unity")
        with pytest.raises(ValueError, match="finite and positive"):
            run_coupled_ensemble(observable, bra, ket, model, [0.1], dt, 10, seed=0)
    with pytest.raises(ValueError, match="unknown variant"):
        _PairKernel(model, 1e-2, "linear")
    # an orthogonal pair is aborted before its first step and stays frozen
    start = pair_rows([basis_ket(2, 0).amplitudes], [basis_ket(2, 1).amplitudes])
    x, sp, aborted, overflowed = _PairKernel(model, 1e-2, "unity").advance(
        start.copy(), [np.zeros((1, 1), dtype=complex)], 1e-12, skip
    )
    assert aborted[0] and not overflowed[0]
    assert np.array_equal(x, start) and sp[0] == 0.0


def test_orthogonal_initial_pair_rejected_by_ensemble():
    observable, bra, ket, model = decay_element_setup()
    with pytest.raises(ValueError):
        run_coupled_ensemble(
            observable, basis_ket(2, 0), basis_ket(2, 1), model,
            [0.1], 1e-2, 10, seed=0,
        )


def test_floor_above_initial_scalar_product_is_named():
    observable, bra, ket, model = decay_element_setup()
    with pytest.raises(ValueError, match=r"initial scalar product magnitude 7\.071e-01 .* floor 0\.9"):
        run_coupled_ensemble(observable, bra, ket, model, [0.1], 1e-2, 10, seed=0, floor=0.9)


def assert_frozen_rows_tallied(res, n, steps):
    assert np.all(np.diff(res.n_alive) <= 0)
    assert res.n_alive[-1] == n - res.aborted - res.overflowed
    # every row draws one complex increment (two floats) per step, dead or not
    assert res.draws_total == n * 2 * steps


@pytest.mark.parametrize("variant", ["unity", "quasi_linear"])
@pytest.mark.parametrize("floor", [0.3, 0.5])
def test_rows_below_the_floor_are_aborted_and_frozen(floor, variant):
    observable, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.1, 1.0, 10)
    res = run_coupled_ensemble(
        observable, bra, ket, model, grid, 0.01, 200, seed=3, variant=variant, floor=floor
    )
    assert res.aborted > 0
    assert_frozen_rows_tallied(res, 200, 100)
    assert np.all(np.isfinite(res.mean))


def test_aborted_rows_keep_the_state_they_aborted_in():
    # every row steps without masks until the first abort; from then on an
    # aborted row must keep the state and scalar product it aborted with
    observable, bra, ket, model = decay_element_setup()
    n, floor = 200, 0.5
    frozen = {}

    def on_step(done, x, sp, alive):
        for row in np.flatnonzero(~alive):
            frozen.setdefault(row, (x[:, :, row].copy(), sp[row]))

    x, sp, aborted, overflowed = _PairKernel(model, 0.01, "quasi_linear").advance(
        pair_rows([bra.amplitudes] * n, [ket.amplitudes] * n),
        wiener_steps(spawn(3, 0, n), 100, 1, 0.01), floor, on_step,
    )
    assert 0 < aborted.sum() < n and not overflowed.any()
    assert sorted(frozen) == np.flatnonzero(aborted).tolist()
    for row, (state, value) in frozen.items():
        assert np.array_equal(x[:, :, row], state) and sp[row] == value
        assert abs(value) < floor


def test_peak_memory_does_not_grow_with_n():
    # the rows are stepped one chunk at a time, so three chunks peak only
    # by the (nodes, n) values above one: 0.66 MB here, where stepping
    # every row at once added about 12 MB
    observable, bra, ket, model = decay_element_setup()
    run = partial(run_coupled_ensemble, observable, bra, ket, model,
                  np.linspace(0.1, 1.0, 10), 0.01, seed=0)
    run(n=4)  # loads numpy.random outside the measurement

    def peak(n):
        tracemalloc.start()
        try:
            run(n=n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3 * _CHUNK) - peak(_CHUNK) < 1.5e6


def test_every_chunk_is_tallied(monkeypatch):
    # a few rows past one chunk, and a floor that aborts rows in both chunks
    observable, bra, ket, model = decay_element_setup()
    run = partial(run_coupled_ensemble, observable, bra, ket, model,
                  np.linspace(0.1, 1.0, 10), 0.01, seed=3, floor=0.5)
    n = _CHUNK + 8
    res = run(n=n)
    first = run(n=_CHUNK)  # the same rows as the first chunk
    assert 0 < first.aborted < res.aborted
    assert_frozen_rows_tallied(res, n, 100)
    assert res.max_scalar_drift >= first.max_scalar_drift > 0
    # the decay model's products are exact at any batch width, so the same
    # rows stepped as one chunk give the same bits
    monkeypatch.setattr(gisin, "_CHUNK", n)
    whole = run(n=n)
    for name in ("aborted", "overflowed", "max_scalar_drift", "draws_total"):
        assert getattr(res, name) == getattr(whole, name), name
    for name in ("n_alive", "mean", "std_error"):
        assert np.array_equal(getattr(res, name), getattr(whole, name)), name


@pytest.mark.parametrize("variant", ["unity", "quasi_linear"])
@pytest.mark.parametrize("strength", [1e3, 1e60])
def test_overflowing_rows_are_flagged_without_warnings(strength, variant):
    # the suite turns numpy RuntimeWarnings into errors, so this also checks
    # that the overflow stays silent
    observable, bra, ket, _ = decay_element_setup()
    model = LindbladModel(
        hamiltonian=Operator(np.zeros((2, 2))),
        lindblads=(Operator(np.array([[0, strength], [0, 0]])),),
    )
    grid = np.linspace(0.1, 1.0, 10)
    res = run_coupled_ensemble(observable, bra, ket, model, grid, 0.01, 50, seed=0, variant=variant)
    assert res.overflowed > 0
    assert np.isfinite(res.max_scalar_drift)
    assert_frozen_rows_tallied(res, 50, 100)
    # trajectory 0 alone: flagged as overflowed, not aborted, and frozen finite
    x, sp, aborted, overflowed = _PairKernel(model, 0.01, variant).advance(
        pair_rows([bra.amplitudes], [ket.amplitudes]),
        stepwise_increments([NoiseStream(0, 0)], 100, 0.01), 1e-12, skip,
    )
    assert overflowed[0] and not aborted[0]
    assert np.all(np.isfinite(x)) and np.isfinite(sp[0])


@pytest.mark.parametrize("zero_opposite", [True, False])
def test_a_non_finite_amplitude_is_flagged_as_overflowed(zero_opposite):
    # H = 0 and L = |0><0| at dt = 1: an increment of 1e10 takes a ket
    # amplitude of 1e300 to inf.  Opposite a zero bra amplitude, which stays
    # zero, only the scalar product's 0 * inf = nan shows it
    model = LindbladModel(Operator(np.zeros((2, 2))), (Operator(np.diag([1.0, 0.0])),))
    bra = [0.0, 1.0] if zero_opposite else [0.6, 0.8]
    start = pair_rows([bra, [0.6, 0.8]], [[1e300, 1.0], [0.6, 0.8]])
    increments = [np.full((1, 2), 1e10 + 0j), np.full((1, 2), 1e-3 + 0j)]
    x, sp, aborted, overflowed = _PairKernel(model, 1.0, "quasi_linear").advance(
        start.copy(), increments, DEFAULT_FLOOR, skip
    )
    assert overflowed.tolist() == [True, False] and not aborted.any()
    # the flagged row keeps its last state; the other one steps on
    assert np.array_equal(x[:, :, 0], start[:, :, 0])
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(sp))


def test_summed_magnitudes_that_overflow_flag_no_row():
    # two rows whose |<bra|ket>| are finite but sum to inf: the step leaves
    # the one-test path, and the per-row test finds no overflow
    model = LindbladModel(Operator(np.zeros((2, 2))), ())
    start = pair_rows([[1e154, 0.0]] * 2, [[1.7e154, 0.0]] * 2)
    x, sp, aborted, overflowed = _PairKernel(model, 1e-2, "quasi_linear").advance(
        start.copy(), [np.zeros((0, 2), dtype=complex)] * 2, DEFAULT_FLOOR, skip
    )
    assert np.all(np.abs(sp) > np.finfo(float).max / 2)
    assert not aborted.any() and not overflowed.any()
    assert np.array_equal(x, start)


def accumulated_drift(model, bra, ket, dt, horizon=0.2, n=60, seed=17):
    streams = [NoiseStream(seed, i) for i in range(n)]
    x = pair_rows([bra.amplitudes] * n, [ket.amplitudes] * n)
    x, sp, aborted, overflowed = _PairKernel(model, dt, "unity").advance(
        x, stepwise_increments(streams, int(round(horizon / dt)), dt), 1e-12, skip
    )
    assert not aborted.any() and not overflowed.any()
    return float(np.mean(np.abs(sp - np.vdot(bra.amplitudes, ket.amplitudes))))


def test_scalar_product_drift_shrinks_under_refinement():
    # the continuum equation conserves <bra|ket> exactly; the discrete drift
    # must shrink as dt is refined (measured, not assumed)
    observable, bra, ket, model = decay_element_setup()
    d1 = accumulated_drift(model, bra, ket, 0.01)
    d2 = accumulated_drift(model, bra, ket, 0.005)
    d3 = accumulated_drift(model, bra, ket, 0.0025)
    assert d1 > d2 > d3
    assert 1.15 <= d1 / d2 <= 4.0
    assert 1.15 <= d2 / d3 <= 4.0
    assert d1 / d3 >= 1.8


def test_short_horizon_mean_is_correct():
    # before the instability develops, both variants agree with the oracle
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.1, 0.2])
    oracle = regression_matrix_element(observable, bra, ket, model, grid)
    for variant in ("unity", "quasi_linear"):
        res = run_coupled_ensemble(
            observable, bra, ket, model, grid, 1e-3, 2000, seed=9, variant=variant
        )
        assert res.aborted == 0 and res.overflowed == 0
        assert np.all(np.abs(res.mean - oracle) < 4.0 * res.std_error)


def test_quasilinear_deviates_systematically_at_later_times():
    observable, bra, ket, model = decay_element_setup()
    grid = np.linspace(0.1, 1.0, 10)
    oracle = regression_matrix_element(observable, bra, ket, model, grid)
    res = run_coupled_ensemble(
        observable, bra, ket, model, grid, 0.01, 2000, seed=2, variant="quasi_linear"
    )
    late = grid >= 0.3
    ratio = np.abs(res.mean - oracle)[late] / res.std_error[late]
    assert np.max(ratio) > 3.0


def test_variance_dwarfs_doubled_space_variance():
    # same problem, same n: the coupled scheme pays for its estimator with a
    # much larger sample variance at t = 1
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([1.0])
    n = 1000
    gisin = run_coupled_ensemble(
        observable, bra, ket, model, grid, 0.01, n, seed=5, variant="quasi_linear"
    )
    doubled = heisenberg_element(
        observable, bra, ket, model, grid, n, SdeConfig(dt=0.01), seed=5
    )
    var_gisin = gisin.std_error[0] ** 2 * gisin.n_alive[0]
    var_doubled = doubled.std_error[0] ** 2 * doubled.n
    ratio = var_gisin / var_doubled
    print(f"variance ratio (coupled / doubled) at t=1: {ratio:.1f}")
    assert ratio > 3.0


def test_unity_variant_fluctuates_even_more():
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([1.0])
    kwargs = dict(t_grid=grid, dt=0.01, n=1000, seed=5)
    unity = run_coupled_ensemble(observable, bra, ket, model, variant="unity", **kwargs)
    quasi = run_coupled_ensemble(
        observable, bra, ket, model, variant="quasi_linear", **kwargs
    )
    assert unity.std_error[0] > 10.0 * quasi.std_error[0]


def test_ensemble_is_reproducible_and_reports():
    observable, bra, ket, model = decay_element_setup()
    grid = np.array([0.2, 0.4])
    a = run_coupled_ensemble(observable, bra, ket, model, grid, 0.01, 50, seed=1)
    b = run_coupled_ensemble(observable, bra, ket, model, grid, 0.01, 50, seed=1)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)
    report = instability_report(a)
    assert report["n_trajectories"] == 50
    assert report["n_alive"] == [50, 50]
    assert len(report["sample_variance"]) == 2
    assert report["variant"] == "quasi_linear"


def test_zero_model_report_is_silent():
    model = LindbladModel(hamiltonian=Operator(np.zeros((2, 2))), lindblads=())
    observable, bra, ket, _ = decay_element_setup()
    res = run_coupled_ensemble(observable, bra, ket, model, [0.1, 0.2], 0.01, 20, seed=0)
    report = instability_report(res)
    assert report["aborted"] == 0 and report["overflowed"] == 0
    assert report["max_scalar_product_drift"] == 0.0
    assert np.allclose(report["sample_variance"], 0.0)
    expected = complex(np.vdot(bra.amplitudes, observable.matrix @ ket.amplitudes))
    assert np.allclose(res.mean, expected)


# Chunk worker: a coupled-pair chunk of at least 128 rows is split above the
# chunk runner's gate, which the ``splits`` fixture sets to 0.

_OVERFLOWING = LindbladModel(
    hamiltonian=Operator(np.zeros((2, 2))),
    lindblads=(Operator(np.array([[0, 1e3], [0, 0]])),),
)


def observed_pairs(monkeypatch, run):
    """Every number of ``run()``'s GisinResult and the draws of each stream
    the run spawned; a chunk's streams are discarded after its task, so
    their later draws are no part of the result."""
    streams = []

    def recorded(seed, lo, hi):
        chunk = spawn(seed, lo, hi)
        streams.extend(chunk)
        return chunk

    with monkeypatch.context() as patch:
        patch.setattr(noise, "spawn", recorded)
        res = run()
    numbers = [getattr(res, name) for name in ("aborted", "overflowed", "max_scalar_drift",
                                                "draws_total")]
    arrays = [getattr(res, name).tobytes() for name in ("mean", "std_error", "n_alive")]
    return numbers, arrays, [s.draws for s in streams]


def first_chunk_rows(model, floor, n, steps=100, seed=3):
    """Each row's aborted and overflowed flags and its largest drift in the
    first chunk of the unsplit run below."""
    observable, bra, ket, _ = decay_element_setup()
    sp0 = complex(np.vdot(bra.amplitudes, ket.amplitudes))
    drift = np.zeros(n)

    def on_step(done, x, sp, alive):
        drift[alive] = np.maximum(drift[alive], np.abs(sp - sp0)[alive])

    _, _, aborted, overflowed = _PairKernel(model, 0.01, "quasi_linear").advance(
        pair_rows([bra.amplitudes] * n, [ket.amplitudes] * n),
        wiener_steps(spawn(seed, 0, n), steps, 1, 0.01), floor, on_step,
    )
    return aborted, overflowed, drift


def pair_problem(case):
    """(observable, bra, ket, model, floor) of a split test case."""
    observable, bra, ket, decay = decay_element_setup()
    if case == "overflowing":
        return observable, bra, ket, _OVERFLOWING, DEFAULT_FLOOR
    if case == "random":
        # products that are not exact, so that BLAS rounding shows
        rng = np.random.default_rng(31)
        model = random_model(rng, 3, 2, scale=0.5)
        return Operator(np.diag([1.0, 2.0, 3.0])), random_ket(rng, 3), random_ket(rng, 3), \
            model, DEFAULT_FLOOR
    return observable, bra, ket, decay, 0.5


@pytest.mark.parametrize(
    "case,n",
    [
        # floor 0.5: rows abort in both halves; the worker's row holds the
        # largest drift
        ("aborting", 300),
        # two split chunks
        ("aborting", _CHUNK + 200),
        # every row overflows, the worker's too
        ("overflowing", 300),
        # d = 3 with two channels
        ("random", 300),
    ],
)
def test_a_split_pair_run_gives_the_bits_of_the_unsplit_one(splits, monkeypatch, case, n):
    observable, bra, ket, model, floor = pair_problem(case)
    run = partial(run_coupled_ensemble, observable, bra, ket, model,
                  np.linspace(0.1, 1.0, 10), 0.01, n, seed=3, floor=floor)
    chunks = -(-n // _CHUNK)
    with deadline(60):
        split = observed_pairs(monkeypatch, run)
    assert len(splits) == chunks
    with monkeypatch.context() as patch:
        patch.setattr(noise, "_SPLIT_GATE", math.inf)
        whole = observed_pairs(monkeypatch, run)
    assert len(splits) == chunks
    assert split == whole
    no_child_left()

    if n == 300 and case != "random":
        h = 128
        aborted, overflowed, drift = first_chunk_rows(model, floor, n)
        if case == "overflowing":
            assert overflowed[h:].any()
        else:
            assert aborted[:h].any() and aborted[h:].any()
        assert drift[h:].max() > drift[:h].max()
        assert split[0][2] == pytest.approx(drift.max(), rel=1e-12)


def test_a_killed_pair_worker_is_a_named_error(splits, monkeypatch):
    in_chunk_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    observable, bra, ket, model = decay_element_setup()
    with deadline(60):
        with pytest.raises(
            RuntimeError, match=r"^chunk worker exited \(exit code -9\) without its result$"
        ):
            run_coupled_ensemble(observable, bra, ket, model, [0.1, 0.2], 0.01, 200, seed=0)
    assert len(splits) == 1
    no_child_left()


def test_a_pair_worker_that_raises_passes_its_error_on(splits, monkeypatch):
    def fail():
        raise MemoryError("no room for a block")

    in_chunk_worker(monkeypatch, fail)
    observable, bra, ket, model = decay_element_setup()
    with deadline(60):
        with pytest.raises(MemoryError, match="^no room for a block"):
            run_coupled_ensemble(observable, bra, ket, model, [0.1, 0.2], 0.01, 200, seed=0)
    assert len(splits) == 1
    no_child_left()


def test_a_failed_fork_steps_the_pairs_in_process(splits, monkeypatch):
    observable, bra, ket, model = decay_element_setup()
    run = partial(run_coupled_ensemble, observable, bra, ket, model,
                  np.linspace(0.1, 1.0, 10), 0.01, 200, seed=3, floor=0.5)

    def fork():
        raise OSError("no more processes")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", fork)
        stepped_here = observed_pairs(monkeypatch, run)
    assert splits == []
    assert stepped_here == observed_pairs(monkeypatch, run)
    assert len(splits) == 1


def test_the_pair_gives_the_runner_a_doubled_rows_cost(splits, monkeypatch):
    # a d = 2 pair with one channel: 4 x 2 x 2 multiply-adds a row, so the
    # gate splits every gisin-compare chunk (2048 and 1952 rows) and each
    # chunk of 512 rows and up
    monkeypatch.setattr(noise, "_SPLIT_GATE", 2**13)
    observable, bra, ket, model = decay_element_setup()
    run_coupled_ensemble(observable, bra, ket, model, [0.01], 0.01, 511, seed=0)
    assert splits == []
    run_coupled_ensemble(observable, bra, ket, model, [0.01], 0.01, 512, seed=0)
    assert len(splits) == 1
    no_child_left()
