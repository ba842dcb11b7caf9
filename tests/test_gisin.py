"""Coupled-pair scheme: mean correctness, conservation, and instability."""

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
from qsdsim import gisin
from qsdsim.gisin import VARIANTS, _PairKernel
from qsdsim.noise import _CHUNK

from conftest import decay_element_setup


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
