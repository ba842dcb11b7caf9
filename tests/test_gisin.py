"""Coupled-pair scheme: mean correctness, conservation, and instability."""

import numpy as np
import pytest

from qsdsim import (
    CoupledPair,
    InstabilityError,
    Ket,
    LindbladModel,
    Operator,
    SdeConfig,
    basis_ket,
    heisenberg_element,
    instability_report,
    regression_matrix_element,
    run_coupled_ensemble,
    step_coupled,
    step_coupled_quasilinear,
    substream,
)

from conftest import decay_element_setup


def test_pair_records_initial_scalar_product():
    observable, bra, ket, model = decay_element_setup()
    pair = CoupledPair(bra_side=bra, ket_side=ket)
    assert pair.scalar_product() == pytest.approx(1.0 / np.sqrt(2.0))
    assert len(pair.scalar_products) == 1
    with pytest.raises(ValueError):
        CoupledPair(bra_side=bra, ket_side=basis_ket(3, 0))


def test_trivial_model_leaves_pair_unchanged():
    model = LindbladModel(hamiltonian=Operator(np.zeros((2, 2))), lindblads=())
    observable, bra, ket, _ = decay_element_setup()
    pair = CoupledPair(bra_side=bra, ket_side=ket)
    increments = np.zeros(0, dtype=complex)
    for stepper in (step_coupled, step_coupled_quasilinear):
        out = stepper(pair, model, 1e-2, increments)
        assert np.array_equal(out.ket_side.amplitudes, ket.amplitudes)
        assert np.array_equal(out.bra_side.amplitudes, bra.amplitudes)
        assert out.scalar_product() == pair.scalar_product()
        assert len(out.scalar_products) == 2


def test_step_validation():
    observable, bra, ket, model = decay_element_setup()
    pair = CoupledPair(bra_side=bra, ket_side=ket)
    with pytest.raises(ValueError):
        step_coupled(pair, model, 1e-2, np.zeros(3, dtype=complex))
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            step_coupled(pair, model, dt, np.zeros(1, dtype=complex))
        with pytest.raises(ValueError, match="finite and positive"):
            run_coupled_ensemble(observable, bra, ket, model, [0.1], dt, 10, seed=0)
    orthogonal = CoupledPair(bra_side=basis_ket(2, 0), ket_side=basis_ket(2, 1))
    with pytest.raises(InstabilityError):
        step_coupled(orthogonal, model, 1e-2, np.zeros(1, dtype=complex))


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
    step = step_coupled if variant == "unity" else step_coupled_quasilinear
    pair, stream = CoupledPair(bra_side=bra, ket_side=ket), substream(0, 0)
    with pytest.raises(InstabilityError, match="non-finite"):
        for _ in range(100):
            pair = step(pair, model, 0.01, stream.wiener(1, 0.01))


def accumulated_drift(model, bra, ket, dt, horizon=0.2, n=60, seed=17):
    drifts = []
    for i in range(n):
        stream = substream(seed, i)
        pair = CoupledPair(bra_side=bra, ket_side=ket)
        for _ in range(int(round(horizon / dt))):
            pair = step_coupled(pair, model, dt, stream.wiener(1, dt))
        drifts.append(abs(pair.scalar_product() - pair.scalar_products[0]))
    return float(np.mean(drifts))


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
