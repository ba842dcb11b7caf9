"""Statistical and reproducibility contracts of the noise streams."""

import numpy as np
import pytest
from scipy import stats

from qsdsim import NoiseStream, substream, wiener_increments


def test_same_seed_and_index_reproduce_exactly():
    a = substream(42, 7)
    b = substream(42, 7)
    xa = np.array([a.wiener(1, 1e-3)[0] for _ in range(100)])
    xb = np.array([b.wiener(1, 1e-3)[0] for _ in range(100)])
    assert np.array_equal(xa, xb)


def test_different_indices_give_different_noise():
    a = substream(42, 0).wiener_block(64, 1, 1e-3)
    b = substream(42, 1).wiener_block(64, 1, 1e-3)
    assert not np.array_equal(a, b)


def test_block_matches_stepwise_generation():
    blocked = substream(5, 3).wiener_block(50, 2, 0.01)
    stream = substream(5, 3)
    stepwise = np.array([stream.wiener(2, 0.01) for _ in range(50)])
    assert np.array_equal(blocked, stepwise)


def test_draw_counter_accounting():
    stream = substream(0, 0)
    stream.wiener(3, 0.1)
    assert stream.draws == 6
    stream.wiener_block(10, 2, 0.1)
    assert stream.draws == 6 + 40
    stream.uniform()
    assert stream.draws == 47
    stream.complex_normals(5)
    assert stream.draws == 57


def test_increment_moments():
    dt = 1e-3
    n = 1_000_000
    dxi = substream(11, 0).wiener_block(n, 1, dt)[:, 0]
    # E[dxi] = 0 and E[dxi^2] = 0; E[|dxi|^2] = dt
    assert abs(dxi.mean()) < 4.0 * np.sqrt(dt / n)
    assert abs((dxi**2).mean()) < 4.0 * dt / np.sqrt(n)
    assert np.mean(np.abs(dxi) ** 2) == pytest.approx(dt, rel=5e-3)
    # components are independent with variance dt/2 each
    corr = np.corrcoef(dxi.real, dxi.imag)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_variance_scales_with_dt():
    n = 1_000_000
    small = substream(3, 0).wiener_block(n, 1, 0.001)[:, 0]
    large = substream(4, 0).wiener_block(n, 1, 0.004)[:, 0]
    ratio = large.real.std() / small.real.std()
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_marginals_are_gaussian():
    dt = 0.02
    dxi = substream(9, 0).wiener_block(100_000, 1, dt)[:, 0]
    scale = np.sqrt(0.5 * dt)
    for part in (dxi.real, dxi.imag):
        _, p_value = stats.kstest(part / scale, "norm")
        assert p_value > 1e-3


def test_channels_are_independent():
    dt = 0.01
    block = substream(21, 0).wiener_block(1_000_000, 2, dt)
    prod = block[:, 0] * block[:, 1].conj()
    se = np.sqrt((np.var(prod.real, ddof=1) + np.var(prod.imag, ddof=1)) / prod.size)
    assert abs(prod.mean()) < 4.0 * se


def test_streams_are_uncorrelated():
    n = 100_000
    a = substream(10, 0).wiener_block(n, 1, 1.0)[:, 0].real
    b = substream(10, 1).wiener_block(n, 1, 1.0)[:, 0].real
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.02


def test_wiener_increments_validation():
    stream = NoiseStream(0)
    with pytest.raises(ValueError):
        wiener_increments(stream, 0, 0.1)
    for dt in (0.0, -0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            wiener_increments(stream, 1, dt)
    out = wiener_increments(stream, 2, 0.5)
    assert out.shape == (2,)


def test_negative_trajectory_index_rejected():
    with pytest.raises(ValueError):
        NoiseStream(0, -1)
