"""Ensemble reduction, statistics, and benchmark plumbing."""

import time

import numpy as np
import pytest

from qsdsim import (
    BenchmarkPoint,
    EnsembleError,
    EnsembleResult,
    benchmark_sweep,
    relative_rms_error,
    run_ensemble,
)
from qsdsim.noise import spawn


def noisy_task(streams, nodes=3, draws=10):
    out = np.empty((len(streams), nodes), dtype=complex)
    for i, stream in enumerate(streams):
        z = stream.wiener(draws // 2, 1.0)
        out[i] = 1.0 + z.sum() / np.sqrt(draws // 2)
    return out, {}


def test_constant_task_statistics():
    def task(streams):
        return np.full((len(streams), 2), 3.0 - 1.0j), {}

    res = run_ensemble(task, 2, seed=0)
    assert np.allclose(res.mean, 3.0 - 1.0j)
    assert np.allclose(res.std_error, 0.0)
    assert res.n == 2
    assert np.array_equal(res.samples, np.full((2, 2), 3.0 - 1.0j))
    assert res.extras == {}
    assert res.wall_time_seconds > 0
    # every chunk's rows, in index order
    res = run_ensemble(noisy_task, 10, seed=1, grid=[0.0, 0.5, 1.0], chunk_size=4)
    assert res.samples.shape == (10, 3)
    assert np.array_equal(res.samples, noisy_task(spawn(1, 0, 10))[0])
    assert np.allclose(res.samples.mean(axis=0), res.mean)
    assert np.array_equal(res.grid, [0.0, 0.5, 1.0])


def test_input_validation():
    task = noisy_task
    with pytest.raises(ValueError):
        run_ensemble(task, 1, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(task, 4, seed=0, grid=[0.0, 1.0])  # length 2 vs 3 nodes


def test_task_shape_errors_are_aggregated():
    def bad(streams):
        return np.zeros((len(streams) + 1, 2)), {}

    with pytest.raises(EnsembleError, match="expected \\(4, n_nodes\\)"):
        run_ensemble(bad, 4, seed=0)

    def bare(streams):
        return np.zeros((len(streams), 2))

    with pytest.raises(EnsembleError, match="expected \\(values, counts\\)"):
        run_ensemble(bare, 4, seed=0)


def test_counts_are_summed_over_chunks_in_order():
    def counting(streams):
        lo = streams[0].trajectory_index
        for stream in streams[: lo // 4 + 1]:
            stream.uniform()
        counts = {"rows": len(streams), "chunk": lo // 4}
        if lo == 4:
            counts["second_only"] = 5
        return np.zeros((len(streams), 1)), counts

    res = run_ensemble(counting, 10, seed=0, chunk_size=4)
    assert res.extras == {"rows": 10, "chunk": 3, "second_only": 5}
    assert list(res.extras) == ["rows", "chunk", "second_only"]
    # each chunk counts the draws of its own streams: 1 + 2 + 2
    assert res.draws_total == 5


def test_standard_error_scales_as_inverse_sqrt_n():
    small = run_ensemble(noisy_task, 500, seed=3)
    large = run_ensemble(noisy_task, 2000, seed=4)
    ratio = small.std_error.mean() / large.std_error.mean()
    assert 1.8 <= ratio <= 2.2


def test_failures_carry_index_ranges():
    def fails_in_second_chunk(streams):
        if any(s.trajectory_index == 8 for s in streams):
            raise RuntimeError("boom")
        return np.zeros((len(streams), 1)), {}

    with pytest.raises(EnsembleError) as excinfo:
        run_ensemble(fails_in_second_chunk, 24, seed=0, chunk_size=8)
    assert excinfo.value.trajectories == (8, 16)
    assert isinstance(excinfo.value.error, RuntimeError)
    assert "[8, 16)" in str(excinfo.value)


def test_first_failing_chunk_stops_the_run():
    starts = []

    def fails_in_first_chunk(streams):
        starts.append(streams[0].trajectory_index)
        raise RuntimeError("boom")

    with pytest.raises(EnsembleError) as excinfo:
        run_ensemble(fails_in_first_chunk, 24, seed=0, chunk_size=8)
    # the two later chunks never run
    assert starts == [0]
    assert excinfo.value.trajectories == (0, 8)
    assert str(excinfo.value) == (
        "ensemble execution failed for trajectories [0, 8): RuntimeError: boom"
    )


def test_relative_rms_error_conventions():
    ref = np.array([1.0, 2.0, 2.0])
    assert relative_rms_error(ref, ref) == 0.0
    assert relative_rms_error(ref * 1.01, ref) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        relative_rms_error(ref, np.zeros(3))
    with pytest.raises(ValueError):
        relative_rms_error(ref, np.ones(4))


def test_benchmark_point_validation():
    with pytest.raises(ValueError):
        BenchmarkPoint("qsd", 0, 0.01, 0.01, 1.0, 100)
    with pytest.raises(ValueError):
        BenchmarkPoint("qsd", 10, -0.01, 0.01, 1.0, 100)


def test_benchmark_sweep_seeds_and_columns():
    ref = np.array([1.0, 1.0, 1.0])
    seen = []
    stored = {}

    def runner(method, n, seed):
        seen.append(seed)
        res = run_ensemble(noisy_task, n, seed=seed, method=method)
        stored[(method, n)] = res
        return res

    points = benchmark_sweep(runner, ref, [8, 16], ["a", "b"], seed=100)
    assert len(points) == 4
    assert len(set(seen)) == 4
    for point in points:
        res = stored[(point.method, point.n)]
        expected_rms = relative_rms_error(res.mean, ref)
        expected_std = float(np.sqrt(np.sum(res.std_error**2))) / np.linalg.norm(ref)
        assert point.rms_relative_error == pytest.approx(expected_rms)
        assert point.est_std == pytest.approx(expected_std)
        assert point.draws_total == res.draws_total
        assert point.wall_time_seconds >= 0.0


def busy_task(streams):
    out = np.empty((len(streams), 1), dtype=complex)
    mat = np.arange(1600, dtype=float).reshape(40, 40) / 1600.0
    sym = mat + mat.T
    for i, stream in enumerate(streams):
        acc = 0.0
        for _ in range(4):
            acc += np.linalg.eigvalsh(sym + stream.uniform() * np.eye(40)).sum()
        out[i] = acc
    return out, {}


def _cpu_timed(n, seed):
    """The result of one run and the CPU time this process spent on it."""
    start = time.process_time()
    res = run_ensemble(busy_task, n, seed=seed)
    return res, time.process_time() - start


def test_wall_time_scales_linearly_with_n():
    # doubling n should roughly double the cost of a compute-bound task;
    # CPU time, unlike wall time, does not count time other processes hold
    # the cores
    ratios = []
    for rep in range(5):
        small, small_s = _cpu_timed(400, rep)
        large, large_s = _cpu_timed(800, rep)
        assert small.wall_time_seconds > 0 and large.wall_time_seconds > 0
        ratios.append(large_s / small_s)
    assert 1.6 <= float(np.median(ratios)) <= 2.6
