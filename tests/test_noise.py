"""Statistical and reproducibility contracts of the noise streams."""

import os
import signal
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import deadline, no_child_left
from qsdsim import EnsembleError, NoiseStream, run_ensemble
from qsdsim import noise
from qsdsim.noise import NOISE_BLOCK, _forked, spawn, wiener_steps

# seeds of one to nine 32-bit words; the last is a fixed draw above 2^200
SPAWN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 5,
               0x1F3A5C7E9B2D4F6081A3C5E7092B4D6F8A1C3E5F7092B4D6F8A1C3E5F70]


def test_same_seed_and_index_reproduce_exactly():
    a = NoiseStream(42, 7)
    b = NoiseStream(42, 7)
    xa = np.array([a.wiener(1, 1e-3)[0] for _ in range(100)])
    xb = np.array([b.wiener(1, 1e-3)[0] for _ in range(100)])
    assert np.array_equal(xa, xb)


def test_different_indices_give_different_noise():
    a = NoiseStream(42, 0).wiener_block(64, 1, 1e-3)
    b = NoiseStream(42, 1).wiener_block(64, 1, 1e-3)
    assert not np.array_equal(a, b)


def test_block_matches_stepwise_generation():
    blocked = NoiseStream(5, 3).wiener_block(50, 2, 0.01)
    stream = NoiseStream(5, 3)
    stepwise = np.array([stream.wiener(2, 0.01) for _ in range(50)])
    assert np.array_equal(blocked, stepwise)


@pytest.mark.parametrize("n_channels", [1, 3])
def test_blocks_written_into_a_reused_buffer_match_stepwise_draws(n_channels):
    # 2.5 blocks of NOISE_BLOCK steps: the last block is partial, and all of
    # them go through one buffer the way wiener_steps fills it
    dt, batch = 0.01, 3
    n_steps = 2 * NOISE_BLOCK + NOISE_BLOCK // 2
    streams = [NoiseStream(6, i) for i in range(batch)]
    buffer = np.empty((batch, NOISE_BLOCK, n_channels), dtype=complex)
    blocked = []
    for done in range(0, n_steps, NOISE_BLOCK):
        span = min(NOISE_BLOCK, n_steps - done)
        block = buffer[:, :span]
        for i, stream in enumerate(streams):
            row = block[i]
            assert stream.wiener_block(span, n_channels, dt, out=row) is row
        blocked.append(block.copy())
    blocked = np.concatenate(blocked, axis=1)
    stepwise = []
    for i, stream in enumerate(streams):
        assert stream.draws == 2 * n_channels * n_steps
        ref = NoiseStream(6, i)
        stepwise.append(np.array([ref.wiener(n_channels, dt) for _ in range(n_steps)]))
        assert ref.draws == stream.draws
        assert blocked[i].tobytes() == stepwise[i].tobytes()

    # each step a (n_channels, batch) view whose column i is stream i's draw
    lazy = [NoiseStream(6, i) for i in range(batch)]
    views = []
    for k, dxi in enumerate(wiener_steps(lazy, n_steps, n_channels, dt)):
        assert dxi.shape == (n_channels, batch)
        for i in range(batch):
            assert dxi[:, i].tobytes() == stepwise[i][k].tobytes()
        views.append(dxi)
    assert len(views) == n_steps
    # every block is written into the one buffer
    assert all(np.shares_memory(views[0], v) for v in views[NOISE_BLOCK::NOISE_BLOCK])
    assert [s.draws for s in lazy] == [2 * n_channels * n_steps] * batch


def test_wiener_block_rejects_a_mismatched_buffer():
    stream = NoiseStream(0, 0)
    for out in (np.empty((4, 2), dtype=complex), np.empty((5, 1), dtype=complex),
                np.empty((4, 1))):
        with pytest.raises(ValueError, match="out must be"):
            stream.wiener_block(4, 1, 0.1, out=out)
    assert stream.draws == 0


def test_draw_counter_accounting():
    stream = NoiseStream(0, 0)
    stream.wiener(3, 0.1)
    assert stream.draws == 6
    stream.wiener_block(10, 2, 0.1)
    assert stream.draws == 6 + 40
    stream.uniform()
    assert stream.draws == 47


def test_increment_moments():
    dt = 1e-3
    n = 1_000_000
    dxi = NoiseStream(11, 0).wiener_block(n, 1, dt)[:, 0]
    # E[dxi] = 0 and E[dxi^2] = 0; E[|dxi|^2] = dt
    assert abs(dxi.mean()) < 4.0 * np.sqrt(dt / n)
    assert abs((dxi**2).mean()) < 4.0 * dt / np.sqrt(n)
    assert np.mean(np.abs(dxi) ** 2) == pytest.approx(dt, rel=5e-3)
    # components are independent with variance dt/2 each
    corr = np.corrcoef(dxi.real, dxi.imag)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_variance_scales_with_dt():
    n = 1_000_000
    small = NoiseStream(3, 0).wiener_block(n, 1, 0.001)[:, 0]
    large = NoiseStream(4, 0).wiener_block(n, 1, 0.004)[:, 0]
    ratio = large.real.std() / small.real.std()
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_marginals_are_gaussian():
    dt = 0.02
    dxi = NoiseStream(9, 0).wiener_block(100_000, 1, dt)[:, 0]
    scale = np.sqrt(0.5 * dt)
    for part in (dxi.real, dxi.imag):
        _, p_value = stats.kstest(part / scale, "norm")
        assert p_value > 1e-3


def test_channels_are_independent():
    dt = 0.01
    block = NoiseStream(21, 0).wiener_block(1_000_000, 2, dt)
    prod = block[:, 0] * block[:, 1].conj()
    se = np.sqrt((np.var(prod.real, ddof=1) + np.var(prod.imag, ddof=1)) / prod.size)
    assert abs(prod.mean()) < 4.0 * se


def test_streams_are_uncorrelated():
    n = 100_000
    a = NoiseStream(10, 0).wiener_block(n, 1, 1.0)[:, 0].real
    b = NoiseStream(10, 1).wiener_block(n, 1, 1.0)[:, 0].real
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.02


def test_negative_trajectory_index_rejected():
    with pytest.raises(ValueError, match="trajectory_index must be >= 0"):
        NoiseStream(0, -1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        NoiseStream(-1, 0)


def test_uniform_of_a_size_matches_successive_draws():
    fused, single = NoiseStream(13, 4), NoiseStream(13, 4)
    got = fused.uniform(2)
    assert got.shape == (2,)
    assert fused.draws == 2
    assert got.tolist() == [single.uniform(), single.uniform()]
    assert fused.uniform() == single.uniform()
    assert fused.draws == single.draws == 3


def seed_words(seed, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)


def assert_spawned_like_seed_sequence(seed, lo, hi, normals=64):
    streams = spawn(seed, lo, hi)
    assert [s.trajectory_index for s in streams] == list(range(lo, hi))
    for stream in streams:
        i = stream.trajectory_index
        assert (stream.seed, stream.draws) == (seed, 0)
        words = stream._gen.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert words.tolist() == seed_words(seed, i).tolist(), (seed, i)
        ref = NoiseStream(seed, i)
        assert stream.wiener_block(normals // 2, 1, 1.0).tobytes() == \
            ref.wiener_block(normals // 2, 1, 1.0).tobytes()


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_spawned_streams_match_seed_sequence(seed):
    # the window crosses the ensemble's default chunk boundary at 2048
    assert_spawned_like_seed_sequence(seed, 2040, 2056)


@pytest.mark.parametrize("seed", [0, 2**130 + 5])
def test_spawn_crosses_to_two_word_indices(seed):
    # 2^32 - 3 .. 2^32 + 2: computed with one spawn word, then built
    # through SeedSequence with two
    assert_spawned_like_seed_sequence(seed, 2**32 - 3, 2**32 + 3, normals=8)
    assert_spawned_like_seed_sequence(seed, 2**64 - 2, 2**64 + 2, normals=8)


def test_spawn_of_an_empty_window_is_empty():
    assert spawn(5, 7, 7) == []
    assert spawn(5, 7, 3) == []


@pytest.mark.parametrize("seed,lo,needle", [
    (-1, 0, "seed must be >= 0, got -1"),
    (0, -3, "trajectory_index must be >= 0, got -3"),
])
def test_spawn_rejects_negative_seeds_and_indices(seed, lo, needle):
    with pytest.raises(ValueError, match=needle):
        spawn(seed, lo, lo + 4)


def test_negative_seed_fails_the_first_chunk_of_an_ensemble():
    def task(streams):
        return np.zeros((len(streams), 1)), {}

    with pytest.raises(EnsembleError) as excinfo:
        run_ensemble(task, 12, seed=-2, chunk_size=8)
    assert excinfo.value.trajectories == (0, 8)
    assert isinstance(excinfo.value.error, ValueError)
    assert "trajectories [0, 8): ValueError: seed must be >= 0, got -2" in str(excinfo.value)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**256 - 1),
    lo=st.one_of(st.integers(0, 5000), st.integers(0, 2**32 - 1), st.integers(2**32 - 8, 2**40)),
    width=st.integers(0, 6),
)
def test_spawned_seed_words_match_seed_sequence_property(seed, lo, width):
    streams = spawn(seed, lo, lo + width)
    assert len(streams) == width
    for stream in streams:
        words = stream._gen.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert words.tolist() == seed_words(seed, stream.trajectory_index).tolist()


def test_spawned_seed_words_serve_only_the_pcg64_request():
    seq = spawn(3, 0, 1)[0]._gen.bit_generator.seed_seq
    for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="generate_state\\(4, np.uint64\\)"):
            seq.generate_state(n_words, dtype)


def drawn(streams, n_steps, n_channels, dt=0.01):
    """Every step's increments, each stream's draws, and each stream's next
    wiener and uniform draws after the run, as bytes."""
    steps = [dxi.tobytes() for dxi in wiener_steps(streams, n_steps, n_channels, dt)]
    return steps, *continued(streams, n_channels)


def continued(streams, n_channels):
    """Each stream's draws, and its next wiener and uniform draws as bytes."""
    draws = [s.draws for s in streams]
    after = [s.wiener(n_channels, 0.5).tobytes() + np.float64(s.uniform()).tobytes()
             for s in streams]
    return draws, after


def test_a_fork_needs_two_cpus_and_no_other_thread(monkeypatch):
    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)
    assert noise._can_fork()
    monkeypatch.setattr(noise, "_cpu_count", lambda: 1)
    assert not noise._can_fork()
    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not noise._can_fork()
    finally:
        stop.set()
        thread.join()
    assert noise._can_fork()


def test_a_failed_fork_yields_none_and_closes_its_pipe(monkeypatch):
    pipes, real_pipe = [], os.pipe

    def pipe():
        ends = real_pipe()
        pipes.extend(ends)
        return ends

    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with _forked("test child", lambda: None) as child:
        assert child is None
    assert len(pipes) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_child_sends_what_its_body_returns(splits):
    # more than a pipe holds, so the child waits for the parent to read
    sent = (np.arange(100_000) * (1 + 2j), {"rows": 7}, [3, 5])
    with deadline(30):
        with _forked("test child", lambda: sent) as child:
            got = child.result()
            assert child.pid == 0
    assert len(splits) == 1
    assert np.array_equal(got[0], sent[0]) and got[1:] == sent[1:]
    no_child_left()


@pytest.mark.parametrize("exit_code", [1, -9])
def test_a_child_that_sends_nothing_is_named_and_reaped(splits, exit_code):
    def body():
        if exit_code == 1:
            raise MemoryError("no room for the result")
        os.kill(os.getpid(), signal.SIGKILL)

    with deadline(30):
        with _forked("test child", body) as child:
            with pytest.raises(
                RuntimeError,
                match=rf"^test child exited \(exit code {exit_code}\) without its result$",
            ):
                child.result()
            assert child.pid == 0
    assert len(splits) == 1
    no_child_left()


@pytest.mark.parametrize("failing", [False, True])
def test_a_caller_that_leaves_early_kills_and_reaps_the_child(splits, failing):
    def body():
        time.sleep(60)  # until it is killed

    with deadline(30):
        with pytest.raises(ValueError) if failing else nullcontext():
            with _forked("test child", body) as child:
                assert child.pid == splits[0]
                if failing:
                    raise ValueError("the caller failed")
    no_child_left()
