"""Shared fixtures and model builders for the test suite."""

import math
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from qsdsim import noise
from qsdsim import Ket, LindbladModel, Operator, QsdEngine, basis_ket, decay_model, sigma_plus
from qsdsim.diffusion import _columns, _rows


def analytic_decay_element(t):
    """<e| sigma_plus(t) |(g+e)/sqrt(2)> for the undriven decay model."""
    return np.exp(-0.5 * np.asarray(t, dtype=float)) / np.sqrt(2.0)


def decay_element_setup():
    """Observable, bra, ket, model of the reference decay problem."""
    model = decay_model()
    observable = sigma_plus()
    bra = basis_ket(2, 1)
    ket = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    return observable, bra, ket, model


def random_hermitian(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (mat + mat.conj().T)


def random_model(rng, dim, n_channels, scale=1.0):
    ham = Operator(scale * random_hermitian(rng, dim))
    lindblads = tuple(
        Operator(
            scale
            * 0.5
            * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        )
        for _ in range(n_channels)
    )
    return LindbladModel(hamiltonian=ham, lindblads=lindblads)


def random_ket(rng, dim):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(vec / np.linalg.norm(vec))


def qsd_step(model, dt, scheme, rows, dxi):
    """One QsdEngine step of (batch, width) ``rows`` under the given
    (batch, n_channels) increments instead of drawn ones."""
    engine = QsdEngine(model, dt, scheme)
    dxi = np.asarray(dxi, dtype=complex).T
    return _rows(engine._advance(_columns(rows, model.dim), [dxi], 1, {}))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def recorded_forks(monkeypatch) -> list:
    """Let every fork gate see two CPUs, and collect the pid of each child
    that ``os.fork`` makes."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(noise, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def splits(monkeypatch):
    """Split every ensemble chunk of at least 128 rows whose task gives a
    row cost (a diffusive or coupled-pair task) with a forked chunk worker,
    whatever its width and the host's CPU count; the list collects each
    worker's pid."""
    monkeypatch.setattr(noise, "_SPLIT_GATE", 0)
    return recorded_forks(monkeypatch)


@pytest.fixture
def in_process(monkeypatch):
    """Run every ensemble chunk in this process, whatever its size."""
    monkeypatch.setattr(noise, "_SPLIT_GATE", math.inf)


def in_chunk_worker(monkeypatch, action):
    """Run ``action()`` wherever a forked chunk worker draws its noise."""
    parent, fill = os.getpid(), noise._fill

    def fill_or_act(streams, block, dt):
        if os.getpid() != parent:
            action()
        fill(streams, block, dt)

    monkeypatch.setattr(noise, "_fill", fill_or_act)


def no_child_left():
    """Fail if this process has a child that has not been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if its body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
