"""d-scan: the cost of a diffusive step against the dimension, on each path.

For the damped, driven cavity (``hilbert.driven_cavity_model``) truncated to
d = 2, 4, 8, 16 and 32 Fock states, times ``QsdEngine.run`` on a batch of
doubled rows (the rows of a matrix element, recorded every 50 steps) along
the two paths a run can take:

* in process: this process steps the batch and draws its noise;
* column worker: a forked worker steps half of the rows, each side drawing
  its own noise (``diffusion._column_worker``).

A second table times one chunk of the coupled pair
(``gisin.run_coupled_ensemble`` with n = batch, ten nodes over the run) for
d = 2, 4 and 8 along the same two paths.

Each table gives ns per trajectory-step (best of ``--repeats``) and, for
each row, the stacked product's multiply-adds per step, which is what the
one split gate of both (``diffusion._SPLIT_GATE``) is compared with; the
last column says whether the gate splits that row.  BLAS runs on one
thread, as in the benchmark.  A host with one CPU takes no fork, so there
both paths step in process.

Usage, from the repository root::

    python tools/dscan.py [--batch 512 2048] [--steps 1000] [--repeats 3]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qsdsim import (  # noqa: E402
    Ket,
    QsdEngine,
    annihilation,
    basis_ket,
    diffusion,
    driven_cavity_model,
    make_doubled_state,
    noise,
    run_coupled_ensemble,
)

DIMS = (2, 4, 8, 16, 32)
PAIR_DIMS = (2, 4, 8)
DT = 1e-3
RECORD_EVERY = 50
PAIR_NODES = 10

# the split gate of each path
PATHS = {"in process": math.inf, "column worker": 0}


def _start(dim: int):
    """The vacuum and (|0> + |1>) / sqrt(2): the bra and ket of each row."""
    ket = np.zeros(dim)
    ket[:2] = 1.0
    return basis_ket(dim, 0), Ket(ket).normalized()


def _best(run, repeats: int) -> float:
    """Best wall seconds of ``repeats`` calls of ``run``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def ns_per_traj_step(dim: int, batch: int, n_steps: int, repeats: int) -> dict:
    """Best ns per trajectory-step of each path of ``QsdEngine.run``, and
    the multiply-adds of one step's stacked product."""
    model = driven_cavity_model(dim)
    engine = QsdEngine(model, DT)
    states = np.tile(make_doubled_state(*_start(dim)), (batch, 1))
    record_steps = range(0, n_steps + 1, RECORD_EVERY)
    best = {}
    for path, gate in PATHS.items():
        diffusion._SPLIT_GATE = gate

        def run():
            streams = noise.spawn(0, 0, batch)
            engine.run(states, streams, n_steps, record_steps, lambda *record: None)

        best[path] = _best(run, repeats) / (batch * n_steps) * 1e9
    work = engine._stack.shape[0] * dim * 2 * batch
    return best, work


def pair_ns_per_traj_step(dim: int, batch: int, n_steps: int, repeats: int) -> dict:
    """Best ns per trajectory-step of each path of one coupled-pair chunk,
    and the multiply-adds of one step's stacked product."""
    model = driven_cavity_model(dim)
    bra, ket = _start(dim)
    grid = np.linspace(n_steps * DT / PAIR_NODES, n_steps * DT, PAIR_NODES)
    best = {}
    for path, gate in PATHS.items():
        diffusion._SPLIT_GATE = gate

        def run():
            run_coupled_ensemble(annihilation(dim), bra, ket, model, grid, DT, batch, seed=0)

        best[path] = _best(run, repeats) / (batch * n_steps) * 1e9
    work = (1 + model.n_channels) * dim * dim * 2 * batch
    return best, work


def _table(title: str, scan, dims, batches, n_steps: int, repeats: int, gate: float):
    print(f"\n{title}\n")
    print(f"| batch | d | multiply-adds per step | "
          f"{' | '.join(PATHS)} | worker / in process | split |")
    print("|" + " --- |" * (len(PATHS) + 5))
    for batch in batches:
        for dim in dims:
            best, work = scan(dim, batch, n_steps, repeats)
            cells = " | ".join(f"{best[path]:,.0f}" for path in PATHS)
            ratio = best["column worker"] / best["in process"]
            split = "yes" if work >= gate else "no"
            print(f"| {batch} | {dim} | 2^{math.log2(work):.1f} | {cells} | {ratio:.2f} "
                  f"| {split} |", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, nargs="+", default=[512, 2048])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    gate = diffusion._SPLIT_GATE
    print(f"# {noise._cpu_count()} CPUs, split gate 2^{math.log2(gate):g} multiply-adds "
          f"per step (QsdEngine and coupled pair), {args.steps} steps, "
          f"best of {args.repeats}")
    try:
        _table("QsdEngine.run, ns per trajectory-step", ns_per_traj_step, DIMS,
               args.batch, args.steps, args.repeats, gate)
        _table("coupled pair, ns per trajectory-step", pair_ns_per_traj_step, PAIR_DIMS,
               args.batch, args.steps, args.repeats, gate)
    finally:
        diffusion._SPLIT_GATE = gate
    return 0


if __name__ == "__main__":
    sys.exit(main())
