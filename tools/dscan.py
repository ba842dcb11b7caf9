"""d-scan: the cost of a whole chunk task against the dimension, on each path.

For the damped, driven cavity (``hilbert.driven_cavity_model``) truncated to
d = 2, 4, 8, 16 and 32 Fock states, times one ensemble chunk of three tasks:

* element: ``heisenberg_element`` on doubled rows, recorded every 50 steps;
* correlation: ``correlate`` from Haar-random kets, a preparation over the
  first half of the steps, then a tau segment recorded every 50 steps (the
  pattern of the fluorescence g1);
* pair: ``run_coupled_ensemble``, ten nodes over the run;

each along the two paths a chunk can take:

* in process: this process runs the whole task;
* chunk worker: a forked child runs the task on the upper rows while this
  process runs it on the lower ones (``ensemble.run_chunks``).

Each table gives ns per trajectory-step (best of ``--repeats``) and, for
each row, the chunk's multiply-adds per step (``diffusion._row_cost`` times
the rows), which is what the one split gate (``ensemble._SPLIT_GATE``) is
compared with; the last column says whether the gate splits that chunk.
BLAS runs on one thread, as in the benchmark.  A host with one CPU takes no
fork, so there both paths run in process.

Usage, from the repository root::

    python tools/dscan.py [--batch 512 1000 2048] [--steps 1000] [--repeats 3]
                          [--tasks element correlation pair]
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
    SdeConfig,
    annihilation,
    basis_ket,
    correlate,
    driven_cavity_model,
    ensemble,
    heisenberg_element,
    run_coupled_ensemble,
)
from qsdsim.diffusion import _row_cost  # noqa: E402

DIMS = (2, 4, 8, 16, 32)
DT = 1e-3
RECORD_EVERY = 50
PAIR_NODES = 10

# the split gate of each path
PATHS = {"in process": math.inf, "chunk worker": 0}


def _start(dim: int):
    """The vacuum and (|0> + |1>) / sqrt(2): the bra and ket of each row."""
    ket = np.zeros(dim)
    ket[:2] = 1.0
    return basis_ket(dim, 0), Ket(ket).normalized()


def element(dim: int, batch: int, n_steps: int):
    bra, ket = _start(dim)
    grid = np.arange(0, n_steps + 1, RECORD_EVERY) * DT
    heisenberg_element(annihilation(dim), bra, ket, driven_cavity_model(dim), grid, batch,
                       SdeConfig(DT), seed=0)


def correlation(dim: int, batch: int, n_steps: int):
    half = n_steps // 2
    tau_grid = np.arange(0, n_steps - half + 1, RECORD_EVERY) * DT
    a = annihilation(dim)
    correlate(a.dag(), a, driven_cavity_model(dim), half * DT, tau_grid, batch, SdeConfig(DT),
              seed=0)


def pair(dim: int, batch: int, n_steps: int):
    bra, ket = _start(dim)
    grid = np.linspace(n_steps * DT / PAIR_NODES, n_steps * DT, PAIR_NODES)
    run_coupled_ensemble(annihilation(dim), bra, ket, driven_cavity_model(dim), grid, DT, batch,
                         seed=0)


TASKS = {"element": element, "correlation": correlation, "pair": pair}


def _best(run, repeats: int) -> float:
    """Best wall seconds of ``repeats`` calls of ``run``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def ns_per_traj_step(task, dim: int, batch: int, n_steps: int, repeats: int) -> dict:
    """Best ns per trajectory-step of each path of one chunk of ``task``."""
    best = {}
    for path, gate in PATHS.items():
        ensemble._SPLIT_GATE = gate
        best[path] = _best(lambda: task(dim, batch, n_steps), repeats) / (batch * n_steps) * 1e9
    return best


def _table(name: str, batches, n_steps: int, repeats: int, gate: float):
    print(f"\n{name}, ns per trajectory-step\n")
    print(f"| batch | d | multiply-adds per step | "
          f"{' | '.join(PATHS)} | worker / in process | split |")
    print("|" + " --- |" * (len(PATHS) + 5))
    for batch in batches:
        for dim in DIMS:
            best = ns_per_traj_step(TASKS[name], dim, batch, n_steps, repeats)
            work = _row_cost(driven_cavity_model(dim)) * batch
            cells = " | ".join(f"{best[path]:,.0f}" for path in PATHS)
            ratio = best["chunk worker"] / best["in process"]
            split = "yes" if work >= gate and batch >= ensemble._SPLIT_MIN_BATCH else "no"
            print(f"| {batch} | {dim} | 2^{math.log2(work):.1f} | {cells} | {ratio:.2f} "
                  f"| {split} |", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, nargs="+", default=[512, 1000, 2048])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--tasks", nargs="+", choices=sorted(TASKS), default=list(TASKS))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    gate = ensemble._SPLIT_GATE
    print(f"# {ensemble._cpu_count()} CPUs, split gate 2^{math.log2(gate):g} multiply-adds "
          f"per step (one chunk), {args.steps} steps, best of {args.repeats}")
    try:
        for name in args.tasks:
            _table(name, args.batch, args.steps, args.repeats, gate)
    finally:
        ensemble._SPLIT_GATE = gate
    return 0


if __name__ == "__main__":
    sys.exit(main())
