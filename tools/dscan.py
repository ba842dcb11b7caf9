"""d-scan: the cost of a QSD step against the dimension, on each path.

For the damped, driven cavity (``hilbert.driven_cavity_model``) truncated to
d = 2, 4, 8, 16 and 32 Fock states, times ``QsdEngine.run`` on a batch of
doubled rows (the rows of a matrix element, recorded every 50 steps) along
the three paths a run can take:

* in process: this process steps the batch and draws its noise;
* producer: a forked producer process draws the noise
  (``noise.wiener_steps``) while this process steps;
* column worker: a forked worker steps half of the rows, each side drawing
  its own noise (``QsdEngine._split``).

It prints ns per trajectory-step (best of ``--repeats``) and, for each row,
the stacked product's multiply-adds per step, which is what the column
worker's gate (``diffusion._SPLIT_GATE``) is compared with.  BLAS runs on one
thread, as in the benchmark.  A host with one CPU takes no fork, so there all
three paths step in process.

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
    basis_ket,
    diffusion,
    driven_cavity_model,
    make_doubled_state,
    noise,
)

DIMS = (2, 4, 8, 16, 32)
DT = 1e-3
RECORD_EVERY = 50

# (producer gate, split gate) of each path
PATHS = {
    "in process": (math.inf, math.inf),
    "producer": (0, math.inf),
    "column worker": (math.inf, 0),
}


def ns_per_traj_step(dim: int, batch: int, n_steps: int, repeats: int) -> dict:
    """Best ns per trajectory-step of each path, and the multiply-adds of
    one step's stacked product."""
    model = driven_cavity_model(dim)
    engine = QsdEngine(model, DT)
    ket = np.zeros(dim)
    ket[:2] = 1.0
    row = make_doubled_state(basis_ket(dim, 0), Ket(ket).normalized())
    states = np.tile(row, (batch, 1))
    record_steps = range(0, n_steps + 1, RECORD_EVERY)
    best = {}
    for path, (producer_gate, split_gate) in PATHS.items():
        noise._PRODUCER_GATE, diffusion._SPLIT_GATE = producer_gate, split_gate
        times = []
        for _ in range(repeats):
            streams = noise.spawn(0, 0, batch)
            start = time.perf_counter()
            engine.run(states, streams, n_steps, record_steps, lambda *record: None)
            times.append(time.perf_counter() - start)
        best[path] = min(times) / (batch * n_steps) * 1e9
    work = engine._stack.shape[0] * dim * 2 * batch
    return best, work


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, nargs="+", default=[512, 2048])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    gates = (noise._PRODUCER_GATE, diffusion._SPLIT_GATE)
    print(f"# {noise._cpu_count()} CPUs, split gate 2^{math.log2(gates[1]):g} "
          f"multiply-adds per step, {args.steps} steps, best of {args.repeats}")
    print(f"| batch | d | multiply-adds per step | "
          f"{' | '.join(PATHS)} | worker / in process |")
    print("|" + " --- |" * (len(PATHS) + 4))
    try:
        for batch in args.batch:
            for dim in DIMS:
                best, work = ns_per_traj_step(dim, batch, args.steps, args.repeats)
                cells = " | ".join(f"{best[path]:,.0f}" for path in PATHS)
                ratio = best["column worker"] / best["in process"]
                print(f"| {batch} | {dim} | 2^{math.log2(work):.1f} | {cells} | {ratio:.2f} |",
                      flush=True)
    finally:
        noise._PRODUCER_GATE, diffusion._SPLIT_GATE = gates
    return 0


if __name__ == "__main__":
    sys.exit(main())
