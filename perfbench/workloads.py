"""The benchmark's workloads: simulate configs built from a seed, their stated
input sizes, and the closed-form random-draw counts every run is checked
against.

All workloads use dt = 1e-3 and the config defaults for ``workers`` and the
ensemble chunk size, so any parallelism shows up through the chunk count.
Sizes are cut down from the criterion-8 setup to fit several repetitions
into one measured run:

* the g1 warmup is 5 (not 10): the transient left from the Haar-uniform
  start is then 5e-4 in absolute terms, about 0.1 standard errors at the
  chosen n, where a warmup of 2 leaves a bias of 2.5 standard errors;
* g1 runs n = 3072, which is two chunks of the default 2048, and a tau grid
  of 16 nodes over [0, 0.75];
* the cavity runs t in [0, 1] and n = 512, still one chunk.
"""

import math
from dataclasses import dataclass

DT = 1e-3

G1_N = 3072
G1_OMEGA = 10.0
G1_WARMUP = 5.0
G1_TAU_STOP = 0.75
G1_TAU_NODES = 16

CAVITY_DIM = 32
CAVITY_N = 512
CAVITY_T_STOP = 1.0
CAVITY_NODES = 21

GISIN_N = 4000
GISIN_H = (0.01, 0.001)
GISIN_T = (0.1, 1.0, 10)


def _steps(span: float, h: float) -> int:
    return int(round(span / h))


def _cavity_model() -> tuple:
    """Truncated driven, damped cavity (L = a, H = a + a^dag) as JSON
    matrices, plus the annihilation operator a itself."""
    d = CAVITY_DIM
    a = [[0.0] * d for _ in range(d)]
    for k in range(1, d):
        a[k - 1][k] = math.sqrt(k)
    h = [[a[i][j] + a[j][i] for j in range(d)] for i in range(d)]
    return {"hamiltonian": h, "lindblads": [a]}, a


@dataclass(frozen=True)
class Workload:
    """One simulate run, with the numbers its outputs are checked against.

    ``draws(meta)`` returns (label, expected, recorded) triples, expected from
    the closed form and recorded from metadata.json.  ``chunks`` is the
    (least, most) number of ensemble chunks the workload must run at the
    default chunk size; None leaves that end open.
    """

    name: str
    why: str
    base: dict
    n: int
    traj_steps: int
    sizes: dict
    draws: object
    chunks: tuple = (None, None)

    def config(self, seed: int, out: str) -> dict:
        return {**self.base, "dt": DT, "seed": seed, "out": out}


def _g1(unraveling: str, why: str, draws) -> Workload:
    steps = _steps(G1_WARMUP, DT) + _steps(G1_TAU_STOP, DT)
    return Workload(
        name=f"g1-{unraveling}",
        why=why,
        base={
            "scenario": "fluorescence-g1",
            "unraveling": unraveling,
            "omega": G1_OMEGA,
            "warmup": G1_WARMUP,
            "tau_start": 0.0,
            "tau_stop": G1_TAU_STOP,
            "tau_nodes": G1_TAU_NODES,
            "n": G1_N,
        },
        n=G1_N,
        traj_steps=G1_N * steps,
        sizes={"n": G1_N, "steps": steps, "d": 2, "channels": 1,
               "nodes": G1_TAU_NODES},
        draws=draws,
        chunks=(2, None),
    )


def _g1_qsd_draws(meta: dict) -> list:
    # Haar start (2 reals per amplitude, d = 2) + one complex increment a step
    steps = _steps(G1_WARMUP, DT) + _steps(G1_TAU_STOP, DT)
    return [("draws_total", G1_N * (2 * 2 + 2 * steps), meta["draws_total"])]


def _g1_jump_draws(meta: dict) -> list:
    # Haar start + one threshold per engine run (warmup and tau segments)
    # + two uniforms per jump (channel pick and the next threshold)
    jumps = meta["extras"]["jumps_total"]
    return [("draws_total", G1_N * (2 * 2 + 2) + 2 * jumps, meta["draws_total"])]


def _cavity_draws(meta: dict) -> list:
    # no random start; one complex increment per step on the single channel
    return [("draws_total", CAVITY_N * 2 * _steps(CAVITY_T_STOP, DT), meta["draws_total"])]


def _gisin_draws(meta: dict) -> list:
    # every row draws one complex increment per step, aborted rows included
    t_stop = GISIN_T[1]
    out = [
        (f"runs[{h:g}].draws_total", GISIN_N * 2 * _steps(t_stop, h),
         meta["runs"][f"{h:g}"]["draws_total"])
        for h in GISIN_H
    ]
    out.append(("doubled_draws_total", GISIN_N * 2 * _steps(t_stop, DT),
                meta["doubled_draws_total"]))
    return out


def _cavity() -> Workload:
    model, a = _cavity_model()
    bra = [1.0] + [0.0] * (CAVITY_DIM - 1)
    ket = [1.0, 1.0] + [0.0] * (CAVITY_DIM - 2)
    steps = _steps(CAVITY_T_STOP, DT)
    return Workload(
        name="cavity-element",
        why="d=32 cavity: a 64-wide doubled space makes QSD steps matmul-bound; "
            "the 1024^2 Liouvillian oracle takes most of the run; one chunk",
        base={
            "scenario": "custom",
            "mode": "element",
            "unraveling": "qsd",
            "model": model,
            "observable": a,
            "bra": bra,
            "ket": ket,
            "t_grid": {"start": 0.0, "stop": CAVITY_T_STOP, "num": CAVITY_NODES},
            "n": CAVITY_N,
        },
        n=CAVITY_N,
        traj_steps=CAVITY_N * steps,
        sizes={"n": CAVITY_N, "steps": steps, "d": CAVITY_DIM, "channels": 1,
               "nodes": CAVITY_NODES},
        draws=_cavity_draws,
        chunks=(1, 1),
    )


def _gisin() -> Workload:
    t_start, t_stop, nodes = GISIN_T
    gisin_steps = sum(_steps(t_stop, h) for h in GISIN_H)
    doubled_steps = _steps(t_stop, DT)
    return Workload(
        name="gisin-compare",
        why="the only run of the coupled-pair scheme, plus the d=2 "
            "heisenberg_element path that g1 does not take",
        base={
            "scenario": "gisin-compare",
            "n": GISIN_N,
            "h_list": list(GISIN_H),
            "t_start": t_start,
            "t_stop": t_stop,
            "t_nodes": nodes,
        },
        n=GISIN_N,
        traj_steps=GISIN_N * (gisin_steps + doubled_steps),
        sizes={"n": GISIN_N, "steps": gisin_steps + doubled_steps, "d": 2,
               "channels": 1, "nodes": nodes},
        draws=_gisin_draws,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _g1("qsd", "criterion-8 g1 with QSD: per-step overhead of the diffusion "
                   "kernel and Wiener noise, two chunks", _g1_qsd_draws),
        _g1("jump", "the same g1 with jumps: no QSD kernel, no Wiener noise, "
                    "about ten uniforms per trajectory", _g1_jump_draws),
        _cavity(),
        _gisin(),
    )
}
