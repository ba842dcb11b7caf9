"""One benchmark child process: import qsdsim, validate a config, and run it.

``--mode setup`` only times the import of qsdsim and ``cli.validate``.
``--mode run`` does the same, then calls ``cli.run`` repeatedly for about
``--seconds`` seconds (at least twice) and checks every repetition's
outputs.  With ``--trace 1`` untraced and traced repetitions alternate.
The last line of stdout is a JSON report for ``run.py``.

Run it through ``run.py``, which builds the config and aggregates.
"""

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

_START = time.perf_counter()

# Oracle agreement.  A node agrees at k sigma when |estimate - reference| <
# k standard errors, or when it is within ABS_TOL where the standard error is
# below SIGMA_ZERO (every trajectory reports the same value, as at t = 0 of an
# element run).  oracle_agree_frac counts nodes at AGREE_Z.  A run fails when
# fewer than the acceptance suite's NODE_QUOTA of nodes agree at GATE_Z: the
# nodes of one run share their trajectories and deviate together, so a
# 3-sigma gate on all 16 nodes of a g1 run fails healthy runs: 3 of 45
# g1-jump seeds reached a largest |z| of 3.0 to 3.9, while over another 16
# seeds the mean z was -0.06 +- 0.16, so the estimate is not biased.
AGREE_Z = 3.0
GATE_Z = 5.0
ABS_TOL = 1e-9
SIGMA_ZERO = 1e-12
NODE_QUOTA = 0.95


def _import_qsdsim(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import qsdsim
    from qsdsim import cli

    where = Path(qsdsim.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"qsdsim was imported from {where}, not from {src}")
    return qsdsim, cli


def _read_series(path: Path):
    rows = path.read_text().strip().split("\n")[1:]
    out = []
    for row in rows:
        t, re_, im, se = (float(v) for v in row.split(","))
        out.append((t, complex(re_, im), se))
    return out


def check_against_oracle(out: Path) -> dict:
    """Node-wise agreement of results.csv with reference.csv."""
    res = _read_series(out / "results.csv")
    ref = _read_series(out / "reference.csv")
    if len(res) != len(ref) or any(abs(a[0] - b[0]) > 1e-12 for a, b in zip(res, ref)):
        return {"ok": False, "agree_frac": 0.0, "est_std": float("nan"),
                "why": "results and reference grids differ"}

    def agreeing(k: float) -> int:
        return sum(
            abs(est - target) <= ABS_TOL if se < SIGMA_ZERO else abs(est - target) < k * se
            for (_, est, se), (_, target, _) in zip(res, ref)
        )

    gate_hits = agreeing(GATE_Z)
    ok = gate_hits >= NODE_QUOTA * len(res)
    # aggregated statistical error, normalized like benchmark_sweep
    ref_norm = sum(abs(v) ** 2 for _, v, _ in ref) ** 0.5
    est_std = sum(se**2 for _, _, se in res) ** 0.5 / ref_norm
    return {"ok": ok, "agree_frac": agreeing(AGREE_Z) / len(res), "est_std": est_std,
            "why": "" if ok else f"{gate_hits}/{len(res)} nodes within {GATE_Z:g} sigma"}


def check_gisin_outputs(workload, out: Path) -> list:
    problems = []
    for h in workload.base.get("h_list", ()):
        if not (out / f"gisin-h{h:g}.csv").is_file():
            problems.append(f"gisin-h{h:g}.csv missing")
            continue
        report = json.loads((out / f"instability-h{h:g}.json").read_text())
        if report["n_trajectories"] != workload.n:
            problems.append(f"instability-h{h:g}.json reports n={report['n_trajectories']}")
    return problems


def run_once(cli, config, config_text: str, workload, tracer=None) -> dict:
    """One cli.run call with its checks; ``tracer`` patches it if given."""
    out = config.out_dir
    # cli.run recreates the directory; no file may survive from the last run
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracer.install()
    try:
        if tracer is not None:
            # validate again under tracing, for cli.validate_s
            cli.validate(config_text)
        start = time.perf_counter()
        code = cli.run(config)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = {"wall_s": wall, "traced": tracer is not None, "problems": []}
    if code != 0:
        rep["problems"].append(f"cli.run returned {code}")
        return rep
    meta = json.loads((out / "metadata.json").read_text())
    rep["sha256"] = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    oracle = check_against_oracle(out)
    rep["agree_frac"] = oracle["agree_frac"]
    rep["est_std"] = oracle["est_std"]
    if not oracle["ok"]:
        rep["problems"].append(oracle["why"])
    draws = workload.draws(meta)
    rep["problems"] += [f"{label}: expected {expected}, recorded {recorded}"
                        for label, expected, recorded in draws if expected != recorded]
    rep["problems"] += check_gisin_outputs(workload, out)
    rep["draws"] = sum(expected for _, expected, _ in draws)
    return rep


def default_chunks(workload) -> tuple:
    """Chunk count of the workload at run_ensemble's default chunk size, and
    a problem text when it breaks the workload's required range."""
    from qsdsim import ensemble

    size = inspect.signature(ensemble.run_ensemble).parameters["chunk_size"].default
    chunks = math.ceil(workload.n / size)
    least, most = workload.chunks
    if (least is not None and chunks < least) or (most is not None and chunks > most):
        return chunks, (f"default chunk size {size} gives {chunks} chunks; "
                        f"the workload needs {least} to {most}")
    return chunks, ""


def context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        # the BLAS thread setting, fixed by run.py
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path(args.root)
    out = root / "perfbench" / "_out" / args.workload
    config_text = (out / "config.json").read_text()

    qsdsim, cli = _import_qsdsim(root)
    config, errors = cli.validate(config_text)
    setup_s = time.perf_counter() - _START
    if config is None:
        print(json.dumps({"setup_s": setup_s, "errors": errors}))
        return 0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "errors": []}))
        return 0

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ctx = context()
    chunks, chunk_problem = default_chunks(workload)
    reps, layers, spans, laps = [], [], [], []
    begin = time.perf_counter()
    # start another repetition while it should end nearer to --seconds than
    # the last one did, so a run measures about --seconds whatever its
    # repetition length
    while len(reps) < 2 or (time.perf_counter() - begin
                            + statistics.median(laps) / 2 < args.seconds):
        lap = time.perf_counter()
        tracer = tracing.Tracer() if args.trace and len(reps) % 2 else None
        try:
            rep = run_once(cli, config, config_text, workload, tracer)
        except Exception as err:  # noqa: BLE001 - a crashing run is a failed op
            rep = {"wall_s": float("nan"), "traced": tracer is not None,
                   "problems": [f"{type(err).__name__}: {err}"]}
        if chunk_problem:
            rep["problems"].append(chunk_problem)
        if tracer is not None and not rep["problems"]:
            metrics = tracing.layer_metrics(tracer, workload.n, ctx["nproc"])
            if metrics["noise.draws"] != rep["draws"]:
                rep["problems"].append(
                    f"traced draws {metrics['noise.draws']} != closed form {rep['draws']}")
            if metrics["ensemble.chunks"] != chunks:
                rep["problems"].append(
                    f"traced chunks {metrics['ensemble.chunks']} != expected {chunks}")
            layers.append(metrics)
            spans += [(len(reps),) + span for span in tracer.spans]
        reps.append(rep)
        laps.append(time.perf_counter() - lap)
        if len(reps) == 1:
            # the peak of one simulate invocation: later repetitions reuse a
            # heap whose layout, and so whose peak, varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans:
        tracing.write_spans(out / "spans.csv", spans)

    layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
    print(json.dumps({
        "setup_s": setup_s,
        "errors": [],
        "qsdsim_version": qsdsim.__version__,
        "context": ctx,
        "chunks": chunks,
        "peak_rss_mb": peak_rss_mb,
        "reps": reps,
        "layers": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
