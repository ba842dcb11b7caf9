"""qsdsim benchmark: one workload through the ``simulate`` entry point.

    python3 perfbench/run.py --workload g1-qsd --seed 1 --seconds 28 --trace 0

Run from any directory of a source checkout; qsdsim is imported from its
``src`` directory, never from an installed copy.  run.py writes the
workload's config (built from ``--seed``), starts SETUP_SAMPLES short child
processes that only import qsdsim and validate the config, then one child
that runs ``cli.validate`` + ``cli.run`` repeatedly for ``--seconds``
seconds and checks every run's outputs against the master-equation oracle,
the closed-form draw counts and each other (results.csv must not change
between repetitions).  Each child is a fresh process; ``workers`` and the
chunk size stay at their defaults.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced repetitions
alternate and it reports the per-layer metrics.  The line before it holds
the run's context.  Scratch output goes to ``perfbench/_out/<workload>/``:
config.json, the run's files, report.json and, when traced, spans.csv.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

_START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 20
# the whole benchmark must end within 180 s; children get what is left
DEADLINE_S = 170
TARGET_REL_ERROR = 0.03


class BenchError(RuntimeError):
    """The benchmark could not measure the program."""


def _child(workload: str, mode: str, seconds: float = 0.0, trace: int = 0) -> dict:
    # single-threaded BLAS: chunk parallelism is the only parallelism measured,
    # and the d=32 oracle no longer slows down whenever the other core is busy
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--mode", mode,
           "--seconds", repr(seconds), "--trace", str(trace)]
    timeout = DEADLINE_S - (time.monotonic() - _START)
    if mode == "setup":
        timeout = min(timeout, SETUP_TIMEOUT_S)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} child timed out after {timeout} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(["git", "describe", "--tags", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unavailable: {err}"
    return out.stdout.strip() or f"unavailable: git exited {out.returncode}"


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    if not values:
        raise BenchError("no repetition produced a timing")
    return statistics.median(values)


def _mark_changed_outputs(reps: list):
    """results.csv must be byte-identical across repetitions of one seed."""
    first = next((r["sha256"] for r in reps if "sha256" in r), None)
    for idx, rep in enumerate(reps):
        if "sha256" in rep and rep["sha256"] != first:
            rep["problems"].append(f"results.csv of repetition {idx} differs from the first")


def end_to_end(workload, reps: list, setups: list, child: dict, ok_frac: float) -> dict:
    wall = _median(r["wall_s"] for r in reps if not r["traced"])
    checked = [r for r in reps if "est_std" in r]
    est_std = checked[0]["est_std"] if checked else float("inf")
    agree = min((r["agree_frac"] for r in checked), default=0.0)
    return {
        "wall_s": wall,
        "traj_steps_per_s": workload.traj_steps / wall,
        "time_to_3pct_s": wall * (est_std / TARGET_REL_ERROR) ** 2,
        "setup_s": _median(s["setup_s"] for s in setups),
        "peak_rss_mb": child["peak_rss_mb"],
        "oracle_agree_frac": agree,
        "ops_ok_frac": ok_frac,
    }


def per_layer(reps: list, child: dict) -> dict:
    if not child["layers"]:
        raise BenchError("no traced repetition completed")
    plain = _median(r["wall_s"] for r in reps if not r["traced"])
    traced = _median(r["wall_s"] for r in reps if r["traced"])
    return {**child["layers"], "trace.overhead_frac": traced / plain - 1.0}


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple:
    workload = WORKLOADS[name]
    out = HERE / "_out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = workload.config(seed, str(out / "run"))
    (out / "config.json").write_text(json.dumps(config))

    setups = [_child(name, "setup") for _ in range(SETUP_SAMPLES)]
    child = _child(name, "run", seconds, trace)
    setups.append({"setup_s": child["setup_s"], "errors": child["errors"]})
    if child["errors"]:
        raise BenchError(f"config rejected: {child['errors']}")
    reps = child["reps"]
    _mark_changed_outputs(reps)
    # an operation is one setup child or one cli.run repetition
    failed = sum(1 for r in reps if r["problems"]) + sum(1 for s in setups if s["errors"])
    attempted = len(reps) + len(setups)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = (per_layer(reps, child) if trace else
              end_to_end(workload, reps, setups, child, 1.0 - failed / attempted))
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_describe": _git_describe(),
        "qsdsim_version": child["qsdsim_version"],
        **child["context"],
        "sizes": {**workload.sizes, "chunks": child["chunks"]},
        "repetitions": len(reps),
        "problems": [p for r in reps for p in r["problems"]],
    }
    (out / "report.json").write_text(json.dumps(
        {"context": context, "result": result, "reps": reps}, indent=2) + "\n")
    return context, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "qsdsim" / "cli.py").is_file():
        print(f"no qsdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        context, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
