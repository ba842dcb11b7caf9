"""Mutation check: does the test suite still catch a list of known faults?

Each mutant is one exact string replacement in one source file, paired with
the test file that must catch it.  The runner copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` into a temporary directory and works
only there: it first runs every named test file on the clean copy, then, for
each mutant, writes the mutated file, runs its test file with ``pytest -x``
and restores the file.  One line per mutant reports

* ``killed``: the test file failed, so the suite catches the fault;
* ``survived``: it passed, a gap in the tests;
* ``stale``: the anchor text is not in the file exactly once (the code has
  moved on; update or drop the mutant),

with the seconds taken.  Every mutant changes a result by far more than
rounding, so a survivor is a real gap, not a tolerance.  The acceptance
suite is too slow for this loop and is never run.

Usage, from the repository root::

    python tools/mutants.py

The exit status is 0 when every mutant is killed, 1 when one
survived or is stale, and 2 when a test file fails on the clean copy.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    tests: str  # the test file that must fail


MUTANTS = [
    Mutant("rk4-horner-coefficients-swapped", "src/qsdsim/master.py",
           "for k in (4, 3, 2, 1)]", "for k in (3, 4, 2, 1)]",
           "tests/test_master.py"),
    Mutant("rk4-extra-step-map-substep", "src/qsdsim/master.py",
           "for _ in range(n_sub):\n                        vec = step.dot(vec)",
           "for _ in range(n_sub + 1):\n                        vec = step.dot(vec)",
           "tests/test_master.py"),
    Mutant("step-map-transposed", "src/qsdsim/master.py",
           "for e in basis], axis=1", "for e in basis], axis=0",
           "tests/test_master.py"),
    Mutant("step-map-boundary-at-0", "src/qsdsim/master.py",
           "STEP_MAP_MAX_DIM = 8", "STEP_MAP_MAX_DIM = 0",
           "tests/test_master.py"),
    Mutant("qsd-expectation-first-block-only", "src/qsdsim/diffusion.py",
           "y[1:], out=scratch).sum(axis=(1, 2))",
           "y[1:], out=scratch)[:, :, :1].sum(axis=(1, 2))",
           "tests/test_step_kernel.py"),
    # the shared update: hits the QSD engine and the coupled pair alike
    Mutant("euler-update-half-dt-as-0.49-dt", "src/qsdsim/diffusion.py",
           "m * (0.5 * dt)", "m * (0.49 * dt)",
           "tests/test_step_kernel.py"),
    Mutant("pair-coefficients-without-block-swap", "src/qsdsim/gisin.py",
           "cross, cross[:, ::-1].conj(), dxi", "cross, cross.conj(), dxi",
           "tests/test_gisin.py"),
    Mutant("jump-bookkeeping-one-substep-off", "src/qsdsim/jumps.py",
           "left[rows] = (reach - moved - 1)[~arrived]",
           "left[rows] = (reach - moved)[~arrived]",
           "tests/test_jumps.py"),
    Mutant("jump-carried-survival-dropped", "src/qsdsim/jumps.py",
           "survival[rows] = carried[arrived] * norm2",
           "survival[rows] = norm2",
           "tests/test_jumps.py"),
    Mutant("spawn-seed-padding-dropped", "src/qsdsim/noise.py",
           "n_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))",
           "n_words = max(1, -(-seed.bit_length() // 32))",
           "tests/test_noise.py"),
    Mutant("uniform-array-counted-as-one-draw", "src/qsdsim/noise.py",
           "        self.draws += size\n", "        self.draws += 1\n",
           "tests/test_noise.py"),
    Mutant("haar-zero-row-redrawn-from-stream-0", "src/qsdsim/correlations.py",
           "streams[i].wiener_block(1, dim, 1.0, out=rows[i])",
           "streams[0].wiener_block(1, dim, 1.0, out=rows[i])",
           "tests/test_correlations.py"),
    Mutant("pair-kernel-magnitude-check-removed", "src/qsdsim/gisin.py",
           "finite = np.isfinite(new_mag)", "finite = np.isfinite(new_sp)",
           "tests/test_gisin.py"),
    Mutant("eager-numpy-random-import", "src/qsdsim/noise.py",
           "\nimport numpy as np\n", "\nimport numpy as np\nimport numpy.random\n",
           "tests/test_layering.py"),
    Mutant("correlate-preparation-one-step-short", "src/qsdsim/correlations.py",
           "states = _run(engine, counts, states, streams, pre_steps)",
           "states = _run(engine, counts, states, streams, pre_steps - 1)",
           "tests/test_correlations.py"),
    Mutant("run-ensemble-keeps-first-chunk-samples", "src/qsdsim/ensemble.py",
           "samples=samples,", "samples=samples[:chunk_size],",
           "tests/test_ensemble.py"),
    Mutant("jump-channel-taken-at-the-jump-substep", "src/qsdsim/jumps.py",
           "weights, candidates = self._channels(pre)",
           "weights, candidates = self._channels(self._propagate(0, pre))",
           "tests/test_jumps.py"),
    Mutant("step-map-boundary-at-16", "src/qsdsim/master.py",
           "STEP_MAP_MAX_DIM = 8", "STEP_MAP_MAX_DIM = 16",
           "tests/test_master.py"),
    # the pair's chunks go through the one chunk runner, whose loop keeps
    # every chunk's draws, counts and rows
    Mutant("coupled-draws-of-last-chunk-only", "src/qsdsim/noise.py",
           "draws += chunk_draws", "draws = chunk_draws",
           "tests/test_gisin.py"),
    Mutant("coupled-tallies-of-last-chunk-only", "src/qsdsim/noise.py",
           "        _add(counts, chunk_counts)\n", "        counts = dict(chunk_counts)\n",
           "tests/test_gisin.py"),
    Mutant("coupled-drift-of-last-chunk-only", "src/qsdsim/gisin.py",
           "max_scalar_drift=float(samples[:, -1].real.max())",
           "max_scalar_drift=float(samples[-(n % _CHUNK or _CHUNK):, -1].real.max())",
           "tests/test_gisin.py"),
    Mutant("output-cleanup-skipped", "src/qsdsim/cli.py",
           "        _clear_outputs(config.out_dir)\n", "        pass\n",
           "tests/test_cli.py"),
    Mutant("h-list-label-check-skipped", "src/qsdsim/cli.py",
           "        if label in labels:\n", "        if False:\n",
           "tests/test_cli.py"),
    # config rows check their keys against the rows read before them
    Mutant("grid-row-skips-its-dt-grid-check", "src/qsdsim/cli.py",
           "        _on_grid(grid, dt, label, errors)\n", "        pass\n",
           "tests/test_cli.py"),
    Mutant("operator-row-skips-the-model-dimension-check", "src/qsdsim/cli.py",
           "if op.shape == (dim, dim):", "if True:",
           "tests/test_cli.py"),
    Mutant("custom-row-read-in-the-other-mode", "src/qsdsim/cli.py",
           'if mode and values["mode"] not in (None, mode):', "if False:",
           "tests/test_cli.py"),
    Mutant("grid-overflow-guard-removed", "src/qsdsim/cli.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           "tests/test_cli.py"),
    Mutant("density-matrix-accepts-non-finite", "src/qsdsim/master.py",
           "mat = _as_complex_matrix(self.entries)", "mat = np.array(self.entries, dtype=complex)",
           "tests/test_master.py"),
    Mutant("evolve-trace-guard-passes-nan", "src/qsdsim/master.py",
           "if not drift <= 1e-10 * (1.0 + abs(tr0)):", "if drift > 1e-10 * (1.0 + abs(tr0)):",
           "tests/test_master.py"),
    Mutant("fill-block-scaling-skipped", "src/qsdsim/noise.py",
           "    parts *= np.sqrt(0.5 * dt)\n", "    pass\n",
           "tests/test_noise.py"),
    # the chunk runner's split: the worker's rows, draws and counts must be
    # those of the unsplit chunk, and so must its errors
    Mutant("child-half-concatenated-first", "src/qsdsim/noise.py",
           "np.concatenate([mine, values])", "np.concatenate([values, mine])",
           "tests/test_ensemble.py"),
    Mutant("child-draws-uncounted", "src/qsdsim/noise.py",
           "        stream.draws = count\n", "        pass\n",
           "tests/test_ensemble.py"),
    Mutant("split-point-one-row-off-the-multiple-of-64", "src/qsdsim/noise.py",
           "h = _SPLIT_ALIGN * round(len(streams) / (2 * _SPLIT_ALIGN))",
           "h = _SPLIT_ALIGN * round(len(streams) / (2 * _SPLIT_ALIGN)) + 1",
           "tests/test_correlations.py"),
    Mutant("jump-task-allowed-to-split", "src/qsdsim/correlations.py",
           'return 0 if sde.scheme == "jump" else _row_cost(model)', "return _row_cost(model)",
           "tests/test_correlations.py"),
    Mutant("instability-of-a-half-raised-without-the-unsplit-rerun", "src/qsdsim/noise.py",
           "        except InstabilityError:\n", "        except ZeroDivisionError:\n",
           "tests/test_ensemble.py"),
    Mutant("pair-drift-column-dropped", "src/qsdsim/gisin.py",
           "        out[-1] = drift\n", "        out[-1] = 0.0\n",
           "tests/test_gisin.py"),
    # the coupled pair's unmasked steps
    Mutant("pair-unmasked-steps-kept-after-an-abort", "src/qsdsim/gisin.py",
           "lean = lean and mag.min() >= floor\n                if not lean:\n",
           "if not mag.min() >= floor:\n",
           "tests/test_gisin.py"),
]


def _pytest(work: Path, tests: str) -> tuple[bool, float]:
    """(passed, seconds) of one test file run with -x in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           # a mutated file and its restored original can share size and
           # mtime second, so no bytecode may be cached between runs
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qsdsim-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)

        for tests in sorted({m.tests for m in MUTANTS}):
            passed, seconds = _pytest(work, tests)
            print(f"{'clean' if passed else 'FAILS':8} {seconds:6.1f}s  {tests} (unmutated)",
                  flush=True)
            if not passed:
                return 2

        outcomes = []
        for m in MUTANTS:
            target = work / m.path
            original = target.read_text()
            if original.count(m.anchor) != 1:
                outcome, seconds = "stale", 0.0
            else:
                target.write_text(original.replace(m.anchor, m.replacement))
                try:
                    passed, seconds = _pytest(work, m.tests)
                finally:
                    target.write_text(original)
                outcome = "survived" if passed else "killed"
            outcomes.append(outcome)
            print(f"{outcome:8} {seconds:6.1f}s  {m.name} ({m.tests})", flush=True)

    print(f"{outcomes.count('killed')} of {len(outcomes)} killed")
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
