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


_YIELD_SLOT = """\
            for k in range(min(steps, n_steps - j * steps)):
                yield slot[k]
"""
_FREE_SLOT = """\
            # the child fills no block after the last, so it waits for no
            # byte
            if j + 2 < n_blocks:
                child.release()
"""
_READ_THEN_FREE = _YIELD_SLOT + _FREE_SLOT
_FREE_THEN_READ = _FREE_SLOT + _YIELD_SLOT

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
           "ell = (x.conj() * y[1:]).sum(axis=(1, 2))",
           "ell = (x.conj() * y[1:])[:, :, :1].sum(axis=(1, 2))",
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
           "finite = np.isfinite(new).all(axis=(0, 1)) & np.isfinite(new_mag)",
           "finite = np.isfinite(new).all(axis=(0, 1))",
           "tests/test_gisin.py"),
    Mutant("eager-numpy-random-import", "src/qsdsim/noise.py",
           "\nimport numpy as np\n", "\nimport numpy as np\nimport numpy.random\n",
           "tests/test_layering.py"),
    Mutant("correlate-preparation-one-step-short", "src/qsdsim/correlations.py",
           "states = _run(engine, counts, states, streams, pre_steps)",
           "states = _run(engine, counts, states, streams, pre_steps - 1)",
           "tests/test_correlations.py"),
    Mutant("run-ensemble-keeps-first-chunk-samples", "src/qsdsim/ensemble.py",
           "samples=samples,", "samples=values[0],",
           "tests/test_ensemble.py"),
    Mutant("jump-channel-taken-at-the-jump-substep", "src/qsdsim/jumps.py",
           "weights, candidates = self._channels(pre)",
           "weights, candidates = self._channels(self._propagate(0, pre))",
           "tests/test_jumps.py"),
    Mutant("step-map-boundary-at-16", "src/qsdsim/master.py",
           "STEP_MAP_MAX_DIM = 8", "STEP_MAP_MAX_DIM = 16",
           "tests/test_master.py"),
    Mutant("coupled-draws-of-last-chunk-only", "src/qsdsim/gisin.py",
           "draws += sum(", "draws = sum(",
           "tests/test_gisin.py"),
    Mutant("coupled-tallies-of-last-chunk-only", "src/qsdsim/gisin.py",
           "aborted += int(low.sum())\n        overflowed += int(bad.sum())",
           "aborted = int(low.sum())\n        overflowed = int(bad.sum())",
           "tests/test_gisin.py"),
    Mutant("coupled-drift-of-last-chunk-only", "src/qsdsim/gisin.py",
           "hi = min(lo + _CHUNK, n)\n", "hi = min(lo + _CHUNK, n)\n        max_drift = 0.0\n",
           "tests/test_gisin.py"),
    Mutant("output-cleanup-skipped", "src/qsdsim/cli.py",
           "        _clear_outputs(config.out_dir)\n", "        pass\n",
           "tests/test_cli.py"),
    Mutant("h-list-label-check-skipped", "src/qsdsim/cli.py",
           "        if label in labels:\n", "        if False:\n",
           "tests/test_cli.py"),
    Mutant("density-matrix-accepts-non-finite", "src/qsdsim/master.py",
           "mat = _as_complex_matrix(self.entries)", "mat = np.array(self.entries, dtype=complex)",
           "tests/test_master.py"),
    Mutant("evolve-trace-guard-passes-nan", "src/qsdsim/master.py",
           "if not drift <= 1e-10 * (1.0 + abs(tr0)):", "if drift > 1e-10 * (1.0 + abs(tr0)):",
           "tests/test_master.py"),
    # the forked noise producer: its bits, draws and final states must be
    # those of the in-process scheduler
    Mutant("producer-restore-skips-the-last-stream", "src/qsdsim/noise.py",
           "zip(streams, words.tolist())", "zip(streams[:-1], words.tolist())",
           "tests/test_noise.py"),
    Mutant("producer-slot-index-off-by-one", "src/qsdsim/noise.py",
           "slot = slots[j % 2]", "slot = slots[(j + 1) % 2]",
           "tests/test_noise.py"),
    Mutant("producer-slot-freed-before-its-last-step-is-read", "src/qsdsim/noise.py",
           _READ_THEN_FREE, _FREE_THEN_READ,
           "tests/test_noise.py"),
    Mutant("fill-block-scaling-skipped", "src/qsdsim/noise.py",
           "    parts *= np.sqrt(0.5 * dt)\n", "    pass\n",
           "tests/test_noise.py"),
    Mutant("producer-draws-uncounted", "src/qsdsim/noise.py",
           "            stream.draws += 2 * n_channels * n_steps\n", "            pass\n",
           "tests/test_noise.py"),
    # the column worker: its rows, draws and streams must be those of the
    # unsplit run, and so must its instability errors
    Mutant("worker-half-concatenated-first", "src/qsdsim/diffusion.py",
           "np.concatenate([head, rows.reshape(dim, k, tail)], axis=2)",
           "np.concatenate([rows.reshape(dim, k, tail), head], axis=2)",
           "tests/test_diffusion.py"),
    Mutant("worker-draws-uncounted", "src/qsdsim/diffusion.py",
           "                stream.draws += 2 * c * n_steps\n", "                pass\n",
           "tests/test_diffusion.py"),
    Mutant("worker-streams-not-restored", "src/qsdsim/diffusion.py",
           "            _restore(theirs, words)\n", "            pass\n",
           "tests/test_diffusion.py"),
    Mutant("split-errors-compared-by-row-only", "src/qsdsim/diffusion.py",
           "failed[0] < err.order", "failed[0][2:] < err.order[2:]",
           "tests/test_diffusion.py"),
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
