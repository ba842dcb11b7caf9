"""The benchmark's hooks into qsdsim, checked without running the benchmark.

``perfbench/`` is read here and never written.  Its workload configs must
validate, the default chunk size of ``run_ensemble`` must give every
workload a chunk count in its range, and its tracer must find every name it
patches and put every original back.  Renaming a traced function, the
``chunk_size`` parameter or a config key then fails here, not only in a
benchmark run.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from qsdsim import cli, diffusion, driven_cavity_model, jumps, noise

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """The module ``perfbench/<name>.py``, under a name no test shares,
    compiled in memory so that no bytecode is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), path, "exec"), vars(module))
    return module


workloads = load("workloads")
tracing = load("tracing")
child = load("child")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_validates(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    config, errors = cli.validate(json.dumps(workload.config(7, str(tmp_path / "out"))))
    assert errors == []
    assert config.params["n"] == workload.n


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_chunk_size_gives_each_workload_its_chunk_count(name):
    chunks, problem = child.default_chunks(workloads.WORKLOADS[name])
    assert problem == ""
    assert chunks >= 1


def qsdsim_bindings() -> dict:
    """Every attribute of every loaded qsdsim module and of the classes and
    functions the tracer patches outside them."""
    bound = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qsdsim" or name.startswith("qsdsim."))
        for attr, value in vars(module).items()
    }
    for owner in (noise.NoiseStream, diffusion.QsdEngine, jumps.JumpEngine):
        bound.update({(owner.__name__, attr): value for attr, value in vars(owner).items()})
    bound["numpy.linalg", "norm"] = np.linalg.norm
    return bound


def test_tracer_patches_existing_names_and_puts_them_back(tmp_path):
    before = qsdsim_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module_name, fn_name in tracing.FUNCTIONS:
            module = sys.modules[f"qsdsim.{module_name}"]
            original = before[f"qsdsim.{module_name}", fn_name]
            assert getattr(module, fn_name) is not original, (module_name, fn_name)
        # one traced run of the coupled scheme and the doubled element
        config, errors = cli.validate(json.dumps({
            "scenario": "gisin-compare", "n": 4, "h_list": [0.01], "dt": 0.01,
            "t_start": 0.1, "t_stop": 0.2, "t_nodes": 2, "out": str(tmp_path / "out"),
        }))
        assert errors == []
        assert cli.run(config) == 0
    finally:
        tracer.uninstall()
    after = qsdsim_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    metrics = tracing.layer_metrics(tracer, 4, 1)
    assert metrics["noise.streams"] == 2 * 4
    draws = meta["runs"]["0.01"]["draws_total"] + meta["doubled_draws_total"]
    assert metrics["noise.draws"] == draws
    assert metrics["ensemble.chunks"] == 1
    assert metrics["gisin.traj_steps"] == 4 * 20
    assert metrics["diffusion.traj_steps"] == 4 * 20


def test_tracer_counts_a_split_cavity_run(tmp_path, splits):
    # the chunk worker runs the task on the chunk's upper rows in a child
    # process, where no span is recorded: the traced parent steps only its
    # h = 128 of the 300 rows, but still sees every draw of the chunk's
    # streams and one task per chunk
    workload = workloads.WORKLOADS["cavity-element"]
    n, steps = 300, 40
    config, errors = cli.validate(json.dumps({
        **workload.config(7, str(tmp_path / "out")),
        "n": n, "t_grid": {"start": 0.0, "stop": steps * workloads.DT, "num": 3},
    }))
    assert errors == []
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.run(config) == 0
    finally:
        tracer.uninstall()
    assert len(splits) == 1
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    metrics = tracing.layer_metrics(tracer, n, 1)
    assert metrics["noise.draws"] == meta["draws_total"] == n * 2 * steps
    assert metrics["ensemble.chunks"] == 1
    assert metrics["diffusion.traj_steps"] == 128 * steps
    assert metrics["correlations.record_calls"] == 3


def test_the_inline_cavity_is_the_package_cavity():
    model, a = workloads._cavity_model()
    cavity = driven_cavity_model(workloads.CAVITY_DIM)
    assert np.array_equal(np.array(model["hamiltonian"]), cavity.hamiltonian.matrix)
    assert [np.array(op).tolist() for op in model["lindblads"]] == [
        op.matrix.real.tolist() for op in cavity.lindblads]
    assert np.array_equal(np.array(a), cavity.lindblads[0].matrix)
