"""Config validation, scenario runs, output files, and exit codes."""

import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdsim
from qsdsim import (
    EnsembleError,
    Ket,
    LindbladModel,
    Operator,
    SdeConfig,
    cli,
    heisenberg_element,
    noise,
)

from conftest import in_chunk_worker


def make_config(tmp_path, name="config.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_series(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "grid,mean_re,mean_im,std_error"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return np.array(rows)


def test_validate_fills_defaults():
    config, errors = cli.validate('{"scenario": "decay-element"}')
    assert errors == []
    assert config.dt == 1e-3
    assert config.seed == 0
    assert config.out_dir.name == "out-decay-element"
    assert config.params["n"] == 1000
    assert config.params["unraveling"] == "qsd"
    grid = config.params["t_grid"]
    assert grid.size == 40
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(4.0)


# one small run of each scenario (custom in both modes)
_SMALL_RUNS = {
    "decay-element": dict(n=4, t_start=0.5, t_stop=1.0, t_nodes=2),
    "fluorescence-g1": dict(n=4, warmup=0.2, tau_stop=0.2, tau_nodes=2),
    "gisin-compare": dict(n=4, h_list=[0.01], t_start=0.1, t_stop=0.2, t_nodes=2),
    "benchmark": dict(warmup=0.2, tau_stop=0.2, tau_nodes=2, n_list=[4]),
    "custom": dict(n=4, model={"builder": "decay"}, observable="sigma_plus",
                   bra=[0, 1], ket=[1, 1], t_grid=[0.2]),
    "custom-correlation": dict(n=4, mode="correlation", model={"builder": "decay"},
                               observable="sigma_plus", perturbation="sigma_minus",
                               warmup=0.2, tau_grid=[0.0, 0.1]),
}


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_runs_take_the_library_step_and_floor(tmp_path, monkeypatch, name):
    # the oracle's step (h_ode) and the coupled scheme's floor are not config
    # keys, so no run may pass either: the library defaults apply
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, inspect.signature(fn).bind(*args, **kwargs).arguments))
            return fn(*args, **kwargs)
        return wrapper

    for fn in ("regression_matrix_element", "two_time_correlation", "run_coupled_ensemble"):
        monkeypatch.setattr(cli, fn, recording(getattr(cli, fn)))
    scenario = name.partition("-correlation")[0] if name.startswith("custom") else name
    path = make_config(tmp_path, scenario=scenario, dt=0.01, out=str(tmp_path / "out"),
                       **_SMALL_RUNS[name])
    assert run_main(["--config", str(path)]) == 0
    assert calls
    for fn, bound in calls:
        assert not {"h_ode", "floor"} & set(bound), fn


def _readme_keys(scenario: str) -> list:
    """The keys named in the first column of the README table for ``scenario``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the table follows a line that opens with the scenario in backticks
    # and whose sentence ends in a colon
    match = re.search(rf"^`{re.escape(scenario)}`.*?:\n\n((?:\|[^\n]*\n)+)", text, re.M | re.S)
    assert match, f"no key table for {scenario!r} in README.md"
    rows = match.group(1).splitlines()[2:]  # after the header and the rule
    return [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


@pytest.mark.parametrize("scenario", sorted(cli.SCHEMAS))
def test_readme_key_tables_match_the_schemas(scenario):
    expected = []
    for name, row in cli.SCHEMAS[scenario].items():
        expected.extend(row.parse.keys if isinstance(row.parse, cli._Linspace) else (name,))
    assert sorted(_readme_keys(scenario)) == sorted(expected)


# every linspace-grid key of each scenario, with unparsable values
_TIME_VALUES = [("NaN", "must be a finite number"), ('"abc"', "expected a number"),
                ("null", "expected a number")]
_NODE_VALUES = ["NaN", '"abc"', "null", "1.5", "0"]
_GRID_KEY_CASES = [
    (f'{{"scenario": "{scenario}", "{prefix}_{part}": {value}}}', f"{prefix}_{part}: {needle}")
    for scenario, prefix, parts in (
        ("decay-element", "t", ("start", "stop")),
        ("gisin-compare", "t", ("start", "stop")),
        ("fluorescence-g1", "tau", ("start", "stop")),
        ("benchmark", "tau", ("stop",)),
    )
    for part in parts
    for value, needle in _TIME_VALUES
] + [
    (f'{{"scenario": "{scenario}", "{key}": {value}}}', f"{key}: ")
    for scenario, key in (
        ("decay-element", "t_nodes"),
        ("gisin-compare", "t_nodes"),
        ("fluorescence-g1", "tau_nodes"),
        ("benchmark", "tau_nodes"),
    )
    for value in _NODE_VALUES
]
_CUSTOM_ELEMENT = (
    '{"scenario": "custom", "model": {"builder": "decay"}, '
    '"observable": "sigma_plus", "bra": [0, 1], "ket": [1, 1], "t_grid": '
)


def _custom(**cfg):
    """A valid custom element config, changed by ``cfg`` (JSON fragments)."""
    base = {"model": '{"builder": "decay"}', "observable": '"sigma_plus"',
            "bra": "[0, 1]", "ket": "[1, 1]", "t_grid": "[0.5]"}
    items = {"scenario": '"custom"', **base, **cfg}
    return "{" + ", ".join(f'"{k}": {v}' for k, v in items.items() if v is not None) + "}"


_EXPLICIT_MODEL = '{{"hamiltonian": {h}, "lindblads": [{l}]}}'
# non-finite or overflowing numbers anywhere in a custom config
_CUSTOM_NON_FINITE_CASES = [
    (_custom(bra="[Infinity, 1]"), "bra[0]: must be a finite number"),
    (_custom(ket="[1, NaN]"), "ket[1]: must be a finite number"),
    (_custom(bra="[[1, -Infinity], 1]"), "bra[0]: must be a finite number"),
    (_custom(ket="[1, " + "9" * 400 + "]"), "ket[1]: must be a finite number"),
    (_custom(model=_EXPLICIT_MODEL.format(h="[[0, 0], [0, 0]]", l="[[0, Infinity], [0, 0]]")),
     "model.lindblads[0][0]: must be a finite number"),
    (_custom(model=_EXPLICIT_MODEL.format(h="[[NaN, 0], [0, 0]]", l="[[0, 1], [0, 0]]")),
     "model.hamiltonian[0]: must be a finite number"),
    (_custom(observable="[[1, 0], [0, [0, NaN]]]"), "observable[1]: must be a finite number"),
    (_custom(model='{"builder": "driven_decay", "omega": Infinity}'),
     "model.omega: must be a finite number"),
    # finite entries whose L^dag L overflows
    (_custom(model=_EXPLICIT_MODEL.format(h="[[0, 0], [0, 0]]", l="[[0, 1e200], [0, 0]]")),
     "model: the generator -iH - (1/2) sum_j L_j^dag L_j overflows"),
    (_custom(mode='"correlation"', bra=None, ket=None, t_grid=None,
             perturbation='"sigma_minus"', tau_grid="[0]", warmup="Infinity"),
     "warmup: must be a finite number"),
]

_ZERO_3 = "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]"
# custom vectors, models and operators that have the wrong shape or keys
_CUSTOM_SHAPE_CASES = [
    (_custom(bra="[0, 0]"), "bra: must be a nonzero vector"),
    (_custom(ket="[0, [0, 0]]"), "ket: must be a nonzero vector"),
    (_custom(model='{"builder": "decay", "gamma": 2}'),
     "model: unknown keys ['gamma'] for a named builder"),
    (_custom(model='{"builder": "decay", "omega": 3}'),
     "model: omega is not applicable to the decay builder"),
    (_custom(model='{"hamiltonian": [[0, 0], [0, 0]], "lindblads": [[[0, 1], [0, 0]]], '
                   '"gamma": 1}'),
     "model: unknown keys ['gamma']"),
    (_custom(model='{"hamiltonian": [[0, 0], [0, 0]], "lindblads": []}'),
     "model.lindblads: expected a non-empty list of matrices"),
    (_custom(observable=_ZERO_3), "observable: shape (3, 3) does not match model dim 2"),
    (_custom(model=_EXPLICIT_MODEL.format(h=_ZERO_3, l="[[0, 1, 0], [0, 0, 1], [0, 0, 0]]"),
             bra="[1, 0, 0]", ket="[0, 1, 0]"),
     "observable: 'sigma_plus' is a 2-level operator, model dim is 3"),
]


@pytest.mark.parametrize(
    "text,needle",
    [
        *_GRID_KEY_CASES,
        ('{"scenario": "decay-element", "t_nodes": 10000000}', "t_nodes: 10000000 nodes do not fit"),
        ('{"scenario": "fluorescence-g1", "warmup": 0.0005}', "warmup: value=0.0005 is not an integer multiple"),
        (_CUSTOM_ELEMENT + '{"start": 0, "stop": 1, "num": "x"}}', "t_grid.num: expected a positive integer"),
        (_CUSTOM_ELEMENT + '{"start": 0, "stop": 1, "num": -3}}', "t_grid.num: must be >= 1"),
        (_CUSTOM_ELEMENT + '{"start": 0, "stop": 1, "num": 10000000}}', "t_grid.num: 10000000 nodes do not fit"),
        (_CUSTOM_ELEMENT + '{"start": NaN, "stop": 1, "num": 3}}', "t_grid.start: must be a finite number"),
        (_CUSTOM_ELEMENT + '[0.5, NaN]}', "t_grid[1]: must be a finite number"),
        (_CUSTOM_ELEMENT + '[0.5, "0.7"]}', "t_grid[1]: expected a number"),
        (_CUSTOM_ELEMENT + '[0.7, 0.5]}', "strictly increasing"),
        # bounds near the float maximum overflow inside linspace
        ('{"scenario": "decay-element", "t_start": 0, "t_stop": 1.7976931348623157e308, '
         '"t_nodes": 19}', "t grid: time grid must hold finite multiples"),
        ('{"scenario": "decay-element", "t_start": -1.7e308, "t_stop": 1.7e308, "t_nodes": 3}',
         "t grid: time grid must hold finite multiples"),
        (_CUSTOM_ELEMENT + '{"start": 0, "stop": 1.7976931348623157e308, "num": 19}}',
         "t_grid: time grid must hold finite multiples"),
        *_CUSTOM_NON_FINITE_CASES,
        ('{"scenario": "decay-element", "out": null}', "out: expected a directory path string"),
        ('{"scenario": "decay-element", "out": []}', "out: expected a directory path string"),
        ('{"scenario": "decay-element", "out": 5}', "out: expected a directory path string"),
        ("not json {", "not valid JSON"),
        ("[1, 2]", "root must be a JSON object"),
        ('{"scenario": "frobnicate"}', "scenario"),
        ('{"scenario": "decay-element", "omega": 3}', "not applicable"),
        ('{"scenario": "benchmark", "n": 100}', "not applicable"),
        ('{"scenario": "decay-element", "dt": 0}', "dt"),
        ('{"scenario": "decay-element", "n": 1}', "n: must be >= 2"),
        ('{"scenario": "decay-element", "seed": -3}', "seed"),
        ('{"scenario": "decay-element", "workers": 2}',
         "workers: not applicable to scenario 'decay-element'"),
        *[(f'{{"scenario": "{scenario}", "h_ode": 1e-3}}',
           f"h_ode: not applicable to scenario '{scenario}'")
          for scenario in ("decay-element", "fluorescence-g1", "gisin-compare", "benchmark")],
        (_custom(h_ode="1e-3"), "h_ode: not applicable to scenario 'custom'"),
        ('{"scenario": "gisin-compare", "floor": 0.5}',
         "floor: not applicable to scenario 'gisin-compare'"),
        (_custom(mode='"correlation"', bra=None, ket=None, t_grid=None,
                 perturbation='"sigma_minus"', tau_grid="[0]", t="0.5"),
         "t: not applicable to scenario 'custom'"),
        (_custom(mode='"correlation"', bra=None, ket=None, t_grid=None,
                 perturbation='"sigma_minus"', tau_grid="[0]", initial='"steady_state"'),
         "initial: not applicable to scenario 'custom'"),
        ('{"scenario": "decay-element", "unraveling": "euler"}', "unraveling"),
        ('{"scenario": "decay-element", "t_start": 0.1005}', "integer multiple"),
        ('{"scenario": "gisin-compare", "h_list": [0.3]}', "h=0.3"),
        ('{"scenario": "gisin-compare", "h_list": [0.01, 0.01]}',
         "h_list: step sizes 0.01 and 0.01 share the output label '0.01'"),
        ('{"scenario": "gisin-compare", "h_list": [0.01, 0.0100000000001]}',
         "h_list: step sizes 0.01 and 0.0100000000001 share the output label '0.01'"),
        ('{"scenario": "custom"}', "model: required"),
        (
            '{"scenario": "custom", "mode": "element", '
            '"model": {"builder": "decay"}, "observable": "sigma_plus", '
            '"bra": [0, 1], "ket": [1, 1], "t_grid": [0.5], "warmup": 2}',
            "only applicable to correlation runs",
        ),
        (
            '{"scenario": "custom", "model": {"builder": "decay"}, '
            '"observable": "hadamard", "bra": [0, 1], "ket": [1, 1], '
            '"t_grid": [0.5]}',
            "unknown operator name",
        ),
        *_CUSTOM_SHAPE_CASES,
    ],
)
def test_validate_rejects(text, needle):
    config, errors = cli.validate(text)
    assert config is None
    assert any(needle in line for line in errors), errors


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"scenario": "decay-element", "dt": NaN}', "dt"),
        ('{"scenario": "decay-element", "dt": Infinity}', "dt"),
        ('{"scenario": "fluorescence-g1", "omega": Infinity}', "omega"),
        ('{"scenario": "fluorescence-g1", "warmup": NaN}', "warmup"),
        (_custom(bra="[Infinity, 1]"), "bra[0]"),
        (_custom(model=_EXPLICIT_MODEL.format(h="[[0, 0], [0, 0]]", l="[[0, Infinity], [0, 0]]")),
         "model.lindblads[0][0]"),
    ],
)
def test_non_finite_numbers_are_named_errors(tmp_path, capsys, text, key):
    config, errors = cli.validate(text)
    assert config is None
    assert any(f"{key}: must be a finite number" in line for line in errors), errors
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run_main(["--config", str(path)]) == 2
    assert f"config error: {key}: must be a finite number" in capsys.readouterr().err


def test_grid_and_out_errors_exit_2(tmp_path, capsys):
    path = make_config(tmp_path, scenario="decay-element", t_stop="abc", t_nodes=1.5,
                       out=None)
    assert run_main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    for key in ("t_stop", "t_nodes", "out"):
        assert f"config error: {key}: " in err, err


# any JSON value; integers stay within 1e6 so no value asks for a huge run
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# custom values: mostly finite and well-formed, but any number (NaN,
# infinities, and finite values whose products overflow) may turn up
_FINITE = (
    st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e200, -1e308])
)
_NUMBERS = _FINITE | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
_ENTRIES = _FINITE | st.lists(_FINITE, min_size=2, max_size=2) | _NUMBERS
_TIMES = st.sampled_from([0, 0.1, 0.25, 0.5, 1.0])
# grid bounds near the float maximum, whose spans overflow
_EXTREMES = st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, -1.7e308])


def _matrices(dim):
    return st.lists(st.lists(_ENTRIES, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


def _diagonal(entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def _custom_values(dim):
    """Strategies for the custom keys, for a model of dimension ``dim``."""
    names = ["identity", "sigma_plus", "sigma_minus", "x"] if dim == 2 else ["identity"]
    operators = st.sampled_from(names) | _matrices(dim)
    hamiltonians = st.lists(_NUMBERS, min_size=dim, max_size=dim).map(_diagonal) | _matrices(dim)
    models = st.fixed_dictionaries(
        {"hamiltonian": hamiltonians, "lindblads": st.lists(_matrices(dim), min_size=1, max_size=2)}
    )
    if dim == 2:
        builders = st.fixed_dictionaries({"builder": st.just("decay")}) | st.fixed_dictionaries(
            {"builder": st.sampled_from(["driven_decay", "x"])}, optional={"omega": _NUMBERS}
        )
        models = builders | models
    grids = (
        st.lists(_TIMES, min_size=1, max_size=4, unique=True).map(sorted)
        | st.fixed_dictionaries({"start": _TIMES, "stop": _TIMES, "num": st.integers(-2, 50)})
        | st.fixed_dictionaries({"start": _NUMBERS, "stop": _NUMBERS, "num": st.integers(-2, 50)})
        | st.fixed_dictionaries(
            {"start": _TIMES | _EXTREMES, "stop": _EXTREMES, "num": st.integers(-2, 50)}
        )
        | st.lists(_NUMBERS, min_size=1, max_size=4)
    )
    # a vector of the model's dimension with a nonzero first entry, or any list
    vectors = st.tuples(
        st.sampled_from([1, -0.5, [0, 1], 1e-300, 1e308]),
        st.lists(_ENTRIES, min_size=dim - 1, max_size=dim - 1),
    ).map(lambda parts: [parts[0], *parts[1]]) | st.lists(_ENTRIES, max_size=3)
    return {
        "model": models, "observable": operators, "perturbation": operators,
        "bra": vectors, "ket": vectors, "t_grid": grids, "tau_grid": grids,
        "warmup": _TIMES | _NUMBERS,
    }


def _arrays(value):
    """Every array of numbers held by a validated config value."""
    if isinstance(value, (np.ndarray, list, float, int)):
        yield np.asarray(value, dtype=float if isinstance(value, list) else None)
    elif isinstance(value, Ket):
        yield value.amplitudes
    elif isinstance(value, Operator):
        yield value.matrix
    elif isinstance(value, LindbladModel):
        yield value.hamiltonian.matrix
        yield from (op.matrix for op in value.lindblads)


@pytest.mark.parametrize(
    "case",
    ["decay-element", "fluorescence-g1", "gisin-compare", "benchmark",
     "custom:element", "custom:correlation"],
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validate_returns_errors_and_never_raises(case, data):
    scenario, _, mode = case.partition(":")
    keys = sorted(cli._config_keys(scenario) - {"scenario"})
    if mode:
        # model, observable and the mode's keys, mostly well-formed, with at
        # most one change: one of them left out, one other key added, or one
        # value drawn from any JSON value instead
        values = _custom_values(data.draw(st.sampled_from([2, 1, 3])))
        cfg = {"mode": mode}
        mode_keys = [key for key, row in cli.SCHEMAS["custom"].items() if row.mode == mode]
        for key in ["model", "observable", *mode_keys]:
            cfg[key] = data.draw(values[key])
        change = data.draw(st.sampled_from([None, "drop", "add", "odd"]))
        if change is not None:
            key = data.draw(st.sampled_from(keys))
            cfg.pop(key, None)
            if change != "drop":
                cfg[key] = data.draw(_JSON_VALUES)
    else:
        # any JSON values, and grid bounds near the float maximum
        values = {
            key: _JSON_VALUES | _EXTREMES if key.endswith(("_start", "_stop")) else _JSON_VALUES
            for key in keys
        }
        cfg = data.draw(st.fixed_dictionaries({}, optional=values))
    config, errors = cli.validate(json.dumps({"scenario": scenario, **cfg}))
    assert (config is None) == bool(errors)
    assert all(isinstance(line, str) for line in errors)
    if config is not None:
        held = [config.dt, *config.params.values()]
        assert all(np.all(np.isfinite(a)) for v in held for a in _arrays(v)), config


def test_overrides_win_over_file_values():
    text = '{"scenario": "decay-element", "seed": 1, "n": 50}'
    config, errors = cli.validate(text, {"seed": 9, "n": None})
    assert errors == []
    assert config.seed == 9
    assert config.params["n"] == 50  # None override leaves the file value


def run_main(argv):
    return cli.main(argv)


def test_decay_element_run_and_reference(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="decay-element",
        n=4,
        dt=0.01,
        t_start=0.5,
        t_stop=1.5,
        t_nodes=3,
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    results = read_series(out / "results.csv")
    reference = read_series(out / "reference.csv")
    assert results.shape == (3, 4)
    grid = reference[:, 0]
    assert np.allclose(grid, [0.5, 1.0, 1.5])
    # the oracle column must agree with the closed-form decay element
    analytic = np.exp(-grid / 2) / np.sqrt(2)
    assert np.allclose(reference[:, 1], analytic, atol=1e-8)
    assert np.allclose(reference[:, 2], 0.0)
    assert np.allclose(reference[:, 3], 0.0)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario"] == "decay-element"
    assert meta["n"] == 4
    assert meta["wall_time_seconds"] > 0


def test_results_are_identical_across_reruns(tmp_path):
    base = dict(
        scenario="decay-element",
        n=6,
        dt=0.01,
        t_start=0.5,
        t_stop=1.0,
        t_nodes=2,
        seed=11,
    )
    outputs = []
    for label in ("a", "b", "c"):
        out = tmp_path / label
        path = make_config(tmp_path, f"{label}.json", out=str(out), **base)
        assert run_main(["--config", str(path)]) == 0
        outputs.append(out)
    first = (outputs[0] / "results.csv").read_bytes()
    for out in outputs[1:]:
        assert (out / "results.csv").read_bytes() == first
        assert (out / "reference.csv").read_bytes() == (outputs[0] / "reference.csv").read_bytes()


def test_fluorescence_run(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="fluorescence-g1",
        n=4,
        dt=0.01,
        omega=2.0,
        warmup=0.5,
        tau_stop=0.4,
        tau_nodes=3,
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    results = read_series(out / "results.csv")
    assert results.shape == (3, 4)
    assert (out / "reference.csv").exists()
    assert (out / "metadata.json").exists()


def test_gisin_compare_run(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="gisin-compare",
        n=4,
        dt=0.01,
        h_list=[0.01],
        t_start=0.1,
        t_stop=0.2,
        t_nodes=2,
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    for name in (
        "gisin-h0.01.csv",
        "instability-h0.01.json",
        "results.csv",
        "reference.csv",
        "metadata.json",
    ):
        assert (out / name).exists(), name
    report = json.loads((out / "instability-h0.01.json").read_text())
    assert report["n_trajectories"] == 4
    assert report["variant"] == "quasi_linear"
    meta = json.loads((out / "metadata.json").read_text())
    assert "runs" in meta and "0.01" in meta["runs"]


def test_benchmark_run_schema(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="benchmark",
        dt=0.01,
        omega=2.0,
        warmup=0.2,
        tau_stop=0.2,
        tau_nodes=3,
        n_list=[4, 8],
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    lines = (out / "benchmark.csv").read_text().strip().split("\n")
    assert lines[0] == "method,n,rms_relative_error,est_std,wall_time_seconds,draws_total"
    assert len(lines) == 1 + 2 * 2  # two methods times two ensemble sizes
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"qsd", "jump"}
    meta = json.loads((out / "metadata.json").read_text())
    assert set(meta["closest_to_3pct"]) == {"qsd", "jump"}


def test_custom_element_run(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="custom",
        n=4,
        dt=0.01,
        model={"builder": "decay"},
        observable="sigma_plus",
        bra=[0, 1],
        ket=[1, 1],
        t_grid={"start": 0.2, "stop": 0.4, "num": 2},
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    results = read_series(out / "results.csv")
    assert results.shape == (2, 4)


def test_metadata_writes_matrices_one_row_per_line(tmp_path):
    out = tmp_path / "out"
    dim = 6
    lowering = [[math.sqrt(j) if j == i + 1 else 0.0 for j in range(dim)] for i in range(dim)]
    hamiltonian = [[[0.0, 0.5 * (i - j)] if i != j else float(i) for j in range(dim)]
                   for i in range(dim)]
    path = make_config(
        tmp_path, scenario="custom", n=4, dt=0.01,
        model={"hamiltonian": hamiltonian, "lindblads": [lowering]},
        observable=lowering, bra=[1] + [0] * (dim - 1), ket=[1, 1] + [0] * (dim - 2),
        t_grid={"start": 0.0, "stop": 0.1, "num": 2}, out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    text = (out / "metadata.json").read_text()
    meta = json.loads(text)
    config, errors = cli.validate(path.read_text())
    assert errors == []
    # the same data as the indented layout, which took one line per number
    payload = {**meta, "effective_config": config.params}
    indented = json.dumps(payload, indent=2, sort_keys=True, default=cli._json_default)
    assert json.loads(indented) == meta
    assert list(meta) == sorted(meta)
    # every row of a complex matrix is one line
    lines = {line.strip().rstrip(",") for line in text.splitlines()}
    for row in meta["effective_config"]["model"]["hamiltonian"]:
        assert json.dumps(row) in lines
    assert meta["effective_config"]["model"]["hamiltonian"][1][0] == [0.0, 0.5]
    assert len(text.splitlines()) < len(indented.splitlines()) / 10


def test_json_text_matches_the_indented_layout_when_parsed():
    value = {"b": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]], "a": {},
             "c": [{"z": 1, "y": [1, [2, [3]]]}, [], "s"], "d": [[1, 2], [3, 4]]}
    text = cli._json_text(value)
    assert json.loads(text) == value
    assert text.splitlines() == [
        "{",
        '  "a": {},',
        '  "b": [',
        "    [[1.0, 2.0], [3.0, 4.0]],",
        "    [[5.0, 6.0], [7.0, 8.0]]",
        "  ],",
        '  "c": [',
        "    {",
        '      "y": [',
        "        1,",
        "        [2, [3]]",
        "      ],",
        '      "z": 1',
        "    },",
        "    [],",
        '    "s"',
        "  ],",
        '  "d": [[1, 2], [3, 4]]',
        "}",
    ]


@pytest.mark.parametrize("scenario,unraveling", [
    ("decay-element", "jump"), ("decay-element", "qsd"), ("fluorescence-g1", "jump"),
])
def test_metadata_reports_oracle_agreement(tmp_path, scenario, unraveling):
    out = tmp_path / "out"
    grid = ({"t_start": 0.0, "t_stop": 1.0, "t_nodes": 5} if scenario == "decay-element"
            else {"warmup": 1.0, "tau_start": 0.0, "tau_stop": 0.5, "tau_nodes": 6})
    path = make_config(tmp_path, scenario=scenario, unraveling=unraveling, n=200,
                       dt=0.01, seed=3, out=str(out), **grid)
    assert run_main(["--config", str(path)]) == 0
    results = read_series(out / "results.csv")
    reference = read_series(out / "reference.csv")
    gap = np.abs((results[:, 1] - reference[:, 1]) + 1j * (results[:, 2] - reference[:, 2]))
    se = results[:, 3]
    noisy = se >= 1e-12
    # the t = 0 node of an element run is exact in every trajectory
    assert noisy.sum() == (4 if scenario == "decay-element" else 6)
    agreement = json.loads((out / "metadata.json").read_text())["oracle_agreement"]
    assert agreement["max_abs_z"] == pytest.approx((gap[noisy] / se[noisy]).max(), rel=1e-12)
    within = np.where(noisy, gap < 3 * se, gap <= 1e-9)
    assert agreement["within_3sigma_frac"] == within.mean()
    ref_norm = np.sqrt(np.sum(reference[:, 1] ** 2 + reference[:, 2] ** 2))
    assert agreement["rms_relative_error"] == pytest.approx(
        np.sqrt(np.sum(gap**2)) / ref_norm, rel=1e-12
    )
    assert agreement["within_3sigma_frac"] >= 0.8


def test_custom_correlation_run(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="custom",
        mode="correlation",
        n=4,
        dt=0.01,
        model={"builder": "driven_decay", "omega": 2.0},
        observable="sigma_plus",
        perturbation="sigma_minus",
        warmup=0.3,
        tau_grid=[0.0, 0.1, 0.2],
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 0
    results = read_series(out / "results.csv")
    assert results.shape == (3, 4)


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_main(["--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = make_config(tmp_path, scenario="decay-element", dt=0)
    assert run_main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dt" in err
    assert not (tmp_path / "out-decay-element").exists()


def test_workers_flag_exits_2(tmp_path):
    out = tmp_path / "out"
    path = make_config(tmp_path, scenario="decay-element", n=4, out=str(out))
    with pytest.raises(SystemExit) as exc:
        run_main(["--config", str(path), "--workers", "2"])
    assert exc.value.code == 2
    assert not out.exists()


def test_uncreatable_out_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    # the directory is a file, or lies under one
    for out in (afile, afile / "sub"):
        path = make_config(tmp_path, scenario="decay-element", n=2, dt=0.1, t_start=0.1,
                           t_stop=0.2, t_nodes=2, out=str(out))
        assert run_main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: out: cannot create output directory {out}" in err, err
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_version_is_computed_once_per_process(tmp_path, monkeypatch):
    calls = []

    def fake_run(*args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="v-test\n", stderr="")

    # the package appears to run from a git checkout, whatever this one is
    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "cli.py"))
    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    cli._version_string.cache_clear()
    try:
        for name in ("a", "b"):
            path = make_config(
                tmp_path, name=f"{name}.json", scenario="decay-element", n=2, dt=0.1,
                t_start=0.1, t_stop=0.2, t_nodes=2, out=str(tmp_path / name),
            )
            config, errors = cli.validate(path.read_text())
            assert errors == []
            assert cli.run(config) == 0
            meta = json.loads((tmp_path / name / "metadata.json").read_text())
            assert meta["version"] == "v-test"
    finally:
        cli._version_string.cache_clear()
    assert len(calls) == 1


def test_version_falls_back_when_git_describe_times_out(tmp_path, monkeypatch):
    def slow_run(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs.get("timeout"))

    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "cli.py"))
    monkeypatch.setattr(cli.subprocess, "run", slow_run)
    cli._version_string.cache_clear()
    try:
        path = make_config(tmp_path, scenario="decay-element", n=2, dt=0.1, t_start=0.1,
                           t_stop=0.2, t_nodes=2, out=str(tmp_path / "out"))
        config, errors = cli.validate(path.read_text())
        assert errors == []
        assert cli.run(config) == 0
    finally:
        cli._version_string.cache_clear()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["version"] == qsdsim.__version__


def test_command_line_overrides_reach_metadata(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="decay-element",
        n=50,
        dt=0.01,
        t_start=0.5,
        t_stop=1.0,
        t_nodes=2,
    )
    argv = ["--config", str(path), "--n", "4", "--seed", "7", "--out", str(out)]
    assert run_main(argv) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["n"] == 4
    assert meta["seed"] == 7


def test_jump_instability_exits_3(tmp_path, capsys):
    # H = 1e300 sigma_x validates (the generator is finite), but no
    # propagator exp(dt G) can be computed for it in floating point
    out = tmp_path / "out"
    model = {"hamiltonian": [[0, 1e300], [1e300, 0]], "lindblads": [[[0, 1], [0, 0]]]}
    path = make_config(
        tmp_path,
        scenario="custom",
        unraveling="jump",
        n=2,
        dt=0.5,
        model=model,
        observable="sigma_plus",
        bra=[0, 1],
        ket=[1, 1],
        t_grid=[0.5, 1.0],
        out=str(out),
    )
    assert run_main(["--config", str(path)]) == 3
    assert "numerical instability" in capsys.readouterr().err
    report = json.loads((out / "instability-report.json").read_text())
    assert report["scenario"] == "custom"
    assert "exp(dt G)" in report["error"]
    assert report["dt"] == 0.5
    assert 0 <= named_trajectory(report["error"]) < 2
    assert not (out / "metadata.json").exists()


def named_trajectory(text):
    match = re.search(r"trajectory (\d+)", text)
    assert match, text
    return int(match.group(1))


def test_instability_errors_name_the_trajectory(tmp_path):
    # L = 1e150 sigma_minus validates (L^dag L = 1e300 is finite), but the
    # first step overflows the state norm
    out = tmp_path / "out"
    model = {"hamiltonian": [[0, 0], [0, 0]], "lindblads": [[[0, 1e150], [0, 0]]]}
    path = make_config(tmp_path, scenario="custom", n=4, dt=0.01, model=model,
                       observable="sigma_plus", bra=[0, 1], ket=[1, 1], t_grid=[0.5],
                       out=str(out))
    config, errors = cli.validate(path.read_text())
    assert errors == []
    p = config.params
    with pytest.raises(EnsembleError) as info:
        heisenberg_element(p["observable"], p["bra"], p["ket"], p["model"], p["t_grid"],
                           p["n"], SdeConfig(dt=config.dt), config.seed)
    assert 0 <= named_trajectory(str(info.value)) < 4
    assert run_main(["--config", str(path)]) == 3
    report = json.loads((out / "instability-report.json").read_text())
    assert 0 <= named_trajectory(report["error"]) < 4


# L = 1e150 sigma_minus overflows the state norm at the first step: exit 3
_UNSTABLE = dict(scenario="custom", n=4, model={"hamiltonian": [[0, 0], [0, 0]],
                                                "lindblads": [[[0, 1e150], [0, 0]]]},
                 observable="sigma_plus", bra=[0, 1], ket=[1, 1], t_grid=[0.5])


def run_into(tmp_path, out, **cfg):
    """Exit code of one run of ``cfg`` into ``out``, and the names left there."""
    path = make_config(tmp_path, dt=0.01, out=str(out), **cfg)
    code = run_main(["--config", str(path)])
    return code, sorted(p.name for p in out.iterdir())


def test_a_run_clears_what_an_earlier_run_left(tmp_path):
    out = tmp_path / "out"
    element = dict(scenario="decay-element", **_SMALL_RUNS["decay-element"])
    estimate = ["metadata.json", "reference.csv", "results.csv"]
    assert run_into(tmp_path, out, **element) == (0, estimate)
    # a failed run leaves only its report, not the results it replaced
    assert run_into(tmp_path, out, **_UNSTABLE) == (3, ["instability-report.json"])
    # and a later successful run leaves no stale report
    assert run_into(tmp_path, out, **element) == (0, estimate)
    gisin = dict(scenario="gisin-compare", **_SMALL_RUNS["gisin-compare"])
    assert run_into(tmp_path, out, **gisin) == (
        0, ["gisin-h0.01.csv", "instability-h0.01.json", *estimate])
    assert run_into(tmp_path, out, **element) == (0, estimate)
    benchmark = dict(scenario="benchmark", **_SMALL_RUNS["benchmark"])
    assert run_into(tmp_path, out, **benchmark) == (
        0, ["benchmark.csv", "metadata.json", "reference.csv"])
    assert run_into(tmp_path, out, **element) == (0, estimate)


def test_a_run_keeps_every_other_file_in_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    mine = ["gisin-h.json", "notes.txt", "results.csv.bak", "sub"]
    for name in mine[:-1]:
        (out / name).write_text("mine\n")
    (out / "sub").mkdir()
    (out / "sub" / "results.csv").write_text("mine\n")
    gisin = dict(scenario="gisin-compare", **_SMALL_RUNS["gisin-compare"])
    assert run_into(tmp_path, out, **gisin)[0] == 0
    code, names = run_into(tmp_path, out, **_UNSTABLE)
    assert code == 3
    assert names == sorted(["instability-report.json", *mine])
    for name in mine[:-1]:
        assert (out / name).read_text() == "mine\n"
    assert (out / "sub" / "results.csv").read_text() == "mine\n"


def test_a_failure_that_is_no_instability_exits_1(tmp_path, monkeypatch, capsys):
    def spawn(seed, lo, hi):
        raise MemoryError("no room for the streams")

    monkeypatch.setattr(noise, "spawn", spawn)
    out = tmp_path / "out"
    element = dict(scenario="decay-element", **_SMALL_RUNS["decay-element"])
    assert run_into(tmp_path, out, **element) == (1, [])
    err = capsys.readouterr().err
    assert "run failed: ensemble execution failed for trajectories [0, 4): MemoryError" in err
    assert "instability" not in err


def test_an_instability_in_a_split_run_reaps_the_chunk_worker(tmp_path, splits):
    out = tmp_path / "out"
    unstable = {**_UNSTABLE, "n": 200}
    assert run_into(tmp_path, out, **unstable) == (3, ["instability-report.json"])
    assert splits
    report = json.loads((out / "instability-report.json").read_text())
    assert report["error"].endswith("non-finite state norm after step 1 (first at trajectory 0)")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_chunk_worker_exits_1(tmp_path, splits, monkeypatch, capsys):
    in_chunk_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "out"
    element = dict(scenario="decay-element", **{**_SMALL_RUNS["decay-element"], "n": 200})
    assert run_into(tmp_path, out, **element) == (1, [])
    assert splits
    err = capsys.readouterr().err
    assert ("run failed: ensemble execution failed for trajectories [0, 200): RuntimeError: "
            "chunk worker exited (exit code -9) without its result") in err, err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_pair_worker_exits_1(tmp_path, splits, monkeypatch, capsys):
    in_chunk_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "out"
    gisin = dict(scenario="gisin-compare", **{**_SMALL_RUNS["gisin-compare"], "n": 200})
    assert run_into(tmp_path, out, **gisin) == (1, [])
    assert splits
    err = capsys.readouterr().err
    assert "run failed: chunk worker exited (exit code -9) without its result" in err, err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("scenario,message", [
    ("gisin-compare", "run failed: no room for a block\n"),
    ("decay-element", "run failed: ensemble execution failed for trajectories [0, 200): "
                      "MemoryError: no room for a block\n"),
])
def test_a_worker_that_raises_exits_1(tmp_path, splits, monkeypatch, capsys, scenario, message):
    def fail():
        raise MemoryError("no room for a block")

    in_chunk_worker(monkeypatch, fail)
    out = tmp_path / "out"
    config = dict(scenario=scenario, **{**_SMALL_RUNS[scenario], "n": 200})
    assert run_into(tmp_path, out, **config) == (1, [])
    assert splits
    assert capsys.readouterr().err.endswith(message)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("scenario", ["fluorescence-g1", "gisin-compare", "decay-element"])
def test_a_split_run_writes_the_same_bytes(tmp_path, monkeypatch, splits, scenario):
    out = tmp_path / "out"
    path = make_config(tmp_path, scenario=scenario, out=str(out),
                       **{**_SMALL_RUNS[scenario], "n": 200})

    def outputs():
        """Every output file's bytes, metadata.json's without its wall-time
        line; the draw counts stay."""
        assert run_main(["--config", str(path)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        lines = files["metadata.json"].splitlines()
        files["metadata.json"] = [line for line in lines if b'"wall_time_seconds"' not in line]
        assert len(files["metadata.json"]) == len(lines) - 1
        return files

    split = outputs()
    forked = len(splits)
    assert forked
    monkeypatch.setattr(noise, "_SPLIT_GATE", math.inf)
    assert outputs() == split
    assert len(splits) == forked


def test_an_uncleared_output_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "results.csv").mkdir(parents=True)  # a directory in the way
    element = dict(scenario="decay-element", **_SMALL_RUNS["decay-element"])
    assert run_into(tmp_path, out, **element) == (2, ["results.csv"])
    err = capsys.readouterr().err
    assert f"config error: out: cannot clear output directory {out}" in err, err


def test_overflowing_custom_vector_runs_as_a_unit_ket(tmp_path):
    out = tmp_path / "out"
    path = make_config(tmp_path, scenario="custom", n=4, dt=0.01,
                       model={"builder": "decay"}, observable="sigma_plus",
                       bra=[[1e308, 1e308], 1e308], ket=[1, 1], t_grid=[0.5], out=str(out))
    config, errors = cli.validate(path.read_text())
    assert errors == []
    bra = config.params["bra"].amplitudes
    assert np.linalg.norm(bra) == pytest.approx(1.0)
    assert np.allclose(bra, np.array([1 + 1j, 1]) / np.sqrt(3))
    assert run_main(["--config", str(path)]) == 0
    assert read_series(out / "results.csv").shape == (1, 4)


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    path = make_config(
        tmp_path,
        scenario="decay-element",
        n=2,
        dt=0.01,
        t_start=0.5,
        t_stop=1.0,
        t_nodes=2,
        out=str(out),
    )
    # run from the directory that holds the package, so the child imports the
    # same qsdsim whether or not it is installed or on PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "qsdsim", "--config", str(path)],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").exists()
