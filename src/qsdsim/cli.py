"""Scenario-driven command line for trajectory simulations.

A run is described by a JSON config file naming a scenario plus its
parameters; command-line flags override individual keys.  Every scenario
writes a results CSV (``grid,mean_re,mean_im,std_error``), a reference CSV
computed by the deterministic oracle on the same grid, and a metadata JSON
echoing the effective configuration; for an element or correlation estimate
it also records how far results sit from the reference.  Outputs are
byte-identical for identical (config, seed) across reruns, except for the
files that record wall-clock timings (metadata.json, benchmark.csv).  A run
first deletes from its output directory the files an earlier run may have
left there, and nothing else.

Each scenario's keys, defaults and parsers are one table in ``SCHEMAS``.
Each estimate shape (matrix element, two-time correlation) has one run path.

Exit codes: 0 success, 1 any other failure of a run (an error that is not
a numerical instability, such as a failed allocation or a chunk worker
that died; no instability report is written), 2 configuration error,
3 numerical instability (an ``InstabilityError``, raised directly or by a
trajectory chunk; ``instability-report.json`` is written).
"""

import argparse
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .correlations import correlate, heisenberg_element
from .diffusion import SdeConfig
from .ensemble import EnsembleError, benchmark_sweep, relative_rms_error
from .errors import InstabilityError
from .gisin import instability_report, run_coupled_ensemble
from .hilbert import (
    Ket,
    LindbladModel,
    Operator,
    basis_ket,
    decay_model,
    driven_decay_model,
    sigma_minus,
    sigma_plus,
)
from .master import regression_matrix_element, two_time_correlation
from .noise import grid_steps

__all__ = ["RunConfig", "validate", "run", "main"]

UNRAVELINGS = ("qsd", "jump")
# the SdeConfig scheme each unraveling runs
_SCHEME = {"qsd": "normalized", "jump": "jump"}

_NAMED_OPERATORS = {
    "sigma_plus": sigma_plus,
    "sigma_minus": sigma_minus,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted description of one CLI run."""

    scenario: str
    seed: int
    dt: float
    out_dir: Path
    params: dict


# A parser is parse(value, key, errors): the parsed value, or None after
# appending an error that names ``key``.

def _as_positive_int(value, key: str, errors: list, minimum: int = 1):
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{key}: expected a positive integer, got {value!r}")
        return None
    if value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return None
    return value


def _as_seed(value, key: str, errors: list):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        errors.append(f"{key}: expected a non-negative integer, got {value!r}")
        return None
    return value


def _as_finite_float(value, key: str, errors: list, kind: str = "number"):
    """``value`` as a finite float, or None after appending an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{key}: expected a {kind}, got {value!r}")
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        errors.append(f"{key}: must be a finite number, got {value}")
        return None
    return number


def _as_positive_float(value, key: str, errors: list):
    number = _as_finite_float(value, key, errors, "positive number")
    if number is not None and number <= 0:
        errors.append(f"{key}: must be positive, got {value}")
        number = None
    return number


def _as_nonnegative_float(value, key: str, errors: list):
    number = _as_finite_float(value, key, errors, "non-negative number")
    if number is not None and number < 0:
        errors.append(f"{key}: must be >= 0, got {value}")
        number = None
    return number


def _as_out_dir(value, key: str, errors: list):
    if not isinstance(value, str):
        errors.append(f"{key}: expected a directory path string, got {value!r}")
        return None
    return Path(value)


def _choice(options: tuple, listing: str = ""):
    """Parser for one of ``options``, which errors list as ``listing``."""
    listing = listing or " or ".join(map(repr, options))

    def parse(value, key: str, errors: list):
        if value in options:
            return value
        errors.append(f"{key}: expected {listing}, got {value!r}")
        return None
    return parse


def _list_of(parse, what: str):
    """Parser for a non-empty list of items that ``parse`` reads."""
    def parse_list(value, key: str, errors: list):
        if not isinstance(value, list) or not value:
            errors.append(f"{key}: expected a non-empty list of {what}")
            return None
        items = [parse(item, key, errors) for item in value]
        return None if None in items else items
    return parse_list


def _span(values, keys, errors: list):
    """(start, stop, num, num key) of a linspace grid from config values."""
    parsers = (_as_finite_float, _as_finite_float, _as_positive_int)
    parts = [parse(v, k, errors) for parse, v, k in zip(parsers, values, keys)]
    return None if None in parts else (*parts, keys[2])


class _Linspace(NamedTuple):
    """Row kind for a grid from <prefix>_start, _stop and _nodes, defaulting
    to the row's (start, stop, nodes); a ``fixed_start`` has no key."""

    prefix: str
    fixed_start: bool = False

    @property
    def keys(self) -> tuple:
        parts = ("stop", "nodes") if self.fixed_start else ("start", "stop", "nodes")
        return tuple(f"{self.prefix}_{part}" for part in parts)

    def read(self, cfg: dict, default: tuple, errors: list):
        keys = [f"{self.prefix}_{part}" for part in ("start", "stop", "nodes")]
        return _span([cfg.get(k, d) for k, d in zip(keys, default)], keys, errors)


def _parse_complex(value, key: str, errors: list):
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if isinstance(re, bool) or isinstance(im, bool) or not (
        isinstance(re, (int, float)) and isinstance(im, (int, float))
    ):
        errors.append(f"{key}: expected a number or [re, im] pair, got {value!r}")
        return None
    re, im = _as_finite_float(re, key, errors), _as_finite_float(im, key, errors)
    return None if re is None or im is None else complex(re, im)


def _parse_vector(value, key: str, errors: list):
    """A nonzero vector, as the unit ket along it."""
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty list")
        return None
    amplitudes = [_parse_complex(v, f"{key}[{i}]", errors) for i, v in enumerate(value)]
    if None in amplitudes:
        return None
    if not any(amplitudes):
        errors.append(f"{key}: must be a nonzero vector")
        return None
    return Ket(amplitudes).normalized()


def _parse_matrix(value, key: str, errors: list):
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty nested list")
        return None
    rows = []
    for r, row in enumerate(value):
        if not isinstance(row, list) or (rows and len(row) != len(rows[0])):
            errors.append(f"{key}: row {r} is not a list of consistent length")
            return None
        rows.append([_parse_complex(v, f"{key}[{r}]", errors) for v in row])
    return None if any(None in row for row in rows) else np.array(rows, dtype=complex)


def _parse_grid(value, key: str, errors: list):
    """A list of times, or a {start, stop, num} linspace object."""
    parts = ("start", "stop", "num")
    if isinstance(value, dict):
        if set(value) != set(parts):
            errors.append(f"{key}: grid object needs exactly start, stop, num")
            return None
        return _span([value[p] for p in parts], [f"{key}.{p}" for p in parts], errors)
    if isinstance(value, list) and value:
        times = [_as_finite_float(v, f"{key}[{i}]", errors) for i, v in enumerate(value)]
        return None if None in times else np.array(times)
    errors.append(f"{key}: expected a list of times or {{start, stop, num}}")
    return None


def _parse_model(value, key: str, errors: list):
    if not isinstance(value, dict):
        errors.append("model: expected an object")
        return None
    if "builder" in value:
        name = value.get("builder")
        extra = set(value) - {"builder", "omega"}
        if extra:
            errors.append(f"model: unknown keys {sorted(extra)} for a named builder")
            return None
        if name == "decay":
            if "omega" in value:
                errors.append("model: omega is not applicable to the decay builder")
                return None
            return decay_model()
        if name == "driven_decay":
            omega = _as_positive_float(value.get("omega", 10.0), "model.omega", errors)
            return None if omega is None else driven_decay_model(omega)
        errors.append(f"model.builder: unknown builder {name!r}")
        return None
    if not {"hamiltonian", "lindblads"} <= set(value):
        errors.append("model: needs builder or explicit hamiltonian + lindblads")
        return None
    extra = set(value) - {"hamiltonian", "lindblads"}
    if extra:
        errors.append(f"model: unknown keys {sorted(extra)}")
        return None
    n_errors = len(errors)
    h = _parse_matrix(value["hamiltonian"], "model.hamiltonian", errors)
    if not isinstance(value["lindblads"], list) or not value["lindblads"]:
        errors.append("model.lindblads: expected a non-empty list of matrices")
        return None
    ls = [
        _parse_matrix(m, f"model.lindblads[{j}]", errors)
        for j, m in enumerate(value["lindblads"])
    ]
    if len(errors) > n_errors:
        return None
    try:
        model = LindbladModel(Operator(h), tuple(Operator(m) for m in ls))
    except ValueError as err:
        errors.append(f"model: {err}")
        return None
    with np.errstate(all="ignore"):
        finite = bool(np.all(np.isfinite(model.generator())))
    if not finite:
        errors.append(
            "model: the generator -iH - (1/2) sum_j L_j^dag L_j overflows; "
            "scale the operators down"
        )
        return None
    return model


def _parse_operator(value, key: str, errors: list):
    """A matrix, or an operator name that is resolved once the model is known."""
    return value if isinstance(value, str) else _parse_matrix(value, key, errors)


def _sized_operator(op, key: str, dim: int, errors: list):
    """A parsed operator as an Operator on the model's dimension ``dim``."""
    if isinstance(op, np.ndarray):
        if op.shape == (dim, dim):
            return Operator(op)
        errors.append(f"{key}: shape {op.shape} does not match model dim {dim}")
    elif op == "identity":
        return Operator(np.eye(dim))
    elif op not in _NAMED_OPERATORS:
        errors.append(
            f"{key}: unknown operator name {op!r}; use a matrix or one of "
            f"{sorted(_NAMED_OPERATORS) + ['identity']}"
        )
    elif dim == 2:
        return _NAMED_OPERATORS[op]()
    else:
        errors.append(f"{key}: {op!r} is a 2-level operator, model dim is {dim}")
    return None


_REQUIRED = object()  # the default of a key that has none
_ensemble_size = partial(_as_positive_int, minimum=2)
_UNRAVELING = (_choice(UNRAVELINGS, f"one of {UNRAVELINGS}"), "qsd")
# the custom keys that only runs of one mode read
_MODE_KEYS = {
    "element": ("bra", "ket", "t_grid"),
    "correlation": ("perturbation", "warmup", "tau_grid"),
}

# each scenario's keys mapped to (parser, default), after those _schema
# adds; a parsed row becomes one RunConfig.params entry, and a config key
# that no row names is rejected, not ignored
SCHEMAS = {
    "decay-element": {
        "n": (_ensemble_size, 1000),
        "unraveling": _UNRAVELING,
        "t_grid": (_Linspace("t"), (0.1, 4.0, 40)),
    },
    "fluorescence-g1": {
        "n": (_ensemble_size, 10_000),
        "unraveling": _UNRAVELING,
        "omega": (_as_positive_float, 10.0),
        "warmup": (_as_nonnegative_float, 30.0),
        "tau_grid": (_Linspace("tau"), (0.0, 3.0, 61)),
    },
    "gisin-compare": {
        "n": (_ensemble_size, 10_000),
        "h_list": (_list_of(_as_positive_float, "step sizes"), [0.01, 0.001, 0.0001]),
        "t_grid": (_Linspace("t"), (0.1, 1.0, 10)),
    },
    "benchmark": {  # sized by n_list alone
        "omega": (_as_positive_float, 10.0),
        "warmup": (_as_nonnegative_float, 10.0),
        "n_list": (_list_of(_ensemble_size, "ensemble sizes"), [125, 250, 500, 1000, 2000]),
        "tau_grid": (_Linspace("tau", fixed_start=True), (0.0, 3.0, 16)),
    },
    "custom": {
        "n": (_ensemble_size, 1000),
        "unraveling": _UNRAVELING,
        "mode": (_choice(tuple(_MODE_KEYS)), "element"),
        "model": (_parse_model, _REQUIRED),
        "observable": (_parse_operator, _REQUIRED),
        "bra": (_parse_vector, _REQUIRED),
        "ket": (_parse_vector, _REQUIRED),
        "t_grid": (_parse_grid, _REQUIRED),
        "perturbation": (_parse_operator, _REQUIRED),
        "warmup": (_as_nonnegative_float, 30.0),
        "tau_grid": (_parse_grid, _REQUIRED),
    },
}
SCENARIOS = tuple(SCHEMAS)


def _schema(scenario: str) -> dict:
    """The scenario's table after the shared keys, which are RunConfig fields."""
    return {
        "dt": (_as_positive_float, 1e-3),
        "seed": (_as_seed, 0),
        "out": (_as_out_dir, f"out-{scenario}"),
        **SCHEMAS[scenario],
    }


def _config_keys(scenario: str) -> set:
    keys = {"scenario"}
    for name, (parse, _) in _schema(scenario).items():
        keys.update(parse.keys if isinstance(parse, _Linspace) else (name,))
    return keys


def _on_dt_grid(grid, dt, key: str, errors: list, label: str = "node"):
    """``grid``, a span laid out, checked on the dt grid unless None."""
    if grid is None or dt is None:
        return grid
    if isinstance(grid, tuple):
        start, stop, num, num_key = grid
        if num - 1 > abs(stop - start) / dt + 0.5:
            errors.append(
                f"{num_key}: {num} nodes do not fit on the dt={dt:g} grid "
                f"between {start:g} and {stop:g}"
            )
            return None
        grid = np.linspace(start, stop, num)
    try:
        grid_steps(grid, dt, label)
    except ValueError as err:
        errors.append(f"{key}: {err}")
    return grid


def _check_custom(cfg: dict, values: dict, errors: list):
    """The keys custom runs require or forbid; the operators and vectors."""
    for key in ("model", "observable"):
        if key not in cfg:
            errors.append(f"{key}: required for scenario 'custom'")
    mode = values["mode"]
    if mode is not None:
        other = "correlation" if mode == "element" else "element"
        for key in _MODE_KEYS[other]:
            values.pop(key, None)
            if key in cfg:
                errors.append(f"{key}: only applicable to {other} runs")
        for key in _MODE_KEYS[mode]:
            if key not in values:
                errors.append(f"{key}: required for custom {mode} runs")
    dim = None if values.get("model") is None else values["model"].dim
    for key in ("observable", "perturbation"):
        if dim is not None and values.get(key) is not None:
            values[key] = _sized_operator(values[key], key, dim, errors)
    for key in ("bra", "ket"):
        if dim is not None and values.get(key) is not None and values[key].dim != dim:
            errors.append(f"{key}: length {values[key].dim} does not match model dim {dim}")


def validate(text: str, overrides: "dict | None" = None):
    """Parse and normalize a config document.

    Returns (RunConfig, []) on success or (None, errors) where every entry
    names the offending field.  ``overrides`` (from command-line flags) are
    merged on top of the file content before validation.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        return None, [f"config is not valid JSON: {err}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    cfg = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}

    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        return None, [
            f"scenario: expected one of {', '.join(SCENARIOS)}, got {scenario!r}"
        ]
    errors = [
        f"{key}: not applicable to scenario '{scenario}'"
        for key in sorted(set(cfg) - _config_keys(scenario))
    ]
    if errors:
        return None, errors

    schema = _schema(scenario)
    values: dict = {}
    for name, (parse, default) in schema.items():
        if isinstance(parse, _Linspace):
            values[name] = parse.read(cfg, default, errors)
        elif name in cfg or default is not _REQUIRED:
            values[name] = parse(cfg.get(name, default), name, errors)

    # the checks that need dt or the model
    dt = values["dt"]
    if scenario == "custom":
        _check_custom(cfg, values, errors)
    for name, (parse, _) in schema.items():
        if name.endswith("_grid") and name in values:
            label = f"{parse.prefix} grid" if isinstance(parse, _Linspace) else name
            values[name] = _on_dt_grid(values[name], dt, label, errors)
    if values.get("warmup") is not None:
        _on_dt_grid([values["warmup"]], dt, "warmup", errors, "value")
    labels = {}
    for h in values.get("h_list") or ():
        _on_dt_grid(values["t_grid"], h, f"t grid (h={h:g})", errors)
        # each step size names its output files by this label
        label = f"{h:g}"
        if label in labels:
            errors.append(
                f"h_list: step sizes {labels[label]!r} and {h!r} share the output label '{label}'"
            )
        labels[label] = h

    if errors:
        return None, errors
    return RunConfig(
        scenario=scenario,
        seed=values.pop("seed"),
        dt=values.pop("dt"),
        out_dir=values.pop("out"),
        params=values,
    ), []


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest digit string that round-trips
    return repr(float(value))


def _write_series_csv(path: Path, grid, mean, std_error=None):
    """One row per node; an oracle series (no std_error) writes 0 errors."""
    lines = ["grid,mean_re,mean_im,std_error"]
    for k, (t, m) in enumerate(zip(grid, mean)):
        err = "0" if std_error is None else _fmt(std_error[k])
        lines.append(f"{_fmt(t)},{_fmt(m.real)},{_fmt(m.imag)},{err}")
    path.write_text("\n".join(lines) + "\n")


def _json_default(value):
    """JSON form of the arrays and qsdsim objects in params and summaries."""
    if isinstance(value, Ket):
        return value.amplitudes
    if isinstance(value, Operator):
        return value.matrix
    if isinstance(value, LindbladModel):
        return {"hamiltonian": value.hamiltonian, "lindblads": value.lindblads}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@cache
def _version_string() -> str:
    """``git describe`` of the checkout the package runs from, else the
    package version; a subprocess costs milliseconds, so once per process."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / ".git").exists():
            try:
                out = subprocess.run(
                    ["git", "describe", "--tags", "--always", "--dirty"],
                    cwd=parent, capture_output=True, text=True, timeout=5,
                )
                if out.returncode == 0 and out.stdout.strip():
                    return out.stdout.strip()
            except (OSError, subprocess.SubprocessError):
                pass
            break
    return __version__


def _holds_containers(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and any(isinstance(v, (list, dict)) for v in value)
    )


def _json_text(value, pad: str = "") -> str:
    """JSON text of plain data ``value``: a dict one key per line (sorted), a
    list one item per line while an item holds lists or dicts itself, so a
    complex matrix takes one line per row, and anything else on one line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [
            f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list) and any(_holds_containers(v) for v in value):
        items = [inner + _json_text(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def _write_metadata(path: Path, config: RunConfig, wall: float, extra: dict):
    payload = {
        "scenario": config.scenario,
        "seed": config.seed,
        "dt": config.dt,
        "version": _version_string(),
        "wall_time_seconds": wall,
        "effective_config": config.params,
        **extra,
    }
    # arrays become plain lists through the C encoder; the indented layout
    # of json.dumps would put every number of a matrix on its own line
    plain = json.loads(json.dumps(payload, default=_json_default))
    path.write_text(_json_text(plain) + "\n")


# <e| sigma_plus(t) |+> for the decaying two-level atom
_DECAY = {
    "model": decay_model(),
    "observable": sigma_plus(),
    "bra": basis_ket(2, 1),
    "ket": Ket(np.array([1.0, 1.0]) / np.sqrt(2)),
}


def _g1_preset(params: dict) -> dict:
    """<sigma_plus(tau) sigma_minus(0)> of the driven atom after the warmup."""
    return {
        **params,
        "model": driven_decay_model(params["omega"]),
        "observable": sigma_plus(),
        "perturbation": sigma_minus(),
    }


def _oracle_agreement(res, ref) -> dict:
    """How far the estimate sits from the oracle: the largest |z| over the
    nodes, the fraction of nodes within 3 sigma and the rms relative error
    (None for an identically zero reference).  A node whose standard error
    is below 1e-12 (every trajectory gives the same value, as at t = 0)
    agrees when it is within 1e-9 and has no z."""
    gap = np.abs(res.mean - ref)
    noisy = res.std_error >= 1e-12
    z = gap[noisy] / res.std_error[noisy]
    within = np.where(noisy, gap < 3.0 * res.std_error, gap <= 1e-9)
    try:
        rms = relative_rms_error(res.mean, ref)
    except ValueError:
        rms = None
    return {
        "max_abs_z": float(z.max()) if z.size else None,
        "within_3sigma_frac": float(within.mean()),
        "rms_relative_error": rms,
    }


def _results(config: RunConfig, grid, res, ref) -> dict:
    """Write the estimate to results.csv; the run summary, with the
    estimate's agreement with the oracle ``ref``."""
    _write_series_csv(config.out_dir / "results.csv", grid, res.mean, res.std_error)
    summary = {key: getattr(res, key) for key in ("n", "method", "draws_total", "extras")}
    return {**summary, "oracle_agreement": _oracle_agreement(res, ref)}


def _run_element(config: RunConfig, p: dict) -> dict:
    """<bra| A(t) |ket> on p["t_grid"] by the chosen unraveling."""
    problem = (p["observable"], p["bra"], p["ket"], p["model"], p["t_grid"])
    sde = SdeConfig(dt=config.dt, scheme=_SCHEME[p["unraveling"]])
    res = heisenberg_element(*problem, p["n"], sde, config.seed)
    ref = regression_matrix_element(*problem)
    _write_series_csv(config.out_dir / "reference.csv", p["t_grid"], ref)
    return _results(config, p["t_grid"], res, ref)


def _correlate(config: RunConfig, p: dict, unraveling: str, n: int, seed: int):
    """<A(t + tau) B(t)> on p["tau_grid"] from ``n`` trajectories, each
    prepared from a Haar-random start for t = p["warmup"]."""
    sde = SdeConfig(dt=config.dt, scheme=_SCHEME[unraveling])
    return correlate(
        p["observable"], p["perturbation"], p["model"], p["warmup"], p["tau_grid"],
        n, sde, seed,
    )


def _correlation_reference(config: RunConfig, p: dict):
    # the oracle starts from the steady state, which the warmup is meant to
    # reach; for short warmups it is only indicative
    ref = two_time_correlation(
        p["observable"], p["perturbation"], p["model"], t=0.0, tau_grid=p["tau_grid"]
    )
    _write_series_csv(config.out_dir / "reference.csv", p["tau_grid"], ref)
    return ref


def _run_correlation(config: RunConfig, p: dict) -> dict:
    res = _correlate(config, p, p["unraveling"], p["n"], config.seed)
    ref = _correlation_reference(config, p)
    return _results(config, p["tau_grid"], res, ref)


def _run_gisin_compare(config: RunConfig) -> dict:
    p = {**config.params, **_DECAY}
    runs = {}
    for h in p["h_list"]:
        res = run_coupled_ensemble(
            p["observable"], p["bra"], p["ket"], p["model"], p["t_grid"], dt=h,
            n=p["n"], seed=config.seed, variant="quasi_linear",
        )
        label = f"{h:g}"
        _write_series_csv(
            config.out_dir / f"gisin-h{label}.csv", p["t_grid"], res.mean, res.std_error
        )
        (config.out_dir / f"instability-h{label}.json").write_text(
            json.dumps(instability_report(res), indent=2, sort_keys=True) + "\n"
        )
        runs[label] = {
            "aborted": res.aborted,
            "overflowed": res.overflowed,
            "max_scalar_product_drift": res.max_scalar_drift,
            "draws_total": res.draws_total,
        }
    doubled = _run_element(config, {**p, "unraveling": "qsd"})
    return {"n": p["n"], "runs": runs, "doubled_draws_total": doubled["draws_total"]}


def _run_benchmark(config: RunConfig) -> dict:
    p = _g1_preset(config.params)
    ref = _correlation_reference(config, p)
    points = benchmark_sweep(
        partial(_correlate, config, p), ref, p["n_list"], UNRAVELINGS, config.seed
    )
    lines = ["method,n,rms_relative_error,est_std,wall_time_seconds,draws_total"]
    for pt in points:
        lines.append(
            f"{pt.method},{pt.n},{_fmt(pt.rms_relative_error)},{_fmt(pt.est_std)},"
            f"{_fmt(pt.wall_time_seconds)},{pt.draws_total}"
        )
    (config.out_dir / "benchmark.csv").write_text("\n".join(lines) + "\n")

    def closest_to_3pct(method: str) -> dict:
        pts = [pt for pt in points if pt.method == method]
        pt = min(pts, key=lambda pt: abs(pt.rms_relative_error - 0.03))
        return {"n": pt.n, "rms_relative_error": pt.rms_relative_error,
                "wall_time_seconds": pt.wall_time_seconds}

    return {
        "n_list": p["n_list"],
        "closest_to_3pct": {m: closest_to_3pct(m) for m in UNRAVELINGS},
    }


_RUNNERS = {
    "decay-element": lambda config: _run_element(config, {**config.params, **_DECAY}),
    "fluorescence-g1": lambda config: _run_correlation(config, _g1_preset(config.params)),
    "gisin-compare": _run_gisin_compare,
    "benchmark": _run_benchmark,
    "custom": lambda config: (
        _run_element if config.params["mode"] == "element" else _run_correlation
    )(config, config.params),
}


def _clear_outputs(out_dir: Path):
    """Delete the files an earlier run left in ``out_dir``; every other file
    stays."""
    for pattern in ("results.csv", "reference.csv", "metadata.json",
                    "instability-report.json", "benchmark.csv",
                    "gisin-h*.csv", "instability-h*.json"):
        for path in out_dir.glob(pattern):
            path.unlink()


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: out: cannot create output directory {config.out_dir}: {err}",
              file=sys.stderr)
        return 2
    try:
        _clear_outputs(config.out_dir)
    except OSError as err:
        print(f"config error: out: cannot clear output directory {config.out_dir}: {err}",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        extra = _RUNNERS[config.scenario](config)
    except (RuntimeError, OSError, MemoryError) as err:
        # EnsembleError and InstabilityError are RuntimeErrors
        cause = err.error if isinstance(err, EnsembleError) else err
        if not isinstance(cause, InstabilityError):
            print(f"run failed: {err}", file=sys.stderr)
            return 1
        report_path = config.out_dir / "instability-report.json"
        report_path.write_text(
            json.dumps(
                {"scenario": config.scenario, "error": str(err),
                 "seed": config.seed, "dt": config.dt},
                indent=2, sort_keys=True,
            ) + "\n"
        )
        print(f"numerical instability: {err}", file=sys.stderr)
        print(f"report written to {report_path}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    _write_metadata(config.out_dir / "metadata.json", config, wall, extra)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a named trajectory-simulation scenario from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--n", type=int, help="override the ensemble size")
    parser.add_argument("--dt", type=float, help="override the SDE step size")
    parser.add_argument(
        "--unraveling", choices=UNRAVELINGS, help="override the unraveling scheme"
    )
    parser.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    # every flag but --config overrides the config key of its name
    overrides = vars(_build_parser().parse_args(argv))
    path = Path(overrides.pop("config"))
    try:
        text = path.read_text()
    except OSError as err:
        print(f"cannot read config {path}: {err}", file=sys.stderr)
        return 2
    config, errors = validate(text, overrides)
    if config is None:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
