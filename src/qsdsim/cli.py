"""Scenario-driven command line for trajectory simulations.

A run is described by a JSON config file naming a scenario plus its
parameters; command-line flags override individual keys.  Every scenario
writes a results CSV (``grid,mean_re,mean_im,std_error``), a reference CSV
computed by the deterministic oracle on the same grid, and a metadata JSON
echoing the effective configuration.  Outputs are byte-identical for
identical (config, seed) regardless of worker count, except for the files
that record wall-clock timings (metadata.json, benchmark.csv).

Exit codes: 0 success, 2 configuration error, 3 numerical instability.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import CorrelationRequest, correlate, heisenberg_element
from .diffusion import SdeConfig
from .ensemble import EnsembleError, benchmark_sweep
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
from .jumps import jump_correlate, jump_matrix_element
from .master import regression_matrix_element, two_time_correlation
from .noise import grid_steps

__all__ = ["RunConfig", "validate", "run", "main"]

SCENARIOS = (
    "decay-element",
    "fluorescence-g1",
    "gisin-compare",
    "benchmark",
    "custom",
)
UNRAVELINGS = ("qsd", "jump")

# keys every scenario understands
_COMMON_KEYS = {"scenario", "dt", "seed", "workers", "out"}
# scenario-specific keys (n is deliberately absent for benchmark, which is
# sized by n_list; inapplicable keys are rejected, not ignored)
_SCENARIO_KEYS = {
    "decay-element": {"n", "unraveling", "h_ode", "t_start", "t_stop", "t_nodes"},
    "fluorescence-g1": {
        "n", "unraveling", "h_ode", "omega", "warmup",
        "tau_start", "tau_stop", "tau_nodes",
    },
    "gisin-compare": {"n", "h_list", "h_ode", "t_start", "t_stop", "t_nodes", "floor"},
    "benchmark": {
        "omega", "warmup", "h_ode", "tau_stop", "tau_nodes", "n_list",
    },
    "custom": {
        "n", "unraveling", "h_ode", "mode", "model", "observable",
        "bra", "ket", "t_grid", "perturbation", "t", "warmup", "initial",
        "tau_grid",
    },
}

_DEFAULTS = {
    "dt": 1e-3,
    "seed": 0,
    "workers": 1,
    "h_ode": 1e-3,
    "warmup": 30.0,
}

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
    workers: int
    out_dir: Path
    params: dict


def _as_positive_int(value, key: str, errors: list, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{key}: expected a positive integer, got {value!r}")
        return minimum
    if value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return minimum
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


def _as_positive_float(value, key: str, errors: list) -> float:
    number = _as_finite_float(value, key, errors, "positive number")
    if number is not None and number <= 0:
        errors.append(f"{key}: must be positive, got {value}")
        number = None
    return 1.0 if number is None else number


def _as_nonnegative_float(value, key: str, errors: list) -> float:
    number = _as_finite_float(value, key, errors, "non-negative number")
    if number is not None and number < 0:
        errors.append(f"{key}: must be >= 0, got {value}")
        number = None
    return 0.0 if number is None else number


def _check_grid(grid, dt, key: str, errors: list, label: str = "node"):
    """Append the grid rule's complaint about ``grid`` on the dt grid, if
    any; a grid or dt that already failed to parse (None) is skipped."""
    if grid is None or dt is None:
        return
    try:
        grid_steps(grid, dt, label)
    except ValueError as err:
        errors.append(f"{key}: {err}")


def _linspace(values, keys, dt, errors: list):
    """np.linspace(start, stop, num) from config values named by ``keys``,
    or None after appending errors.  A node count that cannot fit on the dt
    grid between start and stop is rejected before anything is allocated."""
    n_errors = len(errors)
    lo = _as_finite_float(values[0], keys[0], errors)
    hi = _as_finite_float(values[1], keys[1], errors)
    num = _as_positive_int(values[2], keys[2], errors)
    if len(errors) > n_errors or dt is None:
        return None
    if num - 1 > abs(hi - lo) / dt + 0.5:
        errors.append(
            f"{keys[2]}: {num} nodes do not fit on the dt={dt:g} grid "
            f"between {lo:g} and {hi:g}"
        )
        return None
    return np.linspace(lo, hi, num)


def _linspace_grid(cfg: dict, prefix: str, start: float, stop: float, num: int,
                   dt, errors: list):
    keys = [f"{prefix}_{part}" for part in ("start", "stop", "nodes")]
    values = [cfg.get(key, default) for key, default in zip(keys, (start, stop, num))]
    return _linspace(values, keys, dt, errors)


def _parse_complex(value, key: str, errors: list) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    errors.append(f"{key}: expected a number or [re, im] pair, got {value!r}")
    return 0j


def _parse_matrix(value, key: str, errors: list) -> np.ndarray:
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty nested list")
        return np.zeros((1, 1), dtype=complex)
    rows = []
    width = None
    for r, row in enumerate(value):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            errors.append(f"{key}: row {r} is not a list of consistent length")
            return np.zeros((1, 1), dtype=complex)
        width = len(row)
        rows.append([_parse_complex(v, f"{key}[{r}]", errors) for v in row])
    return np.array(rows, dtype=complex)


def _parse_vector(value, key: str, errors: list) -> np.ndarray:
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty list")
        return np.zeros(1, dtype=complex)
    return np.array(
        [_parse_complex(v, f"{key}[{i}]", errors) for i, v in enumerate(value)],
        dtype=complex,
    )


def _parse_grid_spec(value, key: str, dt, errors: list):
    parts = ("start", "stop", "num")
    if isinstance(value, dict):
        if set(value) != set(parts):
            errors.append(f"{key}: grid object needs exactly start, stop, num")
            return None
        return _linspace([value[p] for p in parts], [f"{key}.{p}" for p in parts],
                         dt, errors)
    if isinstance(value, list) and value:
        n_errors = len(errors)
        times = [_as_finite_float(v, f"{key}[{i}]", errors) for i, v in enumerate(value)]
        return None if len(errors) > n_errors else np.array(times)
    errors.append(f"{key}: expected a list of times or {{start, stop, num}}")
    return None


def _parse_model(value, errors: list):
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
            return driven_decay_model(omega)
        errors.append(f"model.builder: unknown builder {name!r}")
        return None
    if not {"hamiltonian", "lindblads"} <= set(value):
        errors.append("model: needs builder or explicit hamiltonian + lindblads")
        return None
    extra = set(value) - {"hamiltonian", "lindblads"}
    if extra:
        errors.append(f"model: unknown keys {sorted(extra)}")
        return None
    h = _parse_matrix(value["hamiltonian"], "model.hamiltonian", errors)
    if not isinstance(value["lindblads"], list) or not value["lindblads"]:
        errors.append("model.lindblads: expected a non-empty list of matrices")
        return None
    ls = [
        _parse_matrix(m, f"model.lindblads[{j}]", errors)
        for j, m in enumerate(value["lindblads"])
    ]
    if errors:
        return None
    try:
        return LindbladModel(Operator(h), tuple(Operator(m) for m in ls))
    except ValueError as err:
        errors.append(f"model: {err}")
        return None


def _parse_operator(value, key: str, dim: int, errors: list):
    if isinstance(value, str):
        if value == "identity":
            return Operator(np.eye(dim))
        maker = _NAMED_OPERATORS.get(value)
        if maker is None:
            errors.append(
                f"{key}: unknown operator name {value!r}; use a matrix or one of "
                f"{sorted(_NAMED_OPERATORS) + ['identity']}"
            )
            return None
        if dim != 2:
            errors.append(f"{key}: {value!r} is a 2-level operator, model dim is {dim}")
            return None
        return maker()
    mat = _parse_matrix(value, key, errors)
    if errors:
        return None
    if mat.shape != (dim, dim):
        errors.append(f"{key}: shape {mat.shape} does not match model dim {dim}")
        return None
    return Operator(mat)


def validate(text: str, overrides: "dict | None" = None):
    """Parse and normalize a config document.

    Returns (RunConfig, []) on success or (None, errors) where every entry
    names the offending field.  ``overrides`` (from command-line flags) are
    merged on top of the file content before validation.
    """
    errors: list = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        return None, [f"config is not valid JSON: {err}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    cfg = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value

    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        return None, [
            f"scenario: expected one of {', '.join(SCENARIOS)}, got {scenario!r}"
        ]
    allowed = _COMMON_KEYS | _SCENARIO_KEYS[scenario]
    for key in sorted(set(cfg) - allowed):
        errors.append(f"{key}: not applicable to scenario '{scenario}'")
    if errors:
        return None, errors

    n_errors = len(errors)
    dt = _as_positive_float(cfg.get("dt", _DEFAULTS["dt"]), "dt", errors)
    # grids are checked only against a dt that parsed
    grid_dt = dt if len(errors) == n_errors else None
    seed = cfg.get("seed", _DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        errors.append(f"seed: expected a non-negative integer, got {seed!r}")
        seed = 0
    workers = _as_positive_int(cfg.get("workers", _DEFAULTS["workers"]), "workers", errors)
    out = cfg.get("out", f"out-{scenario}")
    if not isinstance(out, str):
        errors.append(f"out: expected a directory path string, got {out!r}")
        out = f"out-{scenario}"
    out_dir = Path(out)
    params: dict = {"h_ode": _as_positive_float(
        cfg.get("h_ode", _DEFAULTS["h_ode"]), "h_ode", errors
    )} if "h_ode" in allowed else {}

    if "unraveling" in allowed:
        unraveling = cfg.get("unraveling", "qsd")
        if unraveling not in UNRAVELINGS:
            errors.append(
                f"unraveling: expected one of {UNRAVELINGS}, got {unraveling!r}"
            )
            unraveling = "qsd"
        params["unraveling"] = unraveling

    if scenario == "decay-element":
        params["n"] = _as_positive_int(cfg.get("n", 1000), "n", errors, minimum=2)
        grid = _linspace_grid(cfg, "t", 0.1, 4.0, 40, grid_dt, errors)
        _check_grid(grid, grid_dt, "t grid", errors)
        params["t_grid"] = grid
    elif scenario == "fluorescence-g1":
        params["n"] = _as_positive_int(cfg.get("n", 10_000), "n", errors, minimum=2)
        params["omega"] = _as_positive_float(cfg.get("omega", 10.0), "omega", errors)
        params["warmup"] = _as_nonnegative_float(
            cfg.get("warmup", _DEFAULTS["warmup"]), "warmup", errors
        )
        _check_grid([params["warmup"]], grid_dt, "warmup", errors, "value")
        grid = _linspace_grid(cfg, "tau", 0.0, 3.0, 61, grid_dt, errors)
        _check_grid(grid, grid_dt, "tau grid", errors)
        params["tau_grid"] = grid
    elif scenario == "gisin-compare":
        params["n"] = _as_positive_int(cfg.get("n", 10_000), "n", errors, minimum=2)
        h_list = cfg.get("h_list", [0.01, 0.001, 0.0001])
        if not isinstance(h_list, list) or not h_list:
            errors.append("h_list: expected a non-empty list of step sizes")
            h_list = [0.01]
        h_list = [_as_positive_float(h, "h_list", errors) for h in h_list]
        params["h_list"] = h_list
        params["floor"] = _as_positive_float(cfg.get("floor", 1e-12), "floor", errors)
        grid = _linspace_grid(cfg, "t", 0.1, 1.0, 10, grid_dt, errors)
        _check_grid(grid, grid_dt, "t grid", errors)
        for h in h_list:
            _check_grid(grid, h, f"t grid (h={h:g})", errors)
        params["t_grid"] = grid
    elif scenario == "benchmark":
        params["omega"] = _as_positive_float(cfg.get("omega", 10.0), "omega", errors)
        params["warmup"] = _as_nonnegative_float(
            cfg.get("warmup", 10.0), "warmup", errors
        )
        n_list = cfg.get("n_list", [125, 250, 500, 1000, 2000])
        if not isinstance(n_list, list) or not n_list:
            errors.append("n_list: expected a non-empty list of ensemble sizes")
            n_list = [100]
        params["n_list"] = [_as_positive_int(n, "n_list", errors, minimum=2) for n in n_list]
        _check_grid([params["warmup"]], grid_dt, "warmup", errors, "value")
        # tau_start is not a benchmark key, so the grid always starts at 0
        grid = _linspace_grid(cfg, "tau", 0.0, 3.0, 16, grid_dt, errors)
        _check_grid(grid, grid_dt, "tau grid", errors)
        params["tau_grid"] = grid
    else:  # custom
        params["n"] = _as_positive_int(cfg.get("n", 1000), "n", errors, minimum=2)
        mode = cfg.get("mode", "element")
        if mode not in ("element", "correlation"):
            errors.append(f"mode: expected 'element' or 'correlation', got {mode!r}")
            mode = "element"
        params["mode"] = mode
        if "model" not in cfg:
            errors.append("model: required for scenario 'custom'")
        model = _parse_model(cfg.get("model", {}), errors) if "model" in cfg else None
        params["model"] = model
        if model is not None and "observable" in cfg:
            params["observable"] = _parse_operator(
                cfg["observable"], "observable", model.dim, errors
            )
        elif "observable" not in cfg:
            errors.append("observable: required for scenario 'custom'")
        if mode == "element":
            for key in ("bra", "ket", "t_grid"):
                if key not in cfg:
                    errors.append(f"{key}: required for custom element runs")
            for key in ("perturbation", "t", "warmup", "initial", "tau_grid"):
                if key in cfg:
                    errors.append(f"{key}: only applicable to correlation runs")
            if not errors and model is not None:
                for key in ("bra", "ket"):
                    vec = _parse_vector(cfg[key], key, errors)
                    if not errors and vec.size != model.dim:
                        errors.append(
                            f"{key}: length {vec.size} does not match model dim {model.dim}"
                        )
                    elif not errors:
                        if np.linalg.norm(vec) == 0:
                            errors.append(f"{key}: must be a nonzero vector")
                        else:
                            params[key] = Ket(vec / np.linalg.norm(vec))
                grid = _parse_grid_spec(cfg["t_grid"], "t_grid", grid_dt, errors)
                _check_grid(grid, grid_dt, "t_grid", errors)
                params["t_grid"] = grid
        else:
            for key in ("perturbation", "tau_grid"):
                if key not in cfg:
                    errors.append(f"{key}: required for custom correlation runs")
            for key in ("bra", "ket", "t_grid"):
                if key in cfg:
                    errors.append(f"{key}: only applicable to element runs")
            if not errors and model is not None:
                params["perturbation"] = _parse_operator(
                    cfg["perturbation"], "perturbation", model.dim, errors
                )
                params["t"] = _as_nonnegative_float(cfg.get("t", 0.0), "t", errors)
                params["warmup"] = _as_nonnegative_float(
                    cfg.get("warmup", _DEFAULTS["warmup"]), "warmup", errors
                )
                initial = cfg.get("initial", "steady_state")
                if initial not in ("steady_state", "random_uniform"):
                    errors.append(
                        f"initial: expected 'steady_state' or 'random_uniform', got {initial!r}"
                    )
                params["initial"] = initial
                _check_grid([params["warmup"] + params["t"]], grid_dt, "warmup + t",
                            errors, "value")
                grid = _parse_grid_spec(cfg["tau_grid"], "tau_grid", grid_dt, errors)
                _check_grid(grid, grid_dt, "tau_grid", errors)
                params["tau_grid"] = grid

    if errors:
        return None, errors
    return RunConfig(
        scenario=scenario,
        seed=seed,
        dt=dt,
        workers=workers,
        out_dir=out_dir,
        params=params,
    ), []


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest digit string that round-trips
    return repr(float(value))


def _write_series_csv(path: Path, grid, mean, std_error):
    lines = ["grid,mean_re,mean_im,std_error"]
    for t, m, s in zip(grid, mean, std_error):
        lines.append(f"{_fmt(t)},{_fmt(m.real)},{_fmt(m.imag)},{_fmt(s)}")
    path.write_text("\n".join(lines) + "\n")


def _write_reference_csv(path: Path, grid, values):
    lines = ["grid,mean_re,mean_im,std_error"]
    for t, v in zip(grid, values):
        lines.append(f"{_fmt(t)},{_fmt(v.real)},{_fmt(v.imag)},0")
    path.write_text("\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Ket):
        return [_jsonable(v) for v in value.amplitudes]
    if isinstance(value, Operator):
        return [[_jsonable(v) for v in row] for row in value.matrix]
    if isinstance(value, LindbladModel):
        return {
            "hamiltonian": _jsonable(value.hamiltonian),
            "lindblads": [_jsonable(op) for op in value.lindblads],
        }
    return value


def _version_string() -> str:
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
            except OSError:
                pass
            break
    return __version__


def _write_metadata(path: Path, config: RunConfig, wall: float, extra: dict):
    payload = {
        "scenario": config.scenario,
        "seed": config.seed,
        "dt": config.dt,
        "workers": config.workers,
        "version": _version_string(),
        "wall_time_seconds": wall,
        "effective_config": _jsonable(config.params),
    }
    payload.update(_jsonable(extra))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _decay_problem():
    model = decay_model()
    bra = basis_ket(2, 1)
    ket = Ket(np.array([1.0, 1.0]) / np.sqrt(2))
    return model, sigma_plus(), bra, ket


def _run_decay_element(config: RunConfig) -> dict:
    model, obs, bra, ket = _decay_problem()
    p = config.params
    grid = p["t_grid"]
    sde = SdeConfig(dt=config.dt)
    if p["unraveling"] == "qsd":
        res = heisenberg_element(
            obs, bra, ket, model, grid, p["n"], sde, config.seed, workers=config.workers
        )
    else:
        res = jump_matrix_element(
            obs, bra, ket, model, grid, p["n"], config.dt, config.seed,
            workers=config.workers,
        )
    ref = regression_matrix_element(obs, bra, ket, model, grid, h_ode=p["h_ode"])
    _write_series_csv(config.out_dir / "results.csv", grid, res.mean, res.std_error)
    _write_reference_csv(config.out_dir / "reference.csv", grid, ref)
    return {
        "n": res.n,
        "method": res.method,
        "draws_total": res.draws_total,
        "extras": res.extras,
    }


def _run_fluorescence(config: RunConfig) -> dict:
    p = config.params
    model = driven_decay_model(p["omega"])
    request = CorrelationRequest(
        observable=sigma_plus(),
        perturbation=sigma_minus(),
        t=0.0,
        tau_grid=p["tau_grid"],
        n_trajectories=p["n"],
        sde=SdeConfig(dt=config.dt),
        initial="steady_state",
        warmup_time=p["warmup"],
    )
    if p["unraveling"] == "qsd":
        res = correlate(request, model, config.seed, workers=config.workers)
    else:
        res = jump_correlate(request, model, config.seed, workers=config.workers)
    ref = two_time_correlation(
        sigma_plus(), sigma_minus(), model, t=0.0, tau_grid=p["tau_grid"],
        h_ode=p["h_ode"],
    )
    _write_series_csv(config.out_dir / "results.csv", p["tau_grid"], res.mean, res.std_error)
    _write_reference_csv(config.out_dir / "reference.csv", p["tau_grid"], ref)
    return {
        "n": res.n,
        "method": res.method,
        "draws_total": res.draws_total,
        "extras": res.extras,
    }


def _h_label(h: float) -> str:
    return f"{h:g}"


def _run_gisin_compare(config: RunConfig) -> dict:
    model, obs, bra, ket = _decay_problem()
    p = config.params
    grid = p["t_grid"]
    summary: dict = {"n": p["n"], "runs": {}}
    for h in p["h_list"]:
        res = run_coupled_ensemble(
            obs, bra, ket, model, grid, dt=h, n=p["n"], seed=config.seed,
            variant="quasi_linear", floor=p["floor"],
        )
        label = _h_label(h)
        _write_series_csv(
            config.out_dir / f"gisin-h{label}.csv", grid, res.mean, res.std_error
        )
        report = instability_report(res)
        (config.out_dir / f"instability-h{label}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        summary["runs"][label] = {
            "aborted": res.aborted,
            "overflowed": res.overflowed,
            "max_scalar_product_drift": res.max_scalar_drift,
            "draws_total": res.draws_total,
        }
    doubled = heisenberg_element(
        obs, bra, ket, model, grid, p["n"], SdeConfig(dt=config.dt), config.seed,
        workers=config.workers,
    )
    _write_series_csv(
        config.out_dir / "results.csv", grid, doubled.mean, doubled.std_error
    )
    ref = regression_matrix_element(obs, bra, ket, model, grid, h_ode=p["h_ode"])
    _write_reference_csv(config.out_dir / "reference.csv", grid, ref)
    summary["doubled_draws_total"] = doubled.draws_total
    return summary


def _run_benchmark(config: RunConfig) -> dict:
    p = config.params
    model = driven_decay_model(p["omega"])
    tau_grid = p["tau_grid"]
    ref = two_time_correlation(
        sigma_plus(), sigma_minus(), model, t=0.0, tau_grid=tau_grid, h_ode=p["h_ode"]
    )

    def runner(method: str, n: int, seed: int):
        request = CorrelationRequest(
            observable=sigma_plus(),
            perturbation=sigma_minus(),
            t=0.0,
            tau_grid=tau_grid,
            n_trajectories=n,
            sde=SdeConfig(dt=config.dt),
            initial="steady_state",
            warmup_time=p["warmup"],
        )
        if method == "qsd":
            return correlate(request, model, seed, workers=config.workers)
        return jump_correlate(request, model, seed, workers=config.workers)

    points = benchmark_sweep(runner, ref, p["n_list"], ("qsd", "jump"), config.seed)
    lines = ["method,n,rms_relative_error,est_std,wall_time_seconds,draws_total"]
    for pt in points:
        lines.append(
            f"{pt.method},{pt.n},{_fmt(pt.rms_relative_error)},{_fmt(pt.est_std)},"
            f"{_fmt(pt.wall_time_seconds)},{pt.draws_total}"
        )
    (config.out_dir / "benchmark.csv").write_text("\n".join(lines) + "\n")
    _write_reference_csv(config.out_dir / "reference.csv", tau_grid, ref)
    best = {}
    for pt in points:
        err = abs(pt.rms_relative_error - 0.03)
        if pt.method not in best or err < best[pt.method][0]:
            best[pt.method] = (err, pt)
    return {
        "n_list": p["n_list"],
        "closest_to_3pct": {
            m: {"n": pt.n, "rms_relative_error": pt.rms_relative_error,
                "wall_time_seconds": pt.wall_time_seconds}
            for m, (_, pt) in best.items()
        },
    }


def _run_custom(config: RunConfig) -> dict:
    p = config.params
    model = p["model"]
    obs = p["observable"]
    sde = SdeConfig(dt=config.dt)
    if p["mode"] == "element":
        grid = p["t_grid"]
        if p["unraveling"] == "qsd":
            res = heisenberg_element(
                obs, p["bra"], p["ket"], model, grid, p["n"], sde, config.seed,
                workers=config.workers,
            )
        else:
            res = jump_matrix_element(
                obs, p["bra"], p["ket"], model, grid, p["n"], config.dt,
                config.seed, workers=config.workers,
            )
        ref = regression_matrix_element(
            obs, p["bra"], p["ket"], model, grid, h_ode=p["h_ode"]
        )
    else:
        grid = p["tau_grid"]
        request = CorrelationRequest(
            observable=obs,
            perturbation=p["perturbation"],
            t=p["t"],
            tau_grid=grid,
            n_trajectories=p["n"],
            sde=sde,
            initial=p["initial"],
            warmup_time=p["warmup"],
        )
        if p["unraveling"] == "qsd":
            res = correlate(request, model, config.seed, workers=config.workers)
        else:
            res = jump_correlate(request, model, config.seed, workers=config.workers)
        # the oracle reference assumes the preparation segment reached
        # stationarity; for short warmups it is only indicative
        ref = two_time_correlation(
            obs, p["perturbation"], model, t=p["t"], tau_grid=grid, h_ode=p["h_ode"]
        )
    _write_series_csv(config.out_dir / "results.csv", grid, res.mean, res.std_error)
    _write_reference_csv(config.out_dir / "reference.csv", grid, ref)
    return {
        "n": res.n,
        "method": res.method,
        "draws_total": res.draws_total,
        "extras": res.extras,
    }


_RUNNERS = {
    "decay-element": _run_decay_element,
    "fluorescence-g1": _run_fluorescence,
    "gisin-compare": _run_gisin_compare,
    "benchmark": _run_benchmark,
    "custom": _run_custom,
}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        extra = _RUNNERS[config.scenario](config)
    except (InstabilityError, EnsembleError) as err:
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
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as err:
        print(f"cannot read config {path}: {err}", file=sys.stderr)
        return 2
    overrides = {
        "seed": args.seed,
        "n": args.n,
        "dt": args.dt,
        "unraveling": args.unraveling,
        "workers": args.workers,
        "out": args.out,
    }
    config, errors = validate(text, overrides)
    if config is None:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
