"""Layer spans for qsdsim, recorded from outside the package.

A :class:`Tracer` replaces the public functions and engine methods of the
qsdsim modules with wrappers that record one span per call: name, start,
end and the id of the enclosing span.  Modules import these functions by
name, so every module attribute bound to the same function object is
replaced, and :meth:`Tracer.uninstall` puts the originals back.  The
``task`` handed to ``run_ensemble`` and the ``on_record`` callback handed to
the engines are wrapped too.  Spans stay in memory; :func:`layer_metrics`
turns them into per-layer totals and self times (a span's duration minus
the part of it covered by its child spans).
"""

import collections
import functools
import itertools
import sys
import threading
import time

import numpy as np

# (module, function) pairs wrapped wherever a qsdsim module binds them
FUNCTIONS = (
    ("ensemble", "run_ensemble"),
    ("correlations", "correlate"),
    ("correlations", "heisenberg_element"),
    ("hilbert", "extend_model"),
    ("master", "build_liouvillian"),
    ("master", "evolve"),
    ("master", "steady_state"),
    ("master", "regression_matrix_element"),
    ("master", "two_time_correlation"),
    ("gisin", "run_coupled_ensemble"),
    ("cli", "validate"),
    ("cli", "run"),
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _replace_arg(args, kwargs, index, name, value):
    if name in kwargs or len(args) <= index:
        return args, {**kwargs, name: value}
    return args[:index] + (value,) + args[index + 1:], kwargs


def _traj_steps(args, kwargs) -> int:
    # engine.run(self, states, streams, n_steps, ...): one stream per row
    return len(_arg(args, kwargs, 2, "streams")) * _arg(args, kwargs, 3, "n_steps")


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.counters = collections.Counter()
        self.streams = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, prepare=None, finish=None):
        """``fn`` recording a span ``name`` per call.

        ``prepare(args, kwargs)`` may rewrite the arguments before the call;
        ``finish(args, kwargs, result)`` sees them and the result after it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else 0
                tracer.spans.append((span_id, parent, name, start, end))
            if finish is not None:
                finish(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from qsdsim import diffusion, jumps, noise

        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"qsdsim.{module_name}"], fn_name)
            prepare = finish = None
            if fn_name == "run_ensemble":
                prepare = self._wrap_task
            elif fn_name == "run_coupled_ensemble":
                finish = self._count_gisin
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, prepare, finish)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "qsdsim" or name.startswith("qsdsim.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        stream_cls = noise.NoiseStream
        self._patch(stream_cls, "__init__", self.wrap(
            "noise.stream_init", stream_cls.__init__,
            finish=lambda args, kwargs, result: self.streams.append(args[0])))
        self._patch(stream_cls, "wiener_block",
                    self.wrap("noise.wiener_block", stream_cls.wiener_block))
        self._patch(stream_cls, "uniform", self.wrap("noise.uniform", stream_cls.uniform))
        self._patch(diffusion.QsdEngine, "run", self.wrap(
            "diffusion.run", diffusion.QsdEngine.run,
            prepare=self._wrap_on_record, finish=self._count_qsd))
        self._patch(jumps.JumpEngine, "run", self.wrap(
            "jumps.run", jumps.JumpEngine.run,
            prepare=self._wrap_on_record, finish=self._count_jumps))
        # the ROADMAP profile counts np.linalg.norm calls in the jump engine
        self._patch(np.linalg, "norm", self._counted_norm(np.linalg.norm))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_task(self, args, kwargs):
        task = _arg(args, kwargs, 0, "task")
        return _replace_arg(args, kwargs, 0, "task", self.wrap("ensemble.task", task))

    def _wrap_on_record(self, args, kwargs):
        # engine.run(self, states, streams, n_steps, record_steps, on_record)
        on_record = _arg(args, kwargs, 5, "on_record")
        if on_record is None:
            return args, kwargs
        traced = self.wrap("correlations.record", on_record)
        return _replace_arg(args, kwargs, 5, "on_record", traced)

    def _count_qsd(self, args, kwargs, result):
        self.counters["diffusion.traj_steps"] += _traj_steps(args, kwargs)

    def _count_jumps(self, args, kwargs, result):
        self.counters["jumps.traj_steps"] += _traj_steps(args, kwargs)
        self.counters["jumps.jumps"] += int(args[0].last_jump_counts.sum())

    def _count_gisin(self, args, kwargs, result):
        grid = _arg(args, kwargs, 4, "t_grid")
        dt = _arg(args, kwargs, 5, "dt")
        self.counters["gisin.traj_steps"] += result.n * int(round(grid[-1] / dt))
        self.counters["gisin.trajectories"] += result.n
        self.counters["gisin.alive"] += int(result.n_alive[-1])
        self.counters["gisin.aborted"] += result.aborted
        self.counters["gisin.overflowed"] += result.overflowed

    def _counted_norm(self, norm):
        tracer = self

        @functools.wraps(norm)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                tracer.counters[f"{stack[-1][1]}.norm_calls"] += 1
            return norm(*args, **kwargs)

        return counted


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_totals(spans):
    """Per-name call count, summed duration and summed self time."""
    children = collections.defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_time = collections.defaultdict(float)
    for span_id, _, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - _covered(children.get(span_id, ()), start, end)
    return calls, total, self_time


def _ns_per(seconds: float, steps: int) -> float:
    return seconds / steps * 1e9 if steps else 0.0


def layer_metrics(tracer: Tracer, n_trajectories: int, nproc: int) -> dict:
    """Per-layer metrics of one traced run, keyed by the benchmark's names."""
    calls, total, self_time = span_totals(tracer.spans)
    c = tracer.counters
    task_s = total["ensemble.task"]
    ensemble_s = total["ensemble.run_ensemble"]
    diffusion_s = total["diffusion.run"]
    jumps_s = total["jumps.run"]
    gisin_s = total["gisin.run_coupled_ensemble"]
    gisin_n = c["gisin.trajectories"]
    return {
        "noise.streams": calls["noise.stream_init"],
        "noise.stream_init_s": total["noise.stream_init"],
        "noise.wiener_block_calls": calls["noise.wiener_block"],
        "noise.wiener_block_s": total["noise.wiener_block"],
        "noise.uniform_calls": calls["noise.uniform"],
        "noise.draws": sum(s.draws for s in tracer.streams),
        "diffusion.run_s": diffusion_s,
        "diffusion.self_s": self_time["diffusion.run"],
        "diffusion.traj_steps": c["diffusion.traj_steps"],
        "diffusion.ns_per_traj_step": _ns_per(diffusion_s, c["diffusion.traj_steps"]),
        "jumps.run_s": jumps_s,
        "jumps.self_s": self_time["jumps.run"],
        "jumps.traj_steps": c["jumps.traj_steps"],
        "jumps.ns_per_traj_step": _ns_per(jumps_s, c["jumps.traj_steps"]),
        "jumps.jumps": c["jumps.jumps"],
        "jumps.jumps_per_traj": c["jumps.jumps"] / n_trajectories,
        "jumps.norm_calls": c["jumps.run.norm_calls"],
        "correlations.task_s": task_s,
        "correlations.self_s": (self_time["correlations.correlate"]
                                + self_time["correlations.heisenberg_element"]
                                + self_time["ensemble.task"]),
        "correlations.record_calls": calls["correlations.record"],
        "correlations.record_s": total["correlations.record"],
        "ensemble.run_s": ensemble_s,
        "ensemble.self_s": ensemble_s - task_s,
        "ensemble.chunks": calls["ensemble.task"],
        "ensemble.core_busy_frac": task_s / (ensemble_s * nproc) if ensemble_s else 0.0,
        "hilbert.extend_model_calls": calls["hilbert.extend_model"],
        "hilbert.extend_model_s": total["hilbert.extend_model"],
        "master.build_liouvillian_s": total["master.build_liouvillian"],
        "master.evolve_calls": calls["master.evolve"],
        "master.evolve_s": total["master.evolve"],
        "master.steady_state_s": total["master.steady_state"],
        "master.oracle_s": (total["master.regression_matrix_element"]
                            + total["master.two_time_correlation"]),
        "gisin.run_s": gisin_s,
        "gisin.traj_steps": c["gisin.traj_steps"],
        "gisin.ns_per_traj_step": _ns_per(gisin_s, c["gisin.traj_steps"]),
        "gisin.aborted": c["gisin.aborted"],
        "gisin.overflowed": c["gisin.overflowed"],
        "gisin.alive_frac": c["gisin.alive"] / gisin_n if gisin_n else 0.0,
        "cli.validate_s": total["cli.validate"],
        "cli.self_s": self_time["cli.run"],
    }


def write_spans(path, rows):
    """(rep, span_id, parent_id, name, start, end) rows as CSV."""
    with open(path, "w") as fh:
        fh.write("rep,span_id,parent_id,name,start_s,end_s\n")
        for rep, span_id, parent, name, start, end in rows:
            fh.write(f"{rep},{span_id},{parent},{name},{start!r},{end!r}\n")
