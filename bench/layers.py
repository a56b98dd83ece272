"""Which public functions of ``spectral_moduli`` the benchmark wraps, and the
per-layer metrics computed from their spans.

Every wrapper is installed from the benchmark's own files at run time; the
package source is not edited.  Untraced runs get only the entry stamp (the
first call into a workload's main loop, which ends set-up); traced runs
also get one span per call of each boundary in ``_spans()`` and a call
counter on ``WeightedGraph.coupling_laplacian``.

The metric names, units and directions are in ``PER_LAYER``; NOTES.md says
which end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Any, Callable

from tracing import Tracer, duration, rebind, self_times

# (name, unit, better).  Metrics not in seconds come from the program's
# work, not from the clock, and must repeat exactly between two traced runs
# of one seed.
PER_LAYER = (
    ("dynamics.steady.calls", "count", "lower"),
    ("dynamics.steady.busy_s", "s", "lower"),
    ("dynamics.steady.rows", "count", "lower"),
    ("dynamics.steady.rows_per_call", "rows/call", "higher"),
    ("dynamics.steady.warm_rows", "count", "higher"),
    ("dynamics.steady.rk4_steps_per_warm_row", "steps/row", "lower"),
    ("dynamics.steady.rk4_steps_per_cold_row", "steps/row", "lower"),
    ("dynamics.steady.us_per_row_step", "us", "lower"),
    ("dynamics.steady.converged_ratio", "ratio", "higher"),
    ("dynamics.integrate.busy_s", "s", "lower"),
    ("dynamics.integrate.us_per_step", "us", "lower"),
    ("dynamics.gauge_check.busy_s", "s", "lower"),
    ("dynamics.gauge_check.us_per_step", "us", "lower"),
    ("dynamics.write.busy_s", "s", "lower"),
    ("dynamics.write.bytes", "bytes", "lower"),
    ("sensitivity.adjoint.calls", "count", "lower"),
    ("sensitivity.adjoint.busy_s", "s", "lower"),
    ("sensitivity.adjoint.us_per_call", "us", "lower"),
    ("sensitivity.weight_gradients.busy_s", "s", "lower"),
    ("sensitivity.weight_gradients.edges", "count", "lower"),
    ("sensitivity.potential_gradient.busy_s", "s", "lower"),
    ("sensitivity.nonisolated", "count", "lower"),
    ("moduli.descent_step.calls", "count", "lower"),
    ("moduli.descent_step.busy_s", "s", "lower"),
    ("moduli.phase.weight_grad_s", "s", "lower"),
    ("moduli.phase.probe_solve_s", "s", "lower"),
    ("moduli.phase.probe_grad_s", "s", "lower"),
    ("moduli.engine.jobs", "count", "lower"),
    ("moduli.engine.hit_ratio", "ratio", "higher"),
    ("moduli.probes", "count", "lower"),
    ("moduli.probes_skipped", "count", "lower"),
    ("moduli.failed_steps", "count", "lower"),
    ("moduli.adds", "count", "lower"),
    ("moduli.prunes", "count", "lower"),
    ("fann_model.teacher.busy_s", "s", "lower"),
    ("fann_model.param_gradients.calls", "count", "lower"),
    ("fann_model.param_gradients.busy_s", "s", "lower"),
    ("fann_model.baseline_train.busy_s", "s", "lower"),
    ("fann_model.train.failures", "count", "lower"),
    ("topo_metric.teacher_targets_s", "s", "lower"),
    ("topo_metric.distortion_report.busy_s", "s", "lower"),
    ("graph_core.laplacian.calls", "count", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("sensitivity.self_s", "s", "lower"),
    ("moduli.self_s", "s", "lower"),
    ("fann_model.self_s", "s", "lower"),
    ("topo_metric.self_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

EXACT = tuple(name for name, unit, _ in PER_LAYER if unit not in ("s", "us"))

LAYERS = ("dynamics", "sensitivity", "moduli", "fann_model", "topo_metric")


# -- installing the wrappers ---------------------------------------------------


class EntryStamp:
    """Remembers when the workload's main loop is first entered.

    With ``exit_after`` the process writes the stamp and exits right there,
    which measures set-up alone.
    """

    def __init__(self, path: str, exit_after: bool = False):
        self.path = path
        self.exit_after = exit_after
        self.entered: float | None = None

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if self.entered is None:
                self.entered = time.monotonic()
                if self.exit_after:
                    self.write()
                    os._exit(0)
            return fn(*args, **kwargs)

        return stamped

    def write(self) -> None:
        with open(self.path, "w") as fh:
            fh.write("" if self.entered is None else repr(self.entered))


def _binder(fn: Callable) -> Callable[[tuple, dict], dict]:
    sig = inspect.signature(fn)

    def bind(args: tuple, kwargs: dict) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _steady_attrs(fn):
    bind = _binder(fn)

    def attrs(args, kwargs, result) -> dict:
        import numpy as np

        a = bind(args, kwargs)
        dt, starts = a["config"].dt, a["starts"]
        out = {"rows": len(result), "warm_rows": 0, "warm_steps": 0,
               "cold_steps": 0, "converged": 0}
        for i, st in enumerate(result):
            steps = int(round(st.t_reached / dt))
            warm = starts is not None and not np.array_equal(
                np.asarray(starts[i]), np.asarray(a["psi0s"][i]))
            out["warm_rows"] += warm
            out["warm_steps" if warm else "cold_steps"] += steps
            out["converged"] += bool(st.converged)
        return out

    return attrs


def _gauge_attrs(fn):
    bind = _binder(fn)

    def attrs(args, kwargs, result) -> dict:
        a = bind(args, kwargs)
        return {"steps": max(1, int(round(a["t_final"] / a["config"].dt)))}

    return attrs


def _write_attrs(fn):
    bind = _binder(fn)
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(bind(args, kwargs)["path"])}


def _edges_attrs(fn):
    return lambda args, kwargs, result: {"edges": args[0].n_edges}


def _engine_attrs(fn):
    # the probe pass of descent_step is the solve_many call that passes t_max
    return lambda args, kwargs, result: {
        "jobs": len(args[1]), "probe": "t_max" in kwargs or len(args) > 2}


def _step_attrs(fn):
    def attrs(args, kwargs, result) -> dict:
        events = result[1]
        return {"adds": len(events.added), "prunes": len(events.pruned),
                "skipped": len(events.skipped_candidates)}

    return attrs


def _probe_attrs(fn):
    bind = _binder(fn)
    return lambda args, kwargs, result: {
        "probe": bind(args, kwargs)["test_weight"] is not None}


def _train_attrs(fn):
    return lambda args, kwargs, result: {
        "failures": sum(len(r.failures) for r in result[2])}


def _integrate_attrs(fn):
    return lambda args, kwargs, result: {"steps": len(result.times) - 1}


def _spans():
    """(span name, owner, attribute, attrs factory or None) per boundary."""
    from spectral_moduli import (dynamics, fann_model, moduli, sensitivity,
                                 topo_metric)

    return (
        ("dynamics.steady", dynamics, "solve_steady_state_many", _steady_attrs),
        ("dynamics.integrate", dynamics, "integrate", _integrate_attrs),
        ("dynamics.gauge_check", dynamics, "gauge_check", _gauge_attrs),
        ("dynamics.write", dynamics, "write_trajectory_csv", _write_attrs),
        ("dynamics.write", dynamics, "write_invariants_jsonl", _write_attrs),
        ("sensitivity.adjoint", sensitivity, "steady_state_adjoint", None),
        ("sensitivity.weight_gradients", sensitivity, "weight_gradients",
         _edges_attrs),
        ("sensitivity.potential_gradient", sensitivity, "potential_gradient",
         None),
        ("moduli.run", moduli, "run", None),
        ("moduli.descent_step", moduli, "descent_step", _step_attrs),
        ("moduli.stochastic_gradient", moduli, "stochastic_gradient",
         _probe_attrs),
        ("moduli.engine.solve_many", moduli.SteadySolveEngine, "solve_many",
         _engine_attrs),
        ("fann_model.train", fann_model, "train", _train_attrs),
        ("fann_model.baseline_train", fann_model, "baseline_train", None),
        ("fann_model.param_gradients", fann_model, "param_gradients", None),
        ("fann_model.generalization_gap", fann_model, "generalization_gap",
         None),
        ("topo_metric.teacher_targets", topo_metric.TeacherSampler, "exact",
         None),
        ("topo_metric.distortion_report", topo_metric, "distortion_report",
         None),
    )


def install(stamp: EntryStamp, tracer: Tracer | None = None) -> None:
    """Wrap the package's boundaries at every module that binds them."""
    import spectral_moduli.cli  # noqa: F401  (binds every name it imports)
    from spectral_moduli import dynamics, fann_model, graph_core, moduli

    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "spectral_moduli"]

    def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]):
        if isinstance(owner, type):
            setattr(owner, attr, make(vars(owner)[attr]))
        else:
            original = getattr(owner, attr)
            rebind(modules, original, make(original))

    for owner, attr in ((moduli, "run"), (fann_model, "train"),
                        (dynamics, "integrate"), (dynamics, "gauge_check")):
        patch(owner, attr, stamp.wrap)
    if tracer is None:
        return
    for name, owner, attr, attrs in _spans():
        patch(owner, attr, lambda fn, name=name, attrs=attrs: tracer.wrap(
            name, fn, attrs(fn) if attrs else None))
    patch(graph_core.WeightedGraph, "coupling_laplacian",
          lambda fn: tracer.count("graph_core.laplacian.calls", fn))

    def teacher(make_sampler: Callable) -> Callable:
        def make(*args, **kwargs):
            return tracer.wrap("fann_model.teacher",
                               make_sampler(*args, **kwargs))

        return make

    patch(fann_model, "model_teacher_sampler", teacher)


# -- summarizing ---------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no such work in this workload."""
    return num / den if den else 0.0


def summarize(spans: list[list], counts: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (spans of all its processes).

    ``wall_s`` is the pass's spawn-to-exit time; ``cli.other_s`` is the part
    of it no span covers (interpreter start, imports, config, serialization
    in the CLI), so the layer self times plus ``cli.other_s`` add up to it.
    """
    selfs = self_times(spans)
    named: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        named.setdefault(span[0], []).append(i)

    def idx(name: str) -> list[int]:
        return named.get(name, [])

    def busy(name: str) -> float:
        return sum(duration(spans[i]) for i in idx(name))

    def own(name: str) -> float:
        return sum(selfs[i] for i in idx(name))

    def total(name: str, key: str) -> int:
        return sum((spans[i][4] or {}).get(key, 0) for i in idx(name))

    def raised(name: str, exc: str | None = None) -> int:
        return sum(1 for i in idx(name) if spans[i][4] and "raised" in
                   spans[i][4] and exc in (None, spans[i][4]["raised"]))

    m: dict[str, float] = {}
    calls = len(idx("dynamics.steady"))
    rows = total("dynamics.steady", "rows")
    warm = total("dynamics.steady", "warm_rows")
    warm_steps = total("dynamics.steady", "warm_steps")
    cold_steps = total("dynamics.steady", "cold_steps")
    m["dynamics.steady.calls"] = calls
    m["dynamics.steady.busy_s"] = busy("dynamics.steady")
    m["dynamics.steady.rows"] = rows
    m["dynamics.steady.rows_per_call"] = _ratio(rows, calls)
    m["dynamics.steady.warm_rows"] = warm
    m["dynamics.steady.rk4_steps_per_warm_row"] = _ratio(warm_steps, warm)
    m["dynamics.steady.rk4_steps_per_cold_row"] = _ratio(cold_steps,
                                                         rows - warm)
    m["dynamics.steady.us_per_row_step"] = 1e6 * _ratio(
        m["dynamics.steady.busy_s"], warm_steps + cold_steps)
    m["dynamics.steady.converged_ratio"] = _ratio(
        total("dynamics.steady", "converged"), rows)
    for name in ("dynamics.integrate", "dynamics.gauge_check"):
        m[name + ".busy_s"] = busy(name)
        m[name + ".us_per_step"] = 1e6 * _ratio(busy(name),
                                                total(name, "steps"))
    m["dynamics.write.busy_s"] = busy("dynamics.write")
    m["dynamics.write.bytes"] = total("dynamics.write", "bytes")

    adjoints = len(idx("sensitivity.adjoint"))
    m["sensitivity.adjoint.calls"] = adjoints
    m["sensitivity.adjoint.busy_s"] = busy("sensitivity.adjoint")
    m["sensitivity.adjoint.us_per_call"] = 1e6 * _ratio(
        m["sensitivity.adjoint.busy_s"], adjoints)
    m["sensitivity.weight_gradients.busy_s"] = own(
        "sensitivity.weight_gradients")
    m["sensitivity.weight_gradients.edges"] = total(
        "sensitivity.weight_gradients", "edges")
    m["sensitivity.potential_gradient.busy_s"] = own(
        "sensitivity.potential_gradient")
    m["sensitivity.nonisolated"] = raised("sensitivity.adjoint",
                                          "NonIsolatedSteadyStateError")

    m["moduli.descent_step.calls"] = len(idx("moduli.descent_step"))
    m["moduli.descent_step.busy_s"] = busy("moduli.descent_step")
    phases = {"weight_grad_s": 0.0, "probe_solve_s": 0.0, "probe_grad_s": 0.0}
    step_children: dict[int, list[int]] = {i: [] for i in
                                           idx("moduli.descent_step")}
    for i, span in enumerate(spans):
        if span[3] in step_children:
            step_children[span[3]].append(i)
    for children in step_children.values():
        probed = False
        for i in children:
            name, attrs = spans[i][0], spans[i][4] or {}
            if name == "moduli.engine.solve_many" and attrs.get("probe"):
                probed = True
                phases["probe_solve_s"] += duration(spans[i])
            elif name == "moduli.stochastic_gradient":
                phases["probe_grad_s"] += duration(spans[i])
            elif not probed:
                phases["weight_grad_s"] += duration(spans[i])
    for key, value in phases.items():
        m["moduli.phase." + key] = value
    jobs = total("moduli.engine.solve_many", "jobs")
    engine = set(idx("moduli.engine.solve_many"))
    solved = sum((spans[i][4] or {}).get("rows", 0)
                 for i in idx("dynamics.steady") if spans[i][3] in engine)
    m["moduli.engine.jobs"] = jobs
    m["moduli.engine.hit_ratio"] = 1.0 - _ratio(solved, jobs) if jobs else 0.0
    m["moduli.probes"] = total("moduli.stochastic_gradient", "probe")
    m["moduli.probes_skipped"] = total("moduli.descent_step", "skipped")
    m["moduli.failed_steps"] = raised("moduli.descent_step")
    m["moduli.adds"] = total("moduli.descent_step", "adds")
    m["moduli.prunes"] = total("moduli.descent_step", "prunes")

    m["fann_model.teacher.busy_s"] = busy("fann_model.teacher")
    m["fann_model.param_gradients.calls"] = len(
        idx("fann_model.param_gradients"))
    m["fann_model.param_gradients.busy_s"] = busy("fann_model.param_gradients")
    m["fann_model.baseline_train.busy_s"] = own("fann_model.baseline_train")
    m["fann_model.train.failures"] = total("fann_model.train", "failures")
    m["topo_metric.teacher_targets_s"] = busy("topo_metric.teacher_targets")
    m["topo_metric.distortion_report.busy_s"] = busy(
        "topo_metric.distortion_report")
    m["graph_core.laplacian.calls"] = counts.get("graph_core.laplacian.calls",
                                                 0)

    for layer in LAYERS:
        m[layer + ".self_s"] = sum(s for s, span in zip(selfs, spans)
                                   if span[0].split(".")[0] == layer)
    m["cli.other_s"] = wall_s - sum(selfs)
    m["trace.wall_s"] = wall_s
    return m
