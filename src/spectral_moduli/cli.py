"""Reproducible experiment driver: config parsing, seeded runs, reports.

Five subcommands cover the experimental surface of the package:

  simulate      integrate one of the four vertex-field flows, log invariants
  gauge-check   run a field flow and its spin counterpart side by side
  learn-graph   run a bundled graph-learning task, report recovery metrics
  train         train the end-to-end model (optionally a dense baseline too)
  report        aggregate the outputs of earlier runs into one summary

Configuration is a JSON object, optionally loaded from ``--config PATH`` and
then modified by repeatable ``--set dotted.path=VALUE`` overrides (VALUE is
parsed as a JSON literal when possible, kept as a raw string otherwise);
``--seed`` and ``--out`` are shorthand overrides applied last.  Validation is
strict: unknown keys anywhere exit with code 2 before any work happens.

Every output file embeds the same meta block: the command, the package
version, the thread cap, the fully resolved config (defaults filled in), and
``inputs_sha256``, the SHA-256 of the canonical resolved-config JSON.  JSON
files carry it under a top-level ``"meta"`` key (``checkpoint.json``, in the
model-checkpoint format, under ``extra.meta``), JSONL files as their first
record, CSV files as a leading ``# meta: ...`` comment line.  All floats use
shortest round-trip formatting, so a rerun with identical config and seed
reproduces every output byte for byte.

Exit codes: 0 success, 2 config error, 3 runtime failure.  The environment
variable ``SPECTRAL_MODULI_THREADS`` declares the run's thread count: it is
checked (a positive integer) and recorded in the meta block, and changes
nothing else.  numpy's BLAS sizes its thread pool when it loads, so cap it
by setting ``OMP_NUM_THREADS``/``OPENBLAS_NUM_THREADS`` before launch; the
experiment code itself is single-threaded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import zlib
from typing import Any, Callable

import numpy as np

from spectral_moduli.graph_core import (
    GraphError,
    WeightedGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_to_dict,
    path_graph,
    single_vertex_graph,
)
from spectral_moduli.dynamics import (
    DivergenceError,
    InvalidStateError,
    NlseConfig,
    gauge_check,
    integrate,
    make_rhs,
    to_circle,
    to_line,
    to_plane,
    to_sphere,
    write_invariants_jsonl,
    write_trajectory_csv,
)
from spectral_moduli.sensitivity import NonIsolatedSteadyStateError
from spectral_moduli.moduli import (
    LossEvaluationError,
    OptimizerConfig,
    SteadySolveEngine,
    chebyshev_schedule,
    run,
    visited_strata_count,
    write_strata_jsonl,
)
from spectral_moduli.topo_metric import (
    ManifoldSpec,
    PopulationReadout,
    TeacherSampler,
    betti_numbers,
    build_ground_truth,
    distortion_report,
)
from spectral_moduli import fann_model as fm

__all__ = ["ConfigError", "main"]

THREADS_ENV = "SPECTRAL_MODULI_THREADS"


class ConfigError(Exception):
    """Invalid configuration: reported on stderr, exit code 2."""


# -- canonical serialization --------------------------------------------------


def _canon(obj: Any) -> Any:
    """Recursively convert to plain JSON-serializable Python values."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _canonical_json(obj: Any) -> str:
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))


def _dump_json(path: str, obj: Any) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(_canon(obj), sort_keys=True, indent=2) + "\n")


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _prepend_line(path: str, line: str) -> None:
    # the body streams through a file beside it, never held in memory whole
    with open(path) as body, open(path + ".tmp", "w") as out:
        out.write(line + "\n")
        shutil.copyfileobj(body, out)
    os.replace(path + ".tmp", path)


def _package_version() -> str:
    import spectral_moduli

    return getattr(spectral_moduli, "__version__", "unknown")


def _component_rng(seed: int, label: str) -> np.random.Generator:
    """One generator per run, split per component by a fixed string label."""
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _build_meta(command: str, resolved: dict, threads: int | None) -> dict:
    return {
        "command": command,
        "package_version": _package_version(),
        "threads": threads,
        "resolved_config": resolved,
        "inputs_sha256": _sha256_text(_canonical_json(resolved)),
    }


def _meta_comment(meta: dict) -> str:
    return "# meta: " + _canonical_json(meta)


def _meta_record(meta: dict, **extra: Any) -> str:
    obj = {"meta": _canon(meta)}
    obj.update(_canon(extra))
    return json.dumps(obj, sort_keys=True)


# -- thread cap ----------------------------------------------------------------


def _resolve_threads() -> int | None:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"{THREADS_ENV} must be at least 1, got {n}")
    return n


# -- config loading and overrides ----------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _parse_assignment(text: str) -> tuple[list[str], Any]:
    key, sep, raw_value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set needs KEY=VALUE, got {text!r}")
    parts = key.split(".")
    if any(not p for p in parts):
        raise ConfigError(f"--set key {key!r} has an empty path component")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return parts, value


def _apply_assignment(cfg: dict, parts: list[str], value: Any) -> None:
    node = cfg
    for p in parts[:-1]:
        child = node.setdefault(p, {})
        if not isinstance(child, dict):
            raise ConfigError(
                f"--set path {'.'.join(parts)} passes through non-object {p!r}")
        node = child
    node[parts[-1]] = value


# -- strict schema helpers -------------------------------------------------------


class _Section:
    """A dict view that tracks consumed keys and rejects leftovers."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected a JSON object")
        self._data = dict(data)
        self._path = path

    def _label(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take(self, key: str, default: Any, caster: Callable[[Any, str], Any]) -> Any:
        value = self._data.pop(key, default)
        return caster(value, self._label(key))

    def section(self, key: str) -> "_Section":
        return _Section(self._data.pop(key, {}), self._label(key))

    def discard(self, key: str) -> None:
        self._data.pop(key, None)

    def finish(self) -> None:
        if self._data:
            names = ", ".join(sorted(map(str, self._data)))
            raise ConfigError(f"{self._path or 'config'}: unknown keys: {names}")


def _as_int(lo: int | None = None, hi: int | None = None):
    def cast(value: Any, label: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label}: expected an integer, got {value!r}")
        if lo is not None and value < lo:
            raise ConfigError(f"{label}: must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise ConfigError(f"{label}: must be at most {hi}, got {value}")
        return value
    return cast


def _as_float(lo: float | None = None, lo_open: bool = False):
    def cast(value: Any, label: str) -> float:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):  # NaN, inf, 10**400
            raise ConfigError(f"{label}: expected a finite number, got {value!r}")
        x = float(value)
        if lo is not None and (x <= lo if lo_open else x < lo):
            op = ">" if lo_open else ">="
            raise ConfigError(f"{label}: must be {op} {lo}, got {x}")
        return x
    return cast


def _as_bool(value: Any, label: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label}: expected true/false, got {value!r}")
    return value


def _as_str(choices: tuple[str, ...] | None = None):
    def cast(value: Any, label: str) -> str:
        if not isinstance(value, str):
            raise ConfigError(f"{label}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{label}: must be one of {', '.join(choices)}; got {value!r}")
        return value
    return cast


def _optional(caster: Callable[[Any, str], Any]):
    def cast(value: Any, label: str) -> Any:
        if value is None:
            return None
        return caster(value, label)
    return cast


def _as_list(value: Any, label: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{label}: expected a list, got {value!r}")
    return value


def _as_number_tree(value: Any, label: str) -> list:
    """A nested list whose every leaf is a JSON number, returned as given."""
    for i, v in enumerate(_as_list(value, label)):
        if isinstance(v, list):
            _as_number_tree(v, f"{label}[{i}]")
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{label}[{i}]: expected a number, got {v!r}")
    return value


def _as_int_list(value: Any, label: str) -> list[int]:
    items = _as_list(value, label)
    if not items:
        raise ConfigError(f"{label}: list must be nonempty")
    return [_as_int(lo=1, hi=_MAX_DRAW)(v, f"{label}[{i}]")
            for i, v in enumerate(items)]


# -- graph and initial-state construction ----------------------------------------

_GRAPH_KINDS = ("single", "path", "cycle", "complete", "explicit")


def _resolve_graph(sec: _Section) -> dict:
    kind = sec.take("kind", "cycle", _as_str(_GRAPH_KINDS))
    n = sec.take("n", 3, _as_int(lo=1, hi=_MAX_VERTICES))
    weight = sec.take("weight", 1.0, _as_float(lo=0.0, lo_open=True))
    edges = sec.take("edges", None, _optional(_as_list))
    sec.finish()
    if kind == "explicit" and edges is None:
        raise ConfigError("graph.edges is required when graph.kind is 'explicit'")
    if kind != "explicit" and edges is not None:
        raise ConfigError("graph.edges is only valid when graph.kind is 'explicit'")
    for i, edge in enumerate(edges or ()):
        where = f"invalid graph: {sec._label('edges')}[{i}]"
        if not (isinstance(edge, list) and len(edge) == 3):
            raise ConfigError(f"{where}: expected [u, v, weight], got {edge!r}")
        _as_int(lo=0, hi=n - 1)(edge[0], f"{where}[0]")
        _as_int(lo=0, hi=n - 1)(edge[1], f"{where}[1]")
        _as_float(lo=0.0, lo_open=True)(edge[2], f"{where}[2]")
    return {"kind": kind, "n": n, "weight": weight, "edges": edges}


def _graph_from_config(spec: dict) -> WeightedGraph:
    kind, n, weight = spec["kind"], spec["n"], spec["weight"]
    try:
        if kind == "single":
            return single_vertex_graph()
        if kind == "path":
            return path_graph(n, weight)
        if kind == "cycle":
            return cycle_graph(n, weight)
        if kind == "complete":
            return complete_graph(n, weight)
        return build_graph(n, spec["edges"])  # typed when resolved
    except (GraphError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid graph: {exc}")


def _resolve_initial(sec: _Section, modes: tuple[str, ...]) -> dict:
    mode = sec.take("mode", "random_unit", _as_str(modes))
    values = sec.take("values", None, _optional(_as_number_tree))
    normalize = sec.take("normalize", True, _as_bool)
    sec.finish()
    if mode == "random_unit" and values is not None:
        raise ConfigError("initial.values is only valid for explicit modes")
    if mode != "random_unit" and values is None:
        raise ConfigError(f"initial.values is required for mode {mode!r}")
    return {"mode": mode, "values": values, "normalize": normalize}


def _numeric_array(values: list, shape: tuple[int, ...], label: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an int beyond float range
        raise ConfigError(f"{label}: expected shape {shape} of finite numbers")
    if arr.shape != shape:
        raise ConfigError(f"{label}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{label}: values must be finite")
    return arr


def _initial_field(spec: dict, n: int, field_kind: str,
                   rng: np.random.Generator) -> np.ndarray:
    if spec["mode"] == "random_unit":
        if field_kind == "complex":
            field = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            field = rng.standard_normal(n)
    elif spec["mode"] == "spin":
        arr = _numeric_array(spec["values"], (n, 3), "initial.values")
        field = to_plane(arr) if field_kind == "complex" else to_line(arr)
    elif field_kind == "complex":
        arr = _numeric_array(spec["values"], (n, 2), "initial.values")
        field = arr[:, 0] + 1j * arr[:, 1]
    else:
        field = _numeric_array(spec["values"], (n,), "initial.values")
    if spec["normalize"]:
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(field))
        if norm < 1e-300:
            raise ConfigError("initial state has zero norm")
        if not np.isfinite(norm):
            raise ConfigError("initial state norm overflows")
        field = field / norm
    return field


# Every count that sizes an allocation or a loop is checked before work
# starts.  simulate and gauge-check take round(t_final / dt) RK4 steps, from
# 1 to this many: 100 times the default 10^4, about two minutes of stepping
_MAX_STEPS = 10 ** 6
# a graph's n sizes dense n x n matrices; gauge-check keeps blocks of 256
# flat states of 4n entries, 3.3 MB complex at this ceiling
_MAX_VERTICES = 200
# simulate stores (steps + 1) x n vertex states, 160 MB complex at most
_MAX_STATES = 10 ** 7
# a sampler draws pair by pair in Python, so the pairs one call draws (a
# task's batch, a phase's epochs x batch, a gap size) are checked first: at
# most this many, about 280 times the largest default (60 epochs x 6 pairs);
# so are the rows of learn-graph's probe pass (candidate pairs x batch)
_MAX_DRAW = 10 ** 5
# learn-graph logs every iteration: ten times c5_chain's 400-step schedule
_MAX_ITERATIONS = 4000


def _resolve_dynamics(sec: _Section, *, dt: float, t_final: float) -> dict:
    out = {
        "gamma": sec.take("gamma", 1.0, _as_float(lo=0.0)),
        "dt": sec.take("dt", dt, _as_float(lo=0.0, lo_open=True)),
        "t_final": sec.take("t_final", t_final, _as_float(lo=0.0, lo_open=True)),
        "renorm_tol": sec.take("renorm_tol", 1e-12, _as_float(lo=0.0, lo_open=True)),
    }
    sec.finish()
    # below 1 exactly when dt > t_final; at most _MAX_STEPS once rounded,
    # since round() takes an even ceiling's half-way point down to it
    steps = out["t_final"] / out["dt"]
    if not 1.0 <= steps <= _MAX_STEPS + 0.5:
        raise ConfigError(f"{sec._label('dt')}: t_final / dt = {steps:.6g} "
                          f"steps, not from 1 to {_MAX_STEPS}")
    return out


def _nlse_config(dyn: dict) -> NlseConfig:
    return NlseConfig(gamma=dyn["gamma"], dt=dyn["dt"], t_max=dyn["t_final"],
                      renorm_tol=dyn["renorm_tol"])


# -- resolvers -------------------------------------------------------------------

def _resolve_top(raw: dict, command_section: str) -> tuple[dict, _Section]:
    top = _Section(raw, "")
    resolved = {
        "seed": top.take("seed", 0, _as_int(lo=0)),
        "output_dir": top.take("output_dir", "out", _as_str()),
    }
    body = top.section(command_section)
    for other, _, _ in _COMMANDS.values():
        if other != command_section:
            top.discard(other)
    top.finish()
    return resolved, body


_SYSTEMS = ("nlse", "ll", "diffusion", "spin2d")
_SPIN_LAWS = ("cross", "pushforward")


def resolve_simulate(raw: dict) -> dict:
    resolved, sec = _resolve_top(raw, "simulate")
    body = {
        "system": sec.take("system", "nlse", _as_str(_SYSTEMS)),
        "spin_law": sec.take("spin_law", "cross", _as_str(_SPIN_LAWS)),
        "graph": _resolve_graph(sec.section("graph")),
        "initial": _resolve_initial(sec.section("initial"),
                                    ("random_unit", "explicit")),
        "dynamics": _resolve_dynamics(sec.section("dynamics"),
                                      dt=1e-3, t_final=10.0),
    }
    sec.finish()
    dyn, n = body["dynamics"], body["graph"]["n"]
    if (states := (round(dyn["t_final"] / dyn["dt"]) + 1) * n) > _MAX_STATES:
        raise ConfigError(f"simulate: (steps + 1) x graph.n = {states} stored "
                          f"vertex states, must be at most {_MAX_STATES}")
    resolved["simulate"] = body
    return resolved


def resolve_gauge_check(raw: dict) -> dict:
    resolved, sec = _resolve_top(raw, "gauge_check")
    body = {
        "pair": sec.take("pair", "complex", _as_str(("complex", "real"))),
        "spin_law": sec.take("spin_law", "cross", _as_str(_SPIN_LAWS)),
        "threshold": sec.take("threshold", 1e-6, _as_float(lo=0.0, lo_open=True)),
        "graph": _resolve_graph(sec.section("graph")),
        "initial": _resolve_initial(sec.section("initial"),
                                    ("random_unit", "explicit", "spin")),
        "dynamics": _resolve_dynamics(sec.section("dynamics"),
                                      dt=1e-3, t_final=10.0),
    }
    sec.finish()
    resolved["gauge_check"] = body
    return resolved


def resolve_learn_graph(raw: dict) -> dict:
    resolved, sec = _resolve_top(raw, "learn_graph")
    body = {
        "task": sec.take("task", "c4", _as_str(tuple(_TASKS))),
        "iterations": sec.take("iterations", None,
                               _optional(_as_int(lo=0, hi=_MAX_ITERATIONS))),
        "batch_size": sec.take("batch_size", None,
                               _optional(_as_int(lo=1, hi=_MAX_DRAW))),
        "noise_delta": sec.take("noise_delta", None, _optional(_as_float(lo=0.0))),
    }
    sec.finish()
    # the other tasks draw their full canonical batch whatever size is asked
    for key in ("batch_size", "noise_delta"):
        if body[key] is not None and body["task"] != "c5_noisy":
            raise ConfigError(
                f"learn_graph.{key} is only valid for task 'c5_noisy'")
    resolved["learn_graph"] = body
    return resolved


_TRAIN_TASKS = ("teacher_fixed_point", "desk_c4")


def _resolve_phase(sec: _Section, *, epochs: int, lr: float,
                   step_size: float) -> dict:
    out = {
        "epochs": sec.take("epochs", epochs, _as_int(lo=0)),
        "lr": sec.take("lr", lr, _as_float(lo=0.0, lo_open=True)),
        "step_size": sec.take("step_size", step_size,
                              _as_float(lo=0.0, lo_open=True)),
    }
    sec.finish()
    return out


def resolve_train(raw: dict) -> dict:
    resolved, sec = _resolve_top(raw, "train")
    task = sec.take("task", "desk_c4", _as_str(_TRAIN_TASKS))
    desk = task == "desk_c4"
    body = {
        "task": task,
        "batch_size": sec.take("batch_size", 6, _as_int(lo=1)),
        "noise_delta": sec.take("noise_delta", 0.25 if desk else 0.0,
                                _as_float(lo=0.0)),
        "phase1": _resolve_phase(sec.section("phase1"),
                                 epochs=18 if desk else 10,
                                 lr=0.5, step_size=1.0),
        "phase2": _resolve_phase(sec.section("phase2"),
                                 epochs=12 if desk else 0,
                                 lr=0.15, step_size=0.3),
        "include_baseline": sec.take("include_baseline", desk, _as_bool),
        "baseline": None,
        "gap_sizes": sec.take("gap_sizes", [50, 100, 200] if desk else None,
                              _optional(_as_int_list)),
    }
    bsec = sec.section("baseline")
    body["baseline"] = {
        "epochs": bsec.take("epochs", 60, _as_int(lo=0)),
        "lr": bsec.take("lr", 0.2, _as_float(lo=0.0, lo_open=True)),
    }
    bsec.finish()
    sec.finish()
    if body["gap_sizes"] is not None and not body["include_baseline"]:
        # The gap report contrasts the model against the dense baseline.
        raise ConfigError("train.gap_sizes requires train.include_baseline")
    for phase in ("phase1", "phase2", "baseline")[:2 + body["include_baseline"]]:
        if (pairs := body[phase]["epochs"] * body["batch_size"]) > _MAX_DRAW:
            raise ConfigError(f"train.{phase}.epochs x train.batch_size: must "
                              f"be at most {_MAX_DRAW}, got {pairs}")
    resolved["train"] = body
    return resolved


def resolve_report(raw: dict) -> dict:
    resolved, sec = _resolve_top(raw, "report")
    sec.finish()
    resolved["report"] = {}
    return resolved


# -- simulate --------------------------------------------------------------------


def _run_simulate(resolved: dict, meta: dict) -> int:
    sec = resolved["simulate"]
    g = _graph_from_config(sec["graph"])
    system = sec["system"]
    field_kind = "complex" if system in ("nlse", "ll") else "real"
    rng = _component_rng(resolved["seed"], "simulate.initial")
    field0 = _initial_field(sec["initial"], g.n, field_kind, rng)
    dyn = sec["dynamics"]
    config = _nlse_config(dyn)
    rhs = make_rhs(g, field0, config, system, sec["spin_law"])
    if system == "ll":
        y0 = to_sphere(field0)
    elif system == "spin2d":
        y0 = to_circle(field0)
    else:
        y0 = field0
    record = integrate(rhs, y0, config, system=system, t_final=dyn["t_final"])

    out = resolved["output_dir"]
    traj = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(record, traj)
    _prepend_line(traj, _meta_comment(meta))
    inv = os.path.join(out, "invariants.jsonl")
    write_invariants_jsonl(record, inv)
    _prepend_line(inv, _meta_record(meta, system=system,
                                    max_step_drift=record.max_step_drift))
    return 0


# -- gauge-check -------------------------------------------------------------------


def _run_gauge_check(resolved: dict, meta: dict) -> int:
    sec = resolved["gauge_check"]
    g = _graph_from_config(sec["graph"])
    pair = sec["pair"]
    field_kind = "complex" if pair == "complex" else "real"
    rng = _component_rng(resolved["seed"], "gauge_check.initial")
    dyn = sec["dynamics"]
    config = _nlse_config(dyn)
    path = os.path.join(resolved["output_dir"], "deviation.json")
    try:
        field0 = _initial_field(sec["initial"], g.n, field_kind, rng)
        deviation = gauge_check(g, field0, config, t_final=dyn["t_final"],
                                pair=pair, spin_law=sec["spin_law"])
    except (InvalidStateError, DivergenceError) as exc:
        _dump_json(path, {
            "meta": meta,
            "failure": {"type": type(exc).__name__, "message": str(exc)},
            "pass": False,
        })
        print(f"gauge check failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    _dump_json(path, {
        "meta": meta,
        "max_deviation": deviation,
        "threshold": sec["threshold"],
        "pass": bool(deviation <= sec["threshold"]),
    })
    return 0


# -- learn-graph --------------------------------------------------------------------

# Bundled manifold-recovery tasks, one entry each.  ``init=None`` starts
# from the true edge set with 5% jittered weights plus one spurious edge
# (0, 2): the optimizer must prune the intruder and converge to the teacher
# weights.  The accelerated schedules settle at 1 / lam_max, then run
# Chebyshev cycles tuned to the measured curvature window (lam_min, lam_max).
_STEADY_LEARN = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
_SAMPLER_SEED = 202
_JITTER_SEED = 7
_SPURIOUS_WEIGHT = 0.1


@dataclasses.dataclass(frozen=True)
class _Task:
    spec: ManifoldSpec
    inj_radius: float
    readout_seed: int
    step_size: tuple[float, ...]
    bump_width_factor: float = 1.0
    add_threshold: float = 1e-5
    candidate_fraction: float = 1.0
    init: tuple[tuple[int, int, float], ...] | None = None


def _accelerated(lam_min: float, lam_max: float, settle: int, cycle_len: int,
                 cycles: int) -> tuple[float, ...]:
    return (1.0 / lam_max,) * settle + chebyshev_schedule(
        lam_min, lam_max, cycle_len, cycles)


# The 5-vertex ring studies start on a plateau deep inside the true stratum
# (all four chain edges, heavily jittered weights) so that edge additions
# are probed near the within-stratum optimum; c5_chain's long flat tail
# finishes weight convergence after the chain has been completed, and
# c5_noisy steps at 1000 throughout (a schedule repeats its last step).
_C5_RING = dict(spec=ManifoldSpec("circle", (1.0,), n_net_points=5),
                inj_radius=2.0, readout_seed=28, add_threshold=1e-4,
                init=((0, 1, 2.331), (1, 2, 2.976), (2, 3, 3.029),
                      (3, 4, 2.305)))

_TASKS = {
    "c4": _Task(ManifoldSpec("circle", (1.0,), n_net_points=4), 2.0, 246,
                _accelerated(1.01e-7, 6.30e-5, 30, 64, 2)),
    "c8": _Task(ManifoldSpec("circle", (1.0,), n_net_points=8), 1.0, 349,
                _accelerated(2.44e-7, 2.16e-5, 20, 32, 3),
                bump_width_factor=0.7, candidate_fraction=0.1),
    "p4": _Task(ManifoldSpec("segment", length=3.0, n_net_points=4), 1.5, 366,
                _accelerated(1.02e-6, 1.51e-4, 20, 32, 3)),
    "two_circles": _Task(
        ManifoldSpec("disjoint_circles", (1.0, 1.0), n_net_points=6), 1.5, 147,
        _accelerated(3.00e-7, 2.36e-5, 20, 32, 2), bump_width_factor=0.7,
        candidate_fraction=0.05),
    "c5_chain": _Task(**_C5_RING, step_size=(1000.0,) * 60 + (17668.0,) * 340),
    "c5_noisy": _Task(**_C5_RING, step_size=(1000.0,)),
}


def _task_teacher(task: _Task, seed: int,
                  noise_delta: float = 0.0) -> TeacherSampler:
    """The teacher of a bundled task: its truth, readout and bump width."""
    truth = build_ground_truth(task.spec, task.inj_radius)
    readout = PopulationReadout.random(truth.n, seed=task.readout_seed)
    width = task.bump_width_factor * truth.default_bump_width
    return TeacherSampler(truth, readout, _STEADY_LEARN, seed=seed,
                          bump_width=width, noise_delta=noise_delta)


def _learn_graph_setup(resolved: dict):
    sec = resolved["learn_graph"]
    task, seed = _TASKS[sec["task"]], resolved["seed"]
    if sec["task"] == "c5_noisy":
        # finite noisy batches; the run-level seed selects the replicate
        batch = sec["batch_size"] or 8
        delta = 0.15 if sec["noise_delta"] is None else sec["noise_delta"]
        sampler = teacher = _task_teacher(task, 300 + batch + 1000 * seed,
                                          noise_delta=delta)
        iterations, opt_seed = 12, batch + 17 * seed
    else:
        teacher = _task_teacher(task, _SAMPLER_SEED)
        sampler, batch = teacher.exact_sampler(), teacher.truth.n
        iterations, opt_seed = len(task.step_size), seed
    truth = teacher.truth
    config = OptimizerConfig(
        iterations=iterations if sec["iterations"] is None
        else sec["iterations"],
        prune_threshold=0.05, add_threshold=task.add_threshold,
        step_size=task.step_size, batch_size=batch, l1_coeff=1e-11,
        l2_coeff=1e-11, seed=opt_seed,
        candidate_fraction=task.candidate_fraction)
    pairs = truth.n * (truth.n - 1) // 2
    # a warm step solves its current rows and its probe rows in one call
    rows = (math.ceil(config.candidate_fraction * pairs) + 1) * batch
    if rows > _MAX_DRAW:
        raise ConfigError(f"learn_graph.batch_size: a descent step would solve "
                          f"{rows} rows at once, must be at most {_MAX_DRAW}")
    if task.init is None:
        rng = np.random.default_rng(_JITTER_SEED + seed)
        w0 = truth.teacher_weights * (
            1.0 + 0.05 * rng.uniform(-1, 1, truth.teacher_weights.size))
        init = [(u, v, w) for (u, v), w in zip(truth.e_true, w0)]
        init.append((0, 2, _SPURIOUS_WEIGHT))
    else:
        init = list(task.init)
    return config, sampler, build_graph(truth.n, init), teacher.readout, truth


def _distortion_checkpoints(log, config, truth) -> list[dict]:
    if not log.records:
        return []
    out = []
    for fraction in (0.25, 0.5, 1.0):
        idx = min(int(fraction * config.iterations), len(log.records)) - 1
        if idx < 0:
            continue
        rec = log.records[idx]
        graph = build_graph(truth.n, [(u, v, w) for (u, v), w in
                                      zip(rec.edges, rec.weights)])
        rep = distortion_report(graph, truth)
        out.append({"fraction": fraction, "t": rec.t, "loss": rec.loss,
                    "max_additive_distortion": rep.max_additive_distortion})
    return out


def _run_learn_graph(resolved: dict, meta: dict) -> int:
    config, sampler, init, readout, truth = _learn_graph_setup(resolved)
    g, log, history = run(config, sampler, init, readout=readout,
                          engine=SteadySolveEngine(_STEADY_LEARN))

    out = resolved["output_dir"]
    strata_path = os.path.join(out, "strata.jsonl")
    write_strata_jsonl(log, strata_path)
    _prepend_line(strata_path, _meta_record(meta))
    _dump_json(os.path.join(out, "final_graph.json"),
               {"meta": meta, "graph": graph_to_dict(g)})

    final_rep = distortion_report(g, truth)
    summary = visited_strata_count(log, truth.e_true)
    edges_match = g.edges == truth.e_true
    report = {
        "meta": meta,
        "task": resolved["learn_graph"]["task"],
        "truth": {
            "n": truth.n,
            "e_true": [list(e) for e in truth.e_true],
            "betti": list(truth.betti),
            "teacher_weights": truth.teacher_weights,
        },
        "final": {
            "edges": [list(e) for e in g.edges],
            "weights": g.weights,
            "betti": list(betti_numbers(g)),
            "max_additive_distortion": final_rep.max_additive_distortion,
            "gh_upper_bound": final_rep.gh_upper_bound,
            "edges_match_truth": edges_match,
            "max_weight_error": (
                float(np.abs(g.weights - truth.teacher_weights).max())
                if edges_match and truth.e_true else None),
        },
        "checkpoints": _distortion_checkpoints(log, config, truth),
        "strata": {
            "count": summary.count,
            "true_subset_count": summary.true_subset_count,
            "spurious_count": summary.spurious_count,
            "visited": [{"t": t, "edges": [list(e) for e in edges]}
                        for edges, t in log.visited],
        },
        "events": [{"t": r.t, "added": [list(e) for e in r.added],
                    "pruned": [list(e) for e in r.pruned]}
                   for r in log.records if r.added or r.pruned],
        "failed_steps": sum(1 for r in log.records if r.failed),
        # failed steps carry nan in memory; keep the file strict JSON
        "loss_history": [x if math.isfinite(x) else None for x in history],
    }
    _dump_json(os.path.join(out, "report.json"), report)
    return 0


# -- train ----------------------------------------------------------------------

# The bundled training task: a self-consistent linear-input teacher on the
# teacher graph of the c4 task.  Targets come from the teacher model itself, so
# the teacher parameters are an exact zero of the data term (fixed-point
# initialization), while random trainees must cross basins of slow solver
# convergence — those solves are capped tightly and logged as failures rather
# than allowed to stall the run.
_TRAIN_FAST = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=400.0)
_TEACHER_OUTPUT_SEED = 91


def _train_teacher_setup():
    sampler = _task_teacher(_TASKS["c4"], _SAMPLER_SEED)
    truth, g_star = sampler.truth, sampler.graph
    bumps = [sampler.canonical_bump(v) for v in range(truth.n)]
    rng = np.random.default_rng(_TEACHER_OUTPUT_SEED)
    a3 = (rng.standard_normal(truth.n)
          + 1j * rng.standard_normal(truth.n)) / np.sqrt(truth.n)
    teacher = fm.ModelParams(
        a1=np.eye(truth.n, dtype=complex), b1=np.zeros(truth.n), a3=a3,
        b3=0.0, activation1="identity", activation3="identity")
    return truth, g_star, bumps, teacher


def _train_config(phase: dict, batch: int, seed: int) -> fm.TrainConfig:
    moduli = OptimizerConfig(
        prune_threshold=0.05, add_threshold=1e-5,
        step_size=phase["step_size"], batch_size=batch, l1_coeff=1e-11,
        l2_coeff=1e-11, seed=seed, candidate_fraction=0.5)
    return fm.TrainConfig(epochs=phase["epochs"], lr_params=phase["lr"],
                          moduli_config=moduli)


def _gap_sweep(train_losses, test_losses, sizes) -> list[dict]:
    return [dataclasses.asdict(fm.generalization_gap(train_losses[:m],
                                                     test_losses[:m]))
            for m in sizes]


def _run_train(resolved: dict, meta: dict) -> int:
    sec = resolved["train"]
    seed = resolved["seed"]
    out = resolved["output_dir"]
    # the trainee's graph starts at the teacher's
    truth, g, bumps, teacher = _train_teacher_setup()
    # one labeler on one teacher engine for every stream of the run
    label = functools.partial(fm.model_teacher_sampler, teacher, g,
                              SteadySolveEngine(_STEADY_LEARN))
    stream = functools.partial(fm.noisy_input_stream, bumps,
                               sec["noise_delta"])
    data = label(stream(seed=1000 + seed))

    if sec["task"] == "teacher_fixed_point":
        params = teacher
    else:
        params = fm.random_params(truth.n, truth.n, seed=seed)
    engine = SteadySolveEngine(_TRAIN_FAST)
    batch = sec["batch_size"]

    history: list[fm.EpochRecord] = []
    for k, phase in enumerate((sec["phase1"], sec["phase2"])):
        params, g, part = fm.train(
            data, _train_config(phase, batch, seed + k), params, g,
            engine=engine)
        offset = len(history)
        history += [dataclasses.replace(r, epoch=r.epoch + offset)
                    for r in part]

    fm.save_checkpoint(os.path.join(out, "checkpoint.json"), params, g,
                       extra={"meta": _canon(meta)})
    hist_path = os.path.join(out, "history.csv")
    fm.write_history_csv(hist_path, fm.EpochRecord, history)
    _prepend_line(hist_path, _meta_comment(meta))

    baseline_params = None
    if sec["include_baseline"]:
        baseline_params = fm.random_baseline(truth.n, truth.n, seed=seed)
        baseline_params, baseline_history = fm.baseline_train(
            data, baseline_params, epochs=sec["baseline"]["epochs"],
            lr_params=sec["baseline"]["lr"], batch_size=batch)
        _dump_json(os.path.join(out, "baseline_checkpoint.json"),
                   {"meta": meta,
                    "baseline": fm._encode_params(baseline_params)})
        baseline_path = os.path.join(out, "baseline_history.csv")
        fm.write_history_csv(baseline_path, fm.BaselineEpochRecord,
                             baseline_history)
        _prepend_line(baseline_path, _meta_comment(meta))

    if sec["gap_sizes"]:
        sizes = sec["gap_sizes"]
        train_seed, heldout_seed = 7000 + seed, 8000 + seed
        train_pairs = label(stream(seed=train_seed))(max(sizes))
        test_pairs = label(stream(seed=heldout_seed))(max(sizes))
        split = len(train_pairs)
        model = fm.loss_samples(params, g, train_pairs + test_pairs,
                                SteadySolveEngine(_TRAIN_FAST))
        baseline = [fm.baseline_loss_sample(baseline_params, x, y)
                    for x, y in train_pairs + test_pairs]
        _dump_json(os.path.join(out, "gap_report.json"), {
            "meta": meta,
            "noise_delta": sec["noise_delta"],
            "stream_seeds": {"train": train_seed, "heldout": heldout_seed},
            "models": {
                "model": _gap_sweep(model[:split], model[split:], sizes),
                "baseline": _gap_sweep(baseline[:split], baseline[split:],
                                       sizes),
            },
        })
    return 0


# -- report ----------------------------------------------------------------------

_REPORT_FILES = (
    "trajectory.csv", "invariants.jsonl", "deviation.json", "strata.jsonl",
    "final_graph.json", "report.json", "checkpoint.json",
    "baseline_checkpoint.json", "history.csv", "baseline_history.csv",
    "gap_report.json",
)


def _read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _history_summary(path: str) -> dict:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("# meta:")]
    rows = list(csv.DictReader(lines))
    out: dict[str, Any] = {"epochs": len(rows)}
    if rows:
        out["final_train_loss"] = float(rows[-1]["train_loss"])
    return out


def _summarize_output(name: str, path: str) -> dict:
    entry: dict[str, Any] = {"sha256": _sha256_file(path)}
    if name == "deviation.json":
        data = _read_json(path)
        if "failure" in data:
            entry["failure_type"] = data["failure"]["type"]
        else:
            entry["max_deviation"] = data["max_deviation"]
        entry["pass"] = data["pass"]
    elif name == "report.json":
        data = _read_json(path)
        entry["task"] = data["task"]
        entry["final_betti"] = data["final"]["betti"]
        entry["max_additive_distortion"] = (
            data["final"]["max_additive_distortion"])
        entry["edges_match_truth"] = data["final"]["edges_match_truth"]
        entry["strata_count"] = data["strata"]["count"]
        entry["spurious_count"] = data["strata"]["spurious_count"]
    elif name == "gap_report.json":
        data = _read_json(path)
        entry["models"] = {
            model: [{"m": row["m"], "gap": row["gap"]} for row in rows]
            for model, rows in data["models"].items()}
    elif name in ("history.csv", "baseline_history.csv"):
        entry.update(_history_summary(path))
    return entry


def _run_report(resolved: dict, meta: dict) -> int:
    out = resolved["output_dir"]
    outputs = {}
    for name in _REPORT_FILES:
        path = os.path.join(out, name)
        if os.path.exists(path):
            outputs[name] = _summarize_output(name, path)
    _dump_json(os.path.join(out, "summary.json"),
               {"meta": meta, "outputs": outputs})
    return 0


# -- entry point --------------------------------------------------------------------

_COMMANDS: dict[str, tuple[str, Callable[[dict], dict],
                           Callable[[dict, dict], int]]] = {
    "simulate": ("simulate", resolve_simulate, _run_simulate),
    "gauge-check": ("gauge_check", resolve_gauge_check, _run_gauge_check),
    "learn-graph": ("learn_graph", resolve_learn_graph, _run_learn_graph),
    "train": ("train", resolve_train, _run_train),
    "report": ("report", resolve_report, _run_report),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file")
    common.add_argument("--seed", metavar="INT", type=int, default=None,
                        help="override the run seed")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="override the output directory")
    common.add_argument("--set", metavar="K=V", action="append", default=[],
                        dest="overrides",
                        help="override one config entry (dotted path, JSON "
                             "literal value); repeatable")
    parser = argparse.ArgumentParser(
        prog="spectral-moduli",
        description="Seeded, byte-reproducible experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    section, resolver, runner = _COMMANDS[args.command]
    try:
        threads = _resolve_threads()
        raw = _load_config(args.config)
        for pair in args.overrides:
            parts, value = _parse_assignment(pair)
            _apply_assignment(raw, parts, value)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["output_dir"] = args.out
        resolved = resolver(raw)
        meta = _build_meta(args.command, resolved, threads)
        os.makedirs(resolved["output_dir"], exist_ok=True)
        return runner(resolved, meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
