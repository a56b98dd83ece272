"""Driver tests: config validation, exit codes, output formats, reruns."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spectral_moduli
from spectral_moduli import cli, moduli
from spectral_moduli import fann_model as fm
from spectral_moduli.dynamics import to_circle
from spectral_moduli.graph_core import graph_to_dict


def run_cli(*args: str) -> int:
    return cli.main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_meta_line(path):
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    assert first.startswith("# meta: ")
    return json.loads(first[len("# meta: "):])


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def child_env() -> dict:
    """Environment for a child interpreter that imports this same package.

    The pytest ``pythonpath`` setting reaches only the test process, so the
    directory ``spectral_moduli`` was imported from goes first on the
    child's PYTHONPATH.
    """
    src = str(Path(spectral_moduli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def dir_hashes(path) -> dict:
    out = {}
    for child in sorted(path.iterdir()):
        out[child.name] = hashlib.sha256(child.read_bytes()).hexdigest()
    return out


# -- config plumbing ----------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("simulate", "--config", str(bad),
                   "--out", str(tmp_path)) == 2


def test_non_object_config_exits_2(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert run_cli("simulate", "--config", str(bad),
                   "--out", str(tmp_path)) == 2


def test_unknown_top_level_key_exits_2(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "bogus=1") == 2


def test_unknown_nested_key_exits_2(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.dynamcs.dt=0.1") == 2


def test_malformed_set_exits_2(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path), "--set", "no-equals") == 2


def test_set_through_scalar_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"system": "nlse"}}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path),
                   "--set", "simulate.system.deep=1") == 2


def test_wrong_value_types_exit_2(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.dynamics.dt=true") == 2
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "seed=-1") == 2
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.system=banana") == 2


@pytest.mark.parametrize("command, pair", [
    ("simulate", "simulate.dynamics.dt=NaN"),
    ("simulate", "simulate.dynamics.t_final=Infinity"),
    ("simulate", "simulate.dynamics.gamma=-Infinity"),
    pytest.param("simulate", "simulate.dynamics.dt=1" + "0" * 400,
                 id="simulate-int-beyond-float-range"),
    ("gauge-check", "gauge_check.threshold=NaN"),
])
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, pair):
    # json.loads reads NaN and Infinity; they are config errors, not
    # runtime failures or silent passes
    assert run_cli(command, "--out", str(tmp_path), "--set", pair) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ("[[NaN,0],[1,0],[0,1]]", "values must be finite"),
    ("[[1e308,0],[1,0],[0,1]]", "norm overflows"),
], ids=["nan", "overflowing-norm"])
def test_explicit_initial_values_must_be_finite_exit_2(tmp_path, capsys,
                                                       values, message):
    pair = ('simulate.initial={"mode":"explicit","values":%s}' % values)
    assert run_cli("simulate", "--out", str(tmp_path), "--set", pair) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, pairs", [
    ("simulate", ("simulate.dynamics.dt=20", "simulate.dynamics.t_final=10")),
    ("simulate", ("simulate.dynamics.dt=1e-300",)),
    ("gauge-check", ("gauge_check.dynamics.t_final=1e300",)),
], ids=["step-beyond-horizon", "step-count-beyond-ceiling",
        "horizon-beyond-ceiling"])
def test_horizon_and_step_count_checked_before_work_exit_2(tmp_path, command,
                                                           pairs):
    # a step past t_final would write a record beyond the horizon asked for;
    # 10^301 steps would ask numpy for a trajectory it cannot allocate
    args = [command, "--out", str(tmp_path)]
    for pair in pairs:
        args += ["--set", pair]
    start = time.perf_counter()
    assert run_cli(*args) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command, pairs", [
    ("train", ("train.batch_size=1000000000000",)),
    ("learn-graph", ("learn_graph.task=c5_noisy",
                     "learn_graph.batch_size=100000000000")),
    ("train", ("train.gap_sizes=[50,1000000000000]",)),
], ids=["train-batch", "c5-noisy-batch", "gap-size"])
def test_sampler_draw_counts_checked_before_work_exit_2(tmp_path, capsys,
                                                        command, pairs):
    # a sampler loops over its pairs in Python, growing memory as it goes,
    # so these draws would otherwise run for hours
    args = [command, "--out", str(tmp_path)]
    for pair in pairs:
        args += ["--set", pair]
    start = time.perf_counter()
    assert run_cli(*args) == 2
    assert time.perf_counter() - start < 1.0
    assert f"must be at most {cli._MAX_DRAW}" in capsys.readouterr().err


def test_sampler_draw_ceiling_is_inclusive():
    raw = {"train": {"batch_size": cli._MAX_DRAW, "phase1": {"epochs": 1},
                     "phase2": {"epochs": 0}, "include_baseline": False,
                     "gap_sizes": None}}
    assert cli.resolve_train(raw)["train"]["batch_size"] == cli._MAX_DRAW
    raw["train"]["phase2"]["epochs"] = 2
    with pytest.raises(cli.ConfigError, match="train.phase2.epochs"):
        cli.resolve_train(raw)


@pytest.mark.parametrize("command, pairs, message", [
    ("simulate", ("simulate.graph.n=30000", "simulate.dynamics.t_final=0.002"),
     f"must be at most {cli._MAX_VERTICES}"),
    ("gauge-check", ("gauge_check.graph.n=30000",
                     "gauge_check.dynamics.t_final=0.002"),
     f"must be at most {cli._MAX_VERTICES}"),
    ("simulate", ("simulate.graph.n=2000", "simulate.dynamics.dt=1e-5"),
     f"must be at most {cli._MAX_VERTICES}"),
    ("simulate", ("simulate.graph.n=200", "simulate.dynamics.dt=1e-5"),
     f"must be at most {cli._MAX_STATES}"),
    ("learn-graph", ("learn_graph.task=c5_noisy",
                     "learn_graph.batch_size=100000",
                     "learn_graph.iterations=1"),
     f"must be at most {cli._MAX_DRAW}"),
], ids=["dense-matrix", "gauge-dense-matrix", "stored-trajectory",
        "stored-trajectory-at-vertex-ceiling", "probe-pass-rows"])
def test_allocation_sizes_checked_before_work_exit_2(tmp_path, capsys,
                                                     command, pairs, message):
    # each would ask numpy for gigabytes: a dense 30000 x 30000 matrix,
    # 10^6 stored states of 2000 (or 200) vertices, or a steady solve of
    # 10 candidate pairs x 10^5 inputs
    args = [command, "--out", str(tmp_path)]
    for pair in pairs:
        args += ["--set", pair]
    start = time.perf_counter()
    assert run_cli(*args) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_allocation_ceilings_are_inclusive():
    sim = {"simulate": {"graph": {"n": cli._MAX_VERTICES},
                        "dynamics": {"dt": 1.0, "t_final": 49999.0}}}
    assert cli.resolve_simulate(sim)["simulate"]["graph"]["n"] == 200
    sim["simulate"]["dynamics"]["t_final"] = 50000.0  # 10^7 + 200 states
    with pytest.raises(cli.ConfigError, match="stored vertex states"):
        cli.resolve_simulate(sim)
    with pytest.raises(cli.ConfigError, match="gauge_check.graph.n"):
        cli.resolve_gauge_check(
            {"gauge_check": {"graph": {"n": cli._MAX_VERTICES + 1}}})
    # a c5_noisy step solves at most its 10 vertex pairs and its current
    # graph on every batch input
    raw = {"learn_graph": {"task": "c5_noisy",
                           "batch_size": cli._MAX_DRAW // 11}}
    config = cli._learn_graph_setup(cli.resolve_learn_graph(raw))[0]
    assert config.batch_size == cli._MAX_DRAW // 11
    raw["learn_graph"]["batch_size"] += 1
    with pytest.raises(cli.ConfigError, match="descent step"):
        cli._learn_graph_setup(cli.resolve_learn_graph(raw))


@pytest.mark.parametrize("task", ["c4", "c5_noisy"])
def test_learn_graph_iterations_checked_at_resolve_exit_2(tmp_path, capsys,
                                                          task):
    # every iteration logs a record, so 10^9 of them would run for hours
    assert cli._MAX_ITERATIONS >= len(cli._TASKS["c5_chain"].step_size)
    raw = {"learn_graph": {"task": task, "iterations": cli._MAX_ITERATIONS}}
    assert cli.resolve_learn_graph(raw)["learn_graph"]["iterations"] \
        == cli._MAX_ITERATIONS
    start = time.perf_counter()
    assert run_cli("learn-graph", "--out", str(tmp_path),
                   "--set", f"learn_graph.task={task}",
                   "--set", "learn_graph.iterations=1000000000") == 2
    assert time.perf_counter() - start < 1.0
    assert f"must be at most {cli._MAX_ITERATIONS}" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.integers(0, 64) | st.floats(1e-3, 10.0)
    | st.sampled_from(("c5_noisy", "teacher_fixed_point", "explicit", "spin",
                       "ll", "real", "pushforward")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_FIELD_KEYS = ("graph", "graph.kind", "graph.n", "graph.weight", "graph.edges",
               "initial", "initial.mode", "initial.values",
               "initial.normalize", "dynamics", "dynamics.gamma",
               "dynamics.dt", "dynamics.t_final", "dynamics.renorm_tol")
_PHASE_KEYS = tuple(f"{phase}{key}" for phase in ("phase1", "phase2")
                    for key in ("", ".epochs", ".lr", ".step_size"))
_RESOLVERS = {
    "simulate": (cli.resolve_simulate, ("system", "spin_law") + _FIELD_KEYS),
    "gauge_check": (cli.resolve_gauge_check,
                    ("pair", "spin_law", "threshold") + _FIELD_KEYS),
    "learn_graph": (cli.resolve_learn_graph,
                    ("task", "iterations", "batch_size", "noise_delta")),
    "train": (cli.resolve_train,
              ("task", "batch_size", "noise_delta", "include_baseline",
               "gap_sizes", "baseline", "baseline.epochs", "baseline.lr")
              + _PHASE_KEYS),
}


@given(data=st.data())
def test_resolvers_resolve_or_raise_config_error(data):
    # random JSON values at random known keys: a config either resolves to
    # one the meta block can hash, or is refused as a config error (exit 2)
    section = data.draw(st.sampled_from(sorted(_RESOLVERS)))
    resolver, keys = _RESOLVERS[section]
    paths = ("seed", "output_dir", section) + tuple(
        f"{section}.{key}" for key in keys)
    raw: dict = {}
    try:
        for path, value in data.draw(st.lists(
                st.tuples(st.sampled_from(paths), _JSON), min_size=0,
                max_size=3)):
            cli._apply_assignment(raw, path.split("."), value)
        resolved = resolver(raw)
    except cli.ConfigError:
        return
    assert cli._canonical_json(resolved)


_TYPED_ERRORS = {"InvalidStateError", "SingularProjectorError",
                 "SouthPoleError", "DivergenceError", "GraphError",
                 "DimensionMismatchError"}
_EXTREME = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 1e-300, 1e308, -1e308])


@given(data=st.data())
def test_small_flow_runs_exit_0_2_or_3_with_a_typed_error(data):
    # resolved simulate and gauge-check configs on small graphs and short
    # horizons, extreme numbers included: exit 3 only for a typed failure
    command = data.draw(st.sampled_from(["simulate", "gauge_check"]))
    kind = data.draw(st.sampled_from(["single", "path", "cycle", "complete"]))
    n = 1 if kind == "single" else data.draw(st.integers(1, 4))
    t_final = data.draw(st.sampled_from([1e-3, 0.05, 1.0]))
    body = {
        "spin_law": data.draw(st.sampled_from(["cross", "pushforward"])),
        "graph": {"kind": kind, "n": n,
                  "weight": data.draw(st.sampled_from([1.0, 1e-300, 1e308])
                                      | st.floats(0.01, 100.0))},
        "dynamics": {"gamma": data.draw(st.sampled_from([0.0, 1.0, 1e308])),
                     "t_final": t_final,
                     "dt": t_final / data.draw(st.integers(1, 20))},
    }
    if command == "simulate":
        body["system"] = data.draw(st.sampled_from(cli._SYSTEMS))
        complex_field = body["system"] in ("nlse", "ll")
        modes = ["random_unit", "explicit"]
    else:
        body["pair"] = data.draw(st.sampled_from(["complex", "real"]))
        complex_field = body["pair"] == "complex"
        modes = ["random_unit", "explicit", "spin"]
    mode = data.draw(st.sampled_from(modes))
    body["initial"] = {"mode": mode}
    if mode == "spin":  # the south pole (0, 0, -1) is the chart's hole
        entry = (st.lists(_EXTREME, min_size=3, max_size=3)
                 | st.just([0.0, 0.0, -1.0]))
    else:
        entry = (st.lists(_EXTREME, min_size=2, max_size=2)
                 if complex_field else _EXTREME)
    if mode != "random_unit":
        body["initial"]["values"] = data.draw(st.lists(entry, min_size=n,
                                                       max_size=n))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err):
        code = cli.main([command.replace("_", "-"), "--out", out,
                         "--set", f"{command}={json.dumps(body)}"])
    assert code in (0, 2, 3), err.getvalue()
    if code == 3:
        found = re.search(r"(?:runtime error|gauge check failed): (\w+):",
                          err.getvalue())
        assert found and found.group(1) in _TYPED_ERRORS, err.getvalue()


_BAD_ENDPOINT = (st.integers(-3, 3).map(lambda k: k + 0.5) | st.booleans()
                 | st.sampled_from(["0", "1", "", "a"]))
_BAD_WEIGHT = (st.booleans() | st.sampled_from(["1.0", "", "w"]) | st.none()
               | st.lists(st.floats(0.1, 2.0), max_size=2))


@given(data=st.data())
def test_explicit_edges_with_an_untyped_entry_exit_2_naming_it(data):
    # a fractional, boolean or string endpoint, or a non-numeric weight, is
    # refused before any work, by its place in the list; none is truncated
    # or cast into a graph
    n = data.draw(st.integers(2, 5))
    edges = [[u, u + 1, data.draw(st.floats(0.1, 2.0))] for u in range(n - 1)]
    i = data.draw(st.integers(0, len(edges) - 1))
    k = data.draw(st.integers(0, 2))
    edges[i][k] = data.draw(_BAD_WEIGHT if k == 2 else _BAD_ENDPOINT)
    body = {"kind": "explicit", "n": n, "edges": edges}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--out", out,
                         "--set", f"simulate.graph={json.dumps(body)}"])
    assert code == 2, err.getvalue()
    assert f"simulate.graph.edges[{i}][{k}]:" in err.getvalue()


def test_explicit_initial_values_must_be_numbers_exit_2(tmp_path, capsys):
    values = '[[1, 0], [true, false], [0, "0.5"]]'
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.initial.mode=explicit",
                   "--set", f"simulate.initial.values={values}") == 2
    assert "simulate.initial.values[1][0]: expected a number" in (
        capsys.readouterr().err)


def test_prepend_line_streams_the_body_and_leaves_no_temporary_file(
        tmp_path):
    path = tmp_path / "body.csv"
    body = "".join(f"{k},{k * k}\n" for k in range(5000))
    path.write_text(body)
    cli._prepend_line(str(path), "# meta: {}")
    assert path.read_text() == "# meta: {}\n" + body
    assert os.listdir(tmp_path) == ["body.csv"]


@pytest.mark.parametrize("weight", ["Infinity", "1e400"])
def test_non_finite_explicit_edge_weight_exits_2(tmp_path, capsys, weight):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.graph.kind=explicit",
                   "--set", f"simulate.graph.edges=[[0,1,{weight}],[1,2,1.0]]"
                   ) == 2
    assert "invalid graph" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_set_parses_json_literals_and_raw_strings(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out),
                   "--set", "simulate.dynamics.t_final=0.25",
                   "--set", "simulate.graph.kind=path",
                   "--set", "simulate.graph.n=2",
                   "--set", "simulate.initial.normalize=true") == 0
    meta = read_meta_line(out / "trajectory.csv")
    sim = meta["resolved_config"]["simulate"]
    assert sim["dynamics"]["t_final"] == 0.25
    assert sim["graph"]["kind"] == "path"
    assert sim["initial"]["normalize"] is True


def test_seed_and_out_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    other = tmp_path / "other"
    cfg.write_text(json.dumps({"seed": 5, "output_dir": str(tmp_path / "a"),
                               "simulate": {"dynamics": {"t_final": 0.1}}}))
    assert run_cli("simulate", "--config", str(cfg), "--seed", "9",
                   "--out", str(other)) == 0
    meta = read_meta_line(other / "trajectory.csv")
    assert meta["resolved_config"]["seed"] == 9
    assert meta["resolved_config"]["output_dir"] == str(other)


def test_foreign_sections_are_tolerated_but_not_resolved(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "simulate": {"dynamics": {"t_final": 0.1}},
        "train": {"task": "desk_c4"},
    }))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    meta = read_meta_line(out / "trajectory.csv")
    assert "train" not in meta["resolved_config"]


def test_threads_env_validated_and_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "zero")
    assert run_cli("simulate", "--out", str(tmp_path)) == 2
    monkeypatch.setenv(cli.THREADS_ENV, "0")
    assert run_cli("simulate", "--out", str(tmp_path)) == 2
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out),
                   "--set", "simulate.dynamics.t_final=0.1") == 0
    assert read_meta_line(out / "trajectory.csv")["threads"] == 2


# -- simulate -----------------------------------------------------------------


def test_simulate_single_vertex_constant_modulus(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out),
                   "--set", "simulate.graph.kind=single",
                   "--set", "simulate.graph.n=1",
                   "--set", "simulate.initial.mode=explicit",
                   "--set", "simulate.initial.values=[[0.6, 0.8]]",
                   "--set", "simulate.dynamics.t_final=0.5") == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert set(rows[0]) == {"t", "re_0", "im_0"}
    mods = [abs(complex(float(r["re_0"]), float(r["im_0"]))) for r in rows]
    assert np.abs(np.array(mods) - 1.0).max() < 1e-12
    first = rows[0]
    assert (float(first["re_0"]), float(first["im_0"])) == (0.6, 0.8)


def test_simulate_triangle_norms_stay_within_1e9(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out),
                   "--set", "simulate.dynamics.t_final=2.0") == 0
    records = read_jsonl(out / "invariants.jsonl")
    assert "meta" in records[0]
    norms = np.array([r["norm"] for r in records[1:]])
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_simulate_spin_system_logs_constraint(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out),
                   "--set", "simulate.system=ll",
                   "--set", "simulate.dynamics.dt=0.01",
                   "--set", "simulate.dynamics.t_final=0.5") == 0
    records = read_jsonl(out / "invariants.jsonl")
    assert all("constraint" in r for r in records[1:])
    with open(out / "trajectory.csv") as fh:
        header = [ln for ln in fh if not ln.startswith("#")][0]
    assert header.split(",")[1:4] == ["s0_x", "s0_y", "s0_z"]


def simulate_initial_field(seed: int, n: int) -> np.ndarray:
    """The normalized random real field ``simulate`` starts from."""
    rng = cli._component_rng(seed, "simulate.initial")
    field = rng.standard_normal(n)
    return field / np.linalg.norm(field)


def trajectory_rows(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return lines[0].rstrip("\n").split(","), rows


def test_simulate_diffusion_writes_real_field_columns(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out), "--seed", "5",
                   "--set", "simulate.system=diffusion",
                   "--set", "simulate.dynamics.t_final=0.01") == 0
    header, rows = trajectory_rows(out / "trajectory.csv")
    assert header == ["t", "phi_0", "phi_1", "phi_2"]
    assert len(rows) == 11
    assert rows[0, 1:].tolist() == simulate_initial_field(5, 3).tolist()
    records = read_jsonl(out / "invariants.jsonl")
    assert [set(r) for r in records[1:3]] == [{"t", "norm"}] * 2


def test_simulate_spin2d_starts_on_the_circle_chart(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out), "--seed", "5",
                   "--set", "simulate.system=spin2d",
                   "--set", "simulate.dynamics.t_final=0.01") == 0
    header, rows = trajectory_rows(out / "trajectory.csv")
    assert header[1:4] == ["s0_x", "s0_y", "s0_z"]
    start = to_circle(simulate_initial_field(5, 3))
    assert rows[0, 1:].tolist() == start.reshape(-1).tolist()
    spins = rows[:, 1:].reshape(len(rows), 3, 3)
    assert np.all(spins[:, :, 2] == 0.0)
    assert np.abs(np.linalg.norm(spins, axis=2) - 1.0).max() <= 1e-9
    records = read_jsonl(out / "invariants.jsonl")
    assert all("constraint" in r for r in records[1:])


def test_simulate_meta_is_consistent_across_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--out", str(out), "--seed", "3",
                   "--set", "simulate.dynamics.t_final=0.1") == 0
    meta_csv = read_meta_line(out / "trajectory.csv")
    meta_jsonl = read_jsonl(out / "invariants.jsonl")[0]["meta"]
    assert meta_csv == meta_jsonl
    canonical = json.dumps(meta_csv["resolved_config"], sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert meta_csv["inputs_sha256"] == digest


def test_simulate_explicit_shape_mismatch_exits_2(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.initial.mode=explicit",
                   "--set", "simulate.initial.values=[[1.0, 0.0]]") == 2


def test_simulate_nonunit_unnormalized_state_exits_3(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path),
                   "--set", "simulate.initial.mode=explicit",
                   "--set",
                   "simulate.initial.values=[[3,0],[0,0],[0,0]]",
                   "--set", "simulate.initial.normalize=false") == 3


# -- gauge-check --------------------------------------------------------------


def test_gauge_check_pushforward_triangle_passes(tmp_path):
    out = tmp_path / "run"
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.spin_law=pushforward",
                   "--set", "gauge_check.dynamics.dt=0.01",
                   "--set", "gauge_check.dynamics.t_final=2.0") == 0
    report = read_json(out / "deviation.json")
    assert report["pass"] is True
    assert report["max_deviation"] <= 1e-6
    assert report["threshold"] == 1e-6


def test_gauge_check_cross_law_reports_honest_failure(tmp_path):
    out = tmp_path / "run"
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.dynamics.dt=0.01",
                   "--set", "gauge_check.dynamics.t_final=2.0") == 0
    report = read_json(out / "deviation.json")
    assert report["pass"] is False
    assert report["max_deviation"] > 1e-6


def test_gauge_check_real_pair_cross_law_departs(tmp_path):
    # the circle-valued cross law turns at another rate than the charted
    # diffusion flow; the pushforward law tracks it to rounding
    args = ("--set", "gauge_check.pair=real",
            "--set", "gauge_check.dynamics.t_final=0.1")
    assert run_cli("gauge-check", "--out", str(tmp_path / "cross"),
                   *args) == 0
    cross = read_json(tmp_path / "cross" / "deviation.json")
    assert cross["pass"] is False
    assert 0.1 < cross["max_deviation"] <= 2.0
    assert run_cli("gauge-check", "--out", str(tmp_path / "push"), *args,
                   "--set", "gauge_check.spin_law=pushforward") == 0
    push = read_json(tmp_path / "push" / "deviation.json")
    assert push["pass"] is True
    assert push["max_deviation"] <= 1e-10


def test_gauge_check_single_vertex_tiny_deviation(tmp_path):
    out = tmp_path / "run"
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.spin_law=pushforward",
                   "--set", "gauge_check.graph.kind=single",
                   "--set", "gauge_check.graph.n=1",
                   "--set", "gauge_check.dynamics.t_final=1.0") == 0
    report = read_json(out / "deviation.json")
    assert report["max_deviation"] < 1e-10


def test_gauge_check_single_vertex_cross_law_phase_rate_gap(tmp_path):
    # On one vertex the field is e^{-iVt} psi0 while the cross-product law
    # spins the sphere image at a different rate; the gap after time t is the
    # chord 2 sin(dt/2) of the accumulated relative phase.  Measuring exactly
    # 2 sin(1/2) pins the relative rate error to 1.0 * V in closed form.
    out = tmp_path / "run"
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.graph.kind=single",
                   "--set", "gauge_check.graph.n=1",
                   "--set", "gauge_check.dynamics.t_final=1.0") == 0
    report = read_json(out / "deviation.json")
    assert report["max_deviation"] == pytest.approx(2.0 * np.sin(0.5),
                                                    abs=1e-9)


def test_gauge_check_south_pole_structured_failure(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.initial.mode=spin",
                   "--set",
                   "gauge_check.initial.values=[[0,0,-1],[0,0,1],[1,0,0]]")
    assert code == 3
    report = read_json(out / "deviation.json")
    assert report["pass"] is False
    assert report["failure"]["type"] == "SouthPoleError"
    assert "excluded" in report["failure"]["message"]


# -- learn-graph --------------------------------------------------------------


def test_learn_graph_zero_iterations_initial_stratum_only(tmp_path):
    out = tmp_path / "run"
    assert run_cli("learn-graph", "--out", str(out),
                   "--set", "learn_graph.iterations=0") == 0
    report = read_json(out / "report.json")
    assert len(report["strata"]["visited"]) == 1
    assert report["checkpoints"] == []
    assert report["loss_history"] == []
    # initial point: four true circle edges plus the seeded spurious (0, 2)
    graph = read_json(out / "final_graph.json")["graph"]
    assert len(graph["edges"]) == 5
    records = read_jsonl(out / "strata.jsonl")
    assert len(records) == 1 and "meta" in records[0]


def test_learn_graph_truncated_c4_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("learn-graph", "--out", str(out),
                   "--set", "learn_graph.iterations=3") == 0
    report = read_json(out / "report.json")
    assert report["task"] == "c4"
    assert report["truth"]["betti"] == [1, 1]
    assert len(report["loss_history"]) == 3
    assert {c["fraction"] for c in report["checkpoints"]} == {0.5, 1.0}
    records = read_jsonl(out / "strata.jsonl")
    assert len(records) == 4  # meta record + one per iteration
    assert [r["t"] for r in records[1:]] == [0, 1, 2]


def test_learn_graph_noise_delta_restricted_to_noisy_task(tmp_path):
    assert run_cli("learn-graph", "--out", str(tmp_path),
                   "--set", "learn_graph.noise_delta=0.1") == 2


def test_learn_graph_batch_size_restricted_to_noisy_task(tmp_path, capsys):
    # the other tasks always draw their full canonical batch
    assert run_cli("learn-graph", "--out", str(tmp_path),
                   "--set", "learn_graph.task=c5_chain",
                   "--set", "learn_graph.batch_size=2") == 2
    assert "learn_graph.batch_size" in capsys.readouterr().err


def test_learn_graph_noisy_replicate_runs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("learn-graph", "--out", str(out),
                   "--set", "learn_graph.task=c5_noisy",
                   "--set", "learn_graph.iterations=1",
                   "--set", "learn_graph.batch_size=2") == 0
    report = read_json(out / "report.json")
    assert report["truth"]["betti"] == [1, 1]
    assert report["truth"]["n"] == 5
    for key in ("count", "true_subset_count", "spurious_count"):
        assert isinstance(report["strata"][key], int)


def _cycle_edges(n, offset=0):
    return sorted(sorted([offset + i, offset + (i + 1) % n]) for i in range(n))


_C4, _C5 = _cycle_edges(4), _cycle_edges(5)
_TWO_CIRCLES = _cycle_edges(6) + _cycle_edges(6, 6)


# (n, true edges, Betti numbers, edges after one step, first loss), recorded
# from the task set-ups as first released, so that every task's truth,
# readout, sampler, start point and optimizer settings stay as they were
_TASK_PINS = {
    "c4": (4, _C4, [1, 1], sorted(_C4 + [[0, 2]]), 9.521708071933205e-08),
    "c8": (8, _cycle_edges(8), [1, 1], _cycle_edges(8),
           1.802917125565774e-07),
    "p4": (4, [[0, 1], [1, 2], [2, 3]], [1, 0],
           [[0, 1], [1, 2], [1, 3], [2, 3]], 1.8446502113795756e-06),
    "two_circles": (12, _TWO_CIRCLES, [2, 2], sorted(_TWO_CIRCLES + [[0, 2]]),
                    9.487683451641845e-08),
    "c5_chain": (5, _C5, [1, 1], _C5, 3.6886256309375666e-05),
    "c5_noisy": (5, _C5, [1, 1], _C5, 4.200867823041193e-05),
}


@pytest.mark.parametrize("task", list(_TASK_PINS))
def test_learn_graph_task_setups_are_pinned(tmp_path, task):
    n, e_true, betti, edges, loss = _TASK_PINS[task]
    out = tmp_path / "run"
    assert run_cli("learn-graph", "--out", str(out),
                   "--set", f"learn_graph.task={task}",
                   "--set", "learn_graph.iterations=1") == 0
    report = read_json(out / "report.json")
    assert report["truth"]["n"] == n
    assert report["truth"]["e_true"] == e_true
    assert report["truth"]["betti"] == betti
    assert report["final"]["edges"] == edges
    assert report["loss_history"][0] == pytest.approx(loss, rel=1e-9)


# -- train ---------------------------------------------------------------------


def test_train_zero_epochs_passthrough(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.task=teacher_fixed_point",
                   "--set", "train.phase1.epochs=0",
                   "--set", "train.include_baseline=true",
                   "--set", "train.baseline.epochs=0") == 0
    with open(out / "history.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    assert lines == ["epoch,train_loss,n_edges,b0,b1\n"]
    # an empty baseline history is its meta line and its header
    with open(out / "baseline_history.csv") as fh:
        meta, *lines = fh
    assert meta.startswith("#") and lines == ["epoch,train_loss\n"]
    params, point = fm.load_checkpoint(out / "checkpoint.json")
    assert params.activation1 == "identity"
    assert np.array_equal(params.a1, np.eye(4, dtype=complex))
    assert point.n_edges == 4


def test_train_teacher_fixed_point_stays_at_zero_loss(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.task=teacher_fixed_point",
                   "--set", "train.phase1.epochs=2") == 0
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert all(float(r["train_loss"]) < 1e-8 for r in rows)
    assert all(r["n_edges"] == "4" for r in rows)


def test_train_gap_sizes_require_baseline(tmp_path):
    assert run_cli("train", "--out", str(tmp_path),
                   "--set", "train.task=teacher_fixed_point",
                   "--set", "train.gap_sizes=[10]") == 2


def test_train_desk_minimal_emits_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.phase1.epochs=1",
                   "--set", "train.phase2.epochs=0",
                   "--set", "train.baseline.epochs=2",
                   "--set", "train.gap_sizes=[4]") == 0
    for name in ("checkpoint.json", "history.csv", "baseline_checkpoint.json",
                 "baseline_history.csv", "gap_report.json"):
        assert (out / name).exists()
    gap = read_json(out / "gap_report.json")
    assert set(gap["models"]) == {"model", "baseline"}
    for rows in gap["models"].values():
        (row,) = rows
        assert row["m"] == 4
        assert row["noise_bound"] == 1.5
        assert row["gap"] == pytest.approx(row["test_loss"] - row["train_loss"])
    with open(out / "baseline_history.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    assert lines[0] == "epoch,train_loss\n"
    assert len(lines) == 3


def test_train_phase2_epochs_are_renumbered(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.task=teacher_fixed_point",
                   "--set", "train.phase1.epochs=1",
                   "--set", "train.phase2.epochs=2") == 0
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert [r["epoch"] for r in rows] == ["0", "1", "2"]


# -- report --------------------------------------------------------------------


def test_report_empty_directory(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    assert run_cli("report", "--out", str(out)) == 0
    summary = read_json(out / "summary.json")
    assert summary["outputs"] == {}


def test_report_aggregates_with_content_hashes(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.task=teacher_fixed_point",
                   "--set", "train.phase1.epochs=1") == 0
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.spin_law=pushforward",
                   "--set", "gauge_check.graph.kind=single",
                   "--set", "gauge_check.graph.n=1",
                   "--set", "gauge_check.dynamics.t_final=0.5") == 0
    assert run_cli("report", "--out", str(out)) == 0
    summary = read_json(out / "summary.json")
    assert summary["outputs"]["history.csv"]["epochs"] == 1
    assert summary["outputs"]["deviation.json"]["pass"] is True
    for name, entry in summary["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert entry["sha256"] == digest


def test_report_summarizes_learn_graph_output(tmp_path):
    out = tmp_path / "run"
    assert run_cli("learn-graph", "--out", str(out),
                   "--set", "learn_graph.iterations=2") == 0
    assert run_cli("report", "--out", str(out)) == 0
    outputs = read_json(out / "summary.json")["outputs"]
    assert set(outputs) == {"strata.jsonl", "final_graph.json", "report.json"}
    report = read_json(out / "report.json")
    assert outputs["report.json"] == {
        "sha256": hashlib.sha256((out / "report.json").read_bytes())
        .hexdigest(),
        "task": "c4",
        "final_betti": report["final"]["betti"],
        "max_additive_distortion": report["final"]["max_additive_distortion"],
        "edges_match_truth": report["final"]["edges_match_truth"],
        "strata_count": report["strata"]["count"],
        "spurious_count": report["strata"]["spurious_count"],
    }


def test_report_summarizes_train_gap_report(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out),
                   "--set", "train.phase1.epochs=1",
                   "--set", "train.phase2.epochs=0",
                   "--set", "train.baseline.epochs=2",
                   "--set", "train.gap_sizes=[2,4]") == 0
    assert run_cli("report", "--out", str(out)) == 0
    outputs = read_json(out / "summary.json")["outputs"]
    gap = read_json(out / "gap_report.json")
    assert outputs["gap_report.json"]["models"] == {
        model: [{"m": row["m"], "gap": row["gap"]} for row in rows]
        for model, rows in gap["models"].items()}
    assert [row["m"] for row in outputs["gap_report.json"]["models"]
            ["baseline"]] == [2, 4]
    with open(out / "baseline_history.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert outputs["baseline_history.csv"]["epochs"] == 2
    assert outputs["baseline_history.csv"]["final_train_loss"] == float(
        rows[-1]["train_loss"])


def test_report_records_a_failed_gauge_check(tmp_path):
    out = tmp_path / "run"
    assert run_cli("gauge-check", "--out", str(out),
                   "--set", "gauge_check.initial.mode=spin",
                   "--set",
                   "gauge_check.initial.values=[[0,0,-1],[0,0,1],[1,0,0]]"
                   ) == 3
    assert run_cli("report", "--out", str(out)) == 0
    entry = read_json(out / "summary.json")["outputs"]["deviation.json"]
    assert entry == {
        "sha256": hashlib.sha256((out / "deviation.json").read_bytes())
        .hexdigest(),
        "failure_type": "SouthPoleError",
        "pass": False,
    }


# -- reruns are byte-identical ---------------------------------------------------


def _rerun_identical(tmp_path, *args: str) -> None:
    out = tmp_path / "run"
    argv = args + ("--out", str(out))
    assert run_cli(*argv) == 0
    before = dir_hashes(out)
    assert run_cli(*argv) == 0
    assert dir_hashes(out) == before


def test_benchmark_seeds_never_reach_the_flow_path(tmp_path, monkeypatch):
    # the first seeds of the learn_c8 and train_desk benchmark workloads:
    # continuation finishes every row they solve, so no row follows the
    # flow, and a change that makes one do so fails here, not only in a
    # benchmark.  No solver call holds one (graph, input) job twice either,
    # so merging equal jobs would save these runs nothing
    solve, rows, repeats = moduli.solve_steady_state_many, [], []
    step, step_calls = moduli.descent_step, []

    def counted_step(*args, **kwargs):
        before = len(repeats)
        out = step(*args, **kwargs)
        step_calls.append(len(repeats) - before)
        return out

    def recorded(graphs, xs, *args, **kwargs):
        jobs = [(json.dumps(graph_to_dict(g)), np.asarray(x).tobytes())
                for g, x in zip(graphs, xs)]
        repeats.append(len(jobs) - len(set(jobs)))
        out = solve(graphs, xs, *args, **kwargs)
        rows.extend(st.t_reached for st in out)
        return out

    monkeypatch.setattr(moduli, "solve_steady_state_many", recorded)
    monkeypatch.setattr(moduli, "descent_step", counted_step)
    calls = []
    for k, args in enumerate((["learn-graph", "--set", "learn_graph.task=c8"],
                              ["train"])):
        assert run_cli(*args, "--seed", "0",
                       "--out", str(tmp_path / f"run{k}")) == 0
        calls.append(len(repeats) - sum(calls))
    assert rows and all(t == 0.0 for t in rows)
    assert repeats and not any(repeats)
    # c8 makes one call for its teacher targets, two for the first of its
    # 116 steps and one for each later step (fann_model binds its own
    # descent_step, so step_calls holds c8's steps alone); train's inputs
    # are new at every step, so its step still makes two calls
    assert step_calls == [2] + [1] * 115
    assert calls == [118, 69]


def test_rerun_simulate_byte_identical(tmp_path):
    _rerun_identical(tmp_path, "simulate", "--seed", "4",
                     "--set", "simulate.dynamics.t_final=0.5")


def test_rerun_gauge_check_byte_identical(tmp_path):
    _rerun_identical(tmp_path, "gauge-check",
                     "--set", "gauge_check.dynamics.dt=0.01",
                     "--set", "gauge_check.dynamics.t_final=1.0")


def test_rerun_gauge_check_pushforward_byte_identical(tmp_path):
    _rerun_identical(tmp_path, "gauge-check",
                     "--set", "gauge_check.spin_law=pushforward",
                     "--set", "gauge_check.dynamics.dt=0.01",
                     "--set", "gauge_check.dynamics.t_final=1.0")


def test_rerun_learn_graph_byte_identical(tmp_path):
    _rerun_identical(tmp_path, "learn-graph",
                     "--set", "learn_graph.iterations=2")


def test_rerun_train_byte_identical(tmp_path):
    _rerun_identical(tmp_path, "train",
                     "--set", "train.task=teacher_fixed_point",
                     "--set", "train.phase1.epochs=1")


def test_rerun_via_subprocess_matches_in_process(tmp_path):
    out = tmp_path / "run"
    args = ["simulate", "--out", str(out),
            "--set", "simulate.dynamics.t_final=0.2"]
    assert run_cli(*args) == 0
    before = dir_hashes(out)
    proc = subprocess.run([sys.executable, "-m", "spectral_moduli.cli"] + args,
                          capture_output=True, env=child_env())
    assert proc.returncode == 0
    assert dir_hashes(out) == before


def test_cli_import_loads_only_numpy():
    # a fresh interpreter, so modules the test process already holds do not
    # hide what the import pulls in
    code = ("import sys; before = set(sys.modules); import spectral_moduli.cli; "
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'spectral_moduli']"


def test_benchmark_selfcheck_passes():
    # the benchmark's own unit checks: its arithmetic and its wrappers
    bench = Path(__file__).resolve().parent.parent / "bench"
    proc = subprocess.run([sys.executable, str(bench / "selfcheck.py")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_binds_to_the_package(tmp_path, monkeypatch):
    # bench/layers.py wraps package functions by name and binds some of
    # their parameters by name; a renamed boundary must fail here, not only
    # in a traced benchmark run
    bench = Path(__file__).resolve().parent.parent / "bench"
    commands = (
        ["learn-graph", "--set", "learn_graph.task=c4",
         "--set", "learn_graph.iterations=2"],
        ["train", "--set", "train.phase1.epochs=1",
         "--set", "train.phase2.epochs=0",
         "--set", "train.include_baseline=false",
         "--set", "train.gap_sizes=null"],
    )
    traces = []
    for k, args in enumerate(commands):
        trace = tmp_path / f"trace{k}.json"
        proc = subprocess.run(
            [sys.executable, str(bench / "child.py"), "--stamp",
             str(tmp_path / f"stamp{k}"), "--trace", str(trace), "--"]
            + args + ["--out", str(tmp_path / f"out{k}")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        data = read_json(trace)
        traces.append((data["spans"], data["counts"]))
    monkeypatch.syspath_prepend(str(bench))
    import layers
    import tracing

    metrics = layers.summarize(*tracing.merge(traces), wall_s=0.0)
    for name in ("dynamics.steady.rows", "sensitivity.adjoint.calls",
                 "sensitivity.weight_gradients.edges", "moduli.probes",
                 "moduli.descent_step.calls",
                 "fann_model.param_gradients.calls"):
        assert metrics[name] > 0, name


def engine_constructions(tree: ast.AST, scope: str = "") -> list[str]:
    """Qualified names of the scopes in ``tree`` that call
    ``SteadySolveEngine(...)``, once per call; "" for module level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found += engine_constructions(
                node, f"{scope}.{node.name}" if scope else node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "SteadySolveEngine":
                found.append(scope)
        found += engine_constructions(node, scope)
    return found


def test_engines_are_built_only_by_the_cli():
    # every solving function, the teacher sampler included, is handed its
    # engine: a hidden engine built from a config would carry a second copy
    # of the steady settings
    package = Path(spectral_moduli.__file__).resolve().parent
    builders = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        builders |= {(path.name, scope)
                     for scope in engine_constructions(tree)}
    assert {b for b in builders if b[0] != "cli.py"} == set()
    assert ("cli.py", "_run_train") in builders
    assert ("cli.py", "_run_learn_graph") in builders


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_every_import_of_the_package_is_used_or_exported():
    package = Path(spectral_moduli.__file__).resolve().parent
    unused = {path.name: unused_imports(ast.parse(path.read_text()))
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
