"""Tests for the stratified graph-descent optimizer.

Oracles used here:
  * hand arithmetic for the regularizer decomposition and rule triggers;
  * central finite differences of the regularized loss for gradients;
  * teacher self-consistency (data generated by the same solver);
  * log replay for the add/prune rules (events carry enough to re-derive
    every edge-set change);
  * the classical minimax-polynomial contraction factor for the step-size
    cycle helper.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spectral_moduli import dynamics, moduli
from spectral_moduli.dynamics import (NlseConfig, SteadyState, UnconvergedError,
                                      gauge_align, solve_steady_state_many)
from spectral_moduli.graph_core import (GraphError, WeightedGraph, build_graph,
                                        graph_to_dict)
from spectral_moduli.moduli import (
    Batch,
    LossBreakdown,
    OptimizerConfig,
    SteadySolveEngine,
    StrataLog,
    IterationRecord,
    chebyshev_schedule,
    descent_step,
    regularized_loss,
    run,
    stochastic_gradient,
    visited_strata_count,
    write_strata_jsonl,
)
from spectral_moduli.topo_metric import (
    ManifoldSpec,
    PopulationReadout,
    TeacherSampler,
    build_ground_truth,
)

RUN_CFG = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
TIGHT_CFG = NlseConfig(dt=1e-2, steady_tol=1e-11, t_max=4000.0)


def opt_config(**kwargs) -> OptimizerConfig:
    base = dict(iterations=1, prune_threshold=0.05, add_threshold=1e-5,
                step_size=1.0, batch_size=4, l1_coeff=1e-11, l2_coeff=1e-11,
                seed=0)
    base.update(kwargs)
    return OptimizerConfig(**base)


@pytest.fixture(scope="module")
def c3():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=3),
                               inj_radius=2.5)
    readout = PopulationReadout.random(3, seed=5)
    sampler = TeacherSampler(truth, readout, SteadySolveEngine(RUN_CFG),
                             seed=11)
    return truth, readout, sampler


@pytest.fixture(scope="module")
def c4():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                               inj_radius=2.0)
    readout = PopulationReadout.random(4, seed=246)
    sampler = TeacherSampler(truth, readout, SteadySolveEngine(RUN_CFG),
                             seed=202)
    return truth, readout, sampler


@pytest.fixture(scope="module")
def engine():
    return SteadySolveEngine(RUN_CFG)


# ---------------------------------------------------------------------------
# configuration and container validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(iterations=-1),
    dict(prune_threshold=0.0),
    dict(prune_threshold=1.0),
    dict(add_threshold=0.0),
    dict(add_threshold=1.0),
    dict(step_size=0.0),
    dict(step_size=(0.1, -0.2)),
    dict(step_size=()),
    dict(batch_size=0),
    dict(l1_coeff=-1e-3),
    dict(l2_coeff=-1e-3),
    dict(candidate_fraction=0.0),
    dict(candidate_fraction=1.2),
    *[{field: value} for value in (float("nan"), float("inf"))
      for field in ("step_size", "l1_coeff", "l2_coeff", "prune_threshold",
                    "add_threshold", "candidate_fraction")],
    dict(iterations=2.5),
    dict(batch_size=2.5),
    *[{field: value} for value in (float("nan"), float("inf"))
      for field in ("iterations", "batch_size")],
    *[dict(seed=value) for value in (-1, 2.5, float("nan"), float("inf"))],
])
def test_config_rejects_invalid_fields(bad):
    with pytest.raises(ValueError):
        opt_config(**bad)


def test_config_accepts_integral_values_of_any_size():
    for field in ("iterations", "seed"):
        for value in (2**70, 4.0):
            assert getattr(opt_config(**{field: value}), field) == value


def test_step_size_schedule_lookup():
    cfg = opt_config(step_size=0.3)
    assert cfg.step_size_at(0) == cfg.step_size_at(99) == 0.3
    sched = opt_config(step_size=(0.1, 0.2, 0.4))
    assert sched.step_size_at(0) == 0.1
    assert sched.step_size_at(2) == 0.4
    # past the end the schedule holds its last value
    assert sched.step_size_at(50) == 0.4


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(xs=(), ys=())
    with pytest.raises(ValueError):
        Batch(xs=(np.ones(2),), ys=(1.0, 2.0))
    with pytest.raises(ValueError):
        Batch.from_pairs([(np.ones(2), 1.0), (np.ones(3), 2.0)])
    with pytest.raises(ValueError, match="batch must be nonempty"):
        Batch.from_pairs([])
    b = Batch.from_pairs([(np.ones(2), 1.0), (np.zeros(2), 0.5)])
    assert len(b) == 2
    assert b.xs[0].dtype == complex


def test_loss_breakdown_total_is_sum():
    lb = LossBreakdown(data=0.5, l2=0.25, l1=0.125)
    assert lb.total == 0.875


# ---------------------------------------------------------------------------
# regularized loss
# ---------------------------------------------------------------------------

def test_regularizer_hand_value(engine):
    # weights (1, 2) with l1=0.1, l2=0.2: 0.2/2*(1+4) + 0.1*(1+2) = 0.8
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    uniform = np.ones(3) / np.sqrt(3.0)
    batch = Batch.from_pairs([(uniform, 0.0)])
    cfg = opt_config(l1_coeff=0.1, l2_coeff=0.2)
    lb = regularized_loss(g, batch, PopulationReadout(np.zeros(3)),
                          cfg, engine=engine)
    assert lb.l2 + lb.l1 == pytest.approx(0.8, abs=1e-15)


def test_regularizer_vanishes_without_edges():
    g = build_graph(1, [])
    batch = Batch.from_pairs([(np.array([1.0]), 0.0)])
    cfg = opt_config(l1_coeff=0.7, l2_coeff=0.9, batch_size=1)
    lb = regularized_loss(g, batch, PopulationReadout(np.ones(1)),
                          cfg, engine=SteadySolveEngine(RUN_CFG))
    assert lb.l1 == 0.0 and lb.l2 == 0.0


def test_teacher_data_term_is_tiny(c3, engine):
    truth, readout, sampler = c3
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(l1_coeff=0.0, l2_coeff=0.0, batch_size=3)
    lb = regularized_loss(truth.teacher_graph(), batch, readout,
                          cfg, engine=engine)
    assert lb.data < 1e-10
    assert lb.total == lb.data


def test_loss_error_names_failing_sample(c3):
    truth, readout, sampler = c3
    batch = Batch.from_pairs(sampler.exact())
    short = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=0.2)
    cfg = opt_config(batch_size=3)
    with pytest.raises(UnconvergedError, match="sample 0"):
        regularized_loss(truth.teacher_graph(), batch, readout,
                         cfg, engine=SteadySolveEngine(short))


# ---------------------------------------------------------------------------
# stochastic gradient
# ---------------------------------------------------------------------------

def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def fd_loss_gradient(graph, edge, batch, readout, cfg, steady, h=1e-4):
    """Central finite difference of the regularized loss in one weight,
    each side solved by a fresh engine on ``steady``."""
    idx = graph.edge_index()[edge]
    out = []
    for sign in (+1.0, -1.0):
        w = graph.weights.copy()
        w[idx] += sign * h
        shifted = build_graph(graph.n, [(u, v, wi) for (u, v), wi
                                        in zip(graph.edges, w)])
        lb = regularized_loss(shifted, batch, readout, cfg,
                              engine=SteadySolveEngine(steady))
        out.append(lb.total)
    return (out[0] - out[1]) / (2.0 * h)


def test_gradient_matches_fd_on_existing_edge(c3):
    truth, readout, sampler = c3
    # jiggle the teacher weights so the data gradient is visibly nonzero
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights, (1.15, 0.9, 1.05))]
    g = build_graph(3, triples)
    batch = Batch.from_pairs(sampler.exact()[:1])
    cfg = opt_config(l1_coeff=1e-6, l2_coeff=1e-6, batch_size=1)
    edge = truth.e_true[0]
    grad = stochastic_gradient(g, batch, edge, readout=readout,
                               config=cfg, engine=SteadySolveEngine(TIGHT_CFG))
    fd = fd_loss_gradient(g, edge, batch, readout, cfg, TIGHT_CFG)
    assert rel_err(grad, fd) < 1e-3


def test_gradient_is_taken_at_the_gamma_the_engine_solved_at(c3):
    # the engine solves at gamma = 0.5, not NlseConfig's default 1: the
    # adjoint must linearize the flow that was solved
    truth, readout, sampler = c3
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights, (1.15, 0.9, 1.05))]
    g = build_graph(3, triples)
    batch = Batch.from_pairs(sampler.exact()[:1])
    half = dataclasses.replace(TIGHT_CFG, gamma=0.5)
    cfg = opt_config(l1_coeff=1e-6, l2_coeff=1e-6, batch_size=1)
    edge = truth.e_true[0]
    grad = stochastic_gradient(g, batch, edge, readout=readout,
                               config=cfg, engine=SteadySolveEngine(half))
    fd = fd_loss_gradient(g, edge, batch, readout, cfg, half)
    assert rel_err(grad, fd) < 1e-3


def test_gradient_matches_fd_on_probe_edge(c4):
    truth, readout, sampler = c4
    w = dict(zip(truth.e_true, truth.teacher_weights))
    sub = build_graph(4, [(u, v, w[(u, v)]) for (u, v) in truth.e_true
                          if (u, v) != (0, 1)])
    batch = Batch.from_pairs(sampler.exact()[:1])
    cfg = opt_config(l1_coeff=1e-6, l2_coeff=1e-6, batch_size=1)
    grad = stochastic_gradient(sub, batch, (0, 1), test_weight=0.05,
                               readout=readout, config=cfg,
                               engine=SteadySolveEngine(TIGHT_CFG))
    grafted = sub.with_edge((0, 1), 0.05)
    fd = fd_loss_gradient(grafted, (0, 1), batch, readout, cfg, TIGHT_CFG)
    assert rel_err(grad, fd) < 1e-3


def test_constant_readout_gradient_is_pure_regularizer(c3, engine):
    truth, _, sampler = c3
    g = truth.teacher_graph()
    zeros = PopulationReadout(np.zeros(3))
    batch = Batch.from_pairs([(x, 0.0) for x, _ in sampler.exact()])
    cfg = opt_config(l1_coeff=0.3, l2_coeff=0.7, batch_size=3)
    for e, w in zip(g.edges, g.weights):
        grad = stochastic_gradient(g, batch, e, readout=zeros,
                                   config=cfg, engine=engine)
        assert grad == pytest.approx(0.7 * w + 0.3, rel=1e-12)


def test_teacher_point_gradient_dominated_by_regularizer(c4, engine):
    truth, readout, sampler = c4
    g = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(l1_coeff=1e-7, l2_coeff=1e-7)
    for e, w in zip(g.edges, g.weights):
        grad = stochastic_gradient(g, batch, e, readout=readout,
                                   config=cfg, engine=engine)
        assert abs(grad) <= 1e-7 * w + 1e-7 + 1e-6


def test_gradient_argument_errors(c4, engine):
    truth, readout, sampler = c4
    point = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config()
    with pytest.raises(ValueError):
        stochastic_gradient(point, batch, truth.e_true[0], test_weight=0.05,
                            readout=readout, config=cfg, engine=engine)
    with pytest.raises(GraphError):
        stochastic_gradient(point, batch, (0, 2), readout=readout, config=cfg,
                            engine=engine)
    # it solves only with the engine it is given
    with pytest.raises(ValueError, match="engine or steadies"):
        stochastic_gradient(point, batch, truth.e_true[0], readout=readout,
                            config=cfg)


# ---------------------------------------------------------------------------
# single descent step: rules and replay
# ---------------------------------------------------------------------------

def test_step_is_pure_sgd_when_rules_disabled(c4, engine):
    truth, readout, sampler = c4
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights,
                   (1.1, 0.95, 1.02, 0.9))]
    point = build_graph(4, triples)
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(add_threshold=0.999, prune_threshold=1e-9,
                     step_size=100.0)
    new_point, events = descent_step(point, batch, cfg, 0, readout=readout,
                                     engine=engine, rng=np.random.default_rng(0))
    assert events.added == () and events.pruned == ()
    assert new_point.edges == point.edges
    # replay: w' = w - eta * g with g recomputed independently
    for e, w_old, w_new in zip(point.edges, point.weights,
                               new_point.weights):
        g_e = stochastic_gradient(point, batch, e, readout=readout,
                                  config=cfg, engine=engine)
        assert w_new == pytest.approx(w_old - 100.0 * g_e, rel=1e-12)


def test_candidate_added_at_exactly_twice_probe_weight(c4, engine):
    truth, readout, sampler = c4
    w = dict(zip(truth.e_true, truth.teacher_weights))
    sub = build_graph(4, [(u, v, w[(u, v)]) for (u, v) in truth.e_true
                          if (u, v) != (0, 1)])
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(step_size=1.0)
    new_point, events = descent_step(sub, batch, cfg, 0, readout=readout,
                                     engine=engine, rng=np.random.default_rng(0))
    assert (0, 1) in events.added
    assert events.test_gradients[(0, 1)] < -cfg.add_threshold
    new_w = dict(zip(new_point.edges, new_point.weights))
    assert new_w[(0, 1)] == 2.0 * cfg.prune_threshold


def test_update_clamps_then_prunes(c3, engine):
    truth, readout, sampler = c3
    g = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    # enormous l2 and step size drive every weight to the clamp at zero
    cfg = opt_config(l2_coeff=1.0, step_size=10.0, add_threshold=0.999,
                     batch_size=3)
    new_point, events = descent_step(g, batch, cfg, 0, readout=readout,
                                     engine=engine, rng=np.random.default_rng(0))
    assert set(events.pruned) == set(g.edges)
    assert new_point.n_edges == 0
    assert all(w == 0.0 for w in events.post_update_weights.values())


def test_descent_step_solves_once_per_pass(c4, monkeypatch):
    # the current graph's solve and the probe pass are the step's only
    # engine calls: every candidate is priced from the probe pass's states
    truth, readout, sampler = c4
    engine = SteadySolveEngine(RUN_CFG)
    calls = []
    solve_many = engine.solve_many

    def counting(jobs, *args, **kwargs):
        calls.append((len(jobs), args, kwargs))
        return solve_many(jobs, *args, **kwargs)

    monkeypatch.setattr(engine, "solve_many", counting)
    batch = Batch.from_pairs(sampler.exact() + sampler.exact()[:1])
    cfg = opt_config(batch_size=5)
    _, events = descent_step(truth.teacher_graph(), batch, cfg, 0,
                             readout=readout, engine=engine, rng=np.random.default_rng(0))
    # one job per sample, repeated input included; C4 has two absent edges
    assert calls == [(5, (), {}), (2 * 5, (), {"probe": True})]
    assert set(events.test_gradients) == {(0, 2), (1, 3)}
    assert events.skipped_candidates == ()


def test_a_warm_step_solves_its_current_and_probe_rows_in_one_call(
        c4, monkeypatch):
    # once every input has a warm start, a step hands its current graph's
    # rows and its probe rows to the engine in one call
    truth, readout, sampler = c4
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(batch_size=4, step_size=15873.0)
    init = build_graph(4, [(u, v, 1.03 * w) for (u, v), w in
                           zip(truth.e_true, truth.teacher_weights)]
                       + [(0, 2, 0.06)])
    ref = SteadySolveEngine(RUN_CFG)
    descent_step(init, batch, cfg, 0, readout=readout, engine=ref, rng=np.random.default_rng(0))
    engine = SteadySolveEngine(RUN_CFG)
    calls, begun, outs = [], [], []
    solve_many, solve = engine.solve_many, moduli.solve_steady_state_many

    def recorded(jobs, *args, **kwargs):
        calls.append((len(jobs), args, kwargs))
        outs.append(solve_many(jobs, *args, **kwargs))
        return outs[-1]

    def recorded_solve(graphs, xs, config, starts=None, **kwargs):
        begun.append(starts)
        return solve(graphs, xs, config, starts, **kwargs)

    monkeypatch.setattr(engine, "solve_many", recorded)
    monkeypatch.setattr(moduli, "solve_steady_state_many", recorded_solve)
    rng = np.random.default_rng(0)
    g, first = descent_step(init, batch, cfg, 0, readout=readout,
                            engine=engine, rng=rng)
    assert first.pruned == ((0, 2),) and g.edges == truth.e_true
    assert calls == [(4, (), {}), (4, (), {"probe": True})]
    _, events = descent_step(g, batch, cfg, 1, readout=readout,
                             engine=engine, rng=rng)
    assert calls[2:] == [(4 + 8, (), {"probe": [False] * 4 + [True] * 8})]
    # every row starts from its input's state on the last current graph:
    # the first step's probe pass moved no warm start
    assert all(np.array_equal(start, outs[0][k % 4].psi_inf)
               for k, start in enumerate(begun[2]))
    # the same step through two calls: the current graph, then each probe
    # from the current graph's fresh states
    current = ref.solve_many([(g, x) for x in batch.xs])
    grads = [stochastic_gradient(g, batch, e, readout=readout, config=cfg,
                                 steadies=current) for e in g.edges]
    pruned = {e for e, w, ge in zip(g.edges, g.weights, grads)
              if max(w - cfg.step_size_at(1) * ge, 0.0) < cfg.prune_threshold}
    tests, skipped = {}, set()
    for e in events.test_gradients:
        try:
            tests[e] = stochastic_gradient(
                g, batch, e, test_weight=cfg.prune_threshold,
                readout=readout, config=cfg, engine=ref)
        except UnconvergedError:
            skipped.add(e)
    assert set(events.pruned) == pruned
    assert set(events.skipped_candidates) == skipped == set()
    assert set(events.added) == {e for e, ge in tests.items()
                                 if ge < -cfg.add_threshold}
    # both probe states are roots to steady_tol (1e-8), from different
    # starts; on c4 they differ by a few steady_tol, and so do the test
    # gradients, relatively: 100 steady_tol leaves room
    assert set(tests) == {(0, 2), (1, 3)}
    for e, ge in tests.items():
        assert events.test_gradients[e] == pytest.approx(
            ge, rel=100 * RUN_CFG.steady_tol, abs=0.0)


def test_descent_step_reads_no_spectrum_and_grafts_each_probe_once(
        c4, monkeypatch):
    # every root of the step is certified stable without eigvals, and each
    # candidate's probe graph is built once, for its solve and its pricing
    truth, readout, sampler = c4
    spectra, grafts = [], []
    eigvals, with_edge = np.linalg.eigvals, WeightedGraph.with_edge

    def counted_eigvals(a):
        spectra.append(len(a))
        return eigvals(a)

    def counted_with_edge(self, *args, **kwargs):
        grafts.append(args[0])
        return with_edge(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(WeightedGraph, "with_edge", counted_with_edge)
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(batch_size=4)
    _, events = descent_step(truth.teacher_graph(), batch, cfg, 0,
                             readout=readout, engine=SteadySolveEngine(RUN_CFG),
                             rng=np.random.default_rng(0))
    assert spectra == []
    assert grafts == [(0, 2), (1, 3)]
    assert set(events.test_gradients) == {(0, 2), (1, 3)}
    assert events.skipped_candidates == ()


def two_pairs_case():
    """Two disjoint edges, inputs on the first: every probe edge joins the
    second pair, and turns the warm start into a saddle Newton lands on."""
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    rng = np.random.default_rng(5)
    xs = []
    for _ in range(2):
        x = np.zeros(4, dtype=complex)
        x[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        xs.append(x / np.linalg.norm(x))
    return g, PopulationReadout.random(4, seed=5), Batch.from_pairs(
        [(x, 0.1) for x in xs])


def test_repelled_probe_rows_fail_without_the_flow_path(monkeypatch):
    g, readout, batch = two_pairs_case()
    probe_states, inv_deltas = [], []
    step = dynamics._bordered_step

    def recorded_step(lap, v, psi, pf, gamma, inv_delta):
        inv_deltas.append(inv_delta.copy())
        return step(lap, v, psi, pf, gamma, inv_delta)

    engine = SteadySolveEngine(RUN_CFG)
    solve_many = engine.solve_many

    def recorded(jobs, *args, **kwargs):
        out = solve_many(jobs, *args, **kwargs)
        probe_states.append(out)
        return out

    monkeypatch.setattr(dynamics, "_bordered_step", recorded_step)
    monkeypatch.setattr(engine, "solve_many", recorded)
    cfg = opt_config(batch_size=2, step_size=1e-3)
    _, events = descent_step(g, batch, cfg, 0, readout=readout, engine=engine,
                             rng=np.random.default_rng(0))
    # no row took a step that follows the flow
    assert inv_deltas
    assert not any((inv == 1.0 / RUN_CFG.dt).any() for inv in inv_deltas)
    current, probes = probe_states
    assert all(st.converged for st in current)
    assert len(probes) == 8
    assert all(not st.converged and st.reason == "repelled" and
               st.t_reached == 0.0 for st in probes)
    assert set(events.skipped_candidates) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert all(np.isnan(v) for v in events.test_gradients.values())
    assert events.added == ()
    # a skipped probe says why
    with pytest.raises(UnconvergedError,
                       match="sample 0 \\(repelled: ") as err:
        moduli._batch_predictions(batch, readout, probes[:2])
    assert (err.value.sample, err.value.reason) == (0, "repelled")
    with pytest.raises(UnconvergedError, match="sample 1 \\(repelled: "):
        moduli._batch_predictions(batch, readout, [current[0], probes[1]])


def test_a_plain_solve_still_finishes_repelled_rows_on_the_flow_path():
    # outside a probe pass the same rows reach the flow path, as before
    g, _, batch = two_pairs_case()
    probe = g.with_edge((0, 2), 0.05)
    engine = SteadySolveEngine(RUN_CFG)
    warm = engine.solve_many([(g, x) for x in batch.xs])
    jobs = [(probe, x) for x in batch.xs]
    short = dataclasses.replace(RUN_CFG, t_max=20.0)
    plain = solve_steady_state_many([probe] * 2, list(batch.xs), short,
                                    [st.psi_inf for st in warm])
    probed = engine.solve_many(jobs, probe=True)
    assert [st.reason for st in probed] == ["repelled"] * 2
    assert all(st.reason != "repelled" and st.t_reached > 0.0
               for st in plain)


def test_skipped_solve_error_names_the_horizon(c3):
    truth, readout, sampler = c3
    batch = Batch.from_pairs(sampler.exact())
    short = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=0.2)
    cfg = opt_config(batch_size=3)
    with pytest.raises(UnconvergedError,
                       match="sample 0 \\(horizon: ") as err:
        regularized_loss(truth.teacher_graph(), batch, readout,
                         cfg, engine=SteadySolveEngine(short))
    assert (err.value.sample, err.value.reason) == (0, "horizon")


@st.composite
def probe_cases(draw):
    """A random connected graph on N = 3-6 vertices, one of its absent
    edges, and a batch of 1-3 unit inputs with random targets."""
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.uniform() < 0.3}
    absent = [(u, w) for u in range(n) for w in range(u + 1, n)
              if (u, w) not in edges]
    assume(absent)
    g = build_graph(n, [(u, w, float(rng.uniform(0.5, 2.0)))
                        for u, w in sorted(edges)])
    xs = [rng.normal(size=n) + 1j * rng.normal(size=n)
          for _ in range(draw(st.integers(1, 3)))]
    batch = Batch.from_pairs([(x / np.linalg.norm(x), float(rng.uniform()))
                              for x in xs])
    edge = absent[draw(st.integers(0, len(absent) - 1))]
    return g, edge, batch, PopulationReadout.random(n, seed=int(rng.integers(99)))


@settings(max_examples=10)
@given(probe_cases(), st.floats(0.01, 0.5))
def test_one_priced_edge_equals_the_full_gradient(case, weight):
    g, edge, batch, readout = case
    cfg = opt_config(l1_coeff=1e-3, l2_coeff=2e-3, batch_size=len(batch))
    probe = g.with_edge(edge, weight)
    states = SteadySolveEngine(RUN_CFG).solve_many(
        [(probe, x) for x in batch.xs])
    assume(all(st.converged for st in states))
    k = probe.edge_index()[edge]
    full = (moduli._data_weight_gradients(probe, batch, readout, states)[0][k]
            + cfg.l2_coeff * weight + cfg.l1_coeff)
    one = stochastic_gradient(g, batch, edge, test_weight=weight,
                              readout=readout, config=cfg, steadies=states,
                              probe=probe)
    assert abs(one - full) <= 1e-14 * abs(full)


def test_probe_graph_must_carry_the_edge_at_the_test_weight(c4, engine):
    truth, readout, sampler = c4
    g = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config()
    for probe in (g.with_edge((0, 2), 0.1), g.with_edge((1, 3), 0.05), g):
        with pytest.raises(ValueError):
            stochastic_gradient(g, batch, (0, 2), test_weight=0.05,
                                readout=readout, config=cfg, engine=engine,
                                probe=probe)


def test_step_rule_replay_over_short_run(c4):
    truth, readout, sampler = c4
    rng = np.random.default_rng(3)
    triples = [(u, v, w * (1 + 0.05 * rng.uniform(-1, 1))) for (u, v), w in
               zip(truth.e_true, truth.teacher_weights)] + [(0, 2, 0.1)]
    init = build_graph(4, triples)
    cfg = opt_config(iterations=8, step_size=(15873.0,) * 8, batch_size=4)
    point, log, history = run(cfg, sampler.exact_sampler(), init,
                              readout=readout,
                              engine=SteadySolveEngine(RUN_CFG))
    assert len(log.records) == 8
    prev_edges = set(init.edges)
    for rec in log.records:
        ev = rec.events
        assert ev is not None
        expected_added = {e for e, g in ev.test_gradients.items()
                          if np.isfinite(g) and g < -cfg.add_threshold}
        expected_pruned = {e for e, w in ev.post_update_weights.items()
                           if w < cfg.prune_threshold}
        assert set(rec.added) == expected_added
        assert set(rec.pruned) == expected_pruned
        assert set(rec.edges) == ((prev_edges - expected_pruned)
                                  | expected_added)
        assert all(w >= cfg.prune_threshold for w in rec.weights)
        prev_edges = set(rec.edges)
        assert rec.loss == pytest.approx(ev.loss.total)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_iterations_returns_initial(c4):
    truth, readout, sampler = c4
    init = truth.teacher_graph()
    cfg = opt_config(iterations=0)
    point, log, history = run(cfg, sampler.exact_sampler(), init,
                              readout=readout,
                              engine=SteadySolveEngine(RUN_CFG))
    assert point.edges == init.edges
    assert len(log.visited) == 1
    assert history == []


def test_run_accepts_a_graph_and_nothing_else(c4):
    truth, readout, sampler = c4
    cfg = opt_config(iterations=0)
    engine = SteadySolveEngine(RUN_CFG)
    point, _, _ = run(cfg, sampler.exact_sampler(), truth.teacher_graph(),
                      readout=readout, engine=engine)
    assert point.edges == truth.e_true
    for bad in (4, "nope"):
        with pytest.raises(TypeError, match="needs a WeightedGraph"):
            run(cfg, sampler.exact_sampler(), bad, readout=readout,
                engine=engine)


def test_run_is_deterministic_to_the_byte(c4, tmp_path):
    truth, readout, sampler = c4
    rng = np.random.default_rng(3)
    triples = [(u, v, w * (1 + 0.05 * rng.uniform(-1, 1))) for (u, v), w in
               zip(truth.e_true, truth.teacher_weights)] + [(0, 2, 0.1)]
    cfg = opt_config(iterations=5, step_size=(15873.0,) * 5, batch_size=4,
                     candidate_fraction=0.5, seed=9)
    paths = []
    for tag in ("a", "b"):
        init = build_graph(4, triples)
        _, log, _ = run(cfg, sampler.exact_sampler(), init, readout=readout,
                        engine=SteadySolveEngine(RUN_CFG))
        p = tmp_path / f"{tag}.jsonl"
        write_strata_jsonl(log, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_run_takes_integral_float_counts(c4):
    # 2.0 and 4.0 pass the integer check, so they must run as 2 and 4
    truth, readout, _ = c4
    runs = []
    for iterations, batch_size in ((2, 4), (2.0, 4.0)):
        cfg = opt_config(iterations=iterations, batch_size=batch_size,
                         step_size=1000.0)
        assert (type(cfg.iterations), type(cfg.batch_size)) == (int, int)
        sampler = TeacherSampler(truth, readout, SteadySolveEngine(RUN_CFG),
                                 seed=202, noise_delta=0.1)
        runs.append(run(cfg, sampler, truth.teacher_graph(),
                        readout=readout, engine=SteadySolveEngine(RUN_CFG)))
    (p_int, _, h_int), (p_float, _, h_float) = runs
    assert h_float == h_int and len(h_int) == 2
    assert np.array_equal(p_float.weights, p_int.weights)


def test_run_stalls_early_on_flat_landscape(c3):
    truth, _, sampler = c3
    zeros = PopulationReadout(np.zeros(3))
    stream = [(x, 0.0) for x, _ in sampler.exact()]
    cfg = opt_config(iterations=50, l1_coeff=0.0, l2_coeff=0.0,
                     batch_size=3)
    point, log, history = run(cfg, lambda b: stream,
                              truth.teacher_graph(), readout=zeros,
                              engine=SteadySolveEngine(RUN_CFG))
    assert len(log.records) == moduli._STALL_ITERS
    assert point.edges == truth.e_true


def never_converges(graphs, xs, config, starts=None, probe=False):
    return [SteadyState(psi_inf=np.asarray(x, dtype=complex),
                        t_reached=config.t_max, residual=1.0,
                        gamma=config.gamma, reason="horizon") for x in xs]


def test_run_logs_failed_steps_and_continues(c3, monkeypatch):
    truth, readout, sampler = c3
    exact = sampler.exact_sampler()  # labelled before the solver fails
    monkeypatch.setattr(moduli, "solve_steady_state_many", never_converges)
    engine = SteadySolveEngine(RUN_CFG)
    init = truth.teacher_graph()
    cfg = opt_config(iterations=4, batch_size=3)
    point, log, history = run(cfg, exact, init,
                              readout=readout, engine=engine)
    assert point.edges == init.edges
    assert all(r.failed is not None for r in log.records)
    assert all(np.isnan(h) for h in history)
    assert len(log.visited) == 1


def test_only_a_warm_step_that_fails_has_drawn_its_candidates(c4, monkeypatch):
    # a cold step solves its current graph before it draws its candidates,
    # so failing there leaves the rng as it was; a warm step draws them for
    # its one engine call first
    truth, readout, sampler = c4
    batch = Batch.from_pairs(sampler.exact())  # labelled before the patch
    g = truth.teacher_graph()
    cfg = opt_config(candidate_fraction=0.5)
    warm = SteadySolveEngine(RUN_CFG)
    warm.solve_many([(g, x) for x in batch.xs])
    monkeypatch.setattr(moduli, "solve_steady_state_many", never_converges)
    for engine, draws in ((SteadySolveEngine(RUN_CFG), 0), (warm, 1)):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        with pytest.raises(UnconvergedError):
            descent_step(g, batch, cfg, 0, readout=readout, engine=engine,
                         rng=rng)
        for _ in range(draws):  # one of the two absent pairs (0, 2), (1, 3)
            ref.choice(2, size=1, replace=False)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_the_newton_hand_off_leaves_short_probe_solves_to_the_horizon(
        c4, monkeypatch):
    # c4's probe rows, from the current graph's states, at a 0.2 horizon:
    # continuation leaves a row of each candidate outside the hand-off
    # band, so the row ends "horizon"; at a band of 1e-1 Newton would
    # finish every row at once
    truth, _, sampler = c4
    batch = Batch.from_pairs(sampler.exact())
    g = truth.teacher_graph()
    warm = SteadySolveEngine(RUN_CFG).solve_many([(g, x) for x in batch.xs])
    probes = [g.with_edge(e, 0.05) for e in ((0, 2), (1, 3))]
    args = ([pg for pg in probes for _ in batch.xs], list(batch.xs) * 2,
            dataclasses.replace(RUN_CFG, t_max=0.2),
            [st.psi_inf for st in warm] * 2)
    out = solve_steady_state_many(*args, probe=True)
    assert all(st.converged or st.reason == "horizon" for st in out)
    assert all(any(st.reason == "horizon" for st in out[k:k + 4])
               for k in (0, 4))
    monkeypatch.setattr(dynamics, "_NEWTON_HANDOFF", 1e-1)
    assert all(st.converged for st in solve_steady_state_many(*args,
                                                              probe=True))


def test_subset_start_recovers_missing_edge(c3):
    truth, readout, sampler = c3
    w = dict(zip(truth.e_true, truth.teacher_weights))
    drop = truth.e_true[1]
    sub = build_graph(3, [(u, v, w[(u, v)]) for (u, v) in truth.e_true
                          if (u, v) != drop])
    eta = (100.0,) * 10 + (20000.0,) * 20
    cfg = opt_config(iterations=len(eta), step_size=eta, batch_size=3)
    point, log, history = run(cfg, sampler.exact_sampler(), sub,
                              readout=readout,
                              engine=SteadySolveEngine(RUN_CFG))
    assert point.edges == truth.e_true
    added = [e for r in log.records for e in r.added]
    assert drop in added
    assert history[-1] < history[0]


# ---------------------------------------------------------------------------
# strata accounting and serialization
# ---------------------------------------------------------------------------

def synthetic_log(*edge_sets):
    log = StrataLog()
    for t, edges in enumerate(edge_sets):
        log.visit(tuple(edges), t)
    return log


def test_visited_strata_partitions_hand_example():
    e_true = ((0, 1), (1, 2))
    log = synthetic_log(
        ((0, 1),),                    # strict subset, clean
        ((0, 1), (0, 2)),             # subset plus one spurious edge
        ((0, 1), (1, 2)),             # the full true set
    )
    summary = visited_strata_count(log, e_true)
    assert summary.count == 3
    assert summary.true_subset_count == 2   # {(0,1)} and {(0,1),(1,2)}
    assert summary.spurious_count == 1      # {(0,2)}
    with pytest.raises(ValueError):
        visited_strata_count(log, None)


def test_visit_deduplicates_revisits():
    log = StrataLog()
    log.visit(((0, 1),), 0)
    log.visit(((0, 1), (1, 2)), 1)
    log.visit(((0, 1),), 2)
    assert len(log.visited) == 2
    assert log.visited[0] == (((0, 1),), 0)


def test_jsonl_record_shape(tmp_path):
    rec = IterationRecord(t=0, edges=((0, 1),), weights=(0.5,),
                          added=((0, 1),), pruned=(), loss=0.25)
    log = StrataLog()
    log.record(rec)
    path = tmp_path / "log.jsonl"
    write_strata_jsonl(log, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"t", "edges", "weights", "added", "pruned", "loss"}
    assert obj["edges"] == [[0, 1]]
    assert obj["loss"] == 0.25


# ---------------------------------------------------------------------------
# solve engine
# ---------------------------------------------------------------------------

def test_engine_solves_equal_jobs_alike_and_warm_starts_the_next_call(
        monkeypatch):
    calls = []

    def recording(graphs, xs, config, starts=None, probe=False):
        calls.append([np.array(s) for s in starts])
        return solve_steady_state_many(graphs, xs, config, starts=starts,
                                       probe=probe)

    monkeypatch.setattr(moduli, "solve_steady_state_many", recording)
    engine = SteadySolveEngine(RUN_CFG)
    g1 = build_graph(3, [(0, 1, 1.0), (1, 2, 0.7)])
    g2 = build_graph(3, [(0, 1, 1.2), (1, 2, 0.7)])
    x = np.array([1.0, 0.5j, 0.3]) / np.linalg.norm([1.0, 0.5, 0.3])
    # equal jobs in one call are both solved, from the input itself, alike
    first = engine.solve_many([(g1, x), (g1, x)])
    assert len(calls) == 1 and len(calls[0]) == 2
    assert all(np.array_equal(s, x) for s in calls[0])
    assert first[0].converged
    assert np.array_equal(first[0].psi_inf, first[1].psi_inf)
    # a second call solves again, from the first call's converged state
    [again] = engine.solve_many([(g1, x)])
    assert len(calls) == 2
    assert np.array_equal(calls[1][0], first[0].psi_inf)
    assert again.converged
    # so does a nearby graph with the same input
    engine.solve_many([(g2, x)])
    assert len(calls) == 3
    assert np.array_equal(calls[2][0], again.psi_inf)


def test_engine_solver_sees_every_job_and_horizon(monkeypatch):
    calls = []

    def fake_solve(graphs, xs, config, starts=None, probe=False):
        calls.append(([(graph_to_dict(g), np.asarray(x).tobytes())
                       for g, x in zip(graphs, xs)], config.t_max))
        return [SteadyState(np.asarray(x, dtype=complex)
                            / np.linalg.norm(x), 1.0, 0.0, config.gamma)
                for x in xs]

    monkeypatch.setattr(moduli, "solve_steady_state_many", fake_solve)
    engine = SteadySolveEngine(RUN_CFG)
    g1 = build_graph(2, [(0, 1, 1.0)])
    x = np.array([1.0, 0.5])
    out = engine.solve_many([(g1, x), (g1, x * 2), (g1, x)])
    assert len(calls) == 1 and len(out) == 3
    jobs = [(graph_to_dict(g1), np.asarray(y, dtype=complex).tobytes())
            for y in (x, x * 2, x)]
    assert calls[0] == (jobs, RUN_CFG.t_max)
    # every row runs to the horizon of the engine's config
    SteadySolveEngine(dataclasses.replace(RUN_CFG, t_max=0.2)).solve_many(
        [(g1, x)])
    assert len(calls) == 2 and calls[-1][1] == 0.2
    assert engine.solve_many([]) == []
    assert len(calls) == 2


def test_engine_explicit_horizon_runs_continuation():
    # a cold start above the Newton hand-off: under a short horizon in its
    # config the engine returns continuation's state, with no flow time
    # spent, the state it returns at a long horizon
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 3, 1.0)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    x /= np.linalg.norm(x)
    start_res = np.abs(dynamics._batch_projected_rhs(
        g.coupling_laplacian()[None], (np.abs(x) ** 2)[None], x[None],
        RUN_CFG.gamma)).max(axis=1)[0]
    assert start_res > dynamics._NEWTON_HANDOFF
    engine = SteadySolveEngine(dataclasses.replace(RUN_CFG, t_max=20.0))
    probe = engine.solve_many([(g, x)])[0]
    assert probe.converged and probe.t_reached == 0.0
    full = SteadySolveEngine(RUN_CFG).solve_many([(g, x)])[0]
    assert full.converged and full.t_reached == 0.0
    assert np.array_equal(full.psi_inf, probe.psi_inf)


def test_engine_own_horizon_named_explicitly_runs_continuation():
    # under its own horizon named explicitly in its config, the engine
    # returns the continuation result the engine of the plain config returns
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 3, 1.0)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    x /= np.linalg.norm(x)
    engine = SteadySolveEngine(dataclasses.replace(RUN_CFG,
                                                   t_max=RUN_CFG.t_max))
    named = engine.solve_many([(g, x)])[0]
    assert named.converged and named.t_reached == 0.0
    # solved again from that state as its warm start, it comes back as it is
    assert np.array_equal(engine.solve_many([(g, x)])[0].psi_inf,
                          named.psi_inf)
    assert np.array_equal(
        SteadySolveEngine(RUN_CFG).solve_many([(g, x)])[0].psi_inf,
        named.psi_inf)


@st.composite
def engine_cases(draw):
    """A random connected graph on N = 3-6 vertices and 1-4 unit inputs."""
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.uniform() < 0.3}
    g = build_graph(n, [(u, w, float(rng.uniform(0.5, 2.0)))
                        for u, w in sorted(edges)])
    xs = [rng.normal(size=n) + 1j * rng.normal(size=n)
          for _ in range(draw(st.integers(1, 4)))]
    return g, [x / np.linalg.norm(x) for x in xs]


@settings(max_examples=10)
@given(engine_cases())
def test_engine_results_equal_direct_solves(case):
    g, xs = case
    cfg = NlseConfig(dt=5e-2, steady_tol=1e-10, t_max=3000.0)
    jobs = [(g, x) for x in xs]
    short = dataclasses.replace(cfg, t_max=20.0)
    full = SteadySolveEngine(cfg).solve_many(jobs)
    probe = SteadySolveEngine(short).solve_many(jobs)
    for x, got, got_probe in zip(xs, full, probe):
        # at its own horizon the engine finds the state a row finds that
        # follows the flow from its start
        with mock.patch.object(dynamics, "_PTC_MAX_ITER", 0):
            flow = solve_steady_state_many([g], [x], cfg)[0]
        assert got.converged == flow.converged
        assert np.abs(gauge_align(got.psi_inf, flow.psi_inf)
                      - flow.psi_inf).max() <= 1e-7
        assert np.array_equal(
            got.psi_inf, solve_steady_state_many([g], [x], cfg)[0].psi_inf)
        # under a short horizon it solves as a direct call at that horizon
        direct = solve_steady_state_many([g], [x], short)[0]
        assert np.array_equal(got_probe.psi_inf, direct.psi_inf)
        assert (got_probe.t_reached, got_probe.residual, got_probe.converged) \
            == (direct.t_reached, direct.residual, direct.converged)


# ---------------------------------------------------------------------------
# step-size cycle helper
# ---------------------------------------------------------------------------

def test_chebyshev_schedule_validation():
    with pytest.raises(ValueError):
        chebyshev_schedule(0.0, 1.0)
    with pytest.raises(ValueError):
        chebyshev_schedule(2.0, 1.0)
    with pytest.raises(ValueError):
        chebyshev_schedule(1e-6, 1e-4, cycle_len=24)
    for bad in (dict(cycle_len=0), dict(cycle_len=2.5), dict(cycles=0),
                dict(cycles=1.5), dict(cycle_len=float("inf")),
                dict(cycles=float("inf"))):
        with pytest.raises(ValueError):
            chebyshev_schedule(1e-6, 1e-4, **bad)
    with pytest.raises(ValueError):
        chebyshev_schedule(1e-6, float("inf"))
    # integral counts given as floats are accepted
    assert chebyshev_schedule(1e-6, 1e-4, cycle_len=4.0, cycles=2.0) \
        == chebyshev_schedule(1e-6, 1e-4, cycle_len=4, cycles=2)


def test_chebyshev_steps_are_reciprocal_nodes():
    lmin, lmax, k, safety = 1e-6, 1e-4, 16, moduli._SAFETY
    sched = chebyshev_schedule(lmin, lmax, cycle_len=k, cycles=2)
    assert len(sched) == 2 * k
    assert sched[:k] == sched[k:]
    lo, hi = lmin / safety, lmax * safety
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = sorted(center + radius * np.cos(np.pi * (2 * i + 1) / (2 * k))
                   for i in range(k))
    recovered = sorted(1.0 / s for s in sched[:k])
    assert np.allclose(recovered, nodes, rtol=1e-12)


def quadratic_contractions(eigs, schedule):
    """Per-mode |prod (1 - eta * lam)| and the worst intermediate factor."""
    factors = np.ones_like(eigs)
    worst = 1.0
    for eta in schedule:
        factors *= (1.0 - eta * eigs)
        worst = max(worst, float(np.max(np.abs(factors))))
    return np.abs(factors), worst


def test_chebyshev_cycle_beats_constant_step():
    lmin, lmax, k = 1e-7, 6e-5, 64
    eigs = np.linspace(lmin, lmax, 200)
    sched = chebyshev_schedule(lmin, lmax, cycle_len=k, cycles=1)
    cheb, envelope = quadratic_contractions(eigs, sched)
    const, _ = quadratic_contractions(eigs, (1.0 / lmax,) * k)
    assert cheb.max() < 0.1 * const.max()
    assert envelope < 1e4  # staggered order keeps transients bounded


def test_chebyshev_contraction_matches_minimax_factor():
    lmin, lmax, k, safety = 1e-7, 6e-5, 32, moduli._SAFETY
    lo, hi = lmin / safety, lmax * safety
    eigs = np.linspace(lo, hi, 4001)
    sched = chebyshev_schedule(lmin, lmax, cycle_len=k, cycles=1)
    cheb, _ = quadratic_contractions(eigs, sched)
    # classical equioscillation value of the degree-k minimax polynomial
    # normalized to 1 at the origin: 1 / cosh(k * acosh((hi+lo)/(hi-lo)))
    bound = 1.0 / np.cosh(k * np.arccosh((hi + lo) / (hi - lo)))
    assert cheb.max() == pytest.approx(bound, rel=0.05)
