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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_moduli import dynamics, moduli
from spectral_moduli.dynamics import (NlseConfig, SteadyState, gauge_align,
                                      solve_steady_state,
                                      solve_steady_state_many)
from spectral_moduli.graph_core import GraphError, WeightedGraph, build_graph
from spectral_moduli.moduli import (
    Batch,
    LossBreakdown,
    LossEvaluationError,
    ModuliPoint,
    OptimizerConfig,
    SteadySolveEngine,
    StrataLog,
    IterationRecord,
    chebyshev_schedule,
    descent_step,
    random_point,
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
                seed=0, steady=RUN_CFG)
    base.update(kwargs)
    return OptimizerConfig(**base)


@pytest.fixture(scope="module")
def c3():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=3),
                               inj_radius=2.5)
    readout = PopulationReadout.random(3, seed=5)
    sampler = TeacherSampler(truth, readout, RUN_CFG, seed=11)
    return truth, readout, sampler


@pytest.fixture(scope="module")
def c4():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                               inj_radius=2.0)
    readout = PopulationReadout.random(4, seed=246)
    sampler = TeacherSampler(truth, readout, RUN_CFG, seed=202)
    return truth, readout, sampler


@pytest.fixture(scope="module")
def engine():
    return SteadySolveEngine(RUN_CFG)


# ---------------------------------------------------------------------------
# configuration and container validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(iterations=-1),
    dict(init_edge_prob=0.0),
    dict(init_edge_prob=1.5),
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
    dict(probe_t_max=0.0),
    dict(stall_tol=-1e-10),
    *[{field: value} for value in (float("nan"), float("inf"))
      for field in ("step_size", "l1_coeff", "l2_coeff", "stall_tol",
                    "probe_t_max")],
    dict(stall_iters=0),
    dict(iterations=2.5),
    dict(batch_size=2.5),
    dict(stall_iters=1.5),
    *[{field: float("inf")}
      for field in ("iterations", "batch_size", "stall_iters")],
])
def test_config_rejects_invalid_fields(bad):
    with pytest.raises(ValueError):
        opt_config(**bad)


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
    lb = regularized_loss(ModuliPoint(g), batch, PopulationReadout(np.zeros(3)),
                          cfg, engine=engine)
    assert lb.l2 + lb.l1 == pytest.approx(0.8, abs=1e-15)


def test_regularizer_vanishes_without_edges():
    g = build_graph(1, [])
    batch = Batch.from_pairs([(np.array([1.0]), 0.0)])
    cfg = opt_config(l1_coeff=0.7, l2_coeff=0.9, batch_size=1)
    lb = regularized_loss(ModuliPoint(g), batch, PopulationReadout(np.ones(1)),
                          cfg)
    assert lb.l1 == 0.0 and lb.l2 == 0.0


def test_teacher_data_term_is_tiny(c3, engine):
    truth, readout, sampler = c3
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(l1_coeff=0.0, l2_coeff=0.0, batch_size=3)
    lb = regularized_loss(ModuliPoint(truth.teacher_graph()), batch, readout,
                          cfg, engine=engine)
    assert lb.data < 1e-10
    assert lb.total == lb.data


def test_loss_error_names_failing_sample(c3):
    truth, readout, sampler = c3
    batch = Batch.from_pairs(sampler.exact())
    short = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=0.2)
    cfg = opt_config(steady=short, batch_size=3)
    with pytest.raises(LossEvaluationError, match="sample 0"):
        regularized_loss(ModuliPoint(truth.teacher_graph()), batch, readout,
                         cfg, engine=SteadySolveEngine(short))


# ---------------------------------------------------------------------------
# stochastic gradient
# ---------------------------------------------------------------------------

def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def fd_loss_gradient(graph, edge, batch, readout, cfg, h=1e-4):
    """Central finite difference of the regularized loss in one weight."""
    idx = graph.edge_index()[edge]
    out = []
    for sign in (+1.0, -1.0):
        w = graph.weights.copy()
        w[idx] += sign * h
        shifted = build_graph(graph.n, [(u, v, wi) for (u, v), wi
                                        in zip(graph.edges, w)])
        lb = regularized_loss(ModuliPoint(shifted), batch, readout, cfg,
                              engine=SteadySolveEngine(cfg.steady))
        out.append(lb.total)
    return (out[0] - out[1]) / (2.0 * h)


def test_gradient_matches_fd_on_existing_edge(c3):
    truth, readout, sampler = c3
    # jiggle the teacher weights so the data gradient is visibly nonzero
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights, (1.15, 0.9, 1.05))]
    g = build_graph(3, triples)
    batch = Batch.from_pairs(sampler.exact()[:1])
    cfg = opt_config(steady=TIGHT_CFG, l1_coeff=1e-6, l2_coeff=1e-6,
                     batch_size=1)
    edge = truth.e_true[0]
    grad = stochastic_gradient(ModuliPoint(g), batch, edge, readout=readout,
                               config=cfg)
    fd = fd_loss_gradient(g, edge, batch, readout, cfg)
    assert rel_err(grad, fd) < 1e-3


def test_gradient_is_taken_at_the_gamma_the_engine_solved_at(c3):
    # the engine solves at gamma = 0.5 while config.steady says 1: the
    # adjoint must linearize the flow that was solved
    truth, readout, sampler = c3
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights, (1.15, 0.9, 1.05))]
    g = build_graph(3, triples)
    batch = Batch.from_pairs(sampler.exact()[:1])
    half = dataclasses.replace(TIGHT_CFG, gamma=0.5)
    cfg = opt_config(steady=TIGHT_CFG, l1_coeff=1e-6, l2_coeff=1e-6,
                     batch_size=1)
    edge = truth.e_true[0]
    grad = stochastic_gradient(ModuliPoint(g), batch, edge, readout=readout,
                               config=cfg, engine=SteadySolveEngine(half))
    fd = fd_loss_gradient(g, edge, batch, readout,
                          dataclasses.replace(cfg, steady=half))
    assert rel_err(grad, fd) < 1e-3


def test_gradient_matches_fd_on_probe_edge(c4):
    truth, readout, sampler = c4
    w = dict(zip(truth.e_true, truth.teacher_weights))
    sub = build_graph(4, [(u, v, w[(u, v)]) for (u, v) in truth.e_true
                          if (u, v) != (0, 1)])
    batch = Batch.from_pairs(sampler.exact()[:1])
    cfg = opt_config(steady=TIGHT_CFG, l1_coeff=1e-6, l2_coeff=1e-6,
                     batch_size=1)
    grad = stochastic_gradient(ModuliPoint(sub), batch, (0, 1),
                               test_weight=0.05, readout=readout, config=cfg)
    grafted = sub.with_edge((0, 1), 0.05)
    fd = fd_loss_gradient(grafted, (0, 1), batch, readout, cfg)
    assert rel_err(grad, fd) < 1e-3


def test_constant_readout_gradient_is_pure_regularizer(c3, engine):
    truth, _, sampler = c3
    g = truth.teacher_graph()
    zeros = PopulationReadout(np.zeros(3))
    batch = Batch.from_pairs([(x, 0.0) for x, _ in sampler.exact()])
    cfg = opt_config(l1_coeff=0.3, l2_coeff=0.7, batch_size=3)
    for e, w in zip(g.edges, g.weights):
        grad = stochastic_gradient(ModuliPoint(g), batch, e, readout=zeros,
                                   config=cfg, engine=engine)
        assert grad == pytest.approx(0.7 * w + 0.3, rel=1e-12)


def test_teacher_point_gradient_dominated_by_regularizer(c4, engine):
    truth, readout, sampler = c4
    g = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(l1_coeff=1e-7, l2_coeff=1e-7)
    for e, w in zip(g.edges, g.weights):
        grad = stochastic_gradient(ModuliPoint(g), batch, e, readout=readout,
                                   config=cfg, engine=engine)
        assert abs(grad) <= 1e-7 * w + 1e-7 + 1e-6


def test_gradient_argument_errors(c4, engine):
    truth, readout, sampler = c4
    point = ModuliPoint(truth.teacher_graph())
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config()
    with pytest.raises(ValueError):
        stochastic_gradient(point, batch, truth.e_true[0], test_weight=0.05,
                            readout=readout, config=cfg, engine=engine)
    with pytest.raises(GraphError):
        stochastic_gradient(point, batch, (0, 2), readout=readout, config=cfg,
                            engine=engine)


# ---------------------------------------------------------------------------
# single descent step: rules and replay
# ---------------------------------------------------------------------------

def test_step_is_pure_sgd_when_rules_disabled(c4, engine):
    truth, readout, sampler = c4
    triples = [(u, v, w * s) for (u, v), w, s in
               zip(truth.e_true, truth.teacher_weights,
                   (1.1, 0.95, 1.02, 0.9))]
    point = ModuliPoint(build_graph(4, triples))
    batch = Batch.from_pairs(sampler.exact())
    cfg = opt_config(add_threshold=0.999, prune_threshold=1e-9,
                     step_size=100.0)
    new_point, events = descent_step(point, batch, cfg, 0, readout=readout,
                                     engine=engine)
    assert events.added == () and events.pruned == ()
    assert new_point.edge_set == point.edge_set
    # replay: w' = w - eta * g with g recomputed independently
    for e, w_old, w_new in zip(point.edge_set, point.graph.weights,
                               new_point.graph.weights):
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
    new_point, events = descent_step(ModuliPoint(sub), batch, cfg, 0,
                                     readout=readout, engine=engine)
    assert (0, 1) in events.added
    assert events.test_gradients[(0, 1)] < -cfg.add_threshold
    new_w = dict(zip(new_point.edge_set, new_point.graph.weights))
    assert new_w[(0, 1)] == 2.0 * cfg.prune_threshold


def test_update_clamps_then_prunes(c3, engine):
    truth, readout, sampler = c3
    g = truth.teacher_graph()
    batch = Batch.from_pairs(sampler.exact())
    # enormous l2 and step size drive every weight to the clamp at zero
    cfg = opt_config(l2_coeff=1.0, step_size=10.0, add_threshold=0.999,
                     batch_size=3)
    new_point, events = descent_step(ModuliPoint(g), batch, cfg, 0,
                                     readout=readout, engine=engine)
    assert set(events.pruned) == set(g.edges)
    assert new_point.graph.n_edges == 0
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
    cfg = opt_config(batch_size=5, probe_t_max=500.0)
    _, events = descent_step(ModuliPoint(truth.teacher_graph()), batch, cfg,
                             0, readout=readout, engine=engine)
    # 4 distinct inputs; C4 has two absent edges to probe
    assert calls == [(4, (), {}), (2 * 4, (), {"t_max": 500.0})]
    assert set(events.test_gradients) == {(0, 2), (1, 3)}
    assert events.skipped_candidates == ()


def test_step_rule_replay_over_short_run(c4):
    truth, readout, sampler = c4
    rng = np.random.default_rng(3)
    triples = [(u, v, w * (1 + 0.05 * rng.uniform(-1, 1))) for (u, v), w in
               zip(truth.e_true, truth.teacher_weights)] + [(0, 2, 0.1)]
    init = ModuliPoint(build_graph(4, triples))
    cfg = opt_config(iterations=8, step_size=(15873.0,) * 8, batch_size=4)
    point, log, history = run(cfg, sampler.exact_sampler(), init,
                              readout=readout)
    assert len(log.records) == 8
    prev_edges = set(init.edge_set)
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
    init = ModuliPoint(truth.teacher_graph())
    cfg = opt_config(iterations=0)
    point, log, history = run(cfg, sampler.exact_sampler(), init,
                              readout=readout)
    assert point.edge_set == init.edge_set
    assert len(log.visited) == 1
    assert history == []


def test_run_accepts_graph_and_vertex_count(c4):
    truth, readout, sampler = c4
    cfg = opt_config(iterations=0, init_edge_prob=1.0)
    point, _, _ = run(cfg, sampler.exact_sampler(), truth.teacher_graph(),
                      readout=readout)
    assert point.edge_set == truth.e_true
    point, _, _ = run(cfg, sampler.exact_sampler(), 4, readout=readout)
    assert point.graph.n_edges == 6  # every pair, weight one
    assert np.all(point.graph.weights == 1.0)
    with pytest.raises(TypeError):
        run(cfg, sampler.exact_sampler(), "nope", readout=readout)


def test_run_is_deterministic_to_the_byte(c4, tmp_path):
    truth, readout, sampler = c4
    rng = np.random.default_rng(3)
    triples = [(u, v, w * (1 + 0.05 * rng.uniform(-1, 1))) for (u, v), w in
               zip(truth.e_true, truth.teacher_weights)] + [(0, 2, 0.1)]
    cfg = opt_config(iterations=5, step_size=(15873.0,) * 5, batch_size=4,
                     candidate_fraction=0.5, seed=9)
    paths = []
    for tag in ("a", "b"):
        init = ModuliPoint(build_graph(4, triples))
        _, log, _ = run(cfg, sampler.exact_sampler(), init, readout=readout)
        p = tmp_path / f"{tag}.jsonl"
        write_strata_jsonl(log, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_run_stalls_early_on_flat_landscape(c3):
    truth, _, sampler = c3
    zeros = PopulationReadout(np.zeros(3))
    stream = [(x, 0.0) for x, _ in sampler.exact()]
    cfg = opt_config(iterations=50, l1_coeff=0.0, l2_coeff=0.0,
                     batch_size=3, stall_iters=6)
    point, log, history = run(cfg, lambda b: stream,
                              ModuliPoint(truth.teacher_graph()),
                              readout=zeros)
    assert len(log.records) == 6
    assert point.edge_set == truth.e_true


def test_run_logs_failed_steps_and_continues(c3):
    truth, readout, sampler = c3

    def never_converges(g, x, config):
        return SteadyState(psi_inf=np.asarray(x, dtype=complex),
                           t_reached=config.t_max, residual=1.0,
                           converged=False, gamma=config.gamma)

    engine = SteadySolveEngine(RUN_CFG, solve_fn=never_converges)
    init = ModuliPoint(truth.teacher_graph())
    cfg = opt_config(iterations=4, batch_size=3)
    point, log, history = run(cfg, sampler.exact_sampler(), init,
                              readout=readout, engine=engine)
    assert point.edge_set == init.edge_set
    assert all(r.failed is not None for r in log.records)
    assert all(np.isnan(h) for h in history)
    assert len(log.visited) == 1


def test_probe_horizon_skips_slow_candidates(c4):
    truth, readout, sampler = c4
    w = dict(zip(truth.e_true, truth.teacher_weights))
    init = ModuliPoint(truth.teacher_graph())
    # a probe horizon far too short for any candidate solve to converge
    cfg = opt_config(iterations=1, probe_t_max=0.2, batch_size=4)
    engine = SteadySolveEngine(RUN_CFG)
    point, log, _ = run(cfg, sampler.exact_sampler(), init, readout=readout,
                        engine=engine)
    ev = log.records[0].events
    assert ev is not None
    assert set(ev.skipped_candidates) == {(0, 2), (1, 3)}
    assert all(np.isnan(g) for g in ev.test_gradients.values())
    assert log.records[0].added == ()
    assert point.edge_set == truth.e_true
    # a lone probe gradient keeps the horizon too, on a fresh engine as on
    # the one the step filled
    batch = Batch.from_pairs(sampler.exact())
    for eng in (SteadySolveEngine(RUN_CFG), engine):
        with pytest.raises(LossEvaluationError):
            stochastic_gradient(init, batch, (0, 2), test_weight=0.05,
                                readout=readout, config=cfg, engine=eng)
    # a full-horizon solve of a probe graph does not read the short probe
    # solve from the cache
    probe = ModuliPoint(init.graph.with_edge((0, 2), 0.05))
    shared = regularized_loss(probe, batch, readout, cfg, engine=engine)
    fresh = regularized_loss(probe, batch, readout, cfg,
                             engine=SteadySolveEngine(RUN_CFG))
    assert shared.data == pytest.approx(fresh.data, rel=1e-6)


def test_subset_start_recovers_missing_edge(c3):
    truth, readout, sampler = c3
    w = dict(zip(truth.e_true, truth.teacher_weights))
    drop = truth.e_true[1]
    sub = build_graph(3, [(u, v, w[(u, v)]) for (u, v) in truth.e_true
                          if (u, v) != drop])
    eta = (100.0,) * 10 + (20000.0,) * 20
    cfg = opt_config(iterations=len(eta), step_size=eta, batch_size=3)
    point, log, history = run(cfg, sampler.exact_sampler(), ModuliPoint(sub),
                              readout=readout)
    assert point.edge_set == truth.e_true
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
    assert summary.partitions[1] == (((0, 1),), ((0, 2),))
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


def test_random_point_probability_extremes():
    cfg = opt_config(init_edge_prob=1.0)
    p = random_point(5, cfg)
    assert p.graph.n_edges == 10
    assert np.all(p.graph.weights == 1.0)
    cfg_sparse = opt_config(init_edge_prob=1e-12, seed=1)
    rng = np.random.default_rng(1)
    assert random_point(5, cfg_sparse, rng).graph.n_edges == 0


# ---------------------------------------------------------------------------
# solve engine
# ---------------------------------------------------------------------------

def test_engine_merges_equal_jobs_and_warm_starts_the_next_call(
        monkeypatch):
    calls = []

    def recording(graphs, xs, config, starts=None):
        calls.append([np.array(s) for s in starts])
        return solve_steady_state_many(graphs, xs, config, starts=starts)

    monkeypatch.setattr(moduli, "solve_steady_state_many", recording)
    engine = SteadySolveEngine(RUN_CFG)
    g1 = build_graph(3, [(0, 1, 1.0), (1, 2, 0.7)])
    g2 = build_graph(3, [(0, 1, 1.2), (1, 2, 0.7)])
    x = np.array([1.0, 0.5j, 0.3]) / np.linalg.norm([1.0, 0.5, 0.3])
    # equal jobs in one call are solved once, from the input itself
    first = engine.solve_many([(g1, x), (g1, x)])
    assert len(calls) == 1 and len(calls[0]) == 1
    assert np.array_equal(calls[0][0], x)
    assert first[0] is first[1] and first[0].converged
    # a second call solves again, from the first call's converged state
    again = engine.solve(g1, x)
    assert len(calls) == 2
    assert np.array_equal(calls[1][0], first[0].psi_inf)
    assert again.converged
    # so does a nearby graph with the same input
    engine.solve(g2, x)
    assert len(calls) == 3
    assert np.array_equal(calls[2][0], again.psi_inf)


def test_engine_solve_fn_sees_each_distinct_job_and_horizon():
    calls = []

    def fake_solve(g, x, config):
        calls.append((g.key(), np.asarray(x).tobytes(), config.t_max))
        psi = np.asarray(x, dtype=complex)
        return SteadyState(psi / np.linalg.norm(psi), 1.0, 0.0, True,
                           config.gamma)

    engine = SteadySolveEngine(RUN_CFG, solve_fn=fake_solve)
    g1 = build_graph(2, [(0, 1, 1.0)])
    x = np.array([1.0, 0.5])
    out = engine.solve_many([(g1, x), (g1, x * 2), (g1, x)])
    assert len(calls) == 2 and out[0] is out[2]
    assert [c[2] for c in calls] == [RUN_CFG.t_max] * 2
    engine.solve_many([(g1, x)], t_max=0.2)
    assert len(calls) == 3 and calls[-1][2] == 0.2
    assert engine.solve_many([]) == []
    assert len(calls) == 3


def test_engine_own_horizon_named_explicitly_runs_continuation():
    # under its own horizon named explicitly, the engine returns the
    # continuation result a solve without t_max returns
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 3, 1.0)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    x /= np.linalg.norm(x)
    engine = SteadySolveEngine(RUN_CFG)
    named = engine.solve_many([(g, x)], t_max=RUN_CFG.t_max)[0]
    assert named.converged and named.t_reached == 0.0
    assert np.array_equal(engine.solve(g, x).psi_inf, named.psi_inf)
    assert np.array_equal(SteadySolveEngine(RUN_CFG).solve(g, x).psi_inf,
                          named.psi_inf)


def test_engine_explicit_horizon_runs_continuation():
    # a cold start above the Newton hand-off: under an explicit horizon the
    # engine returns continuation's state, with no flow time spent
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 3, 1.0)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    x /= np.linalg.norm(x)
    start_res = dynamics._batch_residual(
        g.coupling_laplacian()[None], (np.abs(x) ** 2)[None], x[None],
        RUN_CFG.gamma)[0]
    assert start_res > dynamics._NEWTON_HANDOFF
    probe = SteadySolveEngine(RUN_CFG).solve_many([(g, x)], t_max=20.0)[0]
    # the flow path would have spent RK4 time to reach the hand-off
    assert probe.converged and probe.t_reached == 0.0


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
    full = SteadySolveEngine(cfg).solve_many(jobs)
    probe = SteadySolveEngine(cfg).solve_many(jobs, t_max=20.0)
    short = dataclasses.replace(cfg, t_max=20.0)
    for x, got, got_probe in zip(xs, full, probe):
        # at its own horizon the engine runs continuation, and finds the
        # state the flow path finds
        flow = dynamics._flow_path(*dynamics._stack_problems([g], [x]), cfg)[0]
        assert got.converged == flow.converged
        assert np.abs(gauge_align(got.psi_inf, flow.psi_inf)
                      - flow.psi_inf).max() <= 1e-7
        assert np.array_equal(got.psi_inf, solve_steady_state(g, x, cfg).psi_inf)
        # under an explicit horizon it solves as a direct call at that horizon
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
                dict(cycles=1.5), dict(safety=0.5), dict(safety=float("nan")),
                dict(safety=float("inf")), dict(cycle_len=float("inf")),
                dict(cycles=float("inf"))):
        with pytest.raises(ValueError):
            chebyshev_schedule(1e-6, 1e-4, **bad)
    with pytest.raises(ValueError):
        chebyshev_schedule(1e-6, float("inf"))
    # integral counts given as floats are accepted
    assert chebyshev_schedule(1e-6, 1e-4, cycle_len=4.0, cycles=2.0) \
        == chebyshev_schedule(1e-6, 1e-4, cycle_len=4, cycles=2)


def test_chebyshev_steps_are_reciprocal_nodes():
    lmin, lmax, k, safety = 1e-6, 1e-4, 16, 1.2
    sched = chebyshev_schedule(lmin, lmax, cycle_len=k, cycles=2,
                               safety=safety)
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
    lmin, lmax, k, safety = 1e-7, 6e-5, 32, 1.2
    lo, hi = lmin / safety, lmax * safety
    eigs = np.linspace(lo, hi, 4001)
    sched = chebyshev_schedule(lmin, lmax, cycle_len=k, cycles=1,
                               safety=safety)
    cheb, _ = quadratic_contractions(eigs, sched)
    # classical equioscillation value of the degree-k minimax polynomial
    # normalized to 1 at the origin: 1 / cosh(k * acosh((hi+lo)/(hi-lo)))
    bound = 1.0 / np.cosh(k * np.arccosh((hi + lo) / (hi - lo)))
    assert cheb.max() == pytest.approx(bound, rel=0.05)
