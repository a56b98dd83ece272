"""Ground-truth construction, Betti counts, graph metric, distortion, sampler."""

import json
import logging

import numpy as np
import pytest

from spectral_moduli import dynamics, moduli
from spectral_moduli.dynamics import NlseConfig, solve_steady_state
from spectral_moduli.graph_core import build_graph, cycle_graph, path_graph
from spectral_moduli.topo_metric import (
    DistortionReport,
    GroundTruth,
    ManifoldSpec,
    PopulationReadout,
    TeacherSampler,
    betti_numbers,
    build_ground_truth,
    distortion_report,
    graph_metric,
)

TEACHER_CFG = NlseConfig(dt=1e-2, steady_tol=1e-10, t_max=2000.0)


def floyd_warshall_oracle(g):
    """Independent all-pairs relaxation over edge lengths 1/w."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(g.edges, g.weights):
        d[u, v] = d[v, u] = min(d[u, v], 1.0 / w)
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def spanning_forest_cycle_count(g):
    """Edges rejected by a union-find forest = independent cycle count."""
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rejected = 0
    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rejected += 1
        else:
            parent[ru] = rv
    return rejected


def brute_force_distortion(g, truth):
    """Exhaustive pair enumeration of |d_G - d_truth|."""
    dg = floyd_warshall_oracle(g)
    worst = 0.0
    for u in range(g.n):
        for v in range(g.n):
            a, b = dg[u, v], truth.geodesic_dist[u, v]
            if not np.isfinite(a) and not np.isfinite(b):
                continue
            if not np.isfinite(a) or not np.isfinite(b):
                return np.inf
            worst = max(worst, abs(a - b))
    return worst


# -- ground truth construction ---------------------------------------------

def test_circle_c4_truth():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                               inj_radius=2.0)
    assert truth.e_true == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert truth.betti == (1, 1)
    np.testing.assert_allclose(truth.teacher_weights, 2.0 / np.pi)
    np.testing.assert_allclose(truth.geodesic_dist[0, 2], np.pi)
    np.testing.assert_allclose(truth.geodesic_dist[0, 1], np.pi / 2)
    assert betti_numbers(truth.teacher_graph()) == (1, 1)


def test_segment_p4_truth():
    truth = build_ground_truth(
        ManifoldSpec("segment", length=3.0, n_net_points=4), inj_radius=1.5)
    assert truth.e_true == ((0, 1), (1, 2), (2, 3))
    assert truth.betti == (1, 0)
    np.testing.assert_allclose(truth.teacher_weights, 1.0)
    np.testing.assert_allclose(truth.geodesic_dist[0, 3], 3.0)
    assert betti_numbers(truth.teacher_graph()) == (1, 0)


def test_two_disjoint_circles_truth():
    truth = build_ground_truth(
        ManifoldSpec("disjoint_circles", (1.0, 1.0), n_net_points=6),
        inj_radius=1.5)
    assert truth.betti == (2, 2)
    assert truth.n == 12
    assert all(not (u < 6 <= v) for u, v in truth.e_true)
    assert np.isinf(truth.geodesic_dist[0, 6])
    assert len(truth.e_true) == 12
    assert betti_numbers(truth.teacher_graph()) == (2, 2)


def test_truth_geodesics_satisfy_triangle_inequality():
    for spec in [ManifoldSpec("circle", (1.3,), n_net_points=7,
                              noise_delta=0.05, seed=3),
                 ManifoldSpec("segment", length=2.0, n_net_points=5,
                              noise_delta=0.02, seed=4)]:
        d = build_ground_truth(spec, inj_radius=1.0).geodesic_dist
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-10
        np.testing.assert_allclose(d, d.T)


def test_weight_exponent_switch():
    spec = ManifoldSpec("circle", (1.0,), n_net_points=4)
    t1 = build_ground_truth(spec, inj_radius=2.0, weight_exponent=1)
    t2 = build_ground_truth(spec, inj_radius=2.0, weight_exponent=2)
    np.testing.assert_allclose(t2.teacher_weights, t1.teacher_weights ** 2)
    with pytest.raises(ValueError):
        build_ground_truth(spec, inj_radius=2.0, weight_exponent=3)


def test_build_is_deterministic():
    spec = ManifoldSpec("circle", (1.0,), n_net_points=8, noise_delta=0.1,
                        seed=11)
    a = build_ground_truth(spec, inj_radius=1.0)
    b = build_ground_truth(spec, inj_radius=1.0)
    np.testing.assert_array_equal(a.net_points, b.net_points)
    assert a.e_true == b.e_true


def test_small_inj_radius_logs_warning(caplog):
    spec = ManifoldSpec("circle", (1.0,), n_net_points=4)
    with caplog.at_level(logging.WARNING, logger="spectral_moduli.topo_metric"):
        truth = build_ground_truth(spec, inj_radius=0.1)
    assert truth.e_true == ()
    assert any("inj_radius" in rec.message for rec in caplog.records)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ManifoldSpec("torus")
    with pytest.raises(ValueError):
        ManifoldSpec("circle", (1.0,), n_net_points=2)
    with pytest.raises(ValueError):
        ManifoldSpec("circle", (-1.0,))
    with pytest.raises(ValueError):
        ManifoldSpec("circle", (1.0,), noise_delta=-0.5)
    with pytest.raises(ValueError):
        build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                           inj_radius=-1.0)


def test_truth_serializes_to_json():
    truth = build_ground_truth(
        ManifoldSpec("disjoint_circles", (1.0, 2.0), n_net_points=4),
        inj_radius=2.0)
    blob = json.dumps(truth.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["betti"] == [2, 2]
    assert parsed["geodesic_dist"][0][4] == -1.0


# -- Betti numbers -----------------------------------------------------------

def test_betti_trivial_values():
    assert betti_numbers(path_graph(3)) == (1, 0)
    assert betti_numbers(cycle_graph(4)) == (1, 1)
    two_triangles = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                                    (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    assert betti_numbers(two_triangles) == (2, 2)


def test_betti_matches_spanning_forest_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, [(u, v, float(rng.uniform(0.5, 2))) for u, v in pairs])
        b0, b1 = betti_numbers(g)
        assert b1 == spanning_forest_cycle_count(g)
        assert b0 == len(g.components())
        assert b1 >= 0


# -- graph metric -------------------------------------------------------------

def test_metric_single_edge():
    g = build_graph(2, [(0, 1, 2.0)])
    np.testing.assert_allclose(graph_metric(g),
                               [[0.0, 0.5], [0.5, 0.0]])


def test_metric_c4_opposite_distance():
    d = graph_metric(cycle_graph(4))
    assert d[0, 2] == pytest.approx(2.0)
    assert d[1, 3] == pytest.approx(2.0)
    assert d[0, 1] == pytest.approx(1.0)


def test_metric_matches_relaxation_oracle_random():
    rng = np.random.default_rng(42)
    for trial in range(8):
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)
                 if rng.random() < 0.35]
        g = build_graph(8, [(u, v, float(rng.uniform(0.2, 3))) for u, v in pairs])
        np.testing.assert_allclose(graph_metric(g), floyd_warshall_oracle(g),
                                   rtol=0, atol=1e-12)


def test_metric_axioms():
    rng = np.random.default_rng(3)
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)
             if rng.random() < 0.5]
    g = build_graph(7, [(u, v, float(rng.uniform(0.3, 2))) for u, v in pairs])
    d = graph_metric(g)
    np.testing.assert_allclose(d, d.T)
    np.testing.assert_allclose(np.diag(d), 0.0)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                if np.isfinite(d[i, k]) and np.isfinite(d[k, j]):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_metric_disconnected_is_inf():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    d = graph_metric(g)
    assert np.isinf(d[0, 2]) and np.isinf(d[1, 3])


# -- distortion ---------------------------------------------------------------

def test_distortion_zero_on_segment_teacher():
    truth = build_ground_truth(
        ManifoldSpec("segment", length=3.0, n_net_points=4), inj_radius=1.5)
    rep = distortion_report(truth.teacher_graph(), truth)
    assert rep.max_additive_distortion == pytest.approx(0.0, abs=1e-12)
    assert rep.betti == (1, 0)
    assert rep.gh_upper_bound > 0.0  # covering slack survives


def test_distortion_matches_enumeration_on_c8():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=8),
                               inj_radius=1.0)
    g = truth.teacher_graph()
    rep = distortion_report(g, truth)
    assert rep.max_additive_distortion == pytest.approx(
        brute_force_distortion(g, truth), abs=1e-12)
    # equally spaced arcs compose exactly along the cycle
    assert rep.max_additive_distortion == pytest.approx(0.0, abs=1e-12)


def test_distortion_matches_enumeration_jittered():
    truth = build_ground_truth(
        ManifoldSpec("circle", (1.0,), n_net_points=8, noise_delta=0.08,
                     seed=5), inj_radius=1.0)
    g = truth.teacher_graph()
    rep = distortion_report(g, truth)
    assert rep.max_additive_distortion == pytest.approx(
        brute_force_distortion(g, truth), abs=1e-12)
    assert rep.max_additive_distortion > 0.0


def test_missing_true_edge_increases_distortion():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=8),
                               inj_radius=1.0)
    g = truth.teacher_graph()
    full = distortion_report(g, truth).max_additive_distortion
    pruned = g.without_edges([g.edges[0]])
    worse = distortion_report(pruned, truth).max_additive_distortion
    assert worse > full + 1e-6
    assert worse == pytest.approx(brute_force_distortion(pruned, truth),
                                  abs=1e-12)


def test_distortion_inf_when_graph_disconnects_connected_truth():
    truth = build_ground_truth(
        ManifoldSpec("segment", length=3.0, n_net_points=4), inj_radius=1.5)
    g = truth.teacher_graph().without_edges([(1, 2)])
    rep = distortion_report(g, truth)
    assert np.isinf(rep.max_additive_distortion)
    assert rep.betti == (2, 0)


def test_distortion_report_index_mismatch():
    truth = build_ground_truth(
        ManifoldSpec("segment", length=3.0, n_net_points=4), inj_radius=1.5)
    with pytest.raises(ValueError):
        distortion_report(path_graph(3), truth)


def test_distortion_report_json_shape():
    truth = build_ground_truth(
        ManifoldSpec("segment", length=3.0, n_net_points=4), inj_radius=1.5)
    d = distortion_report(truth.teacher_graph(), truth).to_dict()
    assert set(d) == {"max_additive_distortion", "gh_upper_bound", "betti"}
    json.dumps(d)


# -- teacher sampler ----------------------------------------------------------

@pytest.fixture(scope="module")
def c4_truth():
    return build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                              inj_radius=2.0)


def test_readout_gauge_invariance_and_cotangent(c4_truth):
    readout = PopulationReadout.random(4, seed=9)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert readout.value(np.exp(1j * 0.77) * psi) == pytest.approx(
        readout.value(psi))
    cot = readout.cotangent(psi)
    h = 1e-6
    for j in range(4):
        for offset, slot in ((h, j), (1j * h, 4 + j)):
            bumped = psi.copy()
            bumped[j] += offset
            fd = (readout.value(bumped) - readout.value(psi)) / h
            assert cot[slot] == pytest.approx(fd, abs=1e-5)


def test_sampler_delta_zero_gives_canonical_bump(c4_truth):
    readout = PopulationReadout.random(4, seed=1)
    sampler = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=2)
    x, y = sampler.sample()
    dists = [np.linalg.norm(x - sampler.canonical_bump(v)) for v in range(4)]
    assert min(dists) == pytest.approx(0.0, abs=1e-15)
    assert np.isfinite(y)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_sampler_stream_determinism(c4_truth):
    readout = PopulationReadout.random(4, seed=1)
    a = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=3)(4)
    b = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=3)(4)
    c = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=4)(4)
    for (xa, ya), (xb, yb) in zip(a, b):
        np.testing.assert_array_equal(xa, xb)
        assert ya == yb
    assert any(not np.array_equal(xa, xc) for (xa, _), (xc, _) in zip(a, c))


def test_sampler_noise_stays_within_delta(c4_truth):
    readout = PopulationReadout.random(4, seed=1)
    delta = 0.05
    sampler = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=6,
                             noise_delta=delta)
    for _ in range(10):
        x, _ = sampler.sample()
        gaps = [np.linalg.norm(x - sampler.canonical_bump(v))
                for v in range(4)]
        assert min(gaps) <= 2 * delta + 1e-12
        assert np.linalg.norm(x) == pytest.approx(1.0)


def test_teacher_self_consistency(c4_truth):
    readout = PopulationReadout.random(4, seed=1)
    first = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=7)
    again = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=7)
    for (x1, y1), (x2, y2) in zip(first.exact(), again.exact()):
        np.testing.assert_array_equal(x1, x2)
        assert (y1 - y2) ** 2 < 1e-10


def test_exact_batch_is_one_solve_equal_to_single_solves(monkeypatch):
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=8),
                               inj_radius=1.0)
    readout = PopulationReadout.random(8, seed=349)
    config = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
    sampler = TeacherSampler(truth, readout, config, seed=202)
    rows = []
    batched = moduli.solve_steady_state_many

    def counted(graphs, xs, cfg, *args, **kwargs):
        rows.append(len(graphs))
        return batched(graphs, xs, cfg, *args, **kwargs)

    # the solver as the engine binds it, and as solve_steady_state reaches it
    for module in (moduli, dynamics):
        monkeypatch.setattr(module, "solve_steady_state_many", counted)
    batch = sampler.exact()
    assert rows == [8]
    for v, (x, y) in enumerate(batch):
        single = solve_steady_state(sampler.graph, sampler.canonical_bump(v),
                                    config)
        assert y == readout.value(single.psi_inf)


def test_exact_batch_covers_every_vertex(c4_truth):
    readout = PopulationReadout.random(4, seed=1)
    sampler = TeacherSampler(c4_truth, readout, TEACHER_CFG, seed=8)
    batch = sampler.exact()
    assert len(batch) == 4
    for v, (x, y) in enumerate(batch):
        np.testing.assert_allclose(x, sampler.canonical_bump(v))
    fixed = sampler.exact_sampler()
    assert len(fixed(999)) == 4


def test_report_types():
    assert isinstance(
        distortion_report(
            path_graph(2),
            build_ground_truth(
                ManifoldSpec("segment", length=1.0, n_net_points=2),
                inj_radius=1.5)),
        DistortionReport)
    assert isinstance(
        build_ground_truth(ManifoldSpec("segment", length=1.0,
                                        n_net_points=2), inj_radius=1.5),
        GroundTruth)
