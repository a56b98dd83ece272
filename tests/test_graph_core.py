"""Operators and norms: naive-loop oracles, hand values, bound constants."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectral_moduli import fann_model

from spectral_moduli.graph_core import (
    DimensionMismatchError,
    EdgeField,
    GraphError,
    WeightedGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    discrete_gradient,
    graph_from_dict,
    graph_to_dict,
    laplacian_apply,
    norm_equivalence_report,
    norm_h1,
    norm_h2,
    norm_l2,
    path_graph,
    single_vertex_graph,
    spin_norms,
    validate_scalar_field,
    validate_scalar_fields,
)


def random_graph(rng, n, p=0.5, weighted=True):
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.uniform(0.2, 2.0) if weighted else 1.0
                triples.append((u, v, w))
    if not triples:  # keep at least one edge so tests exercise operators
        triples.append((0, 1, 1.0))
    return build_graph(n, triples)


def naive_laplacian(g, f):
    out = np.zeros(g.n, dtype=complex)
    for (u, v), w in zip(g.edges, g.weights):
        out[u] += w * (f[u] - f[v])
        out[v] += w * (f[v] - f[u])
    return out


# -- construction and validation ---------------------------------------------


def test_canonical_edge_order_and_dedup():
    g = build_graph(3, [(2, 0, 1.5), (1, 0, 0.5)])
    assert g.edges == ((0, 1), (0, 2))
    assert np.allclose(g.weights, [0.5, 1.5])


def test_rejects_self_loop_duplicate_and_bad_weight():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1, 1.0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1, -1.0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 5, 1.0)])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["weights", "mu", "rho"])
def test_rejects_non_finite_weights_and_measures(field, bad):
    d = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
         "mu": [1.0, 1.0, 1.0], "rho": [1.0, 1.0]}
    if field == "weights":
        d["edges"][0][2] = bad
    else:
        d[field][0] = bad
    with pytest.raises(GraphError, match="must be positive and finite"):
        graph_from_dict(d)


@pytest.mark.parametrize("end", [0.9, 1.0, True, "1"])
def test_graph_dictionary_endpoints_must_be_integers(end):
    # an endpoint is never truncated or cast into a vertex
    d = {"n": 3, "edges": [[0, 1, 1.0], [end, 2, 1.0]]}
    with pytest.raises(GraphError, match="is not an integer"):
        graph_from_dict(d)


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises((ValueError, AttributeError)):
        g.weights[0] = 7.0


def test_components_and_degrees():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    assert g.components() == ((0, 1, 2), (3, 4))
    assert list(g.degrees()) == [1, 2, 1, 1, 1]


def test_with_edge_and_without_edges():
    g = path_graph(3)
    g2 = g.with_edge((0, 2), 0.7)
    assert (0, 2) in g2.edges and g2.n_edges == 3
    g3 = build_graph(3, [(u, v, w) for (u, v), w in zip(g2.edges, g2.weights)
                         if (u, v) != (0, 2)])
    assert graph_to_dict(g3) == graph_to_dict(g)
    with pytest.raises(GraphError):
        g.with_edge((0, 1), 1.0)  # already present


# -- gradient and Laplacian ---------------------------------------------------


def test_gradient_p2_hand_value():
    g = path_graph(2)
    df = discrete_gradient(g, np.array([1.0, 0.0]))
    assert df.value(0, 1) == pytest.approx(-1.0)
    assert df.value(1, 0) == pytest.approx(1.0)


def test_gradient_constant_field_is_zero():
    g = cycle_graph(5)
    df = discrete_gradient(g, np.full(5, 2.3 + 1j))
    assert np.allclose(df.values, 0.0)


def test_gradient_matches_naive_loop():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    df = discrete_gradient(g, f)
    for u, v in g.edges:
        assert df.value(u, v) == pytest.approx(f[v] - f[u])
        assert df.value(v, u) == pytest.approx(f[u] - f[v])


def test_edge_field_rejects_non_edge():
    g = path_graph(3)
    df = discrete_gradient(g, np.arange(3, dtype=float))
    with pytest.raises(GraphError):
        df.value(0, 2)


def test_laplacian_p2_and_triangle():
    g = path_graph(2)
    assert np.allclose(laplacian_apply(g, np.array([1.0, 0.0])), [1.0, -1.0])
    tri = cycle_graph(3)
    assert np.allclose(laplacian_apply(tri, np.ones(3)), 0.0)


def test_laplacian_matches_dense_assembly():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 8)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    dense = g.coupling_laplacian()
    assert np.allclose(laplacian_apply(g, f), dense @ f)
    assert np.allclose(laplacian_apply(g, f), naive_laplacian(g, f))


def test_laplacian_positive_semidefinite():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng, 7)
        f = rng.normal(size=7) + 1j * rng.normal(size=7)
        quad = np.vdot(f, laplacian_apply(g, f)).real
        assert quad >= -1e-12


def test_dimension_mismatch_raises():
    g = path_graph(3)
    with pytest.raises(DimensionMismatchError):
        laplacian_apply(g, np.ones(4))
    with pytest.raises(DimensionMismatchError):
        discrete_gradient(g, np.ones(2))
    with pytest.raises(DimensionMismatchError):
        norm_l2(g, np.ones(5))


@pytest.mark.parametrize("bad", [np.ones(4), np.ones((3, 1)),
                                 np.array([1.0, np.nan, 0.0]),
                                 np.array([1.0, 0.0, 1j * np.inf])])
@pytest.mark.parametrize("at", [0, 2])
def test_validate_scalar_fields_fails_as_its_first_bad_field(bad, at):
    g = path_graph(3)
    fields = [np.ones(3), np.arange(3.0), 1j * np.ones(3)]
    stack = validate_scalar_fields(g, fields)
    assert stack.dtype == complex and np.array_equal(stack, fields)
    fields[at] = bad
    # a later bad field of the other kind must not mask the first one
    later = np.ones(5) if bad.shape == (3,) else np.full(3, np.nan)
    with pytest.raises(DimensionMismatchError) as alone:
        validate_scalar_field(g, bad)
    with pytest.raises(DimensionMismatchError) as batch:
        validate_scalar_fields(g, fields + [later])
    assert str(batch.value) == str(alone.value)


# -- scalar norms --------------------------------------------------------------


def test_scalar_norms_p2_hand_values():
    g = path_graph(2)
    f = np.array([1.0, 0.0])
    assert norm_l2(g, f) == pytest.approx(1.0)
    assert norm_h1(g, f) == pytest.approx(np.sqrt(2.0))


def test_norms_single_vertex():
    g = single_vertex_graph()
    f = np.array([3.0 - 4.0j])
    assert norm_l2(g, f) == pytest.approx(5.0)
    assert norm_h1(g, f) == pytest.approx(5.0)
    assert norm_h2(g, f) == pytest.approx(5.0)


def test_h1_identity_quadratic_form():
    # With mu = rho = 1 the edge energy equals <L f, f> for the coupling
    # Laplacian, i.e. the negated measure-Laplacian quadratic form.
    rng = np.random.default_rng(3)
    g = random_graph(rng, 7, weighted=False)
    f = rng.normal(size=7) + 1j * rng.normal(size=7)
    edge_energy = norm_h1(g, f) ** 2 - norm_l2(g, f) ** 2
    quad = np.vdot(f, laplacian_apply(g, f)).real
    assert edge_energy == pytest.approx(quad, rel=1e-12)
    m = g.measure_laplacian()
    quad_measure = np.vdot(f, (m @ f) * g.mu).real
    assert edge_energy == pytest.approx(-quad_measure, rel=1e-12)


def test_h2_uses_measure_laplacian():
    rng = np.random.default_rng(4)
    n = 6
    mu = rng.uniform(0.5, 2.0, size=n)
    rho = rng.uniform(0.5, 2.0, size=3)
    g = build_graph(n, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)],
                    mu=mu, rho=rho)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    lap = np.zeros(n, dtype=complex)
    for (u, v), r in zip(g.edges, g.rho):
        lap[u] += r * (f[v] - f[u]) / g.mu[u]
        lap[v] += r * (f[u] - f[v]) / g.mu[v]
    expect = np.sqrt(norm_l2(g, f) ** 2 + np.sum(np.abs(lap) ** 2 * g.mu))
    assert norm_h2(g, f) == pytest.approx(expect, rel=1e-12)


def test_norm_zero_iff_zero_field():
    g = cycle_graph(4)
    assert norm_l2(g, np.zeros(4)) == 0.0
    assert norm_h1(g, np.zeros(4)) == 0.0
    rng = np.random.default_rng(5)
    f = rng.normal(size=4)
    assert norm_l2(g, f) > 0


def test_l2_below_h1_scalar():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = random_graph(rng, 6)
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert norm_l2(g, f) <= norm_h1(g, f) + 1e-12


# -- spin norms ----------------------------------------------------------------


def test_spin_norms_p2_aligned():
    g = path_graph(2)
    s = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    l2, h1, h2 = spin_norms(g, s)
    assert l2 == pytest.approx(np.sqrt(2.0))
    assert h1 == pytest.approx(np.sqrt(2.0))  # zero edge term
    assert h2 == pytest.approx(np.sqrt(2.0))  # aligned field is harmonic


def test_spin_norms_p2_antipodal():
    g = path_graph(2)
    s = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    _, h1, _ = spin_norms(g, s)
    # edge term carries the 1/2 factor: 2 + (1/2)*|2 e3|^2 = 4
    assert h1 ** 2 == pytest.approx(4.0)


def test_spin_norms_match_naive_loop():
    rng = np.random.default_rng(7)
    n = 6
    g = random_graph(rng, n)
    s = rng.normal(size=(n, 3))
    l2, h1, h2 = spin_norms(g, s)
    l2_sq = sum(np.dot(s[j], s[j]) * g.mu[j] for j in range(n))
    edge = sum(0.5 * r * np.dot(s[u] - s[v], s[u] - s[v])
               for (u, v), r in zip(g.edges, g.rho))
    lap = np.zeros((n, 3))
    for (u, v), r in zip(g.edges, g.rho):
        lap[u] += r * (s[v] - s[u]) / g.mu[u]
        lap[v] += r * (s[u] - s[v]) / g.mu[v]
    lap_sq = sum(np.dot(lap[j], lap[j]) * g.mu[j] for j in range(n))
    assert l2 ** 2 == pytest.approx(l2_sq, rel=1e-12)
    assert h1 ** 2 == pytest.approx(l2_sq + edge, rel=1e-12)
    assert h2 ** 2 == pytest.approx(l2_sq + edge + lap_sq, rel=1e-12)


def test_spin_norm_ordering():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_graph(rng, 5)
        s = rng.normal(size=(5, 3))
        l2, h1, h2 = spin_norms(g, s)
        assert l2 <= h1 + 1e-12
        assert h1 <= h2 + 1e-12


# -- equivalence constants -----------------------------------------------------


def test_report_single_vertex():
    rep = norm_equivalence_report(single_vertex_graph())
    assert rep.c2 == pytest.approx(1.0)
    assert rep.max_ratio_h1_l2 == pytest.approx(1.0)
    assert rep.max_ratio_h2_h1 == pytest.approx(1.0)
    assert rep.violations == 0


def test_report_p2_constant():
    rep = norm_equivalence_report(path_graph(2))
    assert rep.c2 == pytest.approx(np.sqrt(2.0))


def test_report_no_violations_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(3, 11))
        g = random_graph(rng, n)
        rep = norm_equivalence_report(g, n_samples=200, seed=int(rng.integers(1 << 31)))
        assert rep.violations == 0
        assert rep.max_ratio_h1_l2 <= rep.c2 * (1 + 1e-12)
        assert rep.max_ratio_h2_h1 <= rep.c4 * (1 + 1e-12)


def test_report_extremal_field_bound_is_tight_on_p2():
    # antipodal unit spins realize the P2 constant exactly
    g = path_graph(2)
    s = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    l2, h1, _ = spin_norms(g, s)
    rep = norm_equivalence_report(g)
    assert h1 / l2 == pytest.approx(rep.c2)


def test_scalar_convention_exceeds_spin_bound():
    # The scalar edge energy has no 1/2 factor, so the spin-field constant
    # C2 does not bound scalar ratios; this pins why the report samples
    # vector fields.
    g = path_graph(2)
    f = np.array([1.0, -1.0])
    ratio = norm_h1(g, f) / norm_l2(g, f)
    rep = norm_equivalence_report(g)
    assert ratio > rep.c2 + 1e-6


def test_c4_uses_operator_norm():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 6)
    rep = norm_equivalence_report(g)
    m = g.measure_laplacian()
    # mu defaults to 1, so the operator norm is the plain spectral norm
    c_delta = np.linalg.norm(m, 2)
    assert rep.c4 == pytest.approx(np.sqrt(1.0 + c_delta ** 2), rel=1e-12)


# -- serialization -------------------------------------------------------------


def test_round_trip_dict():
    rng = np.random.default_rng(11)
    g = build_graph(4, [(0, 1, 0.5), (2, 3, 1.5), (0, 3, 2.0)],
                    mu=rng.uniform(0.5, 2, 4), rho=rng.uniform(0.5, 2, 3))
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.edges == g.edges
    assert np.allclose(g2.weights, g.weights)
    assert np.allclose(g2.mu, g.mu)
    assert np.allclose(g2.rho, g.rho)


def test_rho_follows_its_edge_through_canonical_sorting():
    g = build_graph(3, [(1, 2, 1.0), (0, 1, 2.0)], rho=[10, 20])
    assert g.edges == ((0, 1), (1, 2))
    assert g.weights.tolist() == [2.0, 1.0]
    assert g.rho.tolist() == [20.0, 10.0]
    # a dictionary lists rho in the order of its own edges, sorted or not
    d = {"n": 3, "edges": [[1, 2, 1.0], [0, 1, 2.0]], "rho": [10, 20]}
    assert graph_from_dict(d).rho.tolist() == [20.0, 10.0]
    with pytest.raises(GraphError):
        build_graph(3, [(1, 2, 1.0), (0, 1, 2.0)], rho=[10])


@st.composite
def graphs_with_gap(draw):
    """A graph on n = 2-8 vertices with random positive weights, mu and rho,
    and one vertex pair it leaves without an edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gap = pairs[int(rng.integers(len(pairs)))]
    density = rng.uniform(0.0, 1.0)
    kept = [p for p in pairs if p != gap and rng.uniform() < density]
    rng.shuffle(kept)
    g = build_graph(n, [(v, u, float(rng.uniform(0.1, 3.0))) for u, v in kept],
                    mu=rng.uniform(0.1, 3.0, n),
                    rho=rng.uniform(0.1, 3.0, len(kept)))
    return g, gap, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))


@given(graphs_with_gap())
def test_edge_add_remove_and_serialization_round_trips(case):
    g, gap, w, rho = case
    grafted = g.with_edge(gap, w, rho=rho)
    expect = {e: (wi, ri) for e, wi, ri in zip(g.edges, g.weights, g.rho)}
    expect[gap] = (w, rho)
    assert dict(zip(grafted.edges, zip(grafted.weights, grafted.rho))) == expect
    assert np.array_equal(grafted.mu, g.mu)
    kept = [k for k, e in enumerate(grafted.edges) if e != gap]
    pruned = build_graph(g.n, [(*grafted.edges[k], grafted.weights[k])
                               for k in kept],
                         mu=grafted.mu, rho=grafted.rho[kept])
    assert graph_to_dict(pruned) == graph_to_dict(g)
    d = graph_to_dict(grafted)
    assert graph_to_dict(graph_from_dict(d)) == d
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        fann_model.save_checkpoint(path, fann_model.random_params(2, g.n, 0),
                                   grafted)
        assert graph_to_dict(fann_model.load_checkpoint(path)[1]) == d


@st.composite
def miscast_graph_dicts(draw):
    """A ``graph_to_dict`` dictionary with one number replaced by a value
    that a cast would mostly read back as a valid graph: a bool, a float or
    a string vertex count, or a bool or a string weight, mu or rho value."""
    g = draw(graphs_with_gap())[0]
    d = graph_to_dict(g)
    if draw(st.booleans()):
        d["n"] = draw(st.sampled_from([True, float(g.n), g.n + 0.5, str(g.n)]))
        return d
    cells = ([(e, 2) for e in d["edges"]] + [(d["mu"], k) for k in range(g.n)]
             + [(d["rho"], k) for k in range(g.n_edges)])
    row, k = cells[draw(st.integers(0, len(cells) - 1))]
    row[k] = draw(st.sampled_from([True, str(row[k])]))
    return d


@given(miscast_graph_dicts())
def test_graph_dictionary_numbers_are_never_cast(d):
    # the checkpoint reader holds n and every weight, mu and rho value to
    # the rule its endpoints follow
    with pytest.raises(GraphError, match="is not (an integer|a real number)"):
        graph_from_dict(d)
