"""Implicit steady-state derivatives against finite-difference oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectral_moduli import dynamics, sensitivity
from spectral_moduli.graph_core import GraphError, build_graph, cycle_graph, single_vertex_graph
from spectral_moduli.dynamics import (NlseConfig, SteadyState, nlse_rhs,
                                      solve_steady_state_many)
from spectral_moduli.sensitivity import (
    NonIsolatedSteadyStateError,
    dpsi_dpsi0,
    dpsi_dw,
    dpsi_dw_all,
    fd_oracle,
    potential_gradient,
    realify,
    rhs_jacobian,
    steady_state_adjoint,
    unrealify,
    weight_gradients,
)

CFG = NlseConfig(dt=1e-2, steady_tol=1e-12, t_max=2000)


@pytest.fixture(scope="module")
def triangle_problem():
    g = cycle_graph(3)
    psi0 = np.array([0.8, 0.6, 0.0]) + 0j
    psi0 /= np.linalg.norm(psi0)
    steady = solve_steady_state_many([g], [psi0], CFG)[0]
    assert steady.converged
    return g, psi0, steady


def tangent_direction(rng, psi0):
    z = rng.normal(size=psi0.shape[0]) + 1j * rng.normal(size=psi0.shape[0])
    return z - psi0 * np.vdot(psi0, z).real


# -- realified helpers ---------------------------------------------------------


def test_realify_round_trip():
    rng = np.random.default_rng(0)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.allclose(unrealify(realify(z)), z)


# -- Jacobian vs finite differences of the right-hand side ----------------------


def test_jacobian_matches_rhs_fd():
    rng = np.random.default_rng(1)
    g = cycle_graph(3)
    psi0 = tangent_direction(rng, np.zeros(3) + 0j)  # any field
    psi0 /= np.linalg.norm(psi0)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    jac = rhs_jacobian(g, psi0, psi, 1.0)
    h = 1e-6
    for _ in range(5):
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        fd = (nlse_rhs(g, psi + h * d, psi0, 1.0)
              - nlse_rhs(g, psi - h * d, psi0, 1.0)) / (2 * h)
        assert np.abs(jac @ realify(d) - realify(fd)).max() < 1e-7


@pytest.mark.parametrize("n", [3, 4, 8])
def test_closed_form_jacobian_matches_rhs_fd_columnwise(n):
    # ring with random weights, off-sphere state and gamma != 1, so every
    # term of the closed form (including the |psi|^2 derivatives) is live
    rng = np.random.default_rng(40 + n)
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    g = build_graph(n, [(u, v, float(rng.uniform(0.5, 2.0)))
                        for u, v in sorted(pairs)])
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    psi = 1.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2 * n)
    jac = rhs_jacobian(g, psi0, psi, 0.7)
    h = 1e-6
    for k in range(2 * n):
        d = unrealify(np.eye(2 * n)[k])
        fd = (nlse_rhs(g, psi + h * d, psi0, 0.7)
              - nlse_rhs(g, psi - h * d, psi0, 0.7)) / (2 * h)
        assert np.abs(jac[:, k] - realify(fd)).max() < 1e-7


@pytest.mark.parametrize("n", [3, 4, 8])
def test_parameter_jacobian_matches_rhs_fd(n):
    # rows of dF/d(weights) and dF/d(potential) at an off-sphere state and
    # gamma != 1, where the opposite signs of the two row kinds both show
    rng = np.random.default_rng(40 + n)
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    g = build_graph(n, [(u, v, float(rng.uniform(0.5, 2.0)))
                        for u, v in sorted(pairs)])
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    psi = 1.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2 * n)
    d = dynamics._dF_dparams(g.edges, psi, 0.7)
    assert d.shape == (g.n_edges + n, 2 * n)
    h = 1e-6
    for k in range(g.n_edges):
        step = h * np.eye(g.n_edges)[k]
        fd = (nlse_rhs(g.with_weights(g.weights + step), psi, psi0, 0.7)
              - nlse_rhs(g.with_weights(g.weights - step), psi, psi0, 0.7))
        assert np.abs(d[k] - realify(fd / (2 * h))).max() < 1e-7
    lap, v = g.coupling_laplacian(), np.abs(psi0) ** 2
    for j in range(n):
        step = h * np.eye(n)[j]
        fd = (dynamics._nlse_raw(lap, v + step, psi, 0.7)
              - dynamics._nlse_raw(lap, v - step, psi, 0.7))
        assert np.abs(d[g.n_edges + j] - realify(fd / (2 * h))).max() < 1e-7


def test_jacobian_annihilates_phase_direction(triangle_problem):
    # U(1) equivariance: J(i psi) = i F(psi); at a steady state this makes
    # i*psi an exact null direction of J - i*alpha.
    g, psi0, steady = triangle_problem
    psi = steady.psi_inf
    jac = rhs_jacobian(g, psi0, psi, 1.0)
    f = nlse_rhs(g, psi, psi0, 1.0)
    assert np.abs(jac @ realify(1j * psi) - realify(1j * f)).max() < 1e-9


# -- implicit vs FD -------------------------------------------------------------


def test_dpsi_dw_matches_fd_on_every_edge(triangle_problem):
    g, psi0, steady = triangle_problem
    for edge in g.edges:
        imp = dpsi_dw(g, psi0, steady, edge)
        fd = fd_oracle(g, psi0, CFG, ("w", edge))
        rel = (np.linalg.norm(imp.d_psi_inf - fd.d_psi_inf)
               / np.linalg.norm(fd.d_psi_inf))
        assert rel < 1e-4
        assert imp.method == "implicit"
        assert imp.condition_estimate < 1e3


def test_condition_estimate_is_exact_one_norm_condition(triangle_problem):
    g, psi0, steady = triangle_problem
    b = dynamics._bordered_system(g.coupling_laplacian()[None],
                                  (np.abs(psi0) ** 2)[None],
                                  steady.psi_inf[None], 1.0)[0]
    exact = np.linalg.cond(b, 1)
    for res in dpsi_dw_all(g, psi0, steady).values():
        assert res.condition_estimate == pytest.approx(exact, rel=1e-12)


def test_dpsi_dpsi0_matches_trajectory_fd(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(2)
    d = tangent_direction(rng, psi0)
    imp = dpsi_dpsi0(g, psi0, steady, d)
    fd = fd_oracle(g, psi0, CFG, ("psi0", d))
    rel = (np.linalg.norm(imp.d_psi_inf - fd.d_psi_inf)
           / np.linalg.norm(fd.d_psi_inf))
    assert rel < 1e-3


def test_phase_direction_gives_zero(triangle_problem):
    g, psi0, steady = triangle_problem
    imp = dpsi_dpsi0(g, psi0, steady, 1j * psi0)
    assert np.linalg.norm(imp.d_psi_inf) < 1e-8


def test_gauge_orthogonality_and_norm_tangency(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(3)
    imp = dpsi_dpsi0(g, psi0, steady, tangent_direction(rng, psi0))
    assert abs(imp.d_psi_inf @ realify(1j * steady.psi_inf)) < 1e-8
    assert abs(imp.d_psi_inf @ realify(steady.psi_inf)) < 1e-8
    for edge in g.edges:
        r = dpsi_dw(g, psi0, steady, edge).d_psi_inf
        assert abs(r @ realify(1j * steady.psi_inf)) < 1e-8


def test_dpsi_dpsi0_linear_in_direction(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(4)
    d1 = tangent_direction(rng, psi0)
    d2 = tangent_direction(rng, psi0)
    a, b = 0.37, -1.21
    lhs = dpsi_dpsi0(g, psi0, steady, a * d1 + b * d2).d_psi_inf
    rhs = (a * dpsi_dpsi0(g, psi0, steady, d1).d_psi_inf
           + b * dpsi_dpsi0(g, psi0, steady, d2).d_psi_inf)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_non_tangent_direction_rejected(triangle_problem):
    g, psi0, steady = triangle_problem
    with pytest.raises(ValueError):
        dpsi_dpsi0(g, psi0, steady, psi0)  # radial, not tangent


def test_dpsi_dw_unknown_edge_rejected(triangle_problem):
    g, psi0, steady = triangle_problem
    with pytest.raises(GraphError):
        dpsi_dw(g, psi0, steady, (0, 7))


def test_unconverged_steady_state_rejected(triangle_problem):
    g, psi0, _ = triangle_problem
    fake = SteadyState(psi0, 0.0, 1.0, CFG.gamma, reason="horizon")
    with pytest.raises(ValueError):
        dpsi_dw(g, psi0, fake, (0, 1))


def test_single_vertex_has_no_weight_derivatives():
    g = single_vertex_graph()
    psi0 = np.array([1.0 + 0j])
    steady = solve_steady_state_many([g], [psi0], CFG)[0]
    assert dpsi_dw_all(g, psi0, steady) == {}


def test_disconnected_graph_is_non_isolated():
    # two components carry independent phase/norm freedoms; the two global
    # slice rows cannot remove all of them
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    psi0 = np.ones(4, dtype=complex) / 2.0
    steady = solve_steady_state_many([g], [psi0], CFG)[0]
    assert steady.converged
    with pytest.raises(NonIsolatedSteadyStateError):
        dpsi_dw(g, psi0, steady, (0, 1))


# -- fd oracle ---------------------------------------------------------------------


def test_fd_oracle_exact_on_quadratic_solver():
    g = cycle_graph(3)
    psi0 = np.ones(3, dtype=complex) / np.sqrt(3)

    def quadratic_solver(gq, p, config):
        w = np.asarray(gq.weights)
        vec = np.array([w[0] ** 2, 1.0 + w[1], 3.0 * w[2] + w[0]], dtype=complex)
        return SteadyState(vec, 0.0, 0.0, config.gamma)

    out = fd_oracle(g, psi0, CFG, ("w", g.edges[0]), h=1e-3,
                    solver=quadratic_solver)
    w0 = g.weights[0]
    expect = realify(np.array([2 * w0, 0.0, 1.0], dtype=complex))
    assert np.abs(out.d_psi_inf - expect).max() < 1e-11
    assert out.method == "finite_difference"


def test_fd_oracle_h_sweep_v_shape(triangle_problem):
    g, psi0, steady = triangle_problem
    edge = (0, 1)
    imp = dpsi_dw(g, psi0, steady, edge).d_psi_inf
    errs = {}
    for h in (1e-4, 1e-5, 1e-6):
        fd = fd_oracle(g, psi0, CFG, ("w", edge), h=h).d_psi_inf
        errs[h] = np.linalg.norm(imp - fd) / np.linalg.norm(fd)
    assert errs[1e-5] < errs[1e-4]
    assert errs[1e-5] < errs[1e-6]


def test_fd_oracle_rejects_bad_input(triangle_problem):
    g, psi0, _ = triangle_problem
    with pytest.raises(ValueError):
        fd_oracle(g, psi0, CFG, ("w", (0, 1)), h=0.0)
    with pytest.raises(ValueError):
        fd_oracle(g, psi0, CFG, ("volume", 3))


# -- adjoint pricing -----------------------------------------------------------------


def test_weight_gradients_match_per_edge_solves(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(5)
    cot = rng.normal(size=2 * g.n)
    grads = weight_gradients(g, [psi0], [steady], [cot])[0]
    per_edge = dpsi_dw_all(g, psi0, steady)
    for k, edge in enumerate(g.edges):
        assert grads[k] == pytest.approx(cot @ per_edge[edge].d_psi_inf,
                                         abs=1e-12)


def test_potential_gradient_matches_directional_solves(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(6)
    cot = rng.normal(size=2 * g.n)
    gv = potential_gradient(g, [psi0], [steady], [cot])[0]
    # price a potential direction two ways: adjoint vs direct tangent solve
    for _ in range(3):
        dv = rng.normal(size=g.n)
        # recover the tangent solve through dpsi_dpsi0 by choosing a psi0
        # perturbation that realizes dv: direction = dv * psi0 / (2 |psi0|^2)
        # has 2 Re(conj(psi0) dir) = dv wherever psi0 != 0.
        direction = dv * psi0 / (2.0 * np.abs(psi0) ** 2 + 1e-300)
        direction = direction - psi0 * np.vdot(psi0, direction).real
        dv_real = 2.0 * (psi0.real * direction.real + psi0.imag * direction.imag)
        dpsi = dpsi_dpsi0(g, psi0, steady, direction).d_psi_inf
        assert gv @ dv_real == pytest.approx(cot @ dpsi, rel=1e-9, abs=1e-12)


def test_adjoint_state_finite_and_reusable(triangle_problem):
    g, psi0, steady = triangle_problem
    rng = np.random.default_rng(7)
    cot = rng.normal(size=2 * g.n)
    lam = steady_state_adjoint(g, [psi0], [steady], [cot])
    assert lam.shape == (1, 2 * g.n)
    assert np.all(np.isfinite(lam))


@st.composite
def solved_problems(draw):
    """A random connected graph on N = 3-6 vertices, a unit input state and
    its steady state solved at a drawn gamma in [0.3, 1.5]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(3, 7))
    # a random spanning tree, plus each other pair with probability 0.4
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.uniform() < 0.4}
    g = build_graph(n, [(u, w, float(rng.uniform(0.5, 2.0)))
                        for u, w in sorted(edges)])
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    gamma = draw(st.floats(0.3, 1.5))
    steady = solve_steady_state_many([g], [psi0], NlseConfig(
        gamma=gamma, dt=1e-2, steady_tol=1e-12, t_max=2000))[0]
    assert steady.converged and steady.gamma == gamma
    return g, psi0, steady, rng


@given(solved_problems())
def test_adjoint_gradients_equal_forward_derivatives(case):
    # the adjoint and the forward derivatives price the same linearization,
    # at the gamma the state was solved at
    g, psi0, steady, rng = case
    cot = rng.normal(size=2 * g.n)
    grads = weight_gradients(g, [psi0], [steady], [cot])[0]
    for k, res in enumerate(dpsi_dw_all(g, psi0, steady).values()):
        assert grads[k] == pytest.approx(cot @ res.d_psi_inf, rel=1e-10)
    gv = potential_gradient(g, [psi0], [steady], [cot])[0]
    # direction = dv psi0 / (2 |psi0|^2), made tangent, realizes the
    # potential move dv_real = 2 Re(conj(psi0) direction)
    direction = rng.normal(size=g.n) * psi0 / (2.0 * np.abs(psi0) ** 2)
    direction = direction - psi0 * np.vdot(psi0, direction).real
    dv_real = 2.0 * (psi0.real * direction.real + psi0.imag * direction.imag)
    dpsi = dpsi_dpsi0(g, psi0, steady, direction).d_psi_inf
    assert gv @ dv_real == pytest.approx(cot @ dpsi, rel=1e-10)


@pytest.mark.parametrize("adjoint", [steady_state_adjoint, weight_gradients,
                                     potential_gradient])
def test_batch_with_mixed_gamma_rejected(triangle_problem, adjoint):
    # each state is differentiated at its own gamma, so a batch cannot
    # borrow the first row's
    g, psi0, steady = triangle_problem
    other = dataclasses.replace(steady, gamma=0.5)
    cot = np.ones((2, 2 * g.n))
    with pytest.raises(ValueError, match="one gamma"):
        adjoint(g, [psi0, psi0], [steady, other], cot)


def _hand_built(psi):
    return SteadyState(np.asarray(psi, dtype=complex), 0.0, 1.0, 1.0)


# an exactly singular bordered matrix on the triangle (psi an eigenvector of
# L, frozen potential 1), and one that only just inverts
SINGULAR = _hand_built([0.5, -1.0, 0.5])
ILL_CONDITIONED = _hand_built([0.5, -1.0, 0.5 + 1e-14])


@pytest.mark.parametrize("failing", [[SINGULAR], [ILL_CONDITIONED],
                                     [SINGULAR, ILL_CONDITIONED],
                                     [ILL_CONDITIONED, SINGULAR]])
def test_batch_fails_as_its_first_failing_row(triangle_problem, failing):
    g, psi0, steady = triangle_problem
    with pytest.raises(NonIsolatedSteadyStateError) as alone:
        steady_state_adjoint(g, [np.ones(3)], failing[:1], np.ones((1, 6)))
    rows = [steady, steady] + failing
    psi0s = [psi0, psi0] + [np.ones(3)] * len(failing)
    with pytest.raises(NonIsolatedSteadyStateError) as batch:
        steady_state_adjoint(g, psi0s, rows, np.ones((len(rows), 6)))
    assert str(batch.value) == str(alone.value)


@st.composite
def solved_batches(draw):
    """A random connected graph on N = 3-6 vertices with 1-8 unit inputs,
    their steady states solved in one batch at a drawn gamma, and one
    cotangent per state."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(3, 7))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.uniform() < 0.4}
    g = build_graph(n, [(u, w, float(rng.uniform(0.5, 2.0)))
                        for u, w in sorted(edges)])
    psi0s = rng.normal(size=(draw(st.integers(1, 8)), n)) * (1 + 0j)
    psi0s += 1j * rng.normal(size=psi0s.shape)
    psi0s /= np.linalg.norm(psi0s, axis=1)[:, None]
    steadies = solve_steady_state_many([g] * len(psi0s), list(psi0s), NlseConfig(
        gamma=draw(st.floats(0.3, 1.5)), dt=1e-2, steady_tol=1e-10, t_max=2000))
    assert all(s.converged for s in steadies)
    return g, list(psi0s), steadies, rng.normal(size=(len(psi0s), 2 * n))


@given(solved_batches())
def test_batched_adjoint_rows_equal_batches_of_one(case):
    g, psi0s, steadies, cots = case
    for adjoint in (steady_state_adjoint, weight_gradients, potential_gradient):
        rows = adjoint(g, psi0s, steadies, cots)
        assert len(rows) == len(steadies)
        for k, row in enumerate(rows):
            one = adjoint(g, psi0s[k:k + 1], steadies[k:k + 1], cots[k:k + 1])
            assert np.array_equal(row, one[0])


# -- the bordered matrix a Newton-accepted state carries -------------------------


def newton_accepted_batch(rng, g, count):
    psi0s = list(rng.normal(size=(count, g.n)) + 1j * rng.normal(size=(count, g.n)))
    psi0s = [p / np.linalg.norm(p) for p in psi0s]
    steadies = solve_steady_state_many([g] * count, psi0s, CFG)
    assert all(st.converged and st.bordered is not None for st in steadies)
    return psi0s, steadies


def test_pricing_with_the_carried_matrix_equals_a_fresh_build(monkeypatch):
    rng = np.random.default_rng(31)
    g = cycle_graph(4)
    psi0s, steadies = newton_accepted_batch(rng, g, 3)
    bare = [dataclasses.replace(st, bordered=None) for st in steadies]
    cots = rng.normal(size=(3, 2 * g.n))
    built, original = [], sensitivity._bordered_system

    def counted(lap, v, psi, gamma):
        built.append(len(psi))
        return original(lap, v, psi, gamma)

    monkeypatch.setattr(sensitivity, "_bordered_system", counted)
    for price in (steady_state_adjoint, weight_gradients, potential_gradient):
        carried = price(g, psi0s, steadies, cots)
        assert built == []  # Newton-accepted states are priced unbuilt
        assert np.array_equal(carried, price(g, psi0s, bare, cots))
        assert built == [3]
        built.clear()


def test_a_warm_start_at_rest_keeps_its_bits_and_carries_its_matrix(
        monkeypatch):
    # a start already at steady_tol takes no step, and passing the stability
    # check it carries its matrix, so pricing it builds none
    rng = np.random.default_rng(33)
    g = cycle_graph(4)
    psi0s, steadies = newton_accepted_batch(rng, g, 3)
    again = solve_steady_state_many([g] * 3, psi0s, CFG,
                                    [st.psi_inf for st in steadies])
    for st, re in zip(steadies, again):
        assert re.converged and re.t_reached == 0.0
        assert np.array_equal(re.psi_inf, st.psi_inf)
        assert re.bordered is not None and re.bordered[0] == st.bordered[0]
    built, original = [], sensitivity._bordered_system

    def counted(lap, v, psi, gamma):
        built.append(len(psi))
        return original(lap, v, psi, gamma)

    monkeypatch.setattr(sensitivity, "_bordered_system", counted)
    cots = rng.normal(size=(3, 2 * g.n))
    assert np.array_equal(weight_gradients(g, psi0s, again, cots),
                          weight_gradients(g, psi0s, steadies, cots))
    assert built == []


def test_a_state_priced_elsewhere_never_reuses_its_carried_matrix():
    rng = np.random.default_rng(32)
    g = cycle_graph(4)
    (psi0,), (st,) = newton_accepted_batch(rng, g, 1)
    key, b = st.bordered
    # a carried matrix of zeros fails as singular wherever it is used
    poisoned = dataclasses.replace(st, bordered=(key, np.zeros_like(b)))
    cot = rng.normal(size=(1, 2 * g.n))
    for same in (g, g.with_weights(g.weights.copy())):
        with pytest.raises(NonIsolatedSteadyStateError):
            steady_state_adjoint(same, [psi0], [poisoned], cot)
    other_input = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    for where, x in ((g.with_weights(1.5 * g.weights), psi0),
                     (g, other_input / np.linalg.norm(other_input))):
        bare = dataclasses.replace(st, bordered=None)
        assert np.array_equal(steady_state_adjoint(where, [x], [poisoned], cot),
                              steady_state_adjoint(where, [x], [bare], cot))
    # nor does a state whose fields were replaced after the solve
    for change in ({"psi_inf": 1j * st.psi_inf}, {"gamma": 0.5}):
        moved = dataclasses.replace(poisoned, **change)
        assert np.array_equal(
            steady_state_adjoint(g, [psi0], [moved], cot),
            steady_state_adjoint(g, [psi0], [dataclasses.replace(
                moved, bordered=None)], cot))
