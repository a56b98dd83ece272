"""Four flows, their charts, the integrator, and steady-state detection.

The cross-product spin laws are tested for what they provably do (tangency,
pointwise norm preservation, the documented hand values).  Trajectory-level
agreement with the mapped vertex-field flows holds only for the pushforward
laws; the mismatch of the cross-product laws is pinned down quantitatively
here, while the acceptance suite checks equivalence on the pushforward laws.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spectral_moduli import dynamics
from spectral_moduli.graph_core import build_graph, cycle_graph, path_graph, single_vertex_graph
from spectral_moduli.dynamics import (
    DivergenceError,
    InvalidStateError,
    NlseConfig,
    SouthPoleError,
    diffusion_rhs,
    gauge_align,
    gauge_check,
    integrate,
    ll_rhs,
    ll_rhs_induced,
    make_rhs,
    nlse_rhs,
    phase_constraint,
    phase_constraint_2d,
    solve_steady_state_many,
    spin2d_rhs,
    spin2d_rhs_induced,
    to_circle,
    to_line,
    to_plane,
    to_sphere,
    write_invariants_jsonl,
    write_trajectory_csv,
)

CFG = NlseConfig()


def unit_state(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


# -- complex right-hand side ---------------------------------------------------


def test_nlse_single_vertex_hand_value():
    g = single_vertex_graph()
    psi = np.array([1.0 + 0j])
    assert np.allclose(nlse_rhs(g, psi, psi, 1.0), [-1j])


def test_nlse_symmetric_p2_pure_phase():
    g = path_graph(2)
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = nlse_rhs(g, psi, psi, 1.0)
    assert np.allclose(f, -0.5j * psi)


def test_nlse_tangency_random():
    rng = np.random.default_rng(0)
    g = cycle_graph(3)
    for _ in range(20):
        psi = unit_state(rng, 3)
        psi0 = unit_state(rng, 3)
        f = nlse_rhs(g, psi, psi0, 1.3)
        assert abs(np.vdot(psi, f).real) < 1e-12


def test_nlse_zero_state_rejected():
    g = path_graph(2)
    with pytest.raises(InvalidStateError):
        nlse_rhs(g, np.zeros(2, dtype=complex), np.ones(2) / np.sqrt(2), 1.0)


def test_nlse_matches_naive_recomputation():
    rng = np.random.default_rng(1)
    g = build_graph(4, [(0, 1, 0.7), (1, 2, 1.2), (2, 3, 0.4), (0, 3, 1.0)])
    psi = unit_state(rng, 4)
    psi0 = unit_state(rng, 4)
    gamma = 0.8
    lap = g.coupling_laplacian() @ psi
    v = np.abs(psi0) ** 2
    d = lap + (np.abs(psi) ** 2 - v) * psi
    proj = d - psi * np.vdot(psi, d) / np.vdot(psi, psi)
    expect = -1j * (lap + v * psi) - gamma * proj
    assert np.allclose(nlse_rhs(g, psi, psi0, gamma), expect, atol=1e-14)


# -- spin right-hand sides -------------------------------------------------------


def test_ll_aligned_spins_zero_field():
    g = cycle_graph(3)
    s = np.tile([0.0, 0.0, 1.0], (3, 1))
    psi0 = np.ones(3, dtype=complex) / np.sqrt(3)
    assert np.allclose(ll_rhs(g, s, psi0, 1.0), 0.0, atol=1e-14)


def test_ll_single_vertex_hand_value():
    g = single_vertex_graph()
    s = np.array([[1.0, 0.0, 0.0]])
    psi0 = np.array([1.0 + 0j])
    assert np.allclose(ll_rhs(g, s, psi0, 1.0), [[0.0, -2.0, 0.0]])


def test_ll_tangency_random():
    rng = np.random.default_rng(2)
    g = cycle_graph(4)
    for _ in range(20):
        s = rng.normal(size=(4, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        psi0 = unit_state(rng, 4)
        ds = ll_rhs(g, s, psi0, 0.7)
        assert np.abs(np.sum(ds * s, axis=1)).max() < 1e-12


def test_ll_rejects_non_unit_spins():
    g = path_graph(2)
    s = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(Exception):
        ll_rhs(g, s, np.ones(2) / np.sqrt(2), 1.0)


def test_spin2d_aligned_zero_field():
    g = path_graph(3)
    t = np.tile([0.0, 1.0, 0.0], (3, 1))
    phi0 = np.full(3, 0.5)
    assert np.allclose(spin2d_rhs(g, t, phi0, 1.0), 0.0, atol=1e-14)


def test_spin2d_tangency_and_planarity():
    rng = np.random.default_rng(3)
    g = cycle_graph(4)
    for _ in range(20):
        ang = rng.uniform(0, 2 * np.pi, size=4)
        t = np.stack([np.sin(ang), np.cos(ang), np.zeros(4)], axis=1)
        phi0 = rng.normal(size=4)
        dt_ = spin2d_rhs(g, t, phi0, 0.9)
        assert np.abs(np.sum(dt_ * t, axis=1)).max() < 1e-12
        assert np.abs(dt_[:, 2]).max() == 0.0


# -- stereographic charts --------------------------------------------------------


def test_chart_landmarks():
    assert np.allclose(to_sphere(np.array([0.0 + 0j])), [[0.0, 0.0, 1.0]])
    assert np.allclose(to_sphere(np.array([1.0 + 0j])), [[1.0, 0.0, 0.0]])
    assert np.allclose(to_sphere(np.array([1j])), [[0.0, 1.0, 0.0]])


def test_chart_round_trip():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=100) + 1j * rng.normal(size=100)
    s = to_sphere(psi)
    assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max() < 1e-14
    assert np.abs(to_plane(s) - psi).max() < 1e-12


def test_chart_south_pole_guard():
    s = np.array([[0.0, 0.0, -1.0]])
    with pytest.raises(SouthPoleError):
        to_plane(s)
    with pytest.raises(SouthPoleError):
        phase_constraint(s)


def test_planar_chart_round_trip_and_guard():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=50) * 3
    t = to_circle(phi)
    assert np.abs(np.linalg.norm(t[:, :2], axis=1) - 1.0).max() < 1e-14
    assert np.abs(to_line(t) - phi).max() < 1e-12
    with pytest.raises(SouthPoleError):
        to_line(np.array([[0.0, -1.0, 0.0]]))


def test_phase_constraint_is_norm_squared():
    rng = np.random.default_rng(6)
    psi = unit_state(rng, 5)
    assert phase_constraint(to_sphere(psi)) == pytest.approx(1.0, abs=1e-10)
    psi2 = (rng.normal(size=5) + 1j * rng.normal(size=5)) * 0.3
    assert phase_constraint(to_sphere(psi2)) == pytest.approx(
        np.linalg.norm(psi2) ** 2, abs=1e-10)
    north = np.tile([0.0, 0.0, 1.0], (4, 1))
    assert phase_constraint(north) == 0.0
    phi = rng.normal(size=4)
    assert phase_constraint_2d(to_circle(phi)) == pytest.approx(
        np.linalg.norm(phi) ** 2, abs=1e-10)


# -- real diffusion ---------------------------------------------------------------


def test_diffusion_single_vertex_not_tangent():
    # the conservative part has no -i factor, so it is radial here: F = -1
    # and <F, phi> = -1.  This pins the documented convention of integrating
    # the system exactly as stated without a norm assertion.
    g = single_vertex_graph()
    phi = np.array([1.0])
    f = diffusion_rhs(g, phi, phi, 1.0)
    assert np.allclose(f, [-1.0])
    assert abs(float(np.dot(f, phi))) == pytest.approx(1.0)


def test_diffusion_symmetric_p2_no_dissipation():
    g = path_graph(2)
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = diffusion_rhs(g, phi, phi, 5.0)
    # dissipation vanishes; what is left is the (radial) potential term
    assert np.allclose(f, -0.5 * phi)


def test_diffusion_matches_naive_recomputation():
    rng = np.random.default_rng(7)
    g = cycle_graph(4, w=0.6)
    phi = rng.normal(size=4)
    phi0 = rng.normal(size=4)
    gamma = 1.1
    lap = g.coupling_laplacian().real @ phi
    v = phi0 ** 2
    d = lap + (phi ** 2 - v) * phi
    proj = d - phi * np.dot(phi, d) / np.dot(phi, phi)
    expect = -(lap + v * phi) - gamma * proj
    assert np.allclose(diffusion_rhs(g, phi, phi0, gamma), expect, atol=1e-13)


# -- pushforward laws vs cross-product laws ---------------------------------------


def test_pushforward_agrees_with_difference_quotient():
    rng = np.random.default_rng(8)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    psi = unit_state(rng, 3)
    f = nlse_rhs(g, psi, psi0, 1.0)
    h = 1e-7
    quotient = (to_sphere(psi + h * f) - to_sphere(psi - h * f)) / (2 * h)
    ds = ll_rhs_induced(g, to_sphere(psi), psi0, 1.0)
    assert np.abs(ds - quotient).max() < 1e-7


def test_pushforward_2d_agrees_with_difference_quotient():
    rng = np.random.default_rng(9)
    g = path_graph(3)
    phi0 = rng.normal(size=3)
    phi = rng.normal(size=3)
    f = diffusion_rhs(g, phi, phi0, 1.0)
    h = 1e-7
    quotient = (to_circle(phi + h * f) - to_circle(phi - h * f)) / (2 * h)
    dt_ = spin2d_rhs_induced(g, to_circle(phi), phi0, 1.0)
    assert np.abs(dt_ - quotient).max() < 1e-7


def test_chart_turns_multiplication_by_i_into_rotation_about_s():
    # dS_psi(i h) = S x dS_psi(h): the identity that makes the pushforward
    # law a cross-product law, dS/dt = S x H - gamma S x (S x D)
    rng = np.random.default_rng(13)
    g = cycle_graph(4)
    psi = unit_state(rng, g.n)
    h = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    eps = 1e-5

    def chart_derivative(direction):
        return (to_sphere(psi + eps * direction)
                - to_sphere(psi - eps * direction)) / (2 * eps)

    rotated = np.cross(to_sphere(psi), chart_derivative(h))
    assert np.abs(chart_derivative(1j * h) - rotated).max() < 1e-7


def test_cross_law_rate_doubles_on_single_vertex():
    # the cross-product law precesses at twice the rate of the exact image
    # of the complex flow; this factor is the root cause of the documented
    # trajectory-level disagreement.
    g = single_vertex_graph()
    psi0 = np.array([1.0 + 0j])
    s = to_sphere(psi0)
    assert np.allclose(ll_rhs(g, s, psi0, 1.0), 2.0 * ll_rhs_induced(g, s, psi0, 1.0))


def test_gauge_check_pushforward_tracks_complex_flow():
    rng = np.random.default_rng(10)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    cfg = NlseConfig(dt=1e-3)
    dev = gauge_check(g, psi0, cfg, t_final=2.0, spin_law="pushforward")
    assert dev < 1e-9


def test_gauge_check_pushforward_tracks_real_flow():
    rng = np.random.default_rng(11)
    g = path_graph(3)
    phi0 = rng.normal(size=3)
    cfg = NlseConfig(dt=1e-3)
    dev = gauge_check(g, phi0, cfg, t_final=2.0, pair="real",
                      spin_law="pushforward")
    assert dev < 1e-9


def test_gauge_check_cross_law_departs():
    # measured mismatch of the cross-product law: O(1) deviation and
    # first-order-in-time growth (rates differ already at t = 0)
    g = single_vertex_graph()
    psi0 = np.array([1.0 + 0j])
    cfg = NlseConfig(dt=1e-3)
    dev = gauge_check(g, psi0, cfg, t_final=5.0, spin_law="cross")
    assert dev > 1.0
    d1 = gauge_check(g, psi0, cfg, t_final=0.1, spin_law="cross")
    d2 = gauge_check(g, psi0, cfg, t_final=0.05, spin_law="cross")
    assert 1.7 < d1 / d2 < 2.3  # linear in t, not an integrator artifact


def test_constraint_transport_pushforward_only():
    rng = np.random.default_rng(12)
    g = cycle_graph(4)
    psi0 = unit_state(rng, 4)
    cfg = NlseConfig(dt=1e-3)
    rec = integrate(make_rhs(g, psi0, cfg, "ll", "pushforward"),
                    to_sphere(psi0), cfg, system="ll", t_final=2.0)
    c = rec.invariant_log["constraint"]
    assert np.abs(c - 1.0).max() < 1e-8
    rec2 = integrate(make_rhs(g, psi0, cfg, "ll", "cross"),
                     to_sphere(psi0), cfg, system="ll", t_final=2.0)
    c2 = rec2.invariant_log["constraint"]
    assert np.abs(c2 - 1.0).max() > 1e-2  # drifts under the cross-product law


def _chart_composition(g, s, psi0, gamma):
    """The pushforward law as chart, complex flow and chart derivative."""
    psi = to_plane(s)
    f = nlse_rhs(g, psi, psi0, gamma)
    x, y, a, b = psi.real, psi.imag, f.real, f.imag
    u = 1.0 + x * x + y * y
    p = x * a + y * b
    return np.stack([2.0 * a / u - 4.0 * x * p / u ** 2,
                     2.0 * b / u - 4.0 * y * p / u ** 2,
                     -4.0 * p / u ** 2], axis=-1)


def test_ll_rhs_induced_closed_form_is_the_chart_composition():
    # the two forms agree on the sphere and differ off it by about
    # (|S|^2 - 1) / (1 + S_z); so the spin next to the pole takes its radius
    # from (1 - S_z)(1 + S_z), in which 1 + S_z is exact
    rng = np.random.default_rng(31)
    graphs = [single_vertex_graph(), path_graph(2), cycle_graph(3),
              path_graph(5), cycle_graph(8)]
    for trial in range(40):
        g = graphs[trial % len(graphs)]
        s = rng.normal(size=(g.n, 3))
        s /= np.linalg.norm(s, axis=1)[:, None]
        if trial % 2:
            sz = -1.0 + 1e-6
            r, angle = np.sqrt((1.0 - sz) * (1.0 + sz)), rng.uniform(0, 2 * np.pi)
            s[rng.integers(g.n)] = [r * np.cos(angle), r * np.sin(angle), sz]
        psi0 = unit_state(rng, g.n)
        gamma = rng.uniform(0.0, 2.0)
        ref = _chart_composition(g, s, psi0, gamma)
        got = ll_rhs_induced(g, s, psi0, gamma)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ll_rhs_induced_rejects_the_south_pole():
    g = path_graph(2)
    s = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(SouthPoleError, match=re.escape(
            "state touches the excluded south pole (S_z = -1)")):
        ll_rhs_induced(g, s, np.array([1.0, 0.0j]), 1.0)


# -- integrator --------------------------------------------------------------------


def test_integrate_single_vertex_unit_modulus():
    g = single_vertex_graph()
    psi0 = np.array([1.0 + 0j])
    rec = integrate(make_rhs(g, psi0, CFG, "nlse"), psi0, CFG,
                    system="nlse", t_final=1.0)
    assert np.abs(np.abs(rec.states) - 1.0).max() < 1e-12
    assert np.abs(rec.invariant_log["norm"] - 1.0).max() < 1e-12


def test_integrate_symmetric_p2_constant_up_to_phase():
    g = path_graph(2)
    psi0 = np.ones(2) / np.sqrt(2) + 0j
    rec = integrate(make_rhs(g, psi0, CFG, "nlse"), psi0, CFG,
                    system="nlse", t_final=2.0)
    overlaps = np.abs(rec.states @ np.conj(psi0))
    assert np.abs(overlaps - 1.0).max() < 1e-9


def test_integrate_norm_conservation_and_step_drift():
    rng = np.random.default_rng(13)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    cfg = NlseConfig(dt=1e-2)
    rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                    system="nlse", t_final=5.0)
    assert np.abs(rec.invariant_log["norm"] - 1.0).max() <= 1e-9
    assert rec.max_step_drift < 10 * cfg.dt ** 4


def test_integrate_fourth_order_convergence():
    rng = np.random.default_rng(14)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    endpoints = {}
    for dt in (0.02, 0.01, 0.0025):
        cfg = NlseConfig(dt=dt, renorm_tol=1.0)  # renormalization off
        rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                        system="nlse", t_final=1.0)
        endpoints[dt] = rec.states[-1]
    ref = endpoints[0.0025]
    e1 = np.linalg.norm(endpoints[0.02] - ref)
    e2 = np.linalg.norm(endpoints[0.01] - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_integrate_rejects_bad_initial_norm():
    g = path_graph(2)
    bad = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(InvalidStateError):
        integrate(make_rhs(g, bad / np.linalg.norm(bad), CFG, "nlse"), bad,
                  CFG, system="nlse", t_final=0.1)


def test_integrate_divergence_raises_with_step():
    g = path_graph(2)
    phi0 = np.array([5.0, -5.0])
    cfg = NlseConfig(dt=50.0)  # wildly unstable for the cubic term
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            integrate(make_rhs(g, phi0, cfg, "diffusion"), phi0, cfg,
                      system="diffusion", t_final=500.0)
    assert err.value.step >= 1


def test_integrate_divergence_names_the_first_non_finite_step():
    # the diffusion flow is not renormalized, so its states are checked
    # per block of steps; the steps after the first non-finite one raise
    # nothing else
    g = path_graph(2)
    phi0 = np.array([5.0, -5.0])
    cfg = NlseConfig(dt=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            integrate(make_rhs(g, phi0, cfg, "diffusion"), phi0, cfg,
                      system="diffusion", t_final=500.0)
    assert (err.value.step, err.value.t) == (4, 200.0)


def test_integrate_stops_at_a_non_finite_renormalized_state():
    # a renormalized state is non-finite exactly when its drift is, so the
    # step that makes one is the last, and the right-hand side never sees it
    g = path_graph(2)
    psi0 = np.ones(2, dtype=complex) / np.sqrt(2.0)
    rhs = make_rhs(g, psi0, CFG, "nlse")
    inputs_finite = []

    def poisoned(y):  # the second stage of step 2 returns NaN
        inputs_finite.append(bool(np.isfinite(y).all()))
        return rhs(y) * (np.nan if len(inputs_finite) == 6 else 1.0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            integrate(poisoned, psi0, CFG, system="nlse", t_final=1.0)
    assert err.value.step == 2
    assert len(inputs_finite) == 8 and all(inputs_finite[:6])


@pytest.mark.parametrize("scale, step", [(1.0, 4), (1.0 / np.sqrt(50.0), 3)],
                         ids=["raw", "unit"])
def test_gauge_check_divergence_names_the_first_non_finite_step(scale, step):
    g = path_graph(2)
    phi0 = np.array([5.0, -5.0]) * scale
    cfg = NlseConfig(dt=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            gauge_check(g, phi0, cfg, t_final=2000.0, pair="real",
                        spin_law="pushforward")
    assert (err.value.step, err.value.t) == (step, step * 50.0)


def test_integrate_diffusion_logs_norm_without_asserting():
    g = path_graph(2)
    phi0 = np.array([0.9, 0.1])
    phi0 = phi0 / np.linalg.norm(phi0)
    cfg = NlseConfig(dt=1e-3)
    rec = integrate(make_rhs(g, phi0, cfg, "diffusion"), phi0, cfg,
                    system="diffusion", t_final=1.0)
    norms = np.array(rec.invariant_log["norm"])
    assert rec.times.shape[0] == rec.states.shape[0] == norms.size
    # the diffusion flow is not renormalized: its norm leaves 1 and falls
    assert norms[0] == 1.0 and np.all(np.diff(norms) < 0)
    assert abs(norms[-1] - 0.46755) < 1e-5
    np.testing.assert_allclose(norms, np.linalg.norm(rec.states, axis=1),
                               rtol=0, atol=1e-15)


def test_integrate_spin_norms_stay_unit():
    rng = np.random.default_rng(15)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    cfg = NlseConfig(dt=1e-3)
    rec = integrate(make_rhs(g, psi0, cfg, "ll", "cross"), to_sphere(psi0),
                    cfg, system="ll", t_final=1.0)
    assert np.abs(rec.invariant_log["norm"] - 1.0).max() < 1e-9


# -- steady states -------------------------------------------------------------------


def test_steady_single_vertex_converges_at_zero():
    g = single_vertex_graph()
    out = solve_steady_state_many([g], [np.array([1.0 + 0j])], CFG)[0]
    assert out.converged and out.t_reached == 0.0
    assert out.residual == 0.0
    assert np.allclose(out.psi_inf, [1.0])


def test_steady_symmetric_p2_converges_at_zero():
    g = path_graph(2)
    psi0 = np.ones(2) / np.sqrt(2) + 0j
    out = solve_steady_state_many([g], [psi0], CFG)[0]
    assert out.converged and out.t_reached == 0.0


def test_steady_triangle_matches_long_reference():
    rng = np.random.default_rng(16)
    g = cycle_graph(3)
    psi0 = np.array([0.8, 0.6, 0.0]) + 0j
    psi0 /= np.linalg.norm(psi0)
    out = solve_steady_state_many(
        [g], [psi0], NlseConfig(dt=1e-2, steady_tol=1e-10))[0]
    ref = solve_steady_state_many(
        [g], [psi0], NlseConfig(dt=1e-3, steady_tol=1e-12))[0]
    assert out.converged and ref.converged
    assert np.abs(np.abs(out.psi_inf) ** 2 - np.abs(ref.psi_inf) ** 2).max() < 1e-6
    # gauge-invariant relative phases
    a = gauge_align(out.psi_inf, ref.psi_inf)
    assert np.abs(a - ref.psi_inf).max() < 1e-5
    assert abs(np.linalg.norm(out.psi_inf) - 1.0) < 1e-9


def test_steady_non_convergence_is_reported_not_raised():
    rng = np.random.default_rng(17)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    out = solve_steady_state_many([g], [psi0], NlseConfig(
        dt=1e-2, t_max=0.1, steady_tol=1e-15))[0]
    assert not out.converged
    assert out.residual > 1e-15


def test_steady_rejects_non_unit_initial():
    g = path_graph(2)
    with pytest.raises(InvalidStateError):
        solve_steady_state_many(
            [g], [np.array([1.0, 1.0], dtype=complex)], CFG)


def test_steady_batch_matches_single_solves():
    rng = np.random.default_rng(18)
    g = cycle_graph(4)
    states = [unit_state(rng, 4) for _ in range(3)]
    cfg = NlseConfig(dt=1e-2)
    batch = solve_steady_state_many([g] * 3, states, cfg)
    for psi0, out in zip(states, batch):
        single = solve_steady_state_many([g], [psi0], cfg)[0]
        assert out.converged == single.converged
        assert np.abs(out.psi_inf - single.psi_inf).max() < 1e-12
        assert out.t_reached == single.t_reached


def test_steady_warm_start_converges_faster():
    rng = np.random.default_rng(19)
    g = cycle_graph(4)
    psi0 = unit_state(rng, 4)
    cfg = NlseConfig(dt=1e-2)
    cold = solve_steady_state_many([g], [psi0], cfg)[0]
    warm = solve_steady_state_many([g], [psi0], cfg, [cold.psi_inf])[0]
    assert warm.converged
    assert warm.t_reached <= cold.t_reached


def connected_graph(rng, n):
    pairs = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = sorted(rng.choice(n, 2, replace=False))
        pairs.add((int(u), int(v)))
    return build_graph(n, [(u, v, float(rng.uniform(0.5, 2.0)))
                           for u, v in sorted(pairs)])


def random_connected_case(n):
    rng = np.random.default_rng(300 + n)
    return connected_graph(rng, n), unit_state(rng, n)


def one_empty_triangle_case():
    # psi vanishes on the second triangle and the flow keeps it there, so
    # modes growing on that triangle do not make the root repelling
    g = build_graph(6, [(0, 1, 1.0), (0, 2, 1.5), (1, 2, 0.7),
                        (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)])
    return g, np.concatenate([unit_state(np.random.default_rng(5), 3),
                              np.zeros(3)])


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda n=n: random_connected_case(n), id=str(n))
      for n in range(3, 9)),
    pytest.param(one_empty_triangle_case, id="one_empty_triangle"),
])
def test_steady_newton_polish_agrees_with_long_flow(case):
    # the Newton-polished state is the equilibrium the plain RK4 flow
    # reaches, not another root of the bordered system
    g, psi0 = case()
    cfg = NlseConfig(dt=1e-2)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                    system="nlse", t_final=60.0)
    ref = rec.states[-1]
    assert out.converged
    assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
    # the flow alone is still far from it at the time the solver stopped
    at_stop = rec.states[int(round(out.t_reached / cfg.dt))]
    assert np.abs(gauge_align(at_stop, ref) - ref).max() > 1e-6
    # and the reference itself has settled
    earlier = gauge_align(rec.states[-1001], ref)
    assert np.abs(earlier - ref).max() <= 1e-9


@pytest.mark.parametrize("start", [[1.0, -0.99], [1.0, 0.01, -0.99]])
def test_steady_start_near_repelling_equilibrium_follows_the_flow(start):
    # the start lies within Newton's reach of an antisymmetric equilibrium
    # that the flow leaves; the solver must return where the flow settles
    psi0 = np.array(start, dtype=complex) / np.linalg.norm(start)
    g = path_graph(len(start))
    cfg = NlseConfig(dt=1e-2)
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    res0 = np.abs(dynamics._batch_projected_rhs(
        lap, v, psi0[None], cfg.gamma)).max(axis=1)[0]
    assert cfg.steady_tol < res0 <= dynamics._NEWTON_HANDOFF
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                    system="nlse", t_final=200.0)
    ref = rec.states[-1]
    assert out.converged
    assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
    assert np.abs(gauge_align(rec.states[-1001], ref) - ref).max() <= 1e-9


def test_unconverged_spectrum_counts_as_repelling(monkeypatch):
    # without a stability certificate or a spectrum no root is trusted:
    # every row counts as repelling, so continuation accepts none and the
    # flow path finishes them by RK4
    g = cycle_graph(4)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    ref = solve_steady_state_many([g], [psi0], cfg)[0]
    assert ref.converged and ref.t_reached == 0.0

    def no_factor(a):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    def no_spectrum(a):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    monkeypatch.setattr(np.linalg, "eigvals", no_spectrum)
    lap = np.stack([g.coupling_laplacian()] * 2)
    v = np.stack([np.abs(psi0) ** 2] * 2)
    psi = np.stack([ref.psi_inf, psi0])
    assert dynamics._repelling(lap, v, psi, cfg.gamma).tolist() == [True, True]
    (out,) = solve_steady_state_many([g], [psi0], cfg)
    assert out.converged and out.t_reached > 0.0
    assert np.abs(gauge_align(out.psi_inf, ref.psi_inf)
                  - ref.psi_inf).max() <= 1e-7


def test_a_failing_spectrum_flags_only_its_own_row():
    # a non-finite potential spoils one row's linearization, and LAPACK then
    # refuses the whole stack; the other row keeps its own verdict
    g = cycle_graph(4)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    root = solve_steady_state_many([g], [psi0], cfg)[0].psi_inf
    lap = np.stack([g.coupling_laplacian()] * 2)
    v = np.stack([np.abs(psi0) ** 2] * 2)
    psi = np.stack([root, root])
    assert dynamics._repelling(lap, v, psi, cfg.gamma).tolist() == [False, False]
    v[1, 2] = np.nan
    assert dynamics._repelling(lap, v, psi, cfg.gamma).tolist() == [False, True]


def test_repelling_leaves_a_matrix_it_is_handed_as_it_is():
    # psi vanishes on one triangle, whose blocks the check zeroes
    g, psi0 = one_empty_triangle_case()
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    b = dynamics._bordered_system(lap, v, psi0[None], 1.0)
    before = b.copy()
    assert np.array_equal(dynamics._repelling(lap, v, psi0[None], 1.0, b),
                          dynamics._repelling(lap, v, psi0[None], 1.0))
    assert np.array_equal(b, before)


def test_one_stability_check_per_newton_polish(monkeypatch):
    # rows Newton accepts at different iterations share one check
    polish, repelling, checks = dynamics._newton_polish, dynamics._repelling, []

    def counted_polish(*args):
        checks.append([])
        return polish(*args)

    def counted_repelling(lap, *args):
        checks[-1].append(len(lap))
        return repelling(lap, *args)

    monkeypatch.setattr(dynamics, "_newton_polish", counted_polish)
    monkeypatch.setattr(dynamics, "_repelling", counted_repelling)
    rng = np.random.default_rng(23)
    g = connected_graph(rng, 6)
    psi0s = [unit_state(rng, 6) for _ in range(8)]
    out = solve_steady_state_many([g] * 8, psi0s, NlseConfig(dt=1e-2))
    assert all(st.converged for st in out)
    assert checks and all(len(c) <= 1 for c in checks)
    assert max(sum(c) for c in checks) > 1


def test_stacking_builds_one_laplacian_per_graph(monkeypatch):
    ring, path = cycle_graph(4), path_graph(4)
    graphs = [ring, path, ring, ring, path]
    psi0s = [unit_state(np.random.default_rng(k), 4) for k in range(5)]
    expected = np.stack([g.coupling_laplacian() for g in graphs])
    built = []
    original = type(ring).coupling_laplacian

    def counted(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(type(ring), "coupling_laplacian", counted)
    lap, _, _ = dynamics._stack_problems(graphs, psi0s)
    assert np.array_equal(lap, expected)
    assert built == [ring, path]


def _reference_bordered(lap, v, psi, gamma):
    """The bordered matrices as the block assembly built them before the
    closed form: dF = A delta + C conj(delta), realified as
    [[Re(A+C), -Im(A-C)], [Im(A+C), Re(A-C)]], then J - alpha i and the
    phase and radial borders."""
    nb, n = psi.shape
    eye = np.eye(n)
    r2 = np.abs(psi) ** 2
    n2 = r2.sum(axis=1)[:, None, None]
    d = np.einsum("sij,sj->si", lap, psi) + (r2 - v) * psi
    s = np.sum(np.conj(psi) * d, axis=1)[:, None, None]
    a_d = lap + (2.0 * r2 - v)[:, :, None] * eye
    a_s = np.einsum("si,sij->sj", np.conj(psi), a_d)
    c_s = d + r2 * psi
    a_p = (a_d - (s / n2) * eye - psi[:, :, None] * a_s[:, None, :] / n2
           + (s / n2 ** 2) * psi[:, :, None] * np.conj(psi)[:, None, :])
    c_p = ((psi ** 2)[:, :, None] * eye - psi[:, :, None] * c_s[:, None, :] / n2
           + (s / n2 ** 2) * psi[:, :, None] * psi[:, None, :])
    a = -1j * (lap + v[:, :, None] * eye) - gamma * a_p
    c = -gamma * c_p
    jac = np.concatenate([
        np.concatenate([(a + c).real, -(a - c).imag], axis=2),
        np.concatenate([(a + c).imag, (a - c).real], axis=2)], axis=1)
    slices = np.stack([np.concatenate([-psi.imag, psi.real], axis=1),
                       np.concatenate([psi.real, psi.imag], axis=1)], axis=1)
    mpsi = np.einsum("sij,sj->si", lap, psi) + v * psi
    alpha = (-np.sum(np.conj(psi) * mpsi, axis=1).real
             / np.sum(np.abs(psi) ** 2, axis=1))
    diag = np.arange(n)
    b = np.zeros((nb, 2 * n + 2, 2 * n + 2))
    b[:, :2 * n, :2 * n] = jac
    b[:, diag, diag + n] += alpha[:, None]
    b[:, diag + n, diag] -= alpha[:, None]
    b[:, :2 * n, 2 * n:] = -slices.transpose(0, 2, 1)
    b[:, 2 * n:, :2 * n] = slices
    return b


@st.composite
def bordered_cases(draw):
    """1-5 unit states on random connected graphs of one size N = 1-12, with
    random frozen potentials, and a gamma in [0, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, nb = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    laps = []
    for _ in range(nb):
        pairs = {(int(rng.integers(k)), k) for k in range(1, n)}
        pairs |= {(u, w) for u in range(n) for w in range(u + 1, n)
                  if rng.uniform() < 0.3}
        laps.append(build_graph(n, [(u, w, float(rng.uniform(0.1, 3.0)))
                                    for u, w in sorted(pairs)]
                                ).coupling_laplacian())
    psi = np.stack([unit_state(rng, n) for _ in range(nb)])
    v = np.abs(np.stack([unit_state(rng, n) for _ in range(nb)])) ** 2
    return np.stack(laps), v, psi, draw(st.floats(0.0, 2.0))


@given(bordered_cases())
def test_closed_form_bordered_system_matches_the_block_assembly(case):
    lap, v, psi, gamma = case
    ref = _reference_bordered(lap, v, psi, gamma)
    b = dynamics._bordered_system(lap, v, psi, gamma)
    assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()
    # a row comes out bit for bit as it would alone, on a broadcast
    # Laplacian as pricing passes it
    for k in range(len(psi)):
        one = dynamics._bordered_system(
            np.broadcast_to(lap[k], lap[k:k + 1].shape), v[k:k + 1],
            psi[k:k + 1], gamma)
        assert np.array_equal(one[0], b[k])


def test_steady_batch_survives_singular_newton_row(monkeypatch):
    # the disconnected graph's bordered system is singular at its
    # equilibrium (see test_sensitivity); here it is made exactly singular
    # everywhere, which leaves no step for any bordered solver: its row
    # must end alone, with its reason, and the other row as if alone
    original = dynamics._bordered_system

    def singular_when_disconnected(lap, v, psi, gamma):
        b = original(lap, v, psi, gamma)
        b[np.all(lap[:, :2, 2:] == 0.0, axis=(1, 2))] = 0.0
        return b

    monkeypatch.setattr(dynamics, "_bordered_system", singular_when_disconnected)
    split = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    ring = cycle_graph(4)
    mirrored = np.array([0.8, 0.6, 0.8, 0.6], dtype=complex) / np.sqrt(2.0)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    lone, joined = solve_steady_state_many([split, ring], [mirrored, psi0], cfg)
    assert not lone.converged and lone.reason == "singular"
    single = solve_steady_state_many([ring], [psi0], cfg)[0]
    assert joined.converged
    assert np.array_equal(joined.psi_inf, single.psi_inf)
    assert (joined.t_reached, joined.residual) == (single.t_reached,
                                                   single.residual)


# -- rows that follow the flow ------------------------------------------------------
# a row that gives up continuation follows the flow, delta held at dt; with
# _PTC_MAX_ITER at 0 every row does so from its start, so that path is
# checked here on its own


def flow_solve_many(graphs, psi0s, cfg, starts=None):
    with mock.patch.object(dynamics, "_PTC_MAX_ITER", 0):
        return solve_steady_state_many(graphs, psi0s, cfg, starts)


def flow_solve(g, psi0, cfg, start=None):
    return flow_solve_many([g], [psi0], cfg,
                           None if start is None else [start])[0]


def recorded_steps(monkeypatch):
    """The ``inv_delta`` of every ``_bordered_step`` call, one array per
    call: 1 / dt for a row that follows the flow, 0 for a Newton step."""
    step, calls = dynamics._bordered_step, []

    def recorded(lap, v, psi, pf, gamma, inv_delta):
        calls.append(inv_delta.copy())
        return step(lap, v, psi, pf, gamma, inv_delta)

    monkeypatch.setattr(dynamics, "_bordered_step", recorded)
    return calls


def followed_steps(calls, dt):
    return sum(int((inv == 1.0 / dt).sum()) for inv in calls)


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda n=n: random_connected_case(n), id=str(n))
      for n in range(3, 9)),
    pytest.param(one_empty_triangle_case, id="one_empty_triangle"),
])
def test_flow_path_newton_polish_agrees_with_long_flow(case):
    g, psi0 = case()
    cfg = NlseConfig(dt=1e-2)
    out = flow_solve(g, psi0, cfg)
    rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                    system="nlse", t_final=60.0)
    ref = rec.states[-1]
    assert out.converged
    assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
    # RK4 ran, and Newton took over while the flow was still far from it
    assert out.t_reached > 0.0
    at_stop = rec.states[int(round(out.t_reached / cfg.dt))]
    assert np.abs(gauge_align(at_stop, ref) - ref).max() > 1e-6
    assert np.abs(gauge_align(rec.states[-1001], ref) - ref).max() <= 1e-9


def test_flow_path_batch_equals_single_solves():
    rng = np.random.default_rng(18)
    g = cycle_graph(4)
    states = [unit_state(rng, 4) for _ in range(3)]
    cfg = NlseConfig(dt=1e-2)
    batch = flow_solve_many([g] * 3, states, cfg)
    for psi0, out in zip(states, batch):
        single = flow_solve(g, psi0, cfg)
        assert out.t_reached == single.t_reached > 0.0
        assert np.array_equal(out.psi_inf, single.psi_inf)
        assert (out.residual, out.converged) == (single.residual, single.converged)


def test_flow_path_warm_start_converges_faster():
    rng = np.random.default_rng(19)
    g = cycle_graph(4)
    psi0 = unit_state(rng, 4)
    cfg = NlseConfig(dt=1e-2)
    cold = flow_solve(g, psi0, cfg)
    warm = flow_solve(g, psi0, cfg, start=cold.psi_inf)
    assert cold.converged and warm.converged
    assert warm.t_reached < cold.t_reached


def test_flow_path_rows_take_no_rk4_step(monkeypatch):
    # a row that follows the flow steps on the bordered system; RK4 serves
    # trajectories only
    def no_rk4(*args):
        raise AssertionError("a steady solve took an RK4 step")

    monkeypatch.setattr(dynamics, "_rk4_step", no_rk4)
    cfg = NlseConfig(dt=1e-2)
    calls = recorded_steps(monkeypatch)
    psi0 = np.array([1.0, -0.99], dtype=complex) / np.hypot(1.0, 0.99)
    out = solve_steady_state_many([path_graph(2)], [psi0], cfg)[0]
    assert out.converged and out.t_reached > 0.0
    assert followed_steps(calls, cfg.dt) * cfg.dt == out.t_reached


def test_flow_path_triangle_matches_fine_step_reference():
    g = cycle_graph(3)
    psi0 = np.array([0.8, 0.6, 0.0]) + 0j
    psi0 /= np.linalg.norm(psi0)
    out = flow_solve(g, psi0, NlseConfig(dt=1e-2, steady_tol=1e-10))
    ref = flow_solve(g, psi0, NlseConfig(dt=1e-3, steady_tol=1e-12))
    assert out.converged and ref.converged
    assert out.t_reached > 0.0 and ref.t_reached > 0.0
    assert np.abs(gauge_align(out.psi_inf, ref.psi_inf) - ref.psi_inf).max() < 1e-5


# -- pseudo-transient continuation ---------------------------------------------


def flow_settles(g, psi0, cfg, start=None, chunk=20.0, max_chunks=20):
    """The state a long ``integrate`` run from ``start`` (``psi0`` if None)
    settles at: chunks of flow time until one moves the state by at most
    1e-10 modulo phase.  None if no chunk of ``max_chunks`` does."""
    rhs = make_rhs(g, psi0, cfg, "nlse")
    y = psi0 if start is None else start
    for _ in range(max_chunks):
        nxt = integrate(rhs, y, cfg, system="nlse", t_final=chunk).states[-1]
        if np.abs(gauge_align(y, nxt) - nxt).max() <= 1e-10:
            return nxt
        y = nxt
    return None


def settled_flow(g, psi0, cfg, chunk=20.0, max_chunks=20):
    """``flow_settles`` from ``psi0``, which must settle."""
    out = flow_settles(g, psi0, cfg, chunk=chunk, max_chunks=max_chunks)
    if out is None:
        raise AssertionError("the flow did not settle")
    return out


@st.composite
def connected_cases(draw):
    """A random connected graph on N = 3-8 vertices and a random unit input."""
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return connected_graph(rng, n), unit_state(rng, n)


@settings(max_examples=10)
@given(connected_cases())
def test_pseudo_transient_reaches_the_equilibrium_of_the_flow(case):
    g, psi0 = case
    cfg = NlseConfig(dt=1e-2, steady_tol=1e-10)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    ref = settled_flow(g, psi0, cfg)
    assert out.converged
    assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    assert not dynamics._repelling(lap, v, out.psi_inf[None], cfg.gamma)[0]


def draw_saddle(draw):
    """A random path or cycle on N = 2-8 vertices, an input near one of its
    Laplacian's excited modes, a root that Newton on the bordered system
    finds from that input (residual at most 1e-13) and that repels the
    flow, and the generator that built them."""
    kind = draw(st.sampled_from(("path", "cycle")))
    n = draw(st.integers(2 if kind == "path" else 3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * (kind == "cycle")
    g = build_graph(n, [(u, w, float(rng.uniform(0.5, 2.0))) for u, w in pairs])
    lap = g.coupling_laplacian()
    mode = np.linalg.eigh(lap)[1][:, draw(st.integers(1, n - 1))]
    psi0 = mode + 0.05 * unit_state(rng, n)
    psi0 = psi0 / np.linalg.norm(psi0)
    lap, v, root = lap[None], (np.abs(psi0) ** 2)[None], psi0[None]
    pf = dynamics._batch_projected_rhs(lap, v, root, 1.0)
    for _ in range(30):  # Newton steps, as _newton_polish takes them
        root, pf, res, ok = dynamics._bordered_step(lap, v, root, pf, 1.0,
                                                    np.zeros(1))
        assume(ok[0])
        if res[0] <= 1e-13:
            break
    assume(res[0] <= 1e-13 and dynamics._repelling(lap, v, root, 1.0)[0])
    return g, psi0, root[0], rng


@st.composite
def saddle_cases(draw):
    """``draw_saddle``'s graph and input, and a start within 1e-3 of its
    repelling root."""
    g, psi0, root, rng = draw_saddle(draw)
    start = root + 1e-3 * unit_state(rng, g.n)
    return g, psi0, start / np.linalg.norm(start)


@st.composite
def saddle_roots(draw):
    """``draw_saddle``'s graph, input and repelling root."""
    return draw_saddle(draw)[:3]


@settings(max_examples=10)
@given(saddle_cases())
def test_starts_near_a_repelling_root_reach_the_equilibrium_of_the_flow(case):
    # continuation's Newton finds the saddle again and rejects it, so the
    # flow path must leave it as the flow does
    g, psi0, start = case
    cfg = NlseConfig(dt=1e-2, steady_tol=1e-10)
    ref = flow_settles(g, psi0, cfg, start)
    assume(ref is not None)
    out = solve_steady_state_many([g], [psi0], cfg, [start])[0]
    assert out.converged
    assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    assert not dynamics._repelling(lap, v, out.psi_inf[None], cfg.gamma)[0]


@settings(max_examples=5)
@given(saddle_roots())
def test_a_start_on_a_repelling_root_is_never_accepted_there(case):
    # the start is at rest to steady_tol, but the flow leaves it: a plain
    # solve follows the flow away (or runs out of horizon), and a probe
    # solve gives the row up at once
    g, psi0, root = case
    cfg = NlseConfig(dt=1e-2, steady_tol=1e-10, t_max=20.0)
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    plain = solve_steady_state_many([g], [psi0], cfg, [root])[0]
    assert not (plain.converged and dynamics._repelling(
        lap, v, plain.psi_inf[None], cfg.gamma)[0])
    assert plain.converged or plain.reason == "horizon"
    probe = solve_steady_state_many([g], [psi0], cfg, [root], probe=True)[0]
    assert not probe.converged and probe.reason == "repelled"
    assert probe.t_reached == 0.0 and np.array_equal(probe.psi_inf, root)


@settings(max_examples=10)
@given(connected_cases())
def test_rows_that_give_up_midway_reach_the_equilibrium_of_the_flow(case):
    # after two continuation steps every row gives up and follows the flow
    # from where it is; wherever it converges, it is where the flow from its
    # start settles
    g, psi0 = case
    cfg = NlseConfig(dt=1e-2, steady_tol=1e-10)
    ref = flow_settles(g, psi0, cfg)
    assume(ref is not None)
    with mock.patch.object(dynamics, "_PTC_MAX_ITER", 2):
        out = solve_steady_state_many([g], [psi0], cfg)[0]
    if out.converged:
        assert np.abs(gauge_align(out.psi_inf, ref) - ref).max() <= 1e-7
        lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
        assert not dynamics._repelling(lap, v, out.psi_inf[None], cfg.gamma)[0]


def projected_linearizations(b, psi):
    """P A P per row: A the top-left 2N x 2N block of the bordered matrices
    ``b``, P the projector off the realified psi and i psi."""
    n = psi.shape[1]
    s = np.stack([np.concatenate([psi.real, psi.imag], axis=1),
                  np.concatenate([-psi.imag, psi.real], axis=1)], axis=2)
    s /= np.linalg.norm(psi, axis=1)[:, None, None]
    p = np.eye(2 * n) - s @ s.transpose(0, 2, 1)
    return p @ b[:, :2 * n, :2 * n] @ p


@settings(max_examples=10)
@given(connected_cases())
def test_stability_certificate_agrees_with_the_spectrum(case):
    # at every root Newton accepts, the verdict is the eigvals-only one, and
    # a row the Cholesky certificate passes has no growing mode
    g, psi0 = case
    checked, repelling = [], dynamics._repelling

    def recorded(lap, v, psi, gamma, b=None):
        out = repelling(lap, v, psi, gamma, b)
        checked.append((dynamics._bordered_system(lap, v, psi, gamma), psi, out))
        return out

    with mock.patch.object(dynamics, "_repelling", recorded):
        out = solve_steady_state_many([g], [psi0], NlseConfig(dt=1e-2))[0]
    assert out.converged and checked
    certified_any = False
    for b, psi, verdict in checked:
        assert (psi != 0).all()
        m = projected_linearizations(b, psi)
        rate = np.linalg.eigvals(m).real.max(axis=1)
        assert verdict.tolist() == (rate > dynamics._NEWTON_STABLE_RATE).tolist()
        for row, x in zip(rate, m):
            # the certificate: tau I - (M + M^T) / 2 has a finite factor
            try:
                factor = np.linalg.cholesky(dynamics._NEWTON_STABLE_RATE
                                            * np.eye(len(x)) - 0.5 * (x + x.T))
            except np.linalg.LinAlgError:
                continue
            assert np.isfinite(factor).all()
            assert row <= dynamics._NEWTON_STABLE_RATE
            certified_any = True
    assert certified_any


def test_a_row_without_a_certificate_takes_the_spectrum_alone(monkeypatch):
    # LAPACK may return a non-finite factor without an error; that row, and
    # only it, takes eigvals, whose verdict it gets (here shifted to grow)
    g = cycle_graph(4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    psi0s = [unit_state(np.random.default_rng(k), 4) for k in (21, 22, 23)]
    roots = [solve_steady_state_many([g], [x], cfg)[0].psi_inf for x in psi0s]
    lap = np.stack([g.coupling_laplacian()] * 3)
    v = np.abs(np.stack(psi0s)) ** 2
    psi = np.stack(roots)
    assert dynamics._repelling(lap, v, psi, cfg.gamma).tolist() == [False] * 3
    factor, spectrum, seen = np.linalg.cholesky, np.linalg.eigvals, []

    def fails_on_row_one(c):
        f = factor(c)
        if c.ndim == 3:
            f[1, -1, -1] = np.nan
        return f

    def shifted_spectrum(m):
        seen.append(len(m))
        return spectrum(m) + 1.0

    monkeypatch.setattr(np.linalg, "cholesky", fails_on_row_one)
    monkeypatch.setattr(np.linalg, "eigvals", shifted_spectrum)
    assert dynamics._repelling(lap, v, psi, cfg.gamma).tolist() == [
        False, True, False]
    assert seen == [1]


def recorded_polish(monkeypatch):
    """The hand-off states of every ``_newton_polish`` call, and whether
    each of its rows met a repelling root."""
    polish, calls = dynamics._newton_polish, []

    def recorded(*args):
        out = polish(*args)
        calls.append((args[2].copy(), out[2].copy()))
        return out

    monkeypatch.setattr(dynamics, "_newton_polish", recorded)
    return calls


@pytest.mark.parametrize("start", [[1.0, -0.99], [1.0, 0.01, -0.99]])
def test_pseudo_transient_falls_back_at_a_repelling_root(start, monkeypatch):
    # the start is already within the Newton hand-off, next to the
    # antisymmetric equilibrium the flow leaves; Newton finds that root and
    # rejects it, so the row follows the flow from where it gave up: its start
    psi0 = np.array(start, dtype=complex) / np.linalg.norm(start)
    g = path_graph(len(start))
    cfg = NlseConfig(dt=1e-2)
    flow = flow_solve(g, psi0, cfg)
    polished = recorded_polish(monkeypatch)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    (handed, repelled), = polished[:1]
    assert np.array_equal(handed[0], psi0) and repelled[0]
    assert np.array_equal(out.psi_inf, flow.psi_inf)
    assert out.t_reached == flow.t_reached > 0.0
    assert out.residual == flow.residual and out.converged


def test_pseudo_transient_falls_back_when_newton_finds_a_repelling_root(
        monkeypatch):
    # with a first pseudo-time step of 1, continuation from this start
    # reaches the hand-off next to the antisymmetric equilibrium the flow
    # leaves; Newton finds that root and rejects it, and the row follows
    # the flow from its hand-off state, not from its start
    monkeypatch.setattr(dynamics, "_PTC_DELTA0", 1.0)
    polished = recorded_polish(monkeypatch)
    psi0 = np.array([1.0, -0.6], dtype=complex) / np.hypot(1.0, 0.6)
    g = path_graph(2)
    cfg = NlseConfig(dt=1e-2)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    handed, repelled = polished[0]
    assert repelled[0] and not np.array_equal(handed[0], psi0)
    flow = flow_solve(g, psi0, cfg, start=handed[0])
    assert np.array_equal(out.psi_inf, flow.psi_inf)
    assert out.t_reached == flow.t_reached > 0.0 and out.converged
    assert out.residual == flow.residual


def test_pseudo_transient_singular_row_falls_back_alone(monkeypatch):
    original = dynamics._bordered_system

    def singular_when_disconnected(lap, v, psi, gamma):
        b = original(lap, v, psi, gamma)
        b[np.all(lap[:, :2, 2:] == 0.0, axis=(1, 2))] = 0.0
        return b

    split = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    ring = cycle_graph(4)
    mirrored = np.array([0.8, 0.6, 0.8, 0.6], dtype=complex) / np.sqrt(2.0)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    alone = solve_steady_state_many([ring], [psi0], cfg)[0]
    monkeypatch.setattr(dynamics, "_bordered_system", singular_when_disconnected)
    lone, joined = solve_steady_state_many([split, ring], [mirrored, psi0],
                                           cfg)
    flow = flow_solve(split, mirrored, cfg)
    # its continuation step fails, so it gives up; the step that follows
    # the flow fails too, so it ends where it started
    assert np.array_equal(lone.psi_inf, flow.psi_inf)
    assert np.array_equal(lone.psi_inf, mirrored)
    assert lone.t_reached == flow.t_reached == 0.0
    assert not lone.converged and lone.reason == flow.reason == "singular"
    # the ring row is continuation's, as without the singular row beside it
    assert np.array_equal(joined.psi_inf, alone.psi_inf)
    assert joined.residual == alone.residual
    assert joined.t_reached == 0.0 and joined.converged


def test_pseudo_transient_spends_at_most_t_max_above_the_hand_off(monkeypatch):
    rng = np.random.default_rng(17)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    # a horizon shorter than the first pseudo-time step: the row follows
    # the flow from its start for the whole horizon, and does not converge
    cfg = NlseConfig(dt=1e-2, t_max=0.1)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    flow = flow_solve(g, psi0, cfg)
    assert not out.converged and out.reason == flow.reason == "horizon"
    assert np.array_equal(out.psi_inf, flow.psi_inf)
    assert out.t_reached == flow.t_reached == 10 * cfg.dt
    # a row that gives up after two steps follows the flow for what is
    # left of the one horizon
    cfg = NlseConfig(dt=1e-2, t_max=1.0)
    monkeypatch.setattr(dynamics, "_PTC_MAX_ITER", 2)
    calls = recorded_steps(monkeypatch)
    out = solve_steady_state_many([g], [psi0], cfg)[0]
    assert not out.converged and out.reason == "horizon"
    inv = np.concatenate(calls)
    followed = inv == 1.0 / cfg.dt
    assert followed.sum() * cfg.dt == out.t_reached
    assert not followed[:2].any() and followed[2:].all()
    spent = np.sum(1.0 / inv)
    assert cfg.t_max - cfg.dt < spent <= cfg.t_max + 1e-12
    # with room for it, continuation finds the state without flow time
    monkeypatch.undo()
    long = solve_steady_state_many([g], [psi0], NlseConfig(dt=1e-2))[0]
    assert long.converged and long.t_reached == 0.0


def test_pseudo_transient_polishes_warm_and_cold_rows_in_one_newton_batch(
        monkeypatch):
    # a start already within the hand-off joins the Newton batch of the
    # rows continuation brings there, and no row follows the flow
    g = cycle_graph(4)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    root = solve_steady_state_many([g], [psi0], cfg)[0].psi_inf
    warm = root + 1e-3 * unit_state(np.random.default_rng(22), 4)
    warm /= np.linalg.norm(warm)
    lap, v = g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None]
    res0 = np.abs(dynamics._batch_projected_rhs(
        lap, v, warm[None], cfg.gamma)).max(axis=1)[0]
    assert cfg.steady_tol < res0 <= dynamics._NEWTON_HANDOFF
    singles = [solve_steady_state_many([g], [psi0], cfg, [start])[0]
               for start in (warm, psi0)]
    polished = recorded_polish(monkeypatch)
    steps = recorded_steps(monkeypatch)
    batch = solve_steady_state_many([g, g], [psi0, psi0], cfg, [warm, psi0])
    assert [len(handed) for handed, _ in polished] == [2]
    assert followed_steps(steps, cfg.dt) == 0
    for out, single in zip(batch, singles):
        assert out.converged and out.t_reached == 0.0
        assert np.array_equal(out.psi_inf, single.psi_inf)
        assert out.residual == single.residual


def test_flow_path_skipped_when_continuation_accepts_every_row(monkeypatch):
    g = cycle_graph(4)
    psi0 = unit_state(np.random.default_rng(21), 4)
    cfg = NlseConfig(dt=5e-2, t_max=3000.0)
    steps = recorded_steps(monkeypatch)
    out = solve_steady_state_many([g, g], [psi0, psi0], cfg)
    assert steps and followed_steps(steps, cfg.dt) == 0
    assert all(st.converged and st.t_reached == 0.0 for st in out)


@st.composite
def mixed_batches(draw):
    """Problems on a shared N = 2-8 vertices: ``draw_saddle``'s, started
    within 1e-3 of its repelling root, and 1-3 on random connected graphs,
    each with a random input and a start (the input, or its equilibrium on
    another graph, as a descent step's warm start).  Each problem makes a
    plain row and a probe row."""
    g, psi0, root, rng = draw_saddle(draw)
    n = g.n
    start = root + 1e-3 * unit_state(rng, n)
    problems = [(g, psi0, start / np.linalg.norm(start))]
    base = connected_graph(rng, n)
    psi0s = [unit_state(rng, n) for _ in range(draw(st.integers(1, 3)))]
    roots = solve_steady_state_many([base] * len(psi0s), psi0s,
                                    NlseConfig(dt=1e-2, t_max=50.0))
    for psi0, root in zip(psi0s, roots):
        warm = draw(st.booleans()) and root.converged
        problems.append((connected_graph(rng, n), psi0,
                         root.psi_inf if warm else psi0))
    return [problem + (probe,) for problem in problems
            for probe in (False, True)]


def same_result(a, b):
    return (a.psi_inf.tobytes() == b.psi_inf.tobytes()
            and (a.residual, a.t_reached, a.reason, a.converged)
            == (b.residual, b.t_reached, b.reason, b.converged))


@settings(max_examples=10, deadline=None)
@given(mixed_batches())
def test_a_row_does_not_depend_on_the_batch_it_is_solved_in(rows):
    # a descent step solves its current graph's rows and its probe rows in
    # one batch: at each horizon, each row must come back as a batch of its
    # own kind (one probe flag) returns it, bit for bit
    graphs, psi0s, starts, probes = map(list, zip(*rows))
    for horizon in (3.0, 50.0):
        cfg = NlseConfig(dt=1e-2, steady_tol=1e-10, t_max=horizon)
        mixed = solve_steady_state_many(graphs, psi0s, cfg, starts,
                                        probe=probes)
        for kind in (False, True):
            own = [i for i, probe in enumerate(probes) if probe == kind]
            alone = solve_steady_state_many(
                [graphs[i] for i in own], [psi0s[i] for i in own], cfg,
                [starts[i] for i in own], probe=kind)
            assert all(same_result(mixed[i], out)
                       for i, out in zip(own, alone))


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_row_horizons_must_be_positive_and_finite(horizon):
    # every row runs to its config's t_max, so a bad horizon is refused
    # before any row is solved
    g = cycle_graph(4)
    psi0 = unit_state(np.random.default_rng(3), 4)
    with pytest.raises(ValueError, match="t_max"):
        solve_steady_state_many([g, g], [psi0, psi0],
                                NlseConfig(t_max=horizon))


# -- writers ------------------------------------------------------------------------


def test_writers_are_deterministic(tmp_path):
    rng = np.random.default_rng(20)
    g = cycle_graph(3)
    psi0 = unit_state(rng, 3)
    cfg = NlseConfig(dt=1e-2)
    rec = integrate(make_rhs(g, psi0, cfg, "nlse"), psi0, cfg,
                    system="nlse", t_final=0.2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(rec, pa)
    write_trajectory_csv(rec, pb)
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[1] == "re_0" and header[2] == "im_0"
    ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_invariants_jsonl(rec, ja)
    write_invariants_jsonl(rec, jb)
    assert ja.read_bytes() == jb.read_bytes()
    first = ja.read_text().splitlines()[0]
    assert '"norm"' in first and '"t"' in first


def test_spin_trajectory_csv_columns(tmp_path):
    rng = np.random.default_rng(21)
    g = path_graph(2)
    psi0 = unit_state(rng, 2)
    cfg = NlseConfig(dt=1e-2)
    rec = integrate(make_rhs(g, psi0, cfg, "ll", "cross"), to_sphere(psi0),
                    cfg, system="ll", t_final=0.1)
    p = tmp_path / "s.csv"
    write_trajectory_csv(rec, p)
    header = p.read_text().splitlines()[0].split(",")
    assert header[:4] == ["t", "s0_x", "s0_y", "s0_z"]


def test_make_rhs_rejects_unknown_names():
    g = path_graph(2)
    psi0 = np.ones(2) / np.sqrt(2) + 0j
    with pytest.raises(ValueError):
        make_rhs(g, psi0, CFG, "heat")
    with pytest.raises(ValueError):
        make_rhs(g, psi0, CFG, "ll", "sideways")


def test_integrate_rejects_unknown_system():
    g = path_graph(2)
    psi0 = np.ones(2) / np.sqrt(2) + 0j
    with pytest.raises(ValueError, match="NLSE"):
        integrate(make_rhs(g, psi0, CFG, "nlse"), psi0, CFG, system="NLSE")


@pytest.mark.parametrize("field", ["gamma", "dt", "t_max", "steady_tol",
                                   "renorm_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_fields(field, value):
    # a NaN steady_tol would never converge and run every RK4 step
    with pytest.raises(ValueError, match="finite"):
        NlseConfig(**{field: value})


@pytest.mark.parametrize("field", ["dt", "t_max", "steady_tol", "renorm_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_config_rejects_non_positive_fields(field, value):
    # the horizon of every steady row is the config's t_max
    with pytest.raises(ValueError, match="positive"):
        NlseConfig(**{field: value})


# -- one right-hand side and one stepper for a state and a batch ------------


@st.composite
def nlse_batches(draw):
    """B = 1-6 random connected graphs on a shared N = 1-12 vertices, with
    unit initial fields and unit states to evaluate the flow at."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    graphs = []
    for _ in range(b):
        # a random spanning tree, plus each other pair with probability 0.3
        edges = {(int(rng.integers(k)), k) for k in range(1, n)}
        edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
                  if rng.uniform() < 0.3}
        graphs.append(build_graph(n, [(u, w, float(rng.uniform(0.1, 3.0)))
                                      for u, w in sorted(edges)]))
    psi0 = np.stack([unit_state(rng, n) for _ in range(b)])
    psi = np.stack([unit_state(rng, n) for _ in range(b)])
    return graphs, psi0, psi, float(rng.uniform(0.0, 2.0))


@given(nlse_batches())
def test_nlse_raw_batch_rows_equal_single_evaluations(case):
    graphs, psi0, psi, gamma = case
    lap = np.stack([g.coupling_laplacian() for g in graphs])
    v = np.abs(psi0) ** 2
    out = dynamics._nlse_raw(lap, v, psi, gamma)
    for i, g in enumerate(graphs):
        assert np.array_equal(out[i],
                              dynamics._nlse_raw(lap[i], v[i], psi[i], gamma))
        assert np.array_equal(out[i], nlse_rhs(g, psi[i], psi0[i], gamma))


@given(nlse_batches())
def test_rk4_step_batch_rows_equal_single_steps(case):
    graphs, psi0, psi, gamma = case
    cfg = NlseConfig(gamma=gamma, dt=5e-2)
    lap = np.stack([g.coupling_laplacian() for g in graphs])
    v = np.abs(psi0) ** 2
    out, _ = dynamics._rk4_step(lambda p: dynamics._nlse_raw(lap, v, p, gamma),
                                psi, cfg.dt, cfg.renorm_tol)
    for i, g in enumerate(graphs):
        row, _ = dynamics._rk4_step(make_rhs(g, psi0[i], cfg, "nlse"), psi[i],
                                    cfg.dt, cfg.renorm_tol)
        assert np.array_equal(out[i], row)


@st.composite
def gauge_cases(draw):
    """A random connected graph on N = 1-10 vertices, a unit initial field
    of either pair, a spin law, a few steps and a block size for them."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.uniform() < 0.3}
    g = build_graph(n, [(u, w, float(rng.uniform(0.1, 1.0)))
                        for u, w in sorted(edges)])
    pair = draw(st.sampled_from(("complex", "real")))
    field0 = unit_state(rng, n) if pair == "complex" else unit_state(rng, n).real
    field0 = field0 / np.linalg.norm(field0)
    cfg = NlseConfig(gamma=float(rng.uniform(0.0, 2.0)), dt=2e-2)
    return (g, field0, pair, draw(st.sampled_from(("cross", "pushforward"))),
            cfg, draw(st.integers(1, 12)), draw(st.integers(1, 5)))


@given(gauge_cases())
def test_gauge_check_steps_each_flow_as_integrate_does(case):
    # the stacked state changes no bit of either flow, across block ends
    g, field0, pair, law, cfg, steps, block = case
    field_system, spin_system, chart = {
        "complex": ("nlse", "ll", to_sphere),
        "real": ("diffusion", "spin2d", to_circle)}[pair]
    t_final = steps * cfg.dt
    field = integrate(make_rhs(g, field0, cfg, field_system), field0, cfg,
                      system=field_system, t_final=t_final)
    spins = integrate(make_rhs(g, field0, cfg, spin_system, law),
                      chart(field0), cfg, system=spin_system, t_final=t_final)
    expect = np.linalg.norm(chart(field.states) - spins.states, axis=-1).max()
    with mock.patch.object(dynamics, "_BLOCK", block):
        got = gauge_check(g, field0, cfg, t_final=t_final, pair=pair,
                          spin_law=law)
    assert got == expect


@pytest.mark.parametrize("pair", ["complex", "real"])
@pytest.mark.parametrize("law", ["cross", "pushforward"])
def test_gauge_check_steps_one_flat_state_of_4n_entries(monkeypatch, pair, law):
    # the field, then its spins: n + 3n entries, not a padded n x n stack
    n = 50
    field0 = unit_state(np.random.default_rng(7), n)
    if pair == "real":
        field0 = field0.real / np.linalg.norm(field0.real)
    shapes, step = [], dynamics._rk4_step

    def recorded(rhs, y, dt, renorm_tol):
        shapes.append(y.shape)
        return step(rhs, y, dt, renorm_tol)

    monkeypatch.setattr(dynamics, "_rk4_step", recorded)
    gauge_check(cycle_graph(n), field0, NlseConfig(dt=1e-3), t_final=3e-3,
                pair=pair, spin_law=law)
    assert shapes == [(4 * n,)] * 3
