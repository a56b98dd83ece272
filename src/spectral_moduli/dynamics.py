"""Dissipative Schrodinger flow on graphs, spin-space counterparts, RK4.

Four coupled-ODE systems share one integrator:

* ``nlse_rhs``      -- unit-sphere flow of a complex vertex field; the
                       potential is frozen at the initial state and the
                       dissipation is projected off the state direction, so
                       the flow preserves the norm exactly;
* ``ll_rhs``        -- cross-product (Landau-Lifshitz style) evolution of
                       one unit 3-vector per vertex;
* ``diffusion_rhs`` -- the real-field analog of the Schrodinger flow (its
                       conservative part is *not* tangent, so the norm is
                       logged but never asserted);
* ``spin2d_rhs``    -- the circle-valued analog of ``ll_rhs``.

Pointwise stereographic maps relate the two pairs.  ``ll_rhs_induced`` and
``spin2d_rhs_induced`` are the exact pushforwards of the vertex-field flows
through those maps; they are what trajectory-level gauge agreement actually
requires, and ``gauge_check`` can integrate either spin law.

The complex flow has one right-hand side on raw arrays, ``_nlse_raw``, which
takes one state or a stacked batch.  Trajectories (``integrate``,
``gauge_check``) take RK4 steps, ``_rk4_step``; equilibria are found by
one lockstep loop of backward-Euler steps (``_settle``) on the bordered
system their derivatives differentiate (``_bordered_step``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph_core import (
    WeightedGraph,
    validate_real_field,
    validate_scalar_field,
    validate_scalar_fields,
    validate_spin_field,
)

__all__ = [
    "SingularProjectorError",
    "SouthPoleError",
    "DivergenceError",
    "InvalidStateError",
    "NlseConfig",
    "TrajectoryRecord",
    "SteadyState",
    "nlse_rhs",
    "ll_rhs",
    "ll_rhs_induced",
    "diffusion_rhs",
    "spin2d_rhs",
    "spin2d_rhs_induced",
    "to_sphere",
    "to_plane",
    "to_circle",
    "to_line",
    "phase_constraint",
    "phase_constraint_2d",
    "make_rhs",
    "integrate",
    "solve_steady_state_many",
    "gauge_check",
    "gauge_align",
    "write_trajectory_csv",
    "write_invariants_jsonl",
]

_POLE_TOL = 1e-10


class InvalidStateError(ValueError):
    """State violates a precondition (norm, shape, or pole validity)."""


class SingularProjectorError(InvalidStateError):
    """Tangent projector undefined because the state has (near-)zero norm."""


class SouthPoleError(InvalidStateError):
    """Stereographic chart evaluated at (or too close to) its excluded point."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")


@dataclass(frozen=True)
class NlseConfig:
    """Integrator and steady-state settings shared by all four systems."""

    gamma: float = 1.0
    dt: float = 1e-2
    t_max: float = 1e4
    steady_tol: float = 1e-8
    renorm_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if not all(0.0 < x < np.inf for x in (self.dt, self.t_max,
                                               self.steady_tol, self.renorm_tol)):
            raise ValueError("dt, t_max and tolerances must be positive and finite")


# -- right-hand sides -------------------------------------------------------


def nlse_rhs(g: WeightedGraph, psi: np.ndarray, psi0: np.ndarray,
             gamma: float) -> np.ndarray:
    """Norm-preserving dissipative Schrodinger flow.

    F = -i (L + diag(|psi0|^2)) psi - gamma * P (L psi + (|psi|^2 - |psi0|^2) psi)

    with L the coupling Laplacian and P the projector off the span of psi.
    The potential |psi0|^2 is frozen at the initial state, so F is a vector
    field parameterized by psi0.  Re<psi, F> = 0 identically.
    """
    psi = validate_scalar_field(g, psi)
    psi0 = validate_scalar_field(g, psi0)
    if np.sum(np.abs(psi) ** 2) < 1e-24:
        raise SingularProjectorError("cannot project at a zero-norm state")
    return _nlse_raw(g.coupling_laplacian(), np.abs(psi0) ** 2, psi, gamma)


def diffusion_rhs(g: WeightedGraph, phi: np.ndarray, phi0: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Real-field analog of ``nlse_rhs`` (no -i on the conservative part).

    The projected dissipation is tangent to the sphere, but the conservative
    part -(L + diag(phi0^2)) phi is not, so this flow does not preserve
    ||phi||; callers log the norm instead of asserting it.
    """
    phi = validate_real_field(g, phi)
    phi0 = validate_real_field(g, phi0)
    if np.sum(phi ** 2) < 1e-24:
        raise SingularProjectorError("cannot project at a zero-norm state")
    return _diffusion_raw(g.coupling_laplacian(), phi0 ** 2, phi, gamma)


def _ll_raw(w: np.ndarray, v: np.ndarray, s: np.ndarray,
            gamma: float) -> np.ndarray:
    """Cross-product law on raw arrays (no validation; integrator substeps
    legitimately sit slightly off the unit spheres)."""
    ws = w @ s
    field = -2.0 * ws
    field[:, 2] += 2.0 * v
    prec = np.cross(s, field)
    d = -2.0 * (ws - w.sum(axis=1)[:, None] * s)
    d[:, 2] += 2.0 * (v - v.mean())
    damp = np.cross(s, np.cross(s, d))
    return prec - gamma * damp


def ll_rhs(g: WeightedGraph, s: np.ndarray, psi0: np.ndarray,
           gamma: float) -> np.ndarray:
    """Cross-product spin flow with frozen-potential field along e3.

    dS_j/dt = S_j x (-2 sum_k w_jk S_k + 2 |psi0_j|^2 e3)
              - gamma * S_j x (S_j x D_j),
    D_j = -2 sum_k w_jk (S_k - S_j) + 2 (|psi0_j|^2 - mean |psi0|^2) e3.

    Both terms are cross products with S_j, so the flow is pointwise tangent
    and preserves each ||S_j|| exactly.

    This law is not the chart image of ``nlse_rhs`` for any choice of its
    exchange, on-site or damping coefficients.  The image of the neighbour
    term -i w_jk psi_k at vertex j is w_jk S_j x dS_j(psi_k), which is
    rational in S_k rather than linear, and the projector in the damping
    term is global, which no local D_j expresses.  Only on a single vertex
    does the gap reduce to a factor of two in the phase rate.
    ``ll_rhs_induced`` is the gauge-equivalent law.
    """
    s = validate_spin_field(g, s, unit_tol=1e-8)
    psi0 = validate_scalar_field(g, psi0)
    return _ll_raw(g.adjacency_matrix(), np.abs(psi0) ** 2, s, gamma)


def _spin2d_raw(w: np.ndarray, v: np.ndarray, t: np.ndarray,
                gamma: float) -> np.ndarray:
    wt = w @ t
    field = -2.0 * wt
    field[:, 1] += 2.0 * v
    c = t[:, 0] * field[:, 1] - t[:, 1] * field[:, 0]
    prec = np.zeros_like(t)
    prec[:, 0] = -c * t[:, 1]
    prec[:, 1] = c * t[:, 0]
    d = -2.0 * (wt - w.sum(axis=1)[:, None] * t)
    d[:, 1] += 2.0 * (v - v.mean())
    damp = np.cross(t, np.cross(t, d))
    damp[:, 2] = 0.0
    return prec - gamma * damp


def spin2d_rhs(g: WeightedGraph, t: np.ndarray, phi0: np.ndarray,
               gamma: float) -> np.ndarray:
    """Circle-valued analog of ``ll_rhs`` with field along e2 = (0, 1).

    Spins are stored as (N, 3) arrays with zero third component.  The planar
    cross product a x b = a_x b_y - a_y b_x is a scalar; the scalar c = T x B
    drives rotation along the tangent (-T_y, T_x), and the damping term uses
    the three-dimensional embedding, where T x (T x D) = -D + T <T, D> for
    unit T.

    Like ``ll_rhs``, this law is not the chart image of ``diffusion_rhs``
    for any choice of its coefficients; ``spin2d_rhs_induced`` is.
    """
    t = validate_spin_field(g, t, unit_tol=1e-8)
    if np.abs(t[:, 2]).max() > 1e-12:
        raise InvalidStateError("planar spin field must have zero third component")
    phi0 = validate_real_field(g, phi0)
    return _spin2d_raw(g.adjacency_matrix(), phi0 ** 2, t, gamma)


# -- stereographic charts ----------------------------------------------------


def to_sphere(psi: np.ndarray) -> np.ndarray:
    """Per-vertex stereographic image of a complex field on the unit sphere.

    S = (2 Re psi, 2 Im psi, 1 - |psi|^2) / (1 + |psi|^2); psi = 0 maps to
    the north pole and the south pole is unreachable (|psi| -> infinity).
    """
    psi = np.asarray(psi, dtype=complex)
    r2 = np.abs(psi) ** 2
    u = 1.0 + r2
    s = np.empty(psi.shape + (3,))
    s[..., 0] = 2.0 * psi.real / u
    s[..., 1] = 2.0 * psi.imag / u
    s[..., 2] = (1.0 - r2) / u
    return s


def to_plane(s: np.ndarray) -> np.ndarray:
    """Inverse of ``to_sphere``: psi = (S_x + i S_y) / (1 + S_z)."""
    return _plane_point(np.asarray(s, dtype=float))[0]


def to_circle(phi: np.ndarray) -> np.ndarray:
    """Planar chart: T = (2 phi, 1 - phi^2) / (1 + phi^2), third component 0."""
    phi = np.asarray(phi, dtype=float)
    u = 1.0 + phi ** 2
    t = np.zeros(phi.shape + (3,))
    t[..., 0] = 2.0 * phi / u
    t[..., 1] = (1.0 - phi ** 2) / u
    return t


def to_line(t: np.ndarray) -> np.ndarray:
    """Inverse of ``to_circle``: phi = T_x / (1 + T_y); excluded point (0, -1)."""
    t = np.asarray(t, dtype=float)
    den = 1.0 + t[..., 1]
    if np.any(den <= _POLE_TOL):
        raise SouthPoleError("state touches the excluded point (T_y = -1)")
    return t[..., 0] / den


def phase_constraint(s: np.ndarray) -> float:
    """sum_j (1 - S_z) / (1 + S_z); equals ||to_plane(S)||^2 off the pole."""
    s = np.asarray(s, dtype=float)
    den = 1.0 + s[..., 2]
    if np.any(den <= _POLE_TOL):
        raise SouthPoleError("constraint undefined at the south pole")
    return float(np.sum((1.0 - s[..., 2]) / den))


def phase_constraint_2d(t: np.ndarray) -> float:
    """sum_j (1 - T_y) / (1 + T_y), the planar version of the constraint."""
    t = np.asarray(t, dtype=float)
    den = 1.0 + t[..., 1]
    if np.any(den <= _POLE_TOL):
        raise SouthPoleError("constraint undefined at the excluded point")
    return float(np.sum((1.0 - t[..., 1]) / den))


def _plane_point(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``to_plane`` of spins (..., 3), and the chart factor c = 1 + S_z."""
    c = 1.0 + s[..., 2]
    if (c <= _POLE_TOL).any():
        raise SouthPoleError("state touches the excluded south pole (S_z = -1)")
    return (s[..., 0] + 1j * s[..., 1]) / c, c


def _sphere_velocity(s: np.ndarray, c: np.ndarray, psi: np.ndarray,
                     f: np.ndarray) -> np.ndarray:
    """Differential of ``to_sphere`` at psi = ``_plane_point(s)`` applied to
    dpsi/dt = f.  On the sphere c = 2 / (1 + |psi|^2), so with p =
    Re(conj(psi) f) it is dS = c [(Re f, Im f, 0) - p (S_x, S_y, c)]."""
    p = psi.real * f.real + psi.imag * f.imag
    ds = np.empty(s.shape)
    ds[..., 0] = c * (f.real - p * s[..., 0])
    ds[..., 1] = c * (f.imag - p * s[..., 1])
    ds[..., 2] = -c * (p * c)
    return ds


def _nlse_raw(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
              gamma: float) -> np.ndarray:
    """Complex flow of one state (N,) or a batch (B, N) with Laplacians
    (B, N, N); a row of a batch is bit-identical to its own evaluation."""
    lp = (lap @ psi[..., None])[..., 0]
    r2 = np.abs(psi) ** 2
    diss = lp + (r2 - v) * psi
    proj = diss - psi * ((psi.conj() * diss).sum(axis=-1, keepdims=True)
                         / r2.sum(axis=-1, keepdims=True))
    return -1j * (lp + v * psi) - gamma * proj


def _diffusion_raw(lap: np.ndarray, v: np.ndarray, phi: np.ndarray,
                   gamma: float) -> np.ndarray:
    lp = lap @ phi
    diss = lp + (phi ** 2 - v) * phi
    proj = diss - phi * (np.sum(phi * diss) / np.sum(phi ** 2))
    return -(lp + v * phi) - gamma * proj


def _ll_induced_raw(lap: np.ndarray, v: np.ndarray, s: np.ndarray,
                    gamma: float) -> np.ndarray:
    psi, c = _plane_point(s)
    return _sphere_velocity(s, c, psi, _nlse_raw(lap, v, psi, gamma))


def _spin2d_induced_raw(lap: np.ndarray, v: np.ndarray, t: np.ndarray,
                        gamma: float) -> np.ndarray:
    phi = to_line(t)
    f = _diffusion_raw(lap, v, phi, gamma)
    rate = 2.0 * f / (1.0 + phi ** 2)
    dt = np.zeros_like(t)
    dt[:, 0] = rate * t[:, 1]
    dt[:, 1] = -rate * t[:, 0]
    return dt


def ll_rhs_induced(g: WeightedGraph, s: np.ndarray, psi0: np.ndarray,
                   gamma: float) -> np.ndarray:
    """Exact pushforward of ``nlse_rhs`` through the stereographic chart.

    The chart derivative turns multiplication by i into rotation about S,
    dS_psi(i h) = S x dS_psi(h), so this is itself a Landau-Lifshitz law:

        dS_j/dt = S_j x H_j - gamma * S_j x (S_j x D_j),
        H_j = -dS_j[((L + V) psi)_j],
        D_j = -dS_j[(P (L psi + (|psi|^2 - V) psi))_j],

    with psi = to_plane(S), V = diag(|psi0|^2) and P the projector off psi.
    Integrating it from to_sphere(psi0) reproduces to_sphere(psi(t)) up to
    integrator error.  It differs from the Heisenberg-exchange law
    ``ll_rhs``, whose fields are linear in the neighbouring spins (already
    for a single vertex the two rotation rates differ).
    """
    s = validate_spin_field(g, s, unit_tol=1e-8)
    psi0 = validate_scalar_field(g, psi0)
    return _ll_induced_raw(g.coupling_laplacian(), np.abs(psi0) ** 2, s, gamma)


def spin2d_rhs_induced(g: WeightedGraph, t: np.ndarray, phi0: np.ndarray,
                       gamma: float) -> np.ndarray:
    """Exact pushforward of ``diffusion_rhs`` through the planar chart.

    In the form of ``spin2d_rhs``, with the planar scalar cross product,

        dT_j/dt = (T_j x H_j) (-T_j,y, T_j,x) - gamma * T_j x (T_j x D_j),
        H_j = -dT_j[((L + V) phi)_j],
        D_j = -dT_j[(P (L phi + (phi^2 - V) phi))_j],

    with phi = to_line(T), V = diag(phi0^2) and P the projector off phi.
    """
    t = validate_spin_field(g, t, unit_tol=1e-8)
    phi0 = validate_real_field(g, phi0)
    return _spin2d_induced_raw(g.coupling_laplacian(), phi0 ** 2, t, gamma)


# -- integration -------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """Fixed-step trajectory with per-step invariant logs.

    ``invariant_log`` maps names ("norm", "constraint") to per-step arrays
    aligned with ``times``; ``max_step_drift`` is the largest norm deviation
    observed *before* renormalization in any single step.
    """

    times: np.ndarray
    states: np.ndarray
    invariant_log: dict[str, np.ndarray]
    system: str
    max_step_drift: float


def make_rhs(g: WeightedGraph, initial: np.ndarray, config: NlseConfig,
             system: str, spin_law: str = "cross") -> Callable[[np.ndarray], np.ndarray]:
    """Bind a system's right-hand side to a graph and frozen initial data."""
    gamma = config.gamma
    if spin_law not in ("cross", "pushforward"):
        raise ValueError(f"unknown spin law {spin_law!r}")
    if system == "nlse":
        psi0 = validate_scalar_field(g, initial)
        lap = g.coupling_laplacian()
        v = np.abs(psi0) ** 2
        return lambda psi: _nlse_raw(lap, v, psi, gamma)
    if system == "ll":
        psi0 = validate_scalar_field(g, initial)
        v = np.abs(psi0) ** 2
        if spin_law == "cross":
            w = g.adjacency_matrix()
            return lambda s: _ll_raw(w, v, s, gamma)
        lap = g.coupling_laplacian()
        return lambda s: _ll_induced_raw(lap, v, s, gamma)
    if system == "diffusion":
        phi0 = validate_real_field(g, initial)
        lap = g.coupling_laplacian()
        v = phi0 ** 2
        return lambda phi: _diffusion_raw(lap, v, phi, gamma)
    if system == "spin2d":
        phi0 = validate_real_field(g, initial)
        v = phi0 ** 2
        if spin_law == "cross":
            w = g.adjacency_matrix()
            return lambda t: _spin2d_raw(w, v, t, gamma)
        lap = g.coupling_laplacian()
        return lambda t: _spin2d_induced_raw(lap, v, t, gamma)
    raise ValueError(f"unknown system {system!r}")


def _renormalize(y: np.ndarray,
                 renorm_tol: float | None) -> tuple[np.ndarray, float]:
    """Rescale to unit norm each vector along the last axis (a complex
    field or one spin of a trajectory) whose norm is off 1 by more than
    ``renorm_tol``; None rescales nothing.  Returns the state and the
    largest drift before rescaling (0 without), non-finite if the state is.
    """
    if renorm_tol is None:
        return y, 0.0
    nrm = np.linalg.norm(y, axis=-1, keepdims=True)
    drift = np.abs(nrm - 1.0)
    return y / np.where(drift > renorm_tol, nrm, 1.0), float(drift.max())


def _rk4_step(rhs: Callable, y: np.ndarray, dt: float,
              renorm_tol: float | None) -> tuple[np.ndarray, float]:
    """One classical RK4 step, then ``_renormalize``; trajectories only."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return _renormalize(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                        renorm_tol)


# steps per block: the unit of per-step checks, chart comparisons and CSV rows
_BLOCK = 256


def _rk4_blocks(step: Callable, y: np.ndarray, dt: float,
                n_steps: int) -> Iterator[tuple[np.ndarray, float]]:
    """Take ``n_steps`` of ``step`` (an RK4 step returning the state and its
    drift) from ``y``, yielding each block of up to ``_BLOCK`` states (reused
    by the next) and its largest drift.  The first non-finite state raises
    ``DivergenceError`` naming its step, at once if its drift is non-finite,
    else at the block's end."""
    buf = np.empty((min(n_steps, _BLOCK),) + y.shape, dtype=y.dtype)
    for first in range(1, n_steps + 1, _BLOCK):
        block = buf[:min(_BLOCK, n_steps + 1 - first)]
        worst = 0.0
        for i in range(len(block)):
            y, drift = step(y)
            # a drift overflows on a state whose squares do, finite or not
            if not math.isfinite(drift) and not np.isfinite(y).all():
                raise DivergenceError(first + i, (first + i) * dt)
            block[i] = y
            worst = max(worst, drift)
        finite = np.isfinite(block.reshape(len(block), -1)).all(axis=1)
        if not finite.all():
            k = first + int(np.argmin(finite))
            raise DivergenceError(k, k * dt)
        yield block, worst


def integrate(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
              config: NlseConfig, *, system: str,
              t_final: float | None = None) -> TrajectoryRecord:
    """Classical fixed-step RK4 with post-step renormalization.

    Renormalization policy, by ``system``: the complex flow is rescaled to
    unit norm, spin systems are rescaled per spin, the real diffusion flow
    is left untouched.  A rescale only happens when the drift exceeds
    ``config.renorm_tol``; drift magnitudes are tracked so tests can verify
    the O(dt^5) single-step bound.
    """
    if system not in ("nlse", "ll", "diffusion", "spin2d"):
        raise ValueError(f"unknown system {system!r}")
    horizon = config.t_max if t_final is None else float(t_final)
    n_steps = max(1, int(round(horizon / config.dt)))
    y = np.array(y0)
    if system == "nlse":
        norm0 = float(np.linalg.norm(y))
        if abs(norm0 - 1.0) > 1e-9:
            raise InvalidStateError(f"initial norm {norm0} is not 1 (tol 1e-9)")
    elif system in ("ll", "spin2d"):
        dev = np.abs(np.linalg.norm(y, axis=1) - 1.0).max()
        if dev > 1e-8:
            raise InvalidStateError(f"initial spin norms off unit by {dev:.3e}")
    renorm_tol = None if system == "diffusion" else config.renorm_tol
    constraint = {"ll": phase_constraint,
                  "spin2d": phase_constraint_2d}.get(system)

    states = np.empty((n_steps + 1,) + y.shape, dtype=y.dtype)
    states[0] = y
    max_drift = 0.0
    for k, (block, drift) in enumerate(_rk4_blocks(
            lambda yy: _rk4_step(rhs, yy, config.dt, renorm_tol), y,
            config.dt, n_steps)):
        states[1 + k * _BLOCK:][:len(block)] = block
        max_drift = max(max_drift, drift)
    if constraint is None:
        logs = {"norm": [float(np.linalg.norm(yy)) for yy in states]}
    else:
        logs = {"norm": [float(np.linalg.norm(yy, axis=1).max())
                         for yy in states],
                "constraint": [constraint(yy) for yy in states]}
    return TrajectoryRecord(np.arange(n_steps + 1) * config.dt, states,
                            {k: np.array(v) for k, v in logs.items()},
                            system, max_drift)


# -- steady states -----------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    """Result of driving the complex flow to a relative equilibrium.

    ``residual`` is the sup norm of the projection of F off the state;
    it vanishes exactly when the state is stationary modulo a global phase
    (the flow keeps rotating at a constant rate there).  ``t_reached`` is
    the flow time of the steps a row took after it gave up continuation
    (``_settle``), 0 if it never did; a Newton polish adds none.  ``gamma``
    is the dissipation rate of the flow the state is an equilibrium of;
    every derivative of the state is taken at it.  A root Newton accepted
    or certified carries its ``_bordered_system`` in ``bordered``, keyed by
    what it was built from: the bytes of the Laplacian, potential and state,
    and gamma.
    A state has converged exactly when its ``reason`` is None; otherwise
    ``reason`` is "repelled", "horizon", "singular" (a bordered step
    failed) or "non_finite" (a non-finite start).
    """

    psi_inf: np.ndarray
    t_reached: float
    residual: float
    gamma: float
    bordered: tuple | None = field(default=None, compare=False, repr=False)
    reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.reason is None


# a row waits for Newton once its projected residual is at most this; at
# 1e-1 Newton would finish rows that a short horizon ends (c4's probe rows
# at a 0.2 horizon, pinned by a test).
_NEWTON_HANDOFF = 1e-2
_NEWTON_MAX_ITER = 8
# largest distance from the hand-off state a Newton iterate may wander
_NEWTON_TRUST = 0.5
# largest growth rate, off the phase and radial directions, of the
# linearization at a state Newton may return; beyond it the state repels
# the flow (round-off in the eigenvalues, zero ones included, is ~1e-15)
_NEWTON_STABLE_RATE = 1e-9
# first pseudo-time step of every row; at 0.5 continuation lands on
# saddles the flow leaves in 718 of the 1,718 rows of train at seed 0
_PTC_DELTA0 = 0.2
_PTC_MAX_ITER = 50


def _batch_projected_rhs(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
                         gamma: float) -> np.ndarray:
    """P F, the right-hand side projected off the state.

    F is tangent to the sphere, so P F = F - i alpha psi with the rotation
    rate alpha = Im<psi, F> / |psi|^2: the residual of F(psi) = i alpha psi.
    """
    f = _nlse_raw(lap, v, psi, gamma)
    return f - psi * ((psi.conj() * f).sum(axis=-1, keepdims=True)
                      / (np.abs(psi) ** 2).sum(axis=-1, keepdims=True))


def _diagonal(b: np.ndarray, row: int, col: int, count: int) -> np.ndarray:
    """View of the entries (row + j, col + j), j < ``count``, of each matrix
    of the C-contiguous stack ``b``: a basic slice of it flattened."""
    m, start = b.shape[-1], row * b.shape[-1] + col
    return b.reshape(len(b), -1)[:, start:start + count * (m + 1):m + 1]


def _realified_jacobian(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
                        gamma: float, out: np.ndarray,
                        rotating: bool = False) -> None:
    """Write into the top-left 2N x 2N blocks of the C-contiguous ``out``
    (B, M, M) the realified Jacobians J of the complex flow at the states
    ``psi`` = x + i y (B, N), or, ``rotating``, J - alpha i with alpha =
    -<psi, (L + V) psi> / n2, n2 = |psi|^2; ``lap`` (B, N, N) holds coupling
    Laplacians and ``v`` (B, N) frozen potentials.  F = -i (L + V) psi -
    gamma (d - psi s / n2), d = L psi + (|psi|^2 - V) psi, and s = <psi, d>
    is real as L is.  So on [x; y], J = [[-gamma L, L], [-L, -gamma L]] plus
    the diagonals gamma (V - 2 |psi|^2 + sigma) -+ gamma (x^2 - y^2) at (j, j)
    and (j+N, j+N) and +-V - 2 gamma x y at (j, j+N) and (j+N, j), plus z h^T:
    sigma = s / n2, z = [x; y], h = (2 gamma / n2) [Re c - sigma x; Im c -
    sigma y] and c = L psi + (2 |psi|^2 - V) psi.
    """
    nb, n = psi.shape
    xy = np.ascontiguousarray(psi, dtype=complex).view(float).reshape(nb, n, 2)
    lz, sq = lap @ xy, xy * xy
    r2 = sq[..., 0] + sq[..., 1]
    n2 = r2.sum(axis=1)[:, None]
    dz = lz + (r2 - v)[..., None] * xy
    u = r2 - np.einsum("sjk,sjk->s", xy, dz)[:, None] / n2  # |psi|^2 - sigma
    hz = (dz + u[..., None] * xy) * (2.0 * gamma / n2)[..., None]
    j0 = (np.array([[-gamma, 1.0], [-1.0, -gamma]])[:, None, :, None]
          * lap[:, None, :, None, :]).reshape(nb, 2 * n, 2 * n)
    z, h = (a.transpose(0, 2, 1).reshape(nb, 2 * n) for a in (xy, hz))
    np.add(j0, z[:, :, None] * h[:, None, :], out=out[:, :2 * n, :2 * n])
    main = _diagonal(out, 0, 0, 2 * n).reshape(nb, 2, n)
    main -= (gamma * (2.0 * sq + (u - v)[..., None])).transpose(0, 2, 1)
    e = 2.0 * gamma * xy[..., 0] * xy[..., 1]
    if rotating:  # V + alpha
        v = v - np.einsum("sjk,sjk->s", xy, lz + v[..., None] * xy)[:, None] / n2
    upper, lower = _diagonal(out, 0, n, n), _diagonal(out, n, 0, n)
    upper += v - e
    lower -= v + e


def _dF_dparams(edges: Sequence[tuple[int, int]], psi: np.ndarray,
                gamma: float) -> np.ndarray:
    """Realified (..., E+N, 2N) parameter derivative of the flow at (..., N).

    One row per edge weight (in ``edges`` order), then one row per vertex
    potential.  Each row is realify(-i z - s gamma P z), P the projector off
    ``psi``: an edge (u, v) moves L psi by z = (psi_u - psi_v)(e_u - e_v)
    with s = 1, and a potential V_j moves V psi by z = psi_j e_j, which
    enters the dissipative part with the opposite sign, s = -1.
    """
    n, ne = psi.shape[-1], len(edges)
    z = np.zeros(psi.shape[:-1] + (ne + n, n), dtype=complex)
    u, v = np.asarray(edges, dtype=int).reshape(ne, 2).T
    rows = np.arange(ne)
    z[..., rows, u] = psi[..., u] - psi[..., v]
    z[..., rows, v] = psi[..., v] - psi[..., u]
    z[..., ne + np.arange(n), np.arange(n)] = psi
    sign = np.concatenate([np.ones(ne), -np.ones(n)])[:, None]
    n2 = np.sum(np.abs(psi) ** 2, axis=-1)[..., None, None]
    proj = z - (z @ np.conj(psi)[..., None]) * psi[..., None, :] / n2
    df = -1j * z - sign * gamma * proj
    return np.concatenate([df.real, df.imag], axis=-1)


def _bordered_system(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
                     gamma: float) -> np.ndarray:
    """Doubly bordered real matrices (B, 2N+2, 2N+2) at the states ``psi``.

    Unknowns are (d_psi, d_alpha, d_mu): the top-left block is J - alpha i
    with the rotation rate alpha = -<psi, (L + V) psi> / |psi|^2, the two
    extra columns are -i psi and -psi, and the two extra rows are the phase
    and radial slices Im<psi, d_psi> = 0 and Re<psi, d_psi> = 0.  Newton on
    F(psi) = i alpha psi and the implicit derivatives of a converged state
    both solve with it.
    """
    nb, n = psi.shape
    b = np.empty((nb, 2 * n + 2, 2 * n + 2))
    _realified_jacobian(lap, v, psi, gamma, b, rotating=True)
    rows = b[:, 2 * n:, :2 * n].reshape(nb, 2, 2, n)
    rows[:, 0, 0], rows[:, 0, 1] = -psi.imag, psi.real
    rows[:, 1, 0], rows[:, 1, 1] = psi.real, psi.imag
    b[:, :2 * n, 2 * n:] = -b[:, 2 * n:, :2 * n].transpose(0, 2, 1)
    b[:, 2 * n:, 2 * n:] = 0.0
    return b


def _repelling(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
               gamma: float, b: np.ndarray | None = None) -> np.ndarray:
    """Whether the linearized flow at each relative equilibrium has a
    growing mode, that is, an eigenvalue with real part above
    ``_NEWTON_STABLE_RATE``.

    The linearization J - alpha i of the rotating frame is taken on the
    real complement of the radial and phase directions psi and i psi: the
    flow keeps |psi| and is neutral along the phase.  Components of the
    graph on which psi vanishes are left out too: the flow keeps them at
    exactly zero, so their modes are never excited.  ``b`` is the states'
    ``_bordered_system`` if the caller has it; it is left as it is.

    A row with a finite Cholesky factor of tau I - (M + M^T) / 2, M its
    projected linearization and tau the rate, takes no ``eigvals``: no
    eigenvalue of M has a real part above the spectrum of (M + M^T) / 2
    (Horn & Johnson, Topics in Matrix Analysis, 1991, sec. 1.5).
    """
    n = psi.shape[1]
    b = _bordered_system(lap, v, psi, gamma) if b is None else b
    a = b[:, :2 * n, :2 * n]
    reach = psi != 0
    if not reach.all():
        adjacent = (lap != 0).astype(float)
        for _ in range(n - 1):
            reach |= np.einsum("sij,sj->si", adjacent, reach) > 0
        # the linearization does not couple a vanishing component to the
        # rest, so zeroing its block only turns its eigenvalues into zeros;
        # so does the projection p = 1 - s s^T off s = [psi, i psi] / |psi|
        idle = np.tile(~reach, 2)
        a = np.where(idle[:, :, None] | idle[:, None, :], 0.0, a)
    s = b[:, :2 * n, 2 * n:] / np.linalg.norm(psi, axis=1)[:, None, None]
    p = np.eye(2 * n) - s @ s.transpose(0, 2, 1)
    pap = p @ a @ p
    # LAPACK factors a NaN matrix without an error: the factor must be finite
    c = _NEWTON_STABLE_RATE * np.eye(2 * n) - 0.5 * (pap + pap.transpose(0, 2, 1))
    certified = _row_by_row(
        lambda m: np.isfinite(np.linalg.cholesky(m)).all(axis=(1, 2)), c, False)
    out = np.zeros(len(psi), dtype=bool)
    if not certified.all():
        out[~certified] = _row_by_row(
            lambda m: np.linalg.eigvals(m).real.max(axis=1) > _NEWTON_STABLE_RATE,
            pap[~certified], True)  # no converged spectrum: leave it to the flow
    return out


def _row_by_row(check: Callable, m: np.ndarray, refused: bool) -> np.ndarray:
    """``check`` of the stack ``m``, or of one row at a time if LAPACK refuses
    it: the other rows keep their verdicts, and a refused row gets ``refused``."""
    try:
        return check(m)
    except np.linalg.LinAlgError:
        return np.full(1, refused) if len(m) == 1 else np.concatenate(
            [_row_by_row(check, m[i:i + 1], refused) for i in range(len(m))])


def _solve_stacked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked systems a x = b, b (B, M, K); a singular row fails alone."""
    try:
        return np.linalg.solve(a, b), np.ones(len(a), bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        solved = np.ones(len(a), bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def _bordered_step(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
                   pf: np.ndarray, gamma: float, inv_delta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bordered solve against -P F = -``pf`` per row, renormalized.

    ``inv_delta`` (B,) is subtracted from the diagonal of each row's psi
    block: 1 / delta makes the step a backward-Euler step of pseudo-time
    delta, and 0 makes it a Newton step.  Returns the new states (the old
    one where the step is not finite), their P F and residuals, and
    whether the row solved to a finite step.
    """
    n = psi.shape[1]
    rhs = np.zeros((len(psi), 2 * n + 2))
    rhs[:, :n] = -pf.real
    rhs[:, n:2 * n] = -pf.imag
    b = _bordered_system(lap, v, psi, gamma)
    main = _diagonal(b, 0, 0, 2 * n)
    main -= inv_delta[:, None]
    step, solved = _solve_stacked(b, rhs[..., None])
    new = psi + step[:, :n, 0] + 1j * step[:, n:2 * n, 0]
    new = new / np.linalg.norm(new, axis=1)[:, None]
    finite = np.isfinite(new).all(axis=1)
    new = np.where(finite[:, None], new, psi)
    new_pf = _batch_projected_rhs(lap, v, new, gamma)
    return new, new_pf, np.abs(new_pf).max(axis=1), solved & finite


def _newton_polish(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
                   res: np.ndarray, gamma: float, tol: float, pf: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched Newton on F(psi) = i alpha psi from hand-off states ``psi``
    (residuals ``res``, projected right-hand sides ``pf``).

    Each iteration solves every live row's bordered system once and
    renormalizes.  A row is accepted once its residual is at most ``tol``,
    without a step if it starts there; it is dropped when the residual does
    not fall, the iterate leaves the trust radius around its hand-off state
    or turns non-finite, the system is singular, or the iterations run out.
    A root at which the flow's linearization has a growing mode is dropped
    too, in one check at the end: the flow leaves such an equilibrium, so it
    is not the steady state the flow would reach.  Returns states and
    residuals (Newton's output for accepted rows, the hand-off values for the
    rest), a mask of the rows that met such a repelling root, and each row's
    ``SteadyState.bordered``.
    """
    out, out_res = psi.copy(), res.copy()
    live = np.flatnonzero(res > tol)
    cur, cur_res, pf = psi[live], res[live], pf[live]
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        new, new_pf, new_res, ok = _bordered_step(lap[live], v[live], cur, pf,
                                                  gamma, np.zeros(live.size))
        keep = (ok & (new_res < cur_res)
                & (np.linalg.norm(new - psi[live], axis=1) <= _NEWTON_TRUST))
        done = keep & (new_res <= tol)
        out[live[done]] = new[done]
        out_res[live[done]] = new_res[done]
        go = keep & ~done
        live, cur, cur_res, pf = live[go], new[go], new_res[go], new_pf[go]
    repelled, carried = np.zeros(len(psi), bool), np.full(len(psi), None, object)
    rows = np.flatnonzero(out_res <= tol)
    if rows.size:
        la, va, pa = lap[rows], v[rows], out[rows]
        b = _bordered_system(la, va, pa, gamma)
        repelled[rows] = _repelling(la, va, pa, gamma, b)
        back = rows[repelled[rows]]
        out[back], out_res[back] = psi[back], res[back]
        for k in np.flatnonzero(~repelled[rows]):
            key = la[k].tobytes(), va[k].tobytes(), pa[k].tobytes(), gamma
            carried[rows[k]] = key, b[k]
    return out, out_res, repelled, carried


def _settle(lap: np.ndarray, v: np.ndarray, psi: np.ndarray,
            config: NlseConfig, probe: np.ndarray) -> list[SteadyState]:
    """Lockstep backward-Euler steps (``_bordered_step``) on the bordered
    system from the starts ``psi`` (B, N) to relative equilibria of the flow.

    Every row starts out continuing: its pseudo-time step delta starts at
    ``_PTC_DELTA0`` and grows by switched evolution relaxation, delta_{k+1} =
    delta_k res_k / res_{k+1}, so the first steps follow the flow and later
    ones approach Newton steps (Kelley & Keyes, SIAM J. Numer. Anal. 35,
    1998).  A row at most ``_NEWTON_HANDOFF`` from rest waits, and whenever no
    continuing row steps, the waiting rows go through one ``_newton_polish``.
    A row gives up continuing when Newton rejects it, its step fails, it has
    taken ``_PTC_MAX_ITER`` steps or its next delta would overrun the horizon;
    from where it is it then follows the flow, delta held at ``dt``, and it
    waits for Newton again only once it has left the hand-off band and come
    back.  A following row is accepted when a step takes it from above
    ``steady_tol`` to at most it, and ends at a failed step ("singular"); a
    continuing row flagged in ``probe`` (B,) whose Newton root repels ends at
    once ("repelled").  The pseudo-time a row steps stays within the one
    horizon ``config.t_max`` ("horizon").  A start at ``steady_tol`` waits,
    and a non-finite one ends at once ("non_finite").  ``t_reached`` is the
    pseudo-time of the steps a row followed, 0 where continuation ends it.
    No row's result depends on the other rows of the batch.
    """
    nb, dt, tol, cap = len(psi), config.dt, config.steady_tol, config.t_max
    gamma = float(config.gamma)
    psi, pf, res = psi.copy(), np.zeros_like(psi), np.full(nb, np.inf)
    delta, spent = np.full(nb, _PTC_DELTA0), np.zeros(nb)
    steps, follows = np.zeros(nb, dtype=int), np.zeros(nb, dtype=bool)
    reason, carried = np.full(nb, "non_finite", object), np.full(nb, None, object)
    live = np.flatnonzero(np.isfinite(psi).all(axis=1))
    reason[live] = None
    pf[live] = _batch_projected_rhs(lap[live], v[live], psi[live], gamma)
    res[live] = np.abs(pf[live]).max(axis=1)
    band = res[live] <= _NEWTON_HANDOFF
    wait, live = live[band], live[~band]
    for it in itertools.count():
        if wait.size and follows[live].all():
            psi[wait], res[wait], repelled, carried[wait] = _newton_polish(
                lap[wait], v[wait], psi[wait], res[wait], gamma, tol, pf[wait])
            ends = probe[wait] & repelled & ~follows[wait]
            reason[wait[ends]] = "repelled"
            back = wait[(repelled | (res[wait] > tol)) & ~ends]
            follows[back], delta[back] = True, dt
            live, wait = np.concatenate([live, back]), wait[:0]
        if not live.size:
            break
        d = delta[live]
        nxt = spent[live] + d
        if it == _PTC_MAX_ITER or (nxt > cap).any():
            quit = ~follows[live] & ((it == _PTC_MAX_ITER) | (nxt > cap))
            follows[live[quit]], delta[live[quit]], d[quit] = True, dt, dt
            nxt = spent[live] + d
            over = nxt > cap
            reason[live[over]] = "horizon"
            live, d, nxt = live[~over], d[~over], nxt[~over]
            if not live.size:
                continue
        spent[live], fol, old = nxt, follows[live], res[live]
        new, new_pf, new_res, ok = _bordered_step(
            lap[live], v[live], psi[live], pf[live], gamma, 1.0 / d)
        if not ok.all():  # a failed step moves nothing
            bad = live[~ok]
            new[~ok], new_pf[~ok], new_res[~ok] = psi[bad], pf[bad], old[~ok]
            reason[live[fol & ~ok]] = "singular"
            follows[bad], delta[bad] = True, dt
        psi[live], pf[live], res[live] = new, new_pf, new_res
        fell = new_res <= _NEWTON_HANDOFF
        keep = ~fell
        if fol.any():
            steps[live[fol & ok]] += 1
            ends = fol & (~ok | ((new_res <= tol) & (old > tol)))
            fell &= ~ends & (old > _NEWTON_HANDOFF)
            keep = ~ends & ~fell
        if not fol.all():
            grow = keep & ~follows[live]
            delta[live[grow]] = d[grow] * old[grow] / new_res[grow]
        wait = np.concatenate([wait, live[fell]])
        live = live[keep]
    t, res = (steps * dt).tolist(), res.tolist()
    return [SteadyState(psi[i], t[i], res[i], gamma, carried[i], reason[i])
            for i in range(nb)]


def _stack_problems(graphs: Sequence[WeightedGraph],
                    psi0s: Sequence[np.ndarray],
                    starts: Sequence[np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling Laplacians (one build per graph object), frozen potentials
    and starts of a batch."""
    distinct = {id(g): g for g in graphs}
    laps = {k: g.coupling_laplacian() for k, g in distinct.items()}
    lap = np.stack([laps[id(g)] for g in graphs])
    psi0_arr = validate_scalar_fields(graphs[0], psi0s)
    norms = np.linalg.norm(psi0_arr, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise InvalidStateError("initial states must be unit norm (tol 1e-9)")
    psi = psi0_arr if starts is None else np.stack(
        [np.asarray(s, dtype=complex) for s in starts])
    return lap, np.abs(psi0_arr) ** 2, psi


def solve_steady_state_many(graphs: Sequence[WeightedGraph],
                            psi0s: Sequence[np.ndarray],
                            config: NlseConfig,
                            starts: Sequence[np.ndarray] | None = None,
                            *, probe: bool | Sequence[bool] = False
                            ) -> list[SteadyState]:
    """Drive many independent flows to relative equilibria in lockstep.

    All graphs must share the vertex count.  ``starts`` optionally replaces
    the start point (the frozen potential still comes from the matching
    ``psi0``), which lets callers warm-start perturbed problems.

    Every row continues by pseudo-transient continuation, and a row that
    gives up follows the flow from where it is (``_settle``), and every row
    runs to the one horizon ``config.t_max``.  ``probe`` flags the probe
    rows, one value for every row or one per row.  A probe row whose
    continuing Newton root repels comes back unconverged at once
    ("repelled").  A row comes back bit for bit as it would in any other
    batch.
    """
    nb = len(graphs)
    if nb == 0:
        return []
    return _settle(*_stack_problems(graphs, psi0s, starts), config,
                   np.broadcast_to(np.asarray(probe, dtype=bool), (nb,)))


def gauge_align(psi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate a field by the global phase that aligns it with ``reference``.

    The returned field maximizes Re<reference, .> over the phase orbit, so
    <reference, aligned> is real and nonnegative.
    """
    inner = np.vdot(reference, psi)
    if abs(inner) < 1e-300:
        return np.array(psi)
    return psi * (np.conj(inner) / abs(inner))


# -- gauge check -------------------------------------------------------------


def gauge_check(g: WeightedGraph, initial: np.ndarray, config: NlseConfig,
                *, t_final: float = 10.0, pair: str = "complex",
                spin_law: str = "cross") -> float:
    """Integrate a vertex-field flow and its spin counterpart side by side.

    Returns the maximum over time of the worst per-vertex Euclidean gap
    between the mapped field trajectory and the spin trajectory.  ``pair``
    selects the complex/sphere system or the real/circle system;
    ``spin_law`` selects the cross-product law or the exact pushforward.

    Both flows step as one flat state, the field and then the spins (4N
    entries), renormalized part by part so that each steps bit for bit as
    under ``integrate``.  Under the pushforward law on the complex pair one
    ``_nlse_raw`` call per stage serves the field and the spins.
    """
    n = g.n
    if pair == "complex":
        field0 = validate_scalar_field(g, initial)
        if abs(np.linalg.norm(field0) - 1.0) > 1e-9:
            raise InvalidStateError("gauge check requires a unit-norm state")
        systems, chart, field_tol = ("nlse", "ll"), to_sphere, config.renorm_tol
    elif pair == "real":
        field0 = validate_real_field(g, initial)
        systems, chart, field_tol = ("diffusion", "spin2d"), to_circle, None
    else:
        raise ValueError(f"unknown pair {pair!r}")
    field_rhs = make_rhs(g, field0, config, systems[0])
    spin_rhs = make_rhs(g, field0, config, systems[1], spin_law)
    if pair == "complex" and spin_law == "pushforward":
        lap, v = (np.stack([x] * 2) for x in (g.coupling_laplacian(),
                                              np.abs(field0) ** 2))
        both = np.empty((2, n), complex)

        def rates(field, spins):
            psi, c = _plane_point(spins)
            both[0], both[1] = field, psi
            f = _nlse_raw(lap, v, both, config.gamma)
            return f[0], _sphere_velocity(spins, c, psi, f[1])
    else:
        def rates(field, spins):
            return field_rhs(field), spin_rhs(np.ascontiguousarray(spins))

    def rhs(y: np.ndarray) -> np.ndarray:
        field, spins = rates(y[:n], y[n:].reshape(n, 3).real)
        return np.concatenate([field, spins.ravel()])

    def step(y: np.ndarray) -> tuple[np.ndarray, float]:
        y, _ = _rk4_step(rhs, y, config.dt, None)
        spins = y[n:].reshape(n, 3)
        y[:n], field_drift = _renormalize(y[:n], field_tol)
        spins[:], spin_drift = _renormalize(spins.real, config.renorm_tol)
        return y, field_drift + spin_drift  # non-finite if either part is

    y = np.concatenate([field0, chart(field0).ravel()])
    worst = 0.0  # the spins start at the chart image of the field
    for block, _ in _rk4_blocks(step, y, config.dt,
                                max(1, int(round(t_final / config.dt)))):
        gap = chart(block[:, :n]) - block[:, n:].reshape(-1, n, 3).real
        worst = max(worst, float(np.linalg.norm(gap, axis=-1).max()))
    return worst


# -- serialization -----------------------------------------------------------


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    """One row per step: t, then per-vertex state columns.

    Complex fields use re_j / im_j column pairs; spin fields use
    s{j}_x / s{j}_y / s{j}_z triples; real fields use phi_j columns.
    Floats are written with shortest round-trip formatting.
    """
    columns = (("re_{}", "im_{}") if np.iscomplexobj(record.states) else
               ("s{}_x", "s{}_y", "s{}_z") if record.states.ndim == 3 else
               ("phi_{}",))
    header = ["t"] + [c.format(j) for j in range(record.states.shape[1])
                      for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(record.states), _BLOCK):  # one tolist() a block
            block = record.states[a:a + _BLOCK]
            if np.iscomplexobj(block):
                block = np.stack((block.real, block.imag), axis=-1)
            rows = np.column_stack((record.times[a:a + _BLOCK],
                                    block.reshape(len(block), -1))).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_invariants_jsonl(record: TrajectoryRecord, path: str) -> None:
    """One JSON object per step: {"t": ..., "norm": ..., "constraint": ...}."""
    keys = sorted(record.invariant_log)
    with open(path, "w") as fh:
        for i, t in enumerate(record.times):
            obj = {"t": float(t)}
            for k in keys:
                obj[k] = float(record.invariant_log[k][i])
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
