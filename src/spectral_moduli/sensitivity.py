"""Derivatives of the converged hidden state in weights and initial data.

A converged state is stationary only modulo global phase: F(psi, p) =
i*alpha*psi with a real rotation rate alpha.  Differentiating that family in
a parameter p gives

    (J - i*alpha) d_psi - i*psi d_alpha = -dF/dp,

a system that is singular along the phase direction i*psi.  We restore
invertibility with bordering rows, the phase-slice condition
Im<psi, d_psi> = 0 and the radial slice Re<psi, d_psi> = 0, and solve the
real (2N+2) x (2N+2) system for (d_psi, d_alpha, d_mu).  Everything complex
is realified as [Re; Im] stacks (the right-hand side contains conj-linear
terms, so J is real-linear, not complex-linear).  Every derivative of F
comes from ``dynamics``, which owns F: the bordered matrix from
``_bordered_system`` (J in closed form, the matrix the steady solver's
Newton polish uses, and which a state Newton accepted carries, for pricing
on the same Laplacian and potential to reuse) and dF/dp from
``_dF_dparams``, both at ``SteadyState.gamma``, the rate of the flow the
state was solved under.  This module holds the bordered linear algebra
built on them: the forward derivatives (``dpsi_*``), the adjoint and the
gradients it prices, and the finite-difference oracle.

On the bundled tasks N <= 12, so the bordered matrix is at most 26 x 26
and is inverted outright: for the adjoint, one stacked inverse per batch of
states of one graph, each row bit for bit as it would be alone.  Forward
derivatives multiply the top-left 2N x 2N block of the inverse into the
right-hand sides (whose border rows are zero), and the adjoint multiplies
its transpose into each state's cotangent.  The condition number reported
and checked against 1e12 is the exact 1-norm one, ||B||_1 ||B^-1||_1, never
below LAPACK's estimate (Higham 2002, sec. 15.3), so the check can only
fire earlier than an estimate-based one.  At the steady states of the
triangle, C4, C8 and P4 from random inputs it reads 18-36 (2-norm: 4.8-8.4).

The finite-difference oracle re-solves the flow at perturbed parameters and
gauge-aligns both endpoints to the base state, which places them on the same
phase slice the bordered system uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph_core import (GraphError, WeightedGraph, validate_scalar_field,
                         validate_scalar_fields)
from .dynamics import (NlseConfig, SteadyState, _bordered_system, _dF_dparams,
                       _realified_jacobian, _solve_stacked, gauge_align,
                       solve_steady_state_many)

__all__ = [
    "NonIsolatedSteadyStateError",
    "SensitivityResult",
    "realify",
    "unrealify",
    "rhs_jacobian",
    "dpsi_dw",
    "dpsi_dw_all",
    "dpsi_dpsi0",
    "fd_oracle",
    "steady_state_adjoint",
    "weight_gradients",
    "edge_gradients",
    "potential_gradient",
]

_COND_LIMIT = 1e12


class NonIsolatedSteadyStateError(RuntimeError):
    """The phase-quotient Jacobian is singular: the state is not isolated."""


@dataclass(frozen=True)
class SensitivityResult:
    """Directional derivative of the steady state, realified to length 2N.

    ``method`` is "implicit" or "finite_difference".
    """

    d_psi_inf: np.ndarray
    method: str
    condition_estimate: float


def realify(z: np.ndarray) -> np.ndarray:
    """Stack a complex vector as [Re; Im] (length 2N)."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag])


def unrealify(x: np.ndarray) -> np.ndarray:
    """Inverse of ``realify``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


def rhs_jacobian(g: WeightedGraph, psi0: np.ndarray, psi: np.ndarray,
                 gamma: float) -> np.ndarray:
    """Realified 2N x 2N Jacobian of the complex flow at ``psi``."""
    psi0 = validate_scalar_field(g, psi0)
    psi = validate_scalar_field(g, psi)
    out = np.empty((1, 2 * g.n, 2 * g.n))
    _realified_jacobian(g.coupling_laplacian()[None], (np.abs(psi0) ** 2)[None],
                        psi[None], gamma, out)
    return out[0]


def _states(steadies: Sequence[SteadyState]) -> tuple[np.ndarray, float]:
    """Stacked states (B, N) of a batch and the one gamma they were solved at."""
    if not all(st.converged for st in steadies):
        raise ValueError("sensitivity requires a converged steady state")
    gammas = {st.gamma for st in steadies}
    if len(gammas) != 1:
        raise ValueError(f"a batch must share one gamma, got {sorted(gammas)}")
    return np.stack([st.psi_inf for st in steadies]), gammas.pop()


def _factor_bordered(g: WeightedGraph, psi0s: Sequence[np.ndarray],
                     steadies: Sequence[SteadyState]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the doubly bordered real matrices at a batch of states.

    The linearization J - i*alpha annihilates the phase direction i*psi
    exactly, and it is near-singular along psi itself: the flow conserves
    the norm from any start, so every sphere radius carries its own
    relative equilibrium and the equilibria form a curve crossing the unit
    sphere.  Both directions are therefore bordered out: two slice rows
    (Im<psi, d_psi> = 0 and Re<psi, d_psi> = 0) and two auxiliary columns
    (phase rate, radial source); see ``dynamics._bordered_system``.  For
    consistent right-hand sides the radial source solves to ~0 and d_psi
    is the on-sphere derivative.

    Returns (inv, cond) per state: the top-left 2N x 2N block of B^-1, the
    only block that right-hand sides with zero border rows reach, and the
    exact 1-norm condition number ||B||_1 ||B^-1||_1.  A batch fails as its
    first failing state would alone.  A state's matrix is not built again
    if it carries one (``SteadyState.bordered``) of this graph and input.
    """
    psi, gamma = _states(steadies)
    v = np.abs(validate_scalar_fields(g, psi0s)) ** 2
    lap = g.coupling_laplacian()
    held = [st.bordered if st.bordered is not None and st.bordered[0] == (
                lap.tobytes(), vi.tobytes(), st.psi_inf.tobytes(), st.gamma)
            else None for st, vi in zip(steadies, v)]
    fresh = [i for i, h in enumerate(held) if h is None]
    built = iter(_bordered_system(np.broadcast_to(lap, (len(fresh), g.n, g.n)),
                                  v[fresh], psi[fresh], gamma) if fresh else ())
    b = np.stack([next(built) if h is None else h[1] for h in held])
    # B^-1 by LAPACK's gesv against the identity, as np.linalg.inv computes it
    inv, solved = _solve_stacked(b, np.broadcast_to(np.eye(len(b[0])), b.shape))
    cond = np.linalg.norm(b, 1, axis=(1, 2)) * np.linalg.norm(inv, 1, axis=(1, 2))
    for ok, c in zip(solved, cond):  # the first failing state, in input order
        if not (ok and c <= _COND_LIMIT):
            raise NonIsolatedSteadyStateError(
                f"bordered Jacobian is numerically singular (cond {c:.3e})"
                if ok else "bordered Jacobian is singular")
    n2 = 2 * g.n
    return inv[:, :n2, :n2], cond


def dpsi_dw(g: WeightedGraph, psi0: np.ndarray, steady: SteadyState,
            edge: tuple[int, int]) -> SensitivityResult:
    """Implicit derivative of the steady state in one edge weight."""
    edge = (min(edge), max(edge))
    if edge not in g.edge_index():
        raise GraphError(f"edge {edge} not in graph")
    return dpsi_dw_all(g, psi0, steady)[edge]


def dpsi_dw_all(g: WeightedGraph, psi0: np.ndarray, steady: SteadyState
                ) -> dict[tuple[int, int], SensitivityResult]:
    """Per-edge implicit derivatives sharing one inverse."""
    if g.n_edges == 0:
        return {}
    inv, cond = _factor_bordered(g, [psi0], [steady])
    d_w = _dF_dparams(g.edges, steady.psi_inf, steady.gamma)[:g.n_edges]
    sol = inv[0] @ -d_w.T
    return {edge: SensitivityResult(sol[:, k], "implicit", float(cond[0]))
            for k, edge in enumerate(g.edges)}


def dpsi_dpsi0(g: WeightedGraph, psi0: np.ndarray, steady: SteadyState,
               direction: np.ndarray) -> SensitivityResult:
    """Implicit derivative of the steady state along a tangent move of psi0.

    psi0 enters the converged state only through the frozen potential
    |psi0|^2 (within one basin the flow's endpoint, taken modulo phase, is a
    function of the potential alone), so this differentiates the potential
    channel: dv = 2 Re(conj(psi0) * direction).
    """
    psi0 = validate_scalar_field(g, psi0)
    direction = np.asarray(direction, dtype=complex)
    if direction.shape != psi0.shape:
        raise GraphError("direction shape does not match the state")
    if abs(float(np.vdot(psi0, direction).real)) > 1e-10:
        raise ValueError("direction must be tangent to the unit sphere "
                         "(Re<psi0, direction> = 0 within 1e-10)")
    inv, cond = _factor_bordered(g, [psi0], [steady])
    dv = 2.0 * (psi0.real * direction.real + psi0.imag * direction.imag)
    d_v = _dF_dparams(g.edges, steady.psi_inf, steady.gamma)[g.n_edges:]
    return SensitivityResult(inv[0] @ -(dv @ d_v), "implicit", float(cond[0]))


def fd_oracle(g: WeightedGraph, psi0: np.ndarray, config: NlseConfig,
              param: tuple[str, object], h: float = 1e-5,
              solver: Callable[..., SteadyState] | None = None,
              ) -> SensitivityResult:
    """Central finite differences of gauge-aligned steady states.

    ``param`` is ("w", edge) or ("psi0", direction).  Both perturbed states
    are aligned to the unperturbed one, so the difference quotient lives on
    the same phase slice as the implicit solve.  ``solver`` is injectable
    for testing the difference scheme itself.  By default each state is a
    cold batch of one: an engine would warm-start a weight-perturbed row
    from the base state, which shares its input.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    solve = solver if solver is not None else (
        lambda gp, p, cfg: solve_steady_state_many([gp], [p], cfg)[0])
    psi0 = validate_scalar_field(g, psi0)
    kind, spec = param
    if kind == "w":
        edge = (min(spec), max(spec))
        idx = g.edge_index()[edge]
        w = np.array(g.weights)
        problems = []
        for sign in (+1.0, -1.0):
            wp = w.copy()
            wp[idx] += sign * h
            if wp[idx] <= 0:
                raise ValueError(f"perturbed weight {wp[idx]} not positive")
            problems.append((g.with_weights(wp), psi0))
    elif kind == "psi0":
        direction = np.asarray(spec, dtype=complex)
        problems = []
        for sign in (+1.0, -1.0):
            p = psi0 + sign * h * direction
            problems.append((g, p / np.linalg.norm(p)))
    else:
        raise ValueError(f"unknown parameter kind {kind!r}")

    base = solve(g, psi0, config)
    if not base.converged:
        raise RuntimeError("base steady-state solve did not converge")
    aligned = []
    for gp, pp in problems:
        out = solve(gp, pp, config)
        if not out.converged:
            raise RuntimeError("perturbed steady-state solve did not converge")
        aligned.append(gauge_align(out.psi_inf, base.psi_inf))
    quotient = (aligned[0] - aligned[1]) / (2.0 * h)
    return SensitivityResult(realify(quotient), "finite_difference", 1.0)


def steady_state_adjoint(g: WeightedGraph, psi0s: Sequence[np.ndarray],
                         steadies: Sequence[SteadyState],
                         cotangents: np.ndarray) -> np.ndarray:
    """Adjoint states: the transposed bordered inverses times loss cotangents.

    Given d(loss)/d(psi_inf) per state as a realified 2N vector, returns lam
    (B, 2N) such that state k's loss gradient in any parameter p is
    -lam[k] . realify(dF/dp): one product prices every direction.
    """
    inv, _ = _factor_bordered(g, psi0s, steadies)
    cot = np.asarray(cotangents, dtype=float)[..., None]
    return (inv.transpose(0, 2, 1) @ cot)[..., 0]


def weight_gradients(g: WeightedGraph, psi0s: Sequence[np.ndarray],
                     steadies: Sequence[SteadyState],
                     cotangents: np.ndarray) -> np.ndarray:
    """Loss gradients (B, E) in every edge weight via the adjoint states."""
    return edge_gradients(g, psi0s, steadies, cotangents, g.edges)


def edge_gradients(g: WeightedGraph, psi0s: Sequence[np.ndarray],
                   steadies: Sequence[SteadyState], cotangents: np.ndarray,
                   edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Loss gradients (B, K) in the weights of the K ``edges`` of ``g`` alone."""
    if len(edges) == 0:
        return np.zeros((len(steadies), 0))
    lam = steady_state_adjoint(g, psi0s, steadies, cotangents)
    d_w = _dF_dparams(edges, *_states(steadies))[:, :len(edges)]
    return -(d_w @ lam[..., None])[..., 0]


def potential_gradient(g: WeightedGraph, psi0s: Sequence[np.ndarray],
                       steadies: Sequence[SteadyState],
                       cotangents: np.ndarray) -> np.ndarray:
    """Loss gradients (B, N) in the frozen potential via the adjoint states."""
    lam = steady_state_adjoint(g, psi0s, steadies, cotangents)
    d_v = _dF_dparams(g.edges, *_states(steadies))[:, g.n_edges:]
    return -(d_v @ lam[..., None])[..., 0]
