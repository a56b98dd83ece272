"""Weighted graphs, discrete differential operators, and graph Sobolev norms.

A graph holds N vertices, undirected weighted edges, a positive vertex
measure ``mu`` and a positive edge measure ``rho``.  Scalar fields are
complex vectors indexed by vertex, spin fields are (N, 3) real arrays, and
edge fields live on canonically oriented edges (u < v) with values that are
antisymmetric under orientation flip.

Two Laplacian conventions coexist on purpose:

* the coupling Laplacian ``(L f)_i = sum_j w_ij (f_i - f_j)`` (positive
  semidefinite, edge weights ``w``), used by every dynamical system;
* the measure Laplacian ``(D f)(v) = (1/mu(v)) sum_e rho(e) (f(u) - f(v))``
  (negative semidefinite), used by the H^2 norm and by the norm-equivalence
  constants.

They differ by sign and by which edge data they read; the quadratic-form
identity ``sum_e rho(e) |f(u)-f(v)|^2 = -<D f, f>_mu`` ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "DimensionMismatchError",
    "WeightedGraph",
    "EdgeField",
    "NormEquivalenceReport",
    "build_graph",
    "single_vertex_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "validate_scalar_field",
    "validate_scalar_fields",
    "validate_real_field",
    "validate_spin_field",
    "discrete_gradient",
    "laplacian_apply",
    "norm_l2",
    "norm_h1",
    "norm_h2",
    "spin_norms",
    "norm_equivalence_report",
    "graph_to_dict",
    "graph_from_dict",
]


class GraphError(ValueError):
    """Invalid graph construction or malformed graph data."""


class DimensionMismatchError(GraphError):
    """A field does not match the graph it is paired with."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with vertex measure mu and edge measure rho.

    Edges are stored canonically: each unordered pair appears once as
    ``(u, v)`` with ``u < v``, sorted lexicographically.  ``weights`` is the
    dynamical coupling w(e) > 0; ``rho`` is the (independent) edge measure
    entering norms, defaulting to 1.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray
    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={self.n}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not canonically oriented")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "mu", _readonly(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "rho", _readonly(np.asarray(self.rho, dtype=float)))
        if self.weights.shape != (len(self.edges),):
            raise GraphError("one weight per edge required")
        if self.rho.shape != (len(self.edges),):
            raise GraphError("one rho value per edge required")
        if self.mu.shape != (self.n,):
            raise GraphError("one mu value per vertex required")
        for name, vals in (("edge weights", self.weights),
                           ("edge measure rho", self.rho),
                           ("vertex measure mu", self.mu)):
            if not np.all((vals > 0) & (vals < np.inf)):
                raise GraphError(f"{name} must be positive and finite")

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def degrees(self) -> np.ndarray:
        """Combinatorial (unweighted) vertex degrees."""
        deg = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, sorted by minimum vertex."""
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(c) for c in
                     sorted(groups.values(), key=lambda c: c[0]))

    # -- dense operators --------------------------------------------------

    def adjacency_matrix(self, values: np.ndarray | None = None) -> np.ndarray:
        """Symmetric matrix carrying per-edge ``values`` (default: weights)."""
        vals = self.weights if values is None else np.asarray(values, dtype=float)
        a = np.zeros((self.n, self.n))
        for k, (u, v) in enumerate(self.edges):
            a[u, v] = vals[k]
            a[v, u] = vals[k]
        return a

    def coupling_laplacian(self) -> np.ndarray:
        """Dense PSD matrix of (L f)_i = sum_j w_ij (f_i - f_j)."""
        w = self.adjacency_matrix()
        return np.diag(w.sum(axis=1)) - w

    def measure_laplacian(self) -> np.ndarray:
        """Dense matrix of (D f)(v) = (1/mu(v)) sum_{e=(v,u)} rho(e) (f(u) - f(v)).

        Negative semidefinite with respect to the mu-weighted inner product.
        """
        r = self.adjacency_matrix(self.rho)
        return (r - np.diag(r.sum(axis=1))) / self.mu[:, None]

    # -- derived graphs ---------------------------------------------------

    def with_weights(self, new_weights: np.ndarray) -> "WeightedGraph":
        return WeightedGraph(self.n, self.edges, np.asarray(new_weights, dtype=float),
                             self.mu, self.rho)

    def with_edge(self, pair: tuple[int, int], weight: float,
                  rho: float = 1.0) -> "WeightedGraph":
        """New graph with one extra edge (error if already present)."""
        u, v = min(pair), max(pair)
        if (u, v) in self.edge_index():
            raise GraphError(f"edge ({u}, {v}) already present")
        triples = [(a, b, w) for (a, b), w in zip(self.edges, self.weights)]
        triples.append((u, v, weight))
        return build_graph(self.n, triples, mu=self.mu,
                           rho=list(self.rho) + [rho])


def build_graph(n: int,
                edges: Iterable[tuple[int, int, float]],
                mu: Sequence[float] | None = None,
                rho: Sequence[float] | None = None) -> WeightedGraph:
    """Construct a graph from (u, v, w) triples, canonicalizing edge order.

    ``rho`` follows the order of ``edges`` and is permuted along with them.
    """
    triples = [((min(u, v), max(u, v)), float(w)) for u, v, w in edges]
    if rho is None:
        rho = np.ones(len(triples))
    elif len(rho) != len(triples):
        raise GraphError("one rho value per edge required")
    order = sorted(range(len(triples)), key=lambda k: triples[k][0])
    pairs = tuple(triples[k][0] for k in order)
    weights = np.array([triples[k][1] for k in order], dtype=float)
    rho_arr = np.array([float(rho[k]) for k in order], dtype=float)
    mu_arr = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    return WeightedGraph(n, pairs, weights, mu_arr, rho_arr)


def single_vertex_graph() -> WeightedGraph:
    return build_graph(1, [])


def path_graph(n: int, w: float = 1.0) -> WeightedGraph:
    return build_graph(n, [(i, i + 1, w) for i in range(n - 1)])


def cycle_graph(n: int, w: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n, w) for i in range(n)])


def complete_graph(n: int, w: float = 1.0) -> WeightedGraph:
    return build_graph(n, [(i, j, w) for i in range(n) for j in range(i + 1, n)])


# -- fields ---------------------------------------------------------------


def validate_scalar_field(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (g.n,):
        raise DimensionMismatchError(
            f"scalar field has shape {f.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(f.view(float))):
        raise DimensionMismatchError("scalar field contains non-finite entries")
    return f


def validate_scalar_fields(g: WeightedGraph, fs: Sequence) -> np.ndarray:
    """Scalar fields as one (B, N) complex stack, checked at once."""
    arrs = [np.asarray(f, dtype=complex) for f in fs]
    stack = np.stack(arrs) if all(a.shape == (g.n,) for a in arrs) else None
    if stack is None or not np.isfinite(stack.view(float)).all():
        for a in arrs:  # raises what the first bad field raises alone
            validate_scalar_field(g, a)
    return stack


def validate_real_field(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise DimensionMismatchError(
            f"real field has shape {f.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(f)):
        raise DimensionMismatchError("real field contains non-finite entries")
    return f


def validate_spin_field(g: WeightedGraph, s: np.ndarray,
                        unit_tol: float | None = None) -> np.ndarray:
    """Check an (N, 3) real spin field; optionally require unit row norms."""
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n, 3):
        raise DimensionMismatchError(
            f"spin field has shape {s.shape}, expected ({g.n}, 3)")
    if not np.all(np.isfinite(s)):
        raise DimensionMismatchError("spin field contains non-finite entries")
    if unit_tol is not None:
        dev = np.abs(np.linalg.norm(s, axis=1) - 1.0).max()
        if dev > unit_tol:
            raise DimensionMismatchError(
                f"spin norms deviate from 1 by {dev:.3e} (tol {unit_tol:.1e})")
    return s


@dataclass(frozen=True)
class EdgeField:
    """One complex value per canonical edge, antisymmetric under flip.

    ``values[k]`` is the value on the stored orientation (u -> v, u < v);
    evaluating on (v, u) negates it, so antisymmetry is exact by
    construction.
    """

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(
                f"edge field has shape {vals.shape}, expected ({self.graph.n_edges},)")
        object.__setattr__(self, "values", _readonly(vals))

    def value(self, u: int, v: int) -> complex:
        idx = self.graph.edge_index()
        if (min(u, v), max(u, v)) not in idx:
            raise GraphError(f"({u}, {v}) is not an edge")
        k = idx[(min(u, v), max(u, v))]
        return complex(self.values[k]) if u < v else -complex(self.values[k])


def discrete_gradient(g: WeightedGraph, f: np.ndarray) -> EdgeField:
    """(df)(u -> v) = f(v) - f(u) on each canonical edge."""
    f = validate_scalar_field(g, f)
    if g.n_edges == 0:
        return EdgeField(g, np.zeros(0, dtype=complex))
    u_idx = np.array([u for u, _ in g.edges])
    v_idx = np.array([v for _, v in g.edges])
    return EdgeField(g, f[v_idx] - f[u_idx])


def laplacian_apply(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """(L f)_i = sum_j w_ij (f_i - f_j), the coupling convention."""
    f = validate_scalar_field(g, f)
    out = np.zeros(g.n, dtype=complex)
    for (u, v), w in zip(g.edges, g.weights):
        d = f[u] - f[v]
        out[u] += w * d
        out[v] -= w * d
    return out


# -- norms ----------------------------------------------------------------


def norm_l2(g: WeightedGraph, f: np.ndarray) -> float:
    """mu-weighted L2 norm of a scalar field."""
    f = validate_scalar_field(g, f)
    return float(np.sqrt(np.sum(g.mu * np.abs(f) ** 2)))


def _edge_energy(g: WeightedGraph, f: np.ndarray) -> float:
    """sum over canonical edges of rho(e) |f(u) - f(v)|^2."""
    if g.n_edges == 0:
        return 0.0
    df = discrete_gradient(g, f).values
    return float(np.sum(g.rho * np.abs(df) ** 2))


def norm_h1(g: WeightedGraph, f: np.ndarray) -> float:
    """H^1 norm: L2 part plus the rho-weighted edge-difference energy."""
    return float(np.sqrt(norm_l2(g, f) ** 2 + _edge_energy(g, f)))


def norm_h2(g: WeightedGraph, f: np.ndarray) -> float:
    """H^2 norm: L2 part plus the L2 norm of the measure Laplacian of f."""
    f = validate_scalar_field(g, f)
    lap = g.measure_laplacian() @ f
    return float(np.sqrt(norm_l2(g, f) ** 2 + np.sum(g.mu * np.abs(lap) ** 2)))


def spin_norms(g: WeightedGraph, s: np.ndarray) -> tuple[float, float, float]:
    """(L2, H1, H2) norms of a spin field.

    The vector-field ladder is cumulative: the H1 edge term carries a 1/2
    factor, and H2 adds the measure-Laplacian energy on top of H1 (so
    L2 <= H1 <= H2 holds for every spin field).
    """
    s = validate_spin_field(g, s)
    l2_sq = float(np.sum(g.mu * np.sum(s ** 2, axis=1)))
    edge = 0.0
    for k, (u, v) in enumerate(g.edges):
        edge += g.rho[k] * float(np.sum((s[u] - s[v]) ** 2))
    h1_sq = l2_sq + 0.5 * edge
    lap = g.measure_laplacian() @ s
    h2_sq = h1_sq + float(np.sum(g.mu * np.sum(lap ** 2, axis=1)))
    return (float(np.sqrt(l2_sq)), float(np.sqrt(h1_sq)), float(np.sqrt(h2_sq)))


@dataclass(frozen=True)
class NormEquivalenceReport:
    """Closed-form norm-equivalence constants and sampled spin-field ratios.

    c2 bounds H1/L2 and c4 bounds H2/H1 for vector (spin) fields; the
    empirical maxima come from ``n_samples`` Gaussian spin fields.
    ``violations`` counts sampled ratios exceeding their bound beyond a
    1e-12 relative guard.
    """

    c2: float
    c4: float
    max_ratio_h1_l2: float
    max_ratio_h2_h1: float
    n_samples: int
    violations: int


def _measure_laplacian_opnorm(g: WeightedGraph) -> float:
    """Operator norm of the measure Laplacian on L2(mu).

    Computed as the largest singular value of the dense matrix conjugated by
    sqrt(mu), which reduces to the plain largest singular value when mu = 1.
    """
    m = g.measure_laplacian()
    root = np.sqrt(g.mu)
    symmetrized = root[:, None] * m / root[None, :]
    return float(np.linalg.norm(symmetrized, 2))


def norm_equivalence_report(g: WeightedGraph, n_samples: int = 200,
                            seed: int = 0) -> NormEquivalenceReport:
    """Check L2 <= H1 <= c2 L2 and H1 <= H2 <= c4 H1 on random spin fields.

    c2 = sqrt(1 + rho_max deg_max / mu_min) and c4 = sqrt(1 + |D|^2) with
    |D| the L2(mu) operator norm of the measure Laplacian.
    """
    deg_max = int(g.degrees().max()) if g.n else 0
    rho_max = float(g.rho.max()) if g.n_edges else 0.0
    c2 = float(np.sqrt(1.0 + rho_max * deg_max / g.mu.min()))
    c4 = float(np.sqrt(1.0 + _measure_laplacian_opnorm(g) ** 2))
    rng = np.random.default_rng(seed)
    max_r21 = 1.0 if g.n_edges == 0 else 0.0
    max_r42 = 1.0
    violations = 0
    guard = 1.0 + 1e-12
    for _ in range(n_samples):
        s = rng.standard_normal((g.n, 3))
        l2, h1, h2 = spin_norms(g, s)
        r21 = h1 / l2
        r42 = h2 / h1
        max_r21 = max(max_r21, r21)
        max_r42 = max(max_r42, r42)
        if r21 > c2 * guard or r42 > c4 * guard or l2 > h1 * guard or h1 > h2 * guard:
            violations += 1
    return NormEquivalenceReport(c2, c4, max_r21, max_r42, n_samples, violations)


# -- serialization --------------------------------------------------------


def graph_to_dict(g: WeightedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[int(u), int(v), float(w)]
                  for (u, v), w in zip(g.edges, g.weights)],
        "mu": [float(x) for x in g.mu],
        "rho": [float(x) for x in g.rho],
    }


def _count(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer >= ``least`` (4.0 counts as
    4), else a ValueError naming ``name``."""
    try:  # int() rejects NaN and ±inf and keeps ints of any size
        whole = int(value) == value >= least
    except (ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def _exact(x, what: str, real: bool = False):
    """``x`` if it is an integer (``real``: a real number) and not a bool:
    a number of a graph dictionary is never truncated or cast."""
    kinds = (int, np.integer) + ((float, np.floating) if real else ())
    if isinstance(x, bool) or not isinstance(x, kinds):
        raise ValueError(f"{what} {x!r} is not "
                         + ("a real number" if real else "an integer"))
    return x


def graph_from_dict(d: dict) -> WeightedGraph:
    """The graph of a ``graph_to_dict`` dictionary.  Its vertex count and
    endpoints must be integers, and its weights, ``mu`` and ``rho`` real
    numbers; any other value is a GraphError."""
    try:
        n = int(_exact(d["n"], "vertex count"))
        triples = [(int(_exact(u, "edge endpoint")),
                    int(_exact(v, "edge endpoint")),
                    float(_exact(w, "edge weight", real=True)))
                   for u, v, w in d["edges"]]
        mu, rho = (None if d.get(k) is None else
                   [_exact(x, k, real=True) for x in d[k]]
                   for k in ("mu", "rho"))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph dictionary: {exc}") from exc
    return build_graph(n, triples, mu=mu, rho=rho)
