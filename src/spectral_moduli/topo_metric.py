"""Synthetic ground-truth manifolds and topology/metric validation.

A ground truth is a finite net on an analytically known manifold (circle,
disjoint circles, or a segment) together with exact geodesic distances, the
short-geodesic edge set E_true = {(u,v): 0 < d(u,v) < inj_radius}, reference
Betti numbers, and teacher edge weights w*(e) = 1/d(u,v).  Recovered graphs
are compared to the truth through exact component/cycle counts and an
additive metric-distortion report.

The teacher sampler turns a ground truth into a supervised data stream:
inputs are unit-norm bump fields centered at net vertices (optionally
noise-perturbed), targets are a fixed gauge-invariant readout of the hidden
steady state computed on the teacher graph, one batched steady solve per
batch of inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .graph_core import WeightedGraph, build_graph
from .dynamics import NlseConfig
from .moduli import SteadySolveEngine

__all__ = [
    "ManifoldSpec",
    "GroundTruth",
    "DistortionReport",
    "PopulationReadout",
    "TeacherSampler",
    "build_ground_truth",
    "betti_numbers",
    "graph_metric",
    "distortion_report",
    "noisy_input_stream",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ManifoldSpec:
    """A sampled synthetic manifold.

    ``kind`` is "circle", "disjoint_circles", or "segment".  ``radii`` lists
    one radius per circle (ignored for segments); ``length`` is the segment
    length.  ``n_net_points`` counts net points per circle (or in total on a
    segment); ``noise_delta`` jitters net points along the manifold.
    """

    kind: str = "circle"
    radii: tuple[float, ...] = (1.0,)
    length: float = 3.0
    n_net_points: int = 4
    noise_delta: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("circle", "disjoint_circles", "segment"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.kind == "circle" and len(self.radii) != 1:
            raise ValueError("a single circle takes exactly one radius")
        if any(r <= 0 for r in self.radii) or self.length <= 0:
            raise ValueError("radii and length must be positive")
        if self.kind in ("circle", "disjoint_circles") and self.n_net_points < 3:
            raise ValueError("need at least 3 net points per circle")
        if self.kind == "segment" and self.n_net_points < 2:
            raise ValueError("need at least 2 net points on a segment")
        if self.noise_delta < 0:
            raise ValueError("noise_delta must be nonnegative")


@dataclass(frozen=True)
class GroundTruth:
    """Net points, exact geodesics, true edge set, and teacher weights."""

    spec: ManifoldSpec
    net_points: np.ndarray
    geodesic_dist: np.ndarray
    inj_radius: float
    e_true: tuple[tuple[int, int], ...]
    betti: tuple[int, int]
    teacher_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.net_points.shape[0]

    @property
    def nearest_gaps(self) -> np.ndarray:
        """Geodesic distance from each net point to its nearest neighbor."""
        finite = np.where(np.isfinite(self.geodesic_dist),
                          self.geodesic_dist, np.nan)
        np.fill_diagonal(finite, np.nan)
        return np.nanmin(finite, axis=1)

    @property
    def default_bump_width(self) -> float:
        """Mean nearest-neighbor gap: the teacher's default bump width."""
        return float(np.nanmean(self.nearest_gaps))

    def teacher_graph(self) -> WeightedGraph:
        """The reference point of the moduli space: (E_true, w*)."""
        triples = [(u, v, w) for (u, v), w in
                   zip(self.e_true, self.teacher_weights)]
        return build_graph(self.n, triples)


def _circle_arcs(rng, n_pts: int, radius: float, delta: float) -> np.ndarray:
    """Arc-length positions of a jittered equally spaced circle net."""
    base = 2.0 * np.pi * radius * np.arange(n_pts) / n_pts
    if delta > 0:
        base = base + rng.uniform(-delta, delta, size=n_pts)
    return np.mod(base, 2.0 * np.pi * radius)


def build_ground_truth(spec: ManifoldSpec, inj_radius: float) -> GroundTruth:
    """Sample a net, compute exact geodesics, and derive E_true and w* = 1/d.

    Geodesic distances are analytic: arc length on each circle, coordinate
    difference on a segment, infinite across components.  A warning is
    logged when ``inj_radius`` is too small to connect consecutive net
    points (the true edge set would then disconnect a connected manifold).
    """
    if inj_radius <= 0:
        raise ValueError("inj_radius must be positive")
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "segment":
        xs = np.linspace(0.0, spec.length, spec.n_net_points)
        if spec.noise_delta > 0:
            xs = np.sort(np.clip(
                xs + rng.uniform(-spec.noise_delta, spec.noise_delta,
                                 size=xs.shape), 0.0, spec.length))
        pts = np.zeros((spec.n_net_points, 2))
        pts[:, 0] = xs
        dist = np.abs(xs[:, None] - xs[None, :])
        betti = (1, 0)
    else:
        radii = spec.radii
        n_per = spec.n_net_points
        total = n_per * len(radii)
        pts = np.zeros((total, 2))
        dist = np.full((total, total), np.inf)
        max_r = max(radii)
        for k, radius in enumerate(radii):
            sl = slice(k * n_per, (k + 1) * n_per)
            arcs = _circle_arcs(rng, n_per, radius, spec.noise_delta)
            theta = arcs / radius
            center_x = 3.0 * max_r * k
            pts[sl, 0] = center_x + radius * np.cos(theta)
            pts[sl, 1] = radius * np.sin(theta)
            gap = np.abs(arcs[:, None] - arcs[None, :])
            circumference = 2.0 * np.pi * radius
            dist[sl, sl] = np.minimum(gap, circumference - gap)
        np.fill_diagonal(dist, 0.0)
        betti = (len(radii), len(radii))

    e_true = []
    weights = []
    n = pts.shape[0]
    for u in range(n):
        for v in range(u + 1, n):
            d = dist[u, v]
            if np.isfinite(d) and 0.0 < d < inj_radius:
                e_true.append((u, v))
                weights.append(1.0 / d)
    truth = GroundTruth(spec, pts, dist, float(inj_radius), tuple(e_true),
                        betti, np.asarray(weights))
    nearest = truth.nearest_gaps
    if np.any(nearest >= inj_radius):
        logger.warning(
            "inj_radius %.4g does not reach some nearest neighbors "
            "(max gap %.4g); E_true disconnects the net", inj_radius,
            float(np.nanmax(nearest)))
    return truth


def betti_numbers(g: WeightedGraph) -> tuple[int, int]:
    """Connected components and independent cycles (Euler count)."""
    b0 = len(g.components())
    b1 = g.n_edges - g.n + b0
    return b0, b1


def graph_metric(g: WeightedGraph) -> np.ndarray:
    """All-pairs shortest-path distances with edge length 1/w(e).

    Dense Floyd–Warshall: relax every pair through each vertex k in turn.
    Returns a symmetric matrix with zero diagonal and ``inf`` between
    components.
    """
    lengths = g.adjacency_matrix(values=1.0 / np.asarray(g.weights))
    d = np.where(lengths > 0, lengths, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


@dataclass(frozen=True)
class DistortionReport:
    """Additive metric distortion of a recovered graph against the truth."""

    max_additive_distortion: float
    gh_upper_bound: float
    betti: tuple[int, int]


def distortion_report(g: WeightedGraph, truth: GroundTruth) -> DistortionReport:
    """Worst pairwise gap between the graph metric and the true geodesics.

    Pairs that are disconnected on exactly one side contribute an infinite
    distortion; pairs disconnected on both sides contribute nothing.  The
    reported bound is a one-sided correspondence surrogate (exact two-sided
    distance computation is intractable): half the worst pair gap plus the
    net's covering slack (half the largest nearest-neighbor geodesic gap,
    plus the net jitter).
    """
    if g.n != truth.n:
        raise ValueError(f"graph has {g.n} vertices, truth has {truth.n}")
    dg = graph_metric(g)
    dt = truth.geodesic_dist
    both_inf = ~np.isfinite(dg) & ~np.isfinite(dt)
    with np.errstate(invalid="ignore"):
        gap = np.abs(dg - dt)
    gap[both_inf] = 0.0
    gap[~np.isfinite(gap)] = np.inf
    max_distortion = float(gap.max()) if gap.size else 0.0

    covering = 0.5 * float(np.nanmax(truth.nearest_gaps))
    slack = covering + truth.spec.noise_delta
    return DistortionReport(max_distortion, 0.5 * max_distortion + slack,
                            betti_numbers(g))


class PopulationReadout:
    """Gauge-invariant linear readout of vertex populations.

    k(psi) = sum_j c_j |psi_j|^2 with fixed positive coefficients; invariant
    under global phase, so targets do not depend on the solver's phase.
    """

    def __init__(self, coefficients: np.ndarray):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if np.any(~np.isfinite(self.coefficients)):
            raise ValueError("readout coefficients must be finite")

    @classmethod
    def random(cls, n: int, seed: int) -> "PopulationReadout":
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(0.5, 1.5, size=n))

    def value(self, psi: np.ndarray) -> float:
        return float(np.sum(self.coefficients * np.abs(psi) ** 2))

    def cotangent(self, psi: np.ndarray) -> np.ndarray:
        """d(value)/d[Re psi; Im psi] as a realified 2N vector."""
        return np.concatenate([2.0 * self.coefficients * psi.real,
                               2.0 * self.coefficients * psi.imag])


def noisy_input_stream(base_inputs: Sequence, noise_delta: float, seed: int):
    """Seeded stream of unit fields: random base input plus a bounded kick.

    Each draw picks one base input uniformly, adds a complex perturbation of
    norm at most ``noise_delta`` times a uniform draw, and renormalizes.
    Targets are placeholder zeros -- ``TeacherSampler`` and
    ``fann_model.model_teacher_sampler`` label them.
    """
    base = [np.asarray(x, dtype=complex) for x in base_inputs]
    if not base:
        raise ValueError("need at least one base input")
    if noise_delta < 0:
        raise ValueError("noise_delta must be nonnegative")
    rng = np.random.default_rng(seed)
    n = base[0].size

    def draw(batch_size: int):
        out = []
        for _ in range(batch_size):
            x = base[int(rng.integers(len(base)))]
            if noise_delta > 0:
                kick = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                kick *= noise_delta * rng.uniform() / np.linalg.norm(kick)
                x = x + kick
                x = x / np.linalg.norm(x)
            out.append((x, 0.0))
        return out

    return draw


class TeacherSampler:
    """Deterministic stream of (bump field, teacher readout) samples.

    X is the unit-normalized Gaussian bump exp(-d(v,.)^2 / (2 s^2)) centered
    at a uniformly chosen net vertex, with an optional noise perturbation of
    L2 size at most ``noise_delta`` (default 0: the canonical bumps exactly)
    before renormalization (drawn by ``noisy_input_stream``); that kick is
    not the net jitter ``truth.spec.noise_delta``.  y is the readout of the
    steady state computed on the teacher graph; each batch is labelled by
    one call to the sampler's own ``SteadySolveEngine``.
    """

    def __init__(self, truth: GroundTruth, readout: PopulationReadout,
                 config: NlseConfig, seed: int, bump_width: float | None = None,
                 noise_delta: float = 0.0):
        self.truth = truth
        self.readout = readout
        self.config = config
        self.seed = seed
        self.graph = truth.teacher_graph()
        self.bump_width = (truth.default_bump_width if bump_width is None
                           else float(bump_width))
        if not (np.isfinite(self.bump_width) and self.bump_width > 0):
            raise ValueError(f"bump_width must be finite and positive, "
                             f"got {self.bump_width}")
        self.noise_delta = float(noise_delta)
        self._engine = SteadySolveEngine(config)
        self._bumps = [self.canonical_bump(v) for v in range(truth.n)]
        self._stream = noisy_input_stream(self._bumps, self.noise_delta, seed)

    def canonical_bump(self, vertex: int) -> np.ndarray:
        """Noise-free unit bump centered at a net vertex."""
        d = self.truth.geodesic_dist[vertex]
        x = np.where(np.isfinite(d),
                     np.exp(-d ** 2 / (2.0 * self.bump_width ** 2)), 0.0)
        x = x.astype(complex)
        return x / np.linalg.norm(x)

    def _label(self, xs: list) -> list[tuple[np.ndarray, float]]:
        steadies = self._engine.solve_many([(self.graph, x) for x in xs])
        if not all(st.converged for st in steadies):
            raise RuntimeError("teacher steady-state solve did not converge")
        return [(x, self.readout.value(st.psi_inf))
                for x, st in zip(xs, steadies)]

    def __call__(self, batch_size: int) -> list[tuple[np.ndarray, float]]:
        return self._label([x for x, _ in self._stream(batch_size)])

    def exact(self) -> list[tuple[np.ndarray, float]]:
        """All canonical bumps once each: the deterministic full batch."""
        return self._label(self._bumps)

    def exact_sampler(self) -> Callable[[int], list[tuple[np.ndarray, float]]]:
        """A sampler that always returns the full canonical batch."""
        batch = self.exact()
        return lambda batch_size: batch
