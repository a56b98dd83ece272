"""Stochastic descent over the stratified space of weighted graphs.

The search space is the disjoint union of strata, one per edge set, each
carrying the positive weights of its edges.  A descent step does three
things with one mini-batch: (i) updates every existing weight with the
batch gradient of the regularized loss, (ii) tests every absent edge by
grafting it at the probe weight and measuring the batch gradient there —
sufficiently negative test gradients trigger addition at twice the probe
weight, and (iii) prunes edges whose updated weight fell below the probe
weight.  Gradients flow through the steady state of the dissipative flow
via the adjoint solve, so one linear solve per (graph, input) pair prices
every edge simultaneously.

Instrumentation records every visited stratum, all add/prune events, and
the per-iteration test gradients, so the add/prune rules can be replayed
and audited after a run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .dynamics import NlseConfig, SteadyState, solve_steady_state_many
from .graph_core import GraphError, WeightedGraph, build_graph
from .sensitivity import NonIsolatedSteadyStateError, weight_gradients

__all__ = [
    "LossEvaluationError",
    "OptimizerConfig",
    "ModuliPoint",
    "Batch",
    "LossBreakdown",
    "IterationRecord",
    "StrataLog",
    "StrataSummary",
    "StepEvents",
    "SteadySolveEngine",
    "regularized_loss",
    "stochastic_gradient",
    "descent_step",
    "run",
    "visited_strata_count",
    "write_strata_jsonl",
    "random_point",
    "chebyshev_schedule",
]


class LossEvaluationError(RuntimeError):
    """A steady-state solve inside a loss/gradient evaluation failed."""


DEFAULT_STEADY = NlseConfig(dt=2e-2, steady_tol=1e-9, t_max=2000.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyper-parameters of the graph descent loop.

    ``step_size`` is a constant or a per-iteration schedule.  Absent edges
    are probed at ``prune_threshold`` and added at twice that weight when
    the probe gradient drops below ``-add_threshold``; updated weights
    below ``prune_threshold`` are removed.  ``candidate_fraction`` < 1
    subsamples the probe set uniformly each iteration (cost relaxation,
    logged through the recorded test gradients).
    """

    iterations: int = 100
    init_edge_prob: float = 1.0
    prune_threshold: float = 0.05
    add_threshold: float = 0.05
    step_size: float | tuple[float, ...] = 0.05
    batch_size: int = 8
    l1_coeff: float = 1e-5
    l2_coeff: float = 1e-5
    seed: int = 0
    candidate_fraction: float = 1.0
    stall_tol: float = 1e-10
    stall_iters: int = 10
    steady: NlseConfig = field(default_factory=lambda: DEFAULT_STEADY)
    probe_t_max: float | None = None

    def __post_init__(self) -> None:
        for name, least in (("iterations", 0), ("batch_size", 1),
                            ("stall_iters", 1)):
            value = getattr(self, name)
            if not (np.isfinite(value) and int(value) == value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not 0.0 < self.init_edge_prob <= 1.0:
            raise ValueError("init_edge_prob must lie in (0, 1]")
        if not 0.0 < self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in (0, 1)")
        if not 0.0 < self.add_threshold < 1.0:
            raise ValueError("add_threshold must lie in (0, 1)")
        steps = np.atleast_1d(np.asarray(self.step_size, dtype=float))
        if steps.size == 0 or not np.all((steps > 0) & np.isfinite(steps)):
            raise ValueError("step sizes must be positive and finite")
        if not all(0.0 <= x < np.inf for x in (self.l1_coeff, self.l2_coeff,
                                                self.stall_tol)):
            raise ValueError("l1_coeff, l2_coeff, stall_tol must be finite, >= 0")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise ValueError("candidate_fraction must lie in (0, 1]")
        if self.probe_t_max is not None and not 0.0 < self.probe_t_max < np.inf:
            raise ValueError("probe_t_max must be positive and finite")

    def step_size_at(self, t: int) -> float:
        if np.isscalar(self.step_size):
            return float(self.step_size)
        sched = tuple(self.step_size)
        return float(sched[min(t, len(sched) - 1)])


@dataclass(frozen=True)
class ModuliPoint:
    """A point of the moduli space: an edge set with positive weights."""

    graph: WeightedGraph

    @property
    def edge_set(self) -> tuple[tuple[int, int], ...]:
        return self.graph.edges


def random_point(n: int, config: OptimizerConfig,
                 rng: np.random.Generator | None = None) -> ModuliPoint:
    """Initial point: each edge present with probability p, weight one."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    triples = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
               if rng.random() < config.init_edge_prob]
    return ModuliPoint(build_graph(n, triples))


@dataclass(frozen=True)
class Batch:
    """Mini-batch of (input field, target) pairs with uniform dimension."""

    xs: tuple
    ys: tuple

    def __post_init__(self) -> None:
        if len(self.xs) == 0:
            raise ValueError("batch must be nonempty")
        if len(self.xs) != len(self.ys):
            raise ValueError("inputs and targets must pair up")
        dims = {np.asarray(x).shape for x in self.xs}
        if len(dims) != 1:
            raise ValueError("batch inputs must share one dimension")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[np.ndarray, float]]) -> "Batch":
        pairs = list(pairs)
        return cls(tuple(np.asarray(x, dtype=complex) for x, _ in pairs),
                   tuple(float(y) for _, y in pairs))

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class LossBreakdown:
    """Regularized loss and its decomposition."""

    data: float
    l2: float
    l1: float

    @property
    def total(self) -> float:
        return self.data + self.l2 + self.l1


class SteadySolveEngine:
    """Batch front-end for the steady-state solver, which every steady
    solve of the package goes through.  One call solves each distinct
    (graph, input) job once, from the last converged state of the same
    input; these warm starts make the descent loop's repeated solves cheap.
    ``solve_fn`` replaces the batched solver, per job, for tests.
    """

    def __init__(self, config: NlseConfig,
                 solve_fn: Callable[..., SteadyState] | None = None):
        self.config = config
        self._solve_fn = solve_fn
        self._warm: dict[bytes, np.ndarray] = {}

    def solve_many(self, jobs: Sequence[tuple[WeightedGraph, np.ndarray]],
                   t_max: float | None = None) -> list[SteadyState]:
        config = (self.config if t_max is None
                  else dataclasses.replace(self.config, t_max=t_max))
        keyed = [(g.key(), np.asarray(x).tobytes()) for g, x in jobs]
        first: dict[tuple, int] = {}
        for i, key in enumerate(keyed):
            first.setdefault(key, i)
        graphs = [jobs[i][0] for i in first.values()]
        xs = [np.asarray(jobs[i][1], dtype=complex) for i in first.values()]
        if not xs:
            solved = []
        elif self._solve_fn is not None:
            solved = [self._solve_fn(g, x, config) for g, x in zip(graphs, xs)]
        else:
            starts = [self._warm.get(key[1], x) for key, x in zip(first, xs)]
            solved = solve_steady_state_many(graphs, xs, config, starts=starts)
        states = dict(zip(first, solved))
        for key, st in states.items():
            if st.converged:
                self._warm[key[1]] = st.psi_inf
        return [states[key] for key in keyed]

    def solve(self, g: WeightedGraph, x: np.ndarray) -> SteadyState:
        return self.solve_many([(g, x)])[0]


def _group_by_input(batch: Batch) -> tuple[list, list[list[int]]]:
    """The distinct inputs of a batch and, for each, its sample indices."""
    groups: dict[bytes, list[int]] = {}
    xs = []
    for i, x in enumerate(batch.xs):
        key = np.asarray(x).tobytes()
        if key not in groups:
            groups[key] = []
            xs.append(np.asarray(x, dtype=complex))
        groups[key].append(i)
    return xs, list(groups.values())


def _batch_predictions(batch: Batch, readout, steadies: Sequence[SteadyState]
                       ) -> tuple[list[tuple[np.ndarray, list[int], SteadyState, float]], float]:
    """Readout predictions at the steady states ``steadies`` of the
    distinct inputs of the batch, in ``_group_by_input`` order.

    Returns the grouped records and the mean squared data loss; raises
    LossEvaluationError naming the first offending sample on failure.
    """
    records = []
    sq = 0.0
    for x, idx, st in zip(*_group_by_input(batch), steadies):
        if not st.converged:
            raise LossEvaluationError(
                f"steady-state solve did not converge for sample {idx[0]} "
                f"(residual {st.residual:.3e} at t={st.t_reached:.1f})")
        pred = readout.value(st.psi_inf)
        records.append((x, idx, st, pred))
        for i in idx:
            sq += (pred - batch.ys[i]) ** 2
    return records, sq / len(batch)


def _regularizer(weights: np.ndarray, config: OptimizerConfig
                 ) -> tuple[float, float]:
    l2 = 0.5 * config.l2_coeff * float(np.sum(weights ** 2))
    l1 = config.l1_coeff * float(np.sum(np.abs(weights)))
    return l2, l1


def regularized_loss(point: ModuliPoint, batch: Batch, readout,
                     config: OptimizerConfig,
                     engine: SteadySolveEngine | None = None) -> LossBreakdown:
    """Mean squared readout error plus L2/L1 weight penalties."""
    if engine is None:
        engine = SteadySolveEngine(config.steady)
    xs, _ = _group_by_input(batch)
    steadies = engine.solve_many([(point.graph, x) for x in xs])
    _, data = _batch_predictions(batch, readout, steadies)
    l2, l1 = _regularizer(point.graph.weights, config)
    return LossBreakdown(data, l2, l1)


def _data_weight_gradients(g: WeightedGraph, batch: Batch, readout,
                           steadies: Sequence[SteadyState]
                           ) -> tuple[np.ndarray, float]:
    """Batch-mean data-term gradient in every edge weight, plus data loss,
    at the states ``steadies`` of the distinct inputs on ``g``.

    The adjoint solve is shared across samples with the same input: the
    per-sample cotangent is 2 (pred - y) times a fixed readout cotangent,
    so the distinct inputs with a nonzero coefficient are priced in one
    batched call, and each gradient is rescaled and averaged.
    """
    records, data_loss = _batch_predictions(batch, readout, steadies)
    grad = np.zeros(g.n_edges)
    coeffs = [sum(2.0 * (pred - batch.ys[i]) for i in idx) / len(batch)
              for _, idx, _, pred in records]
    rows = [k for k, c in enumerate(coeffs) if c != 0.0] if g.n_edges else []
    if rows:
        sts = [records[k][2] for k in rows]
        bases = weight_gradients(g, [records[k][0] for k in rows], sts,
                                 [readout.cotangent(st.psi_inf) for st in sts])
        for k, base in zip(rows, bases):
            grad += coeffs[k] * base
    return grad, data_loss


def stochastic_gradient(point: ModuliPoint, batch: Batch,
                        edge: tuple[int, int], test_weight: float | None = None,
                        *, readout, config: OptimizerConfig,
                        engine: SteadySolveEngine | None = None,
                        steadies: Sequence[SteadyState] | None = None
                        ) -> float:
    """Batch gradient of the regularized loss in one edge weight.

    For an existing edge the gradient is taken on the current graph; for an
    absent edge ``test_weight`` grafts it in first (the probe used by the
    addition rule), and the probe graph is solved up to
    ``config.probe_t_max``, unless the caller passes its ``steadies``.
    """
    edge = (min(edge), max(edge))
    g = point.graph
    index = g.edge_index()
    if edge in index:
        if test_weight is not None:
            raise ValueError("test_weight only applies to absent edges")
        probe, t_max = g, None
        k = index[edge]
    else:
        if test_weight is None:
            raise GraphError(f"edge {edge} absent; provide test_weight")
        probe, t_max = g.with_edge(edge, float(test_weight)), config.probe_t_max
        k = probe.edge_index()[edge]
    if steadies is None:
        if engine is None:
            engine = SteadySolveEngine(config.steady)
        xs, _ = _group_by_input(batch)
        steadies = engine.solve_many([(probe, x) for x in xs], t_max=t_max)
    grad, _ = _data_weight_gradients(probe, batch, readout, steadies)
    w = probe.weights[k]
    return float(grad[k] + config.l2_coeff * w + config.l1_coeff)


@dataclass(frozen=True)
class StepEvents:
    """Everything one descent step did, sufficient to replay its rules."""

    added: tuple[tuple[int, int], ...]
    pruned: tuple[tuple[int, int], ...]
    loss: LossBreakdown
    edge_gradients: dict
    test_gradients: dict
    post_update_weights: dict
    skipped_candidates: tuple[tuple[int, int], ...] = ()


def _candidate_pairs(g: WeightedGraph, config: OptimizerConfig,
                     rng: np.random.Generator | None) -> list[tuple[int, int]]:
    present = set(g.edges)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if (u, v) not in present]
    if config.candidate_fraction < 1.0 and pairs:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        keep = max(1, int(np.ceil(config.candidate_fraction * len(pairs))))
        chosen = rng.choice(len(pairs), size=keep, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]
    return pairs


def descent_step(point: ModuliPoint, batch: Batch, config: OptimizerConfig,
                 t: int, *, readout,
                 engine: SteadySolveEngine | None = None,
                 rng: np.random.Generator | None = None
                 ) -> tuple[ModuliPoint, StepEvents]:
    """One simultaneous update: weight SGD, candidate tests, prune.

    All gradients use the same batch and the pre-step weights.  Candidate
    probes whose solves fail are skipped (recorded, never added); a failure
    on the current graph aborts the whole step by raising.
    """
    if engine is None:
        engine = SteadySolveEngine(config.steady)
    g = point.graph
    theta = config.prune_threshold
    xs, _ = _group_by_input(batch)

    data_grad, data_loss = _data_weight_gradients(
        g, batch, readout, engine.solve_many([(g, x) for x in xs]))
    l2, l1 = _regularizer(g.weights, config)
    grads = data_grad + config.l2_coeff * g.weights + config.l1_coeff
    eta = config.step_size_at(t)
    updated = np.maximum(g.weights - eta * grads, 0.0)
    post_update = dict(zip(g.edges, updated))
    edge_grads = dict(zip(g.edges, grads))

    candidates = _candidate_pairs(g, config, rng)
    # one pass solves every (probe graph, distinct input) pair.  It passes
    # t_max even when None: a trace tells the probe pass by it.
    probes = [g.with_edge(e, theta) for e in candidates]
    solved = engine.solve_many([(pg, x) for pg in probes for x in xs],
                               t_max=config.probe_t_max)
    test_grads: dict = {}
    added = []
    skipped = []
    for j, e in enumerate(candidates):
        try:
            ge = stochastic_gradient(
                point, batch, e, test_weight=theta, readout=readout,
                config=config, steadies=solved[j * len(xs):(j + 1) * len(xs)])
        except (LossEvaluationError, NonIsolatedSteadyStateError):
            test_grads[e] = float("nan")
            skipped.append(e)
            continue
        test_grads[e] = ge
        if ge < -config.add_threshold:
            added.append(e)

    keep = [(u, v, w) for (u, v), w in zip(g.edges, updated) if w >= theta]
    pruned = tuple(e for e, w in zip(g.edges, updated) if w < theta)
    new_graph = build_graph(g.n, keep + [(u, v, 2.0 * theta)
                                         for u, v in added])
    events = StepEvents(tuple(added), pruned,
                        LossBreakdown(data_loss, l2, l1), edge_grads,
                        test_grads, post_update, tuple(skipped))
    return ModuliPoint(new_graph), events


@dataclass(frozen=True)
class IterationRecord:
    """Post-step snapshot of one iteration, plus its audit trail."""

    t: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    added: tuple[tuple[int, int], ...]
    pruned: tuple[tuple[int, int], ...]
    loss: float | None
    events: StepEvents | None = None
    failed: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "edges": [list(e) for e in self.edges],
            "weights": list(self.weights),
            "added": [list(e) for e in self.added],
            "pruned": [list(e) for e in self.pruned],
            "loss": self.loss,
        }


@dataclass
class StrataLog:
    """Distinct visited strata and the per-iteration event stream."""

    visited: list = field(default_factory=list)
    records: list = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def visit(self, edges: tuple[tuple[int, int], ...], t: int) -> None:
        if edges not in self._seen:
            self._seen.add(edges)
            self.visited.append((edges, t))

    def record(self, rec: IterationRecord) -> None:
        self.records.append(rec)


def write_strata_jsonl(log: StrataLog, path) -> None:
    with open(path, "w") as fh:
        for rec in log.records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def run(config: OptimizerConfig, sampler, initial, *, readout,
        engine: SteadySolveEngine | None = None
        ) -> tuple[ModuliPoint, StrataLog, list[float]]:
    """Full descent loop with strata instrumentation.

    ``initial`` is a ModuliPoint, a WeightedGraph, or a vertex count (the
    random edge-probability policy).  The loop stops early once the edge
    set and weights are stable within ``stall_tol`` for ``stall_iters``
    consecutive iterations.  Failed steps leave the point unchanged and
    are recorded.
    """
    rng = np.random.default_rng(config.seed)
    if isinstance(initial, ModuliPoint):
        point = initial
    elif isinstance(initial, WeightedGraph):
        point = ModuliPoint(initial)
    elif isinstance(initial, (int, np.integer)):
        point = random_point(int(initial), config, rng)
    else:
        raise TypeError("initial must be a point, a graph, or a vertex count")
    if engine is None:
        engine = SteadySolveEngine(config.steady)

    log = StrataLog()
    log.visit(point.edge_set, 0)
    history: list[float] = []
    stable = 0
    for t in range(config.iterations):
        batch = Batch.from_pairs(sampler(config.batch_size))
        try:
            new_point, events = descent_step(point, batch, config, t,
                                             readout=readout, engine=engine,
                                             rng=rng)
        except (LossEvaluationError, NonIsolatedSteadyStateError) as exc:
            log.record(IterationRecord(t, point.edge_set,
                                       tuple(point.graph.weights), (), (),
                                       None, failed=str(exc)))
            history.append(float("nan"))
            stable = 0
            continue
        same_edges = new_point.edge_set == point.edge_set
        drift = (float(np.max(np.abs(new_point.graph.weights
                                     - point.graph.weights)))
                 if same_edges and point.graph.n_edges else 0.0)
        point = new_point
        log.visit(point.edge_set, t + 1)
        log.record(IterationRecord(t, point.edge_set,
                                   tuple(point.graph.weights), events.added,
                                   events.pruned, events.loss.total, events))
        history.append(events.loss.total)
        stable = stable + 1 if (same_edges and drift < config.stall_tol) else 0
        if stable >= config.stall_iters:
            break
    return point, log, history


def _staggered_order(k: int) -> list[int]:
    """Stability ordering of Chebyshev nodes (power-of-two cycle length).

    Interleaves small- and large-step indices so that intermediate partial
    products of the per-mode amplification factors stay bounded; the naive
    sorted order amplifies round-off catastrophically for long cycles.
    """
    if k & (k - 1):
        raise ValueError("cycle length must be a power of two")
    order = [1]
    while len(order) < k:
        m = len(order)
        order = [x for i in order for x in (i, 2 * m + 1 - i)]
    return [i - 1 for i in order]


def chebyshev_schedule(lam_min: float, lam_max: float, cycle_len: int = 16,
                       cycles: int = 1, safety: float = 1.2) -> tuple[float, ...]:
    """Step-size cycle that accelerates descent on a quadratic bowl.

    The steps are reciprocals of Chebyshev nodes on the (safety-widened)
    curvature interval, in a stability-staggered order, repeated ``cycles``
    times.  One cycle contracts every curvature mode in the interval by the
    minimax polynomial factor, which beats any constant step size by
    roughly the square root of the condition number.
    """
    if not (0 < lam_min <= lam_max < np.inf and 1.0 <= safety < np.inf):
        raise ValueError("need 0 < lam_min <= lam_max < inf and a finite "
                         "safety >= 1, which widens the interval")
    if not all(np.isfinite(c) and int(c) == c >= 1
               for c in (cycle_len, cycles)):
        raise ValueError("cycle_len and cycles must be positive integers")
    k, reps = int(cycle_len), int(cycles)
    lo, hi = lam_min / safety, lam_max * safety
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = [center + radius * np.cos(np.pi * (2 * i + 1) / (2 * k))
             for i in range(k)]
    ordered = [1.0 / nodes[i] for i in _staggered_order(k)]
    return tuple(ordered) * reps


@dataclass(frozen=True)
class StrataSummary:
    """Visited strata split against a reference true edge set."""

    count: int
    true_subset_count: int
    spurious_count: int
    partitions: tuple


def visited_strata_count(log: StrataLog,
                         e_true: Sequence[tuple[int, int]]) -> StrataSummary:
    """Partition every visited stratum into true-subset and spurious parts.

    ``spurious_count`` counts distinct nonempty spurious configurations, so
    a clean run that only ever walks subsets of the true edge set scores
    zero.
    """
    if e_true is None:
        raise ValueError("the reference edge set is required")
    true_set = {(min(u, v), max(u, v)) for u, v in e_true}
    partitions = []
    true_parts = set()
    spurious_parts = set()
    for edges, _t in log.visited:
        t_part = tuple(sorted(e for e in edges if e in true_set))
        s_part = tuple(sorted(e for e in edges if e not in true_set))
        partitions.append((t_part, s_part))
        true_parts.add(t_part)
        if s_part:
            spurious_parts.add(s_part)
    return StrataSummary(len(log.visited), len(true_parts),
                         len(spurious_parts), tuple(partitions))
