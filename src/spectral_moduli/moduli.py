"""Stochastic descent over the stratified space of weighted graphs.

The search space is the disjoint union of strata, one per edge set, each
carrying the positive weights of its edges, so a point of it is a
``WeightedGraph``, which checks both.  A descent step does three
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

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import NlseConfig, SteadyState, solve_steady_state_many
from .graph_core import GraphError, WeightedGraph, build_graph
from .sensitivity import (NonIsolatedSteadyStateError, edge_gradients,
                          weight_gradients)

__all__ = [
    "LossEvaluationError",
    "OptimizerConfig",
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
    "chebyshev_schedule",
]


class LossEvaluationError(RuntimeError):
    """A steady-state solve inside a loss/gradient evaluation failed."""


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
    prune_threshold: float = 0.05
    add_threshold: float = 0.05
    step_size: float | tuple[float, ...] = 0.05
    batch_size: int = 8
    l1_coeff: float = 1e-5
    l2_coeff: float = 1e-5
    seed: int = 0
    candidate_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name, least in (("iterations", 0), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               _count(name, getattr(self, name), least))
        if not 0.0 < self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in (0, 1)")
        if not 0.0 < self.add_threshold < 1.0:
            raise ValueError("add_threshold must lie in (0, 1)")
        steps = np.atleast_1d(np.asarray(self.step_size, dtype=float))
        if steps.size == 0 or not np.all((steps > 0) & np.isfinite(steps)):
            raise ValueError("step sizes must be positive and finite")
        if not all(0.0 <= x < np.inf for x in (self.l1_coeff, self.l2_coeff)):
            raise ValueError("l1_coeff, l2_coeff must be finite, >= 0")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise ValueError("candidate_fraction must lie in (0, 1]")

    def step_size_at(self, t: int) -> float:
        if np.isscalar(self.step_size):
            return float(self.step_size)
        sched = tuple(self.step_size)
        return float(sched[min(t, len(sched) - 1)])


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
        if len({np.asarray(x).shape for x in self.xs}) != 1:
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
    solve of the package goes through.  One call solves its (graph, input)
    jobs as one batch, each from the warm start of its input: the last
    converged state of a job that is not a probe row, so never a state of a
    probe graph.  These warm starts make the descent loop's repeated solves
    cheap.  Every row runs to the horizon of the engine's ``config``.
    ``probe`` is one flag for every job or one per job; a probe row whose
    Newton root repels fails at once (see ``solve_steady_state_many``).
    """

    def __init__(self, config: NlseConfig):
        self.config = config
        self._warm: dict[bytes, np.ndarray] = {}

    def warm_started(self, xs: Iterable[np.ndarray]) -> bool:
        """Whether every input of ``xs`` has a warm start."""
        return all(np.asarray(x).tobytes() in self._warm for x in xs)

    def solve_many(self, jobs: Sequence[tuple[WeightedGraph, np.ndarray]],
                   *, probe: bool | Sequence[bool] = False
                   ) -> list[SteadyState]:
        if not jobs:
            return []
        probes = np.broadcast_to(np.asarray(probe, dtype=bool), (len(jobs),))
        keys = [np.asarray(x).tobytes() for _, x in jobs]
        xs = [np.asarray(x, dtype=complex) for _, x in jobs]
        starts = [self._warm.get(key, x) for key, x in zip(keys, xs)]
        solved = solve_steady_state_many([g for g, _ in jobs], xs, self.config,
                                         starts=starts, probe=probes)
        for key, st, probed in zip(keys, solved, probes):
            if st.converged and not probed:
                self._warm[key] = st.psi_inf
        return solved


def _batch_predictions(batch: Batch, readout, steadies: Sequence[SteadyState]
                       ) -> tuple[list[float], float]:
    """Readout predictions at the steady states ``steadies`` of the samples
    of the batch, and the mean squared data loss; raises
    LossEvaluationError naming the first offending sample on failure.
    """
    for i, st in enumerate(steadies):
        if not st.converged:
            raise LossEvaluationError(
                f"steady-state solve did not converge for sample {i} "
                f"({st.reason}: residual {st.residual:.3e} at t={st.t_reached:.1f})")
    preds = [readout.value(st.psi_inf) for st in steadies]
    return preds, sum((p - y) ** 2 for p, y in zip(preds, batch.ys)) / len(batch)


def _regularizer(weights: np.ndarray, config: OptimizerConfig
                 ) -> tuple[float, float]:
    l2 = 0.5 * config.l2_coeff * float(np.sum(weights ** 2))
    l1 = config.l1_coeff * float(np.sum(np.abs(weights)))
    return l2, l1


def regularized_loss(g: WeightedGraph, batch: Batch, readout,
                     config: OptimizerConfig,
                     engine: SteadySolveEngine) -> LossBreakdown:
    """Mean squared readout error plus L2/L1 weight penalties, at the
    states ``engine`` solves."""
    steadies = engine.solve_many([(g, x) for x in batch.xs])
    _, data = _batch_predictions(batch, readout, steadies)
    l2, l1 = _regularizer(g.weights, config)
    return LossBreakdown(data, l2, l1)


def _data_weight_gradients(g: WeightedGraph, batch: Batch, readout,
                           steadies: Sequence[SteadyState],
                           edges: Sequence[tuple[int, int]] | None = None
                           ) -> tuple[np.ndarray, float]:
    """Batch-mean data-term gradient in each weight of ``edges`` (default all
    of them), plus data loss, at the states ``steadies`` of the samples on
    ``g``.

    The per-sample cotangent is 2 (pred - y) / B times a fixed readout
    cotangent, so the samples with a nonzero coefficient are priced in one
    batched adjoint call, and their gradients are rescaled and summed.
    """
    preds, data_loss = _batch_predictions(batch, readout, steadies)
    grad = np.zeros(g.n_edges if edges is None else len(edges))
    coeffs = [2.0 * (pred - y) / len(batch) for pred, y in zip(preds, batch.ys)]
    rows = [i for i, c in enumerate(coeffs) if c != 0.0] if grad.size else []
    if rows:
        sts = [steadies[i] for i in rows]
        args = (g, [batch.xs[i] for i in rows], sts,
                [readout.cotangent(st.psi_inf) for st in sts])
        bases = (weight_gradients(*args) if edges is None
                 else edge_gradients(*args, edges))
        for i, base in zip(rows, bases):
            grad += coeffs[i] * base
    return grad, data_loss


def stochastic_gradient(g: WeightedGraph, batch: Batch,
                        edge: tuple[int, int], test_weight: float | None = None,
                        *, readout, config: OptimizerConfig,
                        engine: SteadySolveEngine | None = None,
                        steadies: Sequence[SteadyState] | None = None,
                        probe: WeightedGraph | None = None) -> float:
    """Batch gradient of the regularized loss in one edge weight.

    For an existing edge the gradient is taken on the current graph; for an
    absent edge ``test_weight`` grafts it in first (the probe used by the
    addition rule; ``probe`` is that graph if the caller has built it), and
    the graph priced is solved by ``engine`` (as a probe pass for a probe
    graph), unless the caller passes its ``steadies``.  Only ``edge`` is
    priced.
    """
    edge = (min(edge), max(edge))
    if edge in g.edge_index():
        if test_weight is not None or probe is not None:
            raise ValueError("test_weight and probe only apply to absent edges")
        probe = g
    elif test_weight is None:
        raise GraphError(f"edge {edge} absent; provide test_weight")
    elif probe is None:
        probe = g.with_edge(edge, float(test_weight))
    k = probe.edge_index().get(edge)
    if k is None or (probe is not g and probe.weights[k] != test_weight):
        raise ValueError(f"probe must carry edge {edge} at {test_weight}")
    if steadies is None:
        if engine is None:
            raise ValueError("stochastic_gradient needs an engine or steadies")
        jobs = [(probe, x) for x in batch.xs]
        steadies = engine.solve_many(jobs, probe=probe is not g)
    grad, _ = _data_weight_gradients(probe, batch, readout, steadies, [edge])
    return float(grad[0] + config.l2_coeff * probe.weights[k] + config.l1_coeff)


@dataclass(frozen=True)
class StepEvents:
    """Everything one descent step did, sufficient to replay its rules."""

    added: tuple[tuple[int, int], ...]
    pruned: tuple[tuple[int, int], ...]
    loss: LossBreakdown
    test_gradients: dict
    post_update_weights: dict
    skipped_candidates: tuple[tuple[int, int], ...] = ()


def _candidate_pairs(g: WeightedGraph, config: OptimizerConfig,
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    present = set(g.edges)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if (u, v) not in present]
    if config.candidate_fraction < 1.0 and pairs:
        keep = max(1, int(np.ceil(config.candidate_fraction * len(pairs))))
        chosen = rng.choice(len(pairs), size=keep, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]
    return pairs


def _probe_jobs(g: WeightedGraph, xs: Sequence[np.ndarray],
                config: OptimizerConfig, rng: np.random.Generator):
    """Draw a step's candidate edges; return them, their probe graphs and
    the (probe graph, input) job of every candidate and sample."""
    candidates = _candidate_pairs(g, config, rng)
    probes = [g.with_edge(e, config.prune_threshold) for e in candidates]
    return candidates, probes, [(pg, x) for pg in probes for x in xs]


def descent_step(g: WeightedGraph, batch: Batch, config: OptimizerConfig,
                 t: int, *, readout, engine: SteadySolveEngine,
                 rng: np.random.Generator) -> tuple[WeightedGraph, StepEvents]:
    """One simultaneous update: weight SGD, candidate tests, prune.

    All gradients use the same batch and the pre-step weights.  Every probe
    row starts from its input's latest current-graph state: once every input
    has a warm start, the current graph's rows and the flagged probe rows
    are solved in one engine call from those warm starts; otherwise the
    current graph is solved first, the candidates are drawn only then, and
    the probe pass starts from the fresh states.  Every row runs to the
    horizon of the engine's config.  ``rng`` draws the candidates when
    ``candidate_fraction`` < 1; the caller keeps one generator across steps.
    Candidate probes whose solves fail are skipped (recorded, never added);
    a failure on the current graph aborts the whole step by raising (a warm
    step has drawn its candidates by then, a cold one has not).
    """
    theta = config.prune_threshold
    xs = batch.xs
    jobs, n = [(g, x) for x in xs], len(xs)
    if engine.warm_started(xs):
        candidates, probes, probe_jobs = _probe_jobs(g, xs, config, rng)
        states = engine.solve_many(
            jobs + probe_jobs, probe=[False] * n + [True] * len(probe_jobs))
        current, solved = states[:n], states[n:]
    else:
        current, solved = engine.solve_many(jobs), None

    data_grad, data_loss = _data_weight_gradients(g, batch, readout, current)
    l2, l1 = _regularizer(g.weights, config)
    grads = data_grad + config.l2_coeff * g.weights + config.l1_coeff
    eta = config.step_size_at(t)
    updated = np.maximum(g.weights - eta * grads, 0.0)
    post_update = dict(zip(g.edges, updated))

    if solved is None:
        candidates, probes, probe_jobs = _probe_jobs(g, xs, config, rng)
        solved = engine.solve_many(probe_jobs, probe=True)
    test_grads: dict = {}
    added = []
    skipped = []
    for j, (e, pg) in enumerate(zip(candidates, probes)):
        try:
            ge = stochastic_gradient(
                g, batch, e, test_weight=theta, readout=readout, config=config,
                steadies=solved[j * len(xs):(j + 1) * len(xs)], probe=pg)
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
                        LossBreakdown(data_loss, l2, l1), test_grads,
                        post_update, tuple(skipped))
    return new_graph, events


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


_STALL_TOL = 1e-10
_STALL_ITERS = 10


def run(config: OptimizerConfig, sampler, g: WeightedGraph, *, readout,
        engine: SteadySolveEngine
        ) -> tuple[WeightedGraph, StrataLog, list[float]]:
    """Full descent loop from the graph ``g``, with strata instrumentation;
    ``engine`` solves every step and carries the warm starts from step to
    step, and one generator seeded by ``config.seed`` draws every step's
    candidates.

    The loop stops early once the edge set and weights are stable within
    ``_STALL_TOL`` for ``_STALL_ITERS`` consecutive iterations.  Failed
    steps leave the graph unchanged and are recorded.  Returns the final
    graph, the strata log and the loss history.
    """
    if not isinstance(g, WeightedGraph):
        raise TypeError(f"run needs a WeightedGraph, got {type(g).__name__}")
    rng = np.random.default_rng(config.seed)

    log = StrataLog()
    log.visit(g.edges, 0)
    history: list[float] = []
    stable = 0
    for t in range(config.iterations):
        batch = Batch.from_pairs(sampler(config.batch_size))
        try:
            new_g, events = descent_step(g, batch, config, t, readout=readout,
                                         engine=engine, rng=rng)
        except (LossEvaluationError, NonIsolatedSteadyStateError) as exc:
            log.record(IterationRecord(t, g.edges, tuple(g.weights), (), (),
                                       None, failed=str(exc)))
            history.append(float("nan"))
            stable = 0
            continue
        same_edges = new_g.edges == g.edges
        drift = (float(np.max(np.abs(new_g.weights - g.weights)))
                 if same_edges and g.n_edges else 0.0)
        g = new_g
        log.visit(g.edges, t + 1)
        log.record(IterationRecord(t, g.edges, tuple(g.weights), events.added,
                                   events.pruned, events.loss.total, events))
        history.append(events.loss.total)
        stable = stable + 1 if (same_edges and drift < _STALL_TOL) else 0
        if stable >= _STALL_ITERS:
            break
    return g, log, history


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


_SAFETY = 1.2


def chebyshev_schedule(lam_min: float, lam_max: float, cycle_len: int = 16,
                       cycles: int = 1) -> tuple[float, ...]:
    """Step-size cycle that accelerates descent on a quadratic bowl.

    The steps are reciprocals of Chebyshev nodes on the curvature interval
    widened by ``_SAFETY`` each way, in a stability-staggered order,
    repeated ``cycles`` times.  One cycle contracts every curvature mode in
    the interval by the minimax polynomial factor, which beats any constant
    step size by roughly the square root of the condition number.
    """
    if not 0 < lam_min <= lam_max < np.inf:
        raise ValueError("need 0 < lam_min <= lam_max < inf")
    if not all(np.isfinite(c) and int(c) == c >= 1
               for c in (cycle_len, cycles)):
        raise ValueError("cycle_len and cycles must be positive integers")
    k, reps = int(cycle_len), int(cycles)
    lo, hi = lam_min / _SAFETY, lam_max * _SAFETY
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
    true_parts = set()
    spurious_parts = set()
    for edges, _t in log.visited:
        t_part = tuple(sorted(e for e in edges if e in true_set))
        s_part = tuple(sorted(e for e in edges if e not in true_set))
        true_parts.add(t_part)
        if s_part:
            spurious_parts.add(s_part)
    return StrataSummary(len(log.visited), len(true_parts),
                         len(spurious_parts))
