"""Three-layer model with a steady-state core, and a dense baseline.

The model maps a complex input vector to a scalar through three layers:

* input layer: ``psi0 = sigma1(a1.T @ x + b1)``, renormalized to the unit
  sphere (the core's phase space; a zero pre-normalization state is an
  error);
* core: the steady state ``psi_inf`` of the dissipative flow on the current
  weighted graph, reached from ``psi0`` with the frozen potential
  ``|psi0|^2``;
* output layer: ``y = sigma3(<a3, psi_inf> + b3)``.

The core's output carries an arbitrary global phase, so the output layer
is gauge-aligned: it rotates ``psi_inf`` so the readout inner product is
real nonnegative (equivalently, feeds ``|<a3, psi_inf>|`` to ``sigma3``) and
returns the real part -- the right convention for real-valued targets, and
a well-defined, differentiable function of the inputs.

Complex parameters are differentiated in the realified convention
``G = dL/d(Re p) + i * dL/d(Im p)``: the update ``p - lr * G`` is plain
gradient descent in the two real coordinates per complex entry, and
holomorphy of the activations is never relied on.  Training interleaves one
projected batch-SGD step on the dense parameters with one graph descent step
per epoch; a dense network of the same depth (``sigma2(w2 @ psi0 + b2)``
replacing the core) trains under the same policy for gap comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import NlseConfig, SteadyState
from .graph_core import GraphError, graph_from_dict, graph_to_dict
from .moduli import (Batch, LossEvaluationError, ModuliPoint, OptimizerConfig,
                     SteadySolveEngine, descent_step)
from .sensitivity import (NonIsolatedSteadyStateError, potential_gradient,
                          realify)
from .topo_metric import betti_numbers, noisy_input_stream

__all__ = [
    "ACTIVATIONS",
    "DegenerateInputError",
    "CoreConvergenceError",
    "ModelParams",
    "TrainConfig",
    "BaselineParams",
    "ParamGradients",
    "BaselineGradients",
    "EpochRecord",
    "BaselineEpochRecord",
    "GapReport",
    "ModelReadout",
    "input_state",
    "readout_value",
    "forward",
    "loss_sample",
    "loss_samples",
    "param_gradients",
    "project_params",
    "random_params",
    "train",
    "baseline_forward",
    "baseline_loss_sample",
    "baseline_gradients",
    "random_baseline",
    "baseline_train",
    "generalization_gap",
    "model_teacher_sampler",
    "fixed_set_sampler",
    "noisy_input_stream",
    "save_checkpoint",
    "load_checkpoint",
    "write_history_csv",
]

ACTIVATIONS = ("tanh", "identity")


class DegenerateInputError(ValueError):
    """The input layer produced the zero field; no unit state exists."""


class CoreConvergenceError(RuntimeError):
    """The steady-state solve under the readout did not converge."""


# per-sample failures that training records and steps past
_SAMPLE_ERRORS = (DegenerateInputError, CoreConvergenceError,
                  LossEvaluationError, NonIsolatedSteadyStateError)


def _apply(name: str, z: np.ndarray):
    return np.tanh(z) if name == "tanh" else z


def _apply_prime(name: str, z: np.ndarray):
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(np.asarray(z))


def _as_complex_vector(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def _check_activation(name: str, field: str) -> None:
    if name not in ACTIVATIONS:
        raise ValueError(f"{field} must be one of {ACTIVATIONS}, got {name!r}")


@dataclass(frozen=True)
class ModelParams:
    """Dense parameters around the steady-state core.

    ``a1`` has shape (inputs, vertices) and is applied as ``a1.T @ x`` so the
    pre-activation lives on the graph's vertex set.  The output layer is
    gauge-aligned (see module docstring).
    """

    a1: np.ndarray
    b1: np.ndarray
    a3: np.ndarray
    b3: complex
    activation1: str = "tanh"
    activation3: str = "identity"

    def __post_init__(self) -> None:
        a1 = np.asarray(self.a1, dtype=complex)
        if a1.ndim != 2:
            raise ValueError("a1 must be a matrix (inputs x vertices)")
        if not np.all(np.isfinite(a1)):
            raise ValueError("a1 must be finite")
        b1 = _as_complex_vector(self.b1, "b1")
        a3 = _as_complex_vector(self.a3, "a3")
        b3 = complex(self.b3)
        if not (np.isfinite(b3.real) and np.isfinite(b3.imag)):
            raise ValueError("b3 must be finite")
        if a1.shape[1] != b1.size or b1.size != a3.size:
            raise ValueError("a1 columns, b1, and a3 must share the vertex "
                             f"dimension; got {a1.shape[1]}, {b1.size}, "
                             f"{a3.size}")
        _check_activation(self.activation1, "activation1")
        _check_activation(self.activation3, "activation3")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "b3", b3)

    @property
    def n_inputs(self) -> int:
        return self.a1.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.a1.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Training policy: epochs of projected SGD plus one graph step each.

    ``batch_size`` must agree with ``moduli_config.batch_size`` -- both
    phases of an epoch consume the same mini-batch.  The ``r_*`` radii bound
    parameter norms (Frobenius for matrices, L2 for vectors, modulus for
    scalars); updates are projected back into these balls, which also keeps
    tanh pre-activations away from the complex poles.
    """

    epochs: int
    batch_size: int
    lr_params: float
    moduli_config: OptimizerConfig
    seed: int = 0
    r_a1: float = 100.0
    r_b1: float = 100.0
    r_a3: float = 100.0
    r_b3: float = 100.0
    r_w2: float = 100.0
    r_b2: float = 100.0

    def __post_init__(self) -> None:
        for name, least in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if not (np.isfinite(value) and int(value) == value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not (np.isfinite(self.lr_params) and self.lr_params > 0):
            raise ValueError("lr_params must be positive and finite")
        if not isinstance(self.moduli_config, OptimizerConfig):
            raise TypeError("moduli_config must be an OptimizerConfig")
        if self.batch_size != self.moduli_config.batch_size:
            raise ValueError("batch_size must match moduli_config.batch_size")
        for field in ("r_a1", "r_b1", "r_a3", "r_b3", "r_w2", "r_b2"):
            r = getattr(self, field)
            if not (np.isfinite(r) and r > 0):
                raise ValueError(f"{field} must be positive and finite")


@dataclass(frozen=True)
class BaselineParams:
    """Dense three-layer network: the core replaced by ``sigma2(w2 . + b2)``.

    The hidden width equals the vertex count so the input and output layers
    are shared with the model.  There is no gauge ambiguity without the
    core, so the readout is always the raw complex value.
    """

    a1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    a3: np.ndarray
    b3: complex
    activation1: str = "tanh"
    activation2: str = "tanh"
    activation3: str = "identity"

    def __post_init__(self) -> None:
        a1 = np.asarray(self.a1, dtype=complex)
        w2 = np.asarray(self.w2, dtype=complex)
        if a1.ndim != 2 or w2.ndim != 2:
            raise ValueError("a1 and w2 must be matrices")
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(w2))):
            raise ValueError("a1 and w2 must be finite")
        b1 = _as_complex_vector(self.b1, "b1")
        b2 = _as_complex_vector(self.b2, "b2")
        a3 = _as_complex_vector(self.a3, "a3")
        b3 = complex(self.b3)
        if not (np.isfinite(b3.real) and np.isfinite(b3.imag)):
            raise ValueError("b3 must be finite")
        h = w2.shape[0]
        if w2.shape != (h, h) or b2.size != h or a3.size != h:
            raise ValueError("w2 must be square with b2 and a3 of matching "
                             "width")
        if a1.shape[1] != h or b1.size != h:
            raise ValueError("input layer width must match the hidden width")
        for field, name in ((self.activation1, "activation1"),
                            (self.activation2, "activation2"),
                            (self.activation3, "activation3")):
            _check_activation(field, name)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "b3", b3)


@dataclass(frozen=True)
class ParamGradients:
    """Realified loss gradients for one sample (G = dL/dRe + i dL/dIm)."""

    a1: np.ndarray
    b1: np.ndarray
    a3: np.ndarray
    b3: complex


@dataclass(frozen=True)
class BaselineGradients:
    a1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    a3: np.ndarray
    b3: complex


# ---------------------------------------------------------------------------
# forward pass


def _input_layer(params, x):
    """Input layer before normalization, for the model and the baseline.

    Returns ``(x, pre, s, nrm)``: the input as a complex vector, the
    pre-activation, the activated state and its norm; ``s / nrm`` is the
    unit initial field.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (params.a1.shape[0],):
        raise ValueError(f"input must have shape ({params.a1.shape[0]},), "
                         f"got {x.shape}")
    pre = params.a1.T @ x + params.b1
    s = _apply(params.activation1, pre)
    if not np.all(np.isfinite(s)):
        raise DegenerateInputError("input layer produced a non-finite state "
                                   "(pre-activation at a tanh pole?)")
    nrm = float(np.linalg.norm(s))
    if nrm < 1e-12:
        raise DegenerateInputError("input layer produced the zero state")
    return x, pre, s, nrm


def input_state(params, x) -> np.ndarray:
    """Unit-norm initial field produced by the input layer."""
    _, _, s, nrm = _input_layer(params, x)
    return s / nrm


def readout_value(params: ModelParams, psi: np.ndarray) -> float:
    """Gauge-aligned output-layer value ``Re sigma3(|<a3, psi>| + b3)`` at a
    core state; a float, invariant under global phase rotation of ``psi``."""
    z = np.vdot(params.a3, psi)
    return float(np.real(_apply(params.activation3, abs(z) + params.b3)))


def _core_pass(params: ModelParams, point: ModuliPoint, xs,
               engine: SteadySolveEngine) -> list:
    """Core steady states of many inputs, in order, from one engine call;
    a degenerate input gets its DegenerateInputError in place of a state."""
    g = point.graph
    psi0s = []
    for x in xs:
        try:
            psi0s.append(input_state(params, x))
        except DegenerateInputError as exc:
            psi0s.append(exc)
    jobs = [(g, p) for p in psi0s if isinstance(p, np.ndarray)]
    if jobs and g.n != jobs[0][1].size:
        raise GraphError(f"model has {jobs[0][1].size} vertices but the "
                         f"graph has {g.n}")
    solved = iter(engine.solve_many(jobs))
    return [p if isinstance(p, Exception) else next(solved) for p in psi0s]


def _checked(core) -> SteadyState:
    """A ``_core_pass`` entry as a one-input pass returns or raises it."""
    if isinstance(core, Exception):
        raise core
    if not core.converged:
        raise CoreConvergenceError(
            f"core did not reach a steady state (residual {core.residual:.3e} "
            f"at t={core.t_reached:.1f})")
    return core


def _core_loss(params: ModelParams, core, y) -> float:
    return float(abs(readout_value(params, _checked(core).psi_inf) - y) ** 2)


def forward(params: ModelParams, point: ModuliPoint, x, config: NlseConfig,
            *, engine: SteadySolveEngine | None = None):
    """Full pass: input layer, steady-state core, output layer.

    Returns ``(y_hat, psi_inf)``.  Without an engine the core is solved by
    a fresh engine on ``config``; with one, the engine's config and warm
    starts govern the solve.
    """
    if engine is None:
        engine = SteadySolveEngine(config)
    st = _checked(_core_pass(params, point, [x], engine)[0])
    return readout_value(params, st.psi_inf), st.psi_inf


def loss_sample(params: ModelParams, point: ModuliPoint, x, y,
                config: NlseConfig, *,
                engine: SteadySolveEngine | None = None) -> float:
    """Squared modulus of the prediction error for one sample."""
    return loss_samples(params, point, [(x, y)], config, engine=engine)[0]


def loss_samples(params: ModelParams, point: ModuliPoint, pairs,
                 config: NlseConfig, *,
                 engine: SteadySolveEngine | None = None) -> list[float]:
    """Squared prediction errors of many samples, whose cores are solved in
    one engine call; raises the failure of the first sample that fails."""
    if engine is None:
        engine = SteadySolveEngine(config)
    cores = _core_pass(params, point, [x for x, _ in pairs], engine)
    return [_core_loss(params, core, y) for core, (_, y) in zip(cores, pairs)]


# ---------------------------------------------------------------------------
# gradients


def _readout_chain(params: ModelParams, psi: np.ndarray, g_y: float):
    """Backward pass through the output layer for an output cotangent g_y.

    Returns ``(g_a3, g_b3, g_psi)`` in the realified convention; ``g_psi``
    is the cotangent at the core output.
    """
    z = np.vdot(params.a3, psi)
    m = abs(z)
    g_u = g_y * np.conj(_apply_prime(params.activation3, m + params.b3))
    g_z = float(np.real(g_u)) * z / m if m > 0 else 0.0j
    return np.conj(g_z) * psi, complex(g_u), g_z * params.a3


def _input_chain(activation1: str, x, g_state: np.ndarray, pre: np.ndarray,
                 state: np.ndarray, nrm: float):
    """Backward pass through normalization and the input layer.

    ``g_state`` is the loss gradient at the unit state; the normalization
    pullback removes its radial component before the dense layer.
    """
    psi0 = state / nrm
    rho = float(np.real(np.vdot(g_state, psi0)))
    g_s = (g_state - rho * psi0) / nrm
    g_pre = g_s * np.conj(_apply_prime(activation1, pre))
    g_b1 = g_pre
    g_a1 = np.outer(np.conj(np.asarray(x, dtype=complex)), g_pre)
    return g_a1, g_b1


def param_gradients(params: ModelParams, point: ModuliPoint, x, y,
                    config: NlseConfig, *,
                    engine: SteadySolveEngine | None = None,
                    state: SteadyState | None = None) -> ParamGradients:
    """Loss gradients in (a1, b1, a3, b3) for one sample.

    The core is differentiated implicitly: the output-layer cotangent is
    priced into the frozen potential by one adjoint solve, and the potential
    channel ``|psi0|^2`` carries it back to the input layer.  ``state`` is
    the sample's core state if the caller solved it already.
    """
    if state is None:
        if engine is None:
            engine = SteadySolveEngine(config)
        state = _checked(_core_pass(params, point, [x], engine)[0])
    x, pre, s, nrm = _input_layer(params, x)
    psi0 = s / nrm
    y_hat = readout_value(params, state.psi_inf)
    g_a3, g_b3, g_psi = _readout_chain(params, state.psi_inf,
                                       2.0 * (y_hat - float(np.real(y))))
    g = point.graph
    if np.any(g_psi != 0):
        dv = potential_gradient(g, [psi0], [state], [realify(g_psi)])[0]
    else:
        dv = np.zeros(g.n)
    g_psi0 = 2.0 * dv * psi0
    g_a1, g_b1 = _input_chain(params.activation1, x, g_psi0, pre, s, nrm)
    return ParamGradients(g_a1, g_b1, g_a3, g_b3)


# ---------------------------------------------------------------------------
# projection and initialization


def _shrink(a: np.ndarray, bound: float) -> np.ndarray:
    """Scale into the closed norm ball; the bound holds exactly on return."""
    nrm = float(np.linalg.norm(a))
    if nrm <= bound:
        return a
    out = a * (bound / nrm)
    while float(np.linalg.norm(out)) > bound:
        out = out * (1.0 - 2.0 ** -52)
    return out


def _shrink_scalar(b: complex, bound: float) -> complex:
    return complex(_shrink(np.array([b], dtype=complex), bound)[0])


def project_params(params, config: TrainConfig):
    """Project every dense parameter of a model or a baseline into its norm
    ball: the field ``p`` into the ball of radius ``config.r_p``."""
    projected = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, str):
            continue
        bound = getattr(config, "r_" + f.name)
        projected[f.name] = (_shrink_scalar(value, bound)
                             if isinstance(value, complex)
                             else _shrink(value, bound))
    return dataclasses.replace(params, **projected)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_params(n_inputs: int, n_vertices: int, seed: int, *,
                  scale: float = 0.5, activation1: str = "tanh",
                  activation3: str = "identity") -> ModelParams:
    """Seeded random initialization with O(1) pre-activations."""
    rng = np.random.default_rng(seed)
    return ModelParams(
        a1=scale * _complex_normal(rng, (n_inputs, n_vertices))
        / np.sqrt(n_inputs),
        b1=scale * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        a3=_complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        b3=scale * complex(*rng.standard_normal(2)) / 4.0,
        activation1=activation1, activation3=activation3)


def random_baseline(n_inputs: int, n_vertices: int, seed: int, *,
                    scale: float = 0.5, activation1: str = "tanh",
                    activation2: str = "tanh",
                    activation3: str = "identity") -> BaselineParams:
    rng = np.random.default_rng(seed)
    return BaselineParams(
        a1=scale * _complex_normal(rng, (n_inputs, n_vertices))
        / np.sqrt(n_inputs),
        b1=scale * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        w2=scale * _complex_normal(rng, (n_vertices, n_vertices))
        / np.sqrt(n_vertices),
        b2=scale * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        a3=_complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        b3=scale * complex(*rng.standard_normal(2)) / 4.0,
        activation1=activation1, activation2=activation2,
        activation3=activation3)


# ---------------------------------------------------------------------------
# training


class ModelReadout:
    """Adapter exposing the model's output layer to the graph optimizer.

    ``value`` is the gauge-aligned prediction and ``cotangent`` its
    derivative in the realified state coordinates, so the optimizer's
    ``2 (pred - y)`` scaling reproduces the loss gradient exactly.
    """

    def __init__(self, params: ModelParams):
        self.params = params

    def value(self, psi: np.ndarray) -> float:
        return readout_value(self.params, psi)

    def cotangent(self, psi: np.ndarray) -> np.ndarray:
        return realify(_readout_chain(self.params, psi, 1.0)[2])


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of interleaved training.

    ``train_loss`` is the batch-mean data loss the graph step measured (at
    the fresh parameters, before the graph moved); ``test_loss`` is the
    heldout mean when a heldout set was supplied, else NaN.  Failures are
    logged strings; the epoch still completes.
    """

    epoch: int
    train_loss: float
    test_loss: float
    n_edges: int
    b0: int
    b1: int
    failures: tuple = ()


@dataclass(frozen=True)
class BaselineEpochRecord:
    epoch: int
    train_loss: float
    test_loss: float


def _per_sample(fn: Callable, n: int, what: str, failures: list) -> list:
    """``fn(k)`` for the samples k < n that do not fail, in order; each
    failure is logged to ``failures`` as "``what`` k: error"."""
    out = []
    for k in range(n):
        try:
            out.append(fn(k))
        except _SAMPLE_ERRORS as exc:
            failures.append(f"{what} {k}: {exc}")
    return out


def _mean(losses: list) -> float:
    return sum(losses) / len(losses) if losses else float("nan")


def _sgd_step(params, grads: list, config: TrainConfig):
    """One projected batch-mean SGD step on the dense parameters, along
    gradient dataclasses whose fields name the parameters they move."""
    if not grads:
        return params
    lr = config.lr_params / len(grads)
    return project_params(dataclasses.replace(params, **{
        f.name: getattr(params, f.name) - lr * sum(getattr(gr, f.name)
                                                   for gr in grads)
        for f in dataclasses.fields(grads[0])}), config)


def _phase_batches(sampler, config: TrainConfig) -> list[list]:
    """A phase's mini-batches, in epoch order, from one sampler call that
    must return exactly ``epochs * batch_size`` pairs."""
    n, b = config.epochs * config.batch_size, config.batch_size
    if n == 0:
        return []
    pairs = [(np.asarray(x, dtype=complex), y) for x, y in sampler(n)]
    if len(pairs) != n:
        raise ValueError(f"sampler returned {len(pairs)} pairs when asked "
                         f"for {n}")
    return [pairs[k:k + b] for k in range(0, n, b)]


def train(sampler, config: TrainConfig, params: ModelParams,
          point: ModuliPoint, *, heldout: Sequence | None = None,
          engine: SteadySolveEngine | None = None):
    """Interleaved training loop.

    The phase draws all its mini-batches in one ``sampler`` call, so a
    teacher sampler labels them in one engine call; a sampler that draws
    pair by pair from one stream yields the batches that one call per epoch
    would.  Each epoch takes a projected batch-mean SGD step on the dense
    parameters along its batch, then one graph descent step with the
    updated output layer as readout.  The SGD step and the heldout loss
    each solve their cores in one engine call.  Per-step failures are
    recorded on the epoch and training continues.  Returns ``(params,
    point, history)``; with ``epochs == 0`` the inputs pass through
    untouched and the sampler is not called.
    """
    if engine is None:
        engine = SteadySolveEngine(config.moduli_config.steady)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    for epoch, pairs in enumerate(_phase_batches(sampler, config)):
        failures: list[str] = []

        cores = _core_pass(params, point, [x for x, _ in pairs], engine)
        params = _sgd_step(params, _per_sample(
            lambda k: param_gradients(params, point, *pairs[k], engine.config,
                                      state=_checked(cores[k])),
            len(pairs), "param gradient, sample", failures), config)

        train_loss = float("nan")
        try:
            batch = Batch.from_pairs([(input_state(params, x), y)
                                      for x, y in pairs])
            point, events = descent_step(point, batch, config.moduli_config,
                                         epoch, readout=ModelReadout(params),
                                         engine=engine, rng=rng)
            train_loss = events.loss.data
        except _SAMPLE_ERRORS as exc:
            failures.append(f"graph step: {exc}")

        test_loss = float("nan")
        if heldout is not None:
            cores = _core_pass(params, point, [x for x, _ in heldout], engine)
            test_loss = _mean(_per_sample(
                lambda k: _core_loss(params, cores[k], heldout[k][1]),
                len(heldout), "heldout sample", failures))

        b0, b1 = betti_numbers(point.graph)
        history.append(EpochRecord(epoch, train_loss, test_loss,
                                   point.graph.n_edges, b0, b1,
                                   tuple(failures)))
    return params, point, history


# ---------------------------------------------------------------------------
# dense baseline


def _baseline_stack(params: BaselineParams, x):
    x, pre1, s, nrm = _input_layer(params, x)
    psi0 = s / nrm
    pre2 = params.w2 @ psi0 + params.b2
    h = _apply(params.activation2, pre2)
    v = np.vdot(params.a3, h) + params.b3
    y_hat = complex(_apply(params.activation3, v))
    return x, pre1, s, nrm, psi0, pre2, h, v, y_hat


def baseline_forward(params: BaselineParams, x):
    """Dense pass; returns ``(y_hat, hidden)`` with the raw complex value."""
    *_, pre2, h, v, y_hat = _baseline_stack(params, x)
    return y_hat, h


def baseline_loss_sample(params: BaselineParams, x, y) -> float:
    y_hat, _ = baseline_forward(params, x)
    return float(abs(y_hat - y) ** 2)


def baseline_gradients(params: BaselineParams, x, y) -> BaselineGradients:
    """Realified loss gradients through the dense stack for one sample."""
    x, pre1, s, nrm, psi0, pre2, h, v, y_hat = _baseline_stack(params, x)
    g_yhat = 2.0 * (y_hat - complex(y))
    g_v = np.conj(_apply_prime(params.activation3, v)) * g_yhat
    g_b3 = complex(g_v)
    g_a3 = np.conj(g_v) * h
    g_h = g_v * params.a3
    g_pre2 = np.conj(_apply_prime(params.activation2, pre2)) * g_h
    g_b2 = g_pre2
    g_w2 = np.outer(g_pre2, np.conj(psi0))
    g_psi0 = params.w2.conj().T @ g_pre2
    g_a1, g_b1 = _input_chain(params.activation1, x, g_psi0, pre1, s, nrm)
    return BaselineGradients(g_a1, g_b1, g_w2, g_b2, g_a3, g_b3)


def baseline_train(sampler, config: TrainConfig, params: BaselineParams, *,
                   heldout: Sequence | None = None):
    """Projected batch-SGD on the dense baseline, same policy as ``train``.

    The phase draws all its mini-batches in one ``sampler`` call, as in
    ``train``.  Losses are recorded after each epoch's update on that
    epoch's batch.
    """
    history: list[BaselineEpochRecord] = []
    for epoch, pairs in enumerate(_phase_batches(sampler, config)):
        params = _sgd_step(params, _per_sample(
            lambda k: baseline_gradients(params, *pairs[k]), len(pairs),
            "param gradient, sample", []), config)
        losses = [baseline_loss_sample(params, x, y) for x, y in pairs]
        test_loss = float("nan")
        if heldout is not None:
            test_loss = _mean(_per_sample(
                lambda k: baseline_loss_sample(params, *heldout[k]),
                len(heldout), "heldout sample", []))
        history.append(BaselineEpochRecord(
            epoch, float(np.mean(losses)), test_loss))
    return params, history


# ---------------------------------------------------------------------------
# generalization gap


@dataclass(frozen=True)
class GapReport:
    """Empirical train/heldout comparison for one model and sample size.

    ``noise_bound = 3 / sqrt(m)`` is the declared sampling-noise scale of
    the heldout estimate; a gap within it is indistinguishable from zero.
    """

    train_loss: float
    test_loss: float
    gap: float
    m: int
    noise_bound: float


def generalization_gap(train_losses: Sequence[float],
                       heldout_losses: Sequence[float]) -> GapReport:
    """Mean per-sample loss on both sets and their difference (test minus
    train).

    The two sets must come from disjoint streams for the gap to measure
    generalization; that separation is the caller's responsibility.
    """
    if len(train_losses) == 0 or len(heldout_losses) == 0:
        raise ValueError("both sample sets must be nonempty")
    train_loss = float(np.mean(train_losses))
    test_loss = float(np.mean(heldout_losses))
    m = len(heldout_losses)
    return GapReport(train_loss, test_loss, test_loss - train_loss, m,
                     3.0 / np.sqrt(m))


# ---------------------------------------------------------------------------
# data plumbing


def model_teacher_sampler(params: ModelParams, point: ModuliPoint,
                          config: NlseConfig, base_sampler, *,
                          engine: SteadySolveEngine | None = None):
    """Wrap an input stream, replacing targets with this model's outputs.

    The wrapped model acts as the data-generating teacher, so the task is
    realizable exactly by construction.  One draw labels all its inputs in
    one engine call, and each label is a function of its input alone:
    equal inputs share a solve within a call and warm-start from their own
    converged state across calls, so one draw of ``k * b`` pairs equals
    ``k`` draws of ``b``.
    """
    if engine is None:
        engine = SteadySolveEngine(config)

    def draw(batch_size: int):
        xs = [x for x, _ in base_sampler(batch_size)]
        cores = _core_pass(params, point, xs, engine)
        return [(x, readout_value(params, _checked(core).psi_inf))
                for x, core in zip(xs, cores)]

    return draw


def fixed_set_sampler(pairs: Sequence):
    """Cycle deterministically through a fixed training set."""
    pairs = [(np.asarray(x, dtype=complex), y) for x, y in pairs]
    if not pairs:
        raise ValueError("training set must be nonempty")
    state = {"next": 0}

    def draw(batch_size: int):
        out = []
        for _ in range(batch_size):
            out.append(pairs[state["next"]])
            state["next"] = (state["next"] + 1) % len(pairs)
        return out

    return draw


# ---------------------------------------------------------------------------
# serialization


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _encode_params(params) -> dict:
    """JSON form of a parameter dataclass: arrays and scalars realified,
    activation names as they are."""
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        out[f.name] = value if isinstance(value, str) else _encode_array(value)
    return out


def _decode_array(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"],
                                                              dtype=float)


def save_checkpoint(path, params: ModelParams, point: ModuliPoint, *,
                    extra: dict | None = None) -> None:
    """Write the model and graph as deterministic, realified JSON."""
    payload = {
        "model": _encode_params(params),
        "graph": graph_to_dict(point.graph),
        "extra": extra if extra is not None else {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, ModuliPoint]:
    with open(path) as fh:
        payload = json.load(fh)
    m = payload["model"]
    params = ModelParams(
        a1=_decode_array(m["a1"]), b1=_decode_array(m["b1"]),
        a3=_decode_array(m["a3"]),
        b3=complex(m["b3"]["re"], m["b3"]["im"]),
        activation1=m["activation1"], activation3=m["activation3"])
    return params, ModuliPoint(graph_from_dict(payload["graph"]))


def write_history_csv(path, history: Sequence[EpochRecord]) -> None:
    """Epoch records as CSV with shortest round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "test_loss", "n_edges",
                         "b0", "b1"])
        for rec in history:
            writer.writerow([rec.epoch, repr(float(rec.train_loss)),
                             repr(float(rec.test_loss)), rec.n_edges,
                             rec.b0, rec.b1])
