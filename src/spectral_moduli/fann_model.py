"""Three-layer model with a steady-state core, and a dense baseline.

The model maps a complex input vector to a scalar through three layers:

* input layer: ``psi0 = sigma1(a1.T @ x + b1)``, renormalized to the unit
  sphere (the core's phase space; a zero pre-normalization state is an
  error);
* core: the steady state ``psi_inf`` of the dissipative flow on the current
  ``WeightedGraph`` (every function that runs the core takes it), reached
  from ``psi0`` with the frozen potential ``|psi0|^2``;
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

from .dynamics import SteadyState, UnconvergedError, require_converged
from .graph_core import (WeightedGraph, _count, _exact, graph_from_dict,
                         graph_to_dict)
from .moduli import Batch, OptimizerConfig, SteadySolveEngine, descent_step
from .sensitivity import (NonIsolatedSteadyStateError, potential_gradient,
                          realify)
from .topo_metric import betti_numbers, noisy_input_stream

__all__ = [
    "ACTIVATIONS",
    "DegenerateInputError",
    "ModelParams",
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


# per-sample failures that training records and steps past
_SAMPLE_ERRORS = (DegenerateInputError, UnconvergedError,
                  NonIsolatedSteadyStateError)


def _apply(name: str, z: np.ndarray):
    return np.tanh(z) if name == "tanh" else z


def _apply_prime(name: str, z: np.ndarray):
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(np.asarray(z))


def _check_fields(params, matrices: tuple[str, ...]) -> None:
    """Cast and check a parameter dataclass's fields in place: the fields
    named in ``matrices`` are finite complex matrices, the other arrays
    finite complex vectors, ``b3`` a finite complex scalar, and every string
    field names an activation."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if f.type == "str":
            if value not in ACTIVATIONS:
                raise ValueError(f"{f.name} must be one of {ACTIVATIONS}, "
                                 f"got {value!r}")
            continue
        if f.type == "complex":
            value = complex(value)
        else:
            value = np.asarray(value, dtype=complex)
            kind, ndim = (("matrix", 2) if f.name in matrices
                          else ("vector", 1))
            if value.ndim != ndim:
                raise ValueError(f"{f.name} must be a {kind}")
        if not np.isfinite(value).all():
            raise ValueError(f"{f.name} must be finite")
        object.__setattr__(params, f.name, value)


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
        _check_fields(self, matrices=("a1",))
        if not self.a1.shape[1] == self.b1.size == self.a3.size:
            raise ValueError("a1 columns, b1, and a3 must share the vertex "
                             f"dimension; got {self.a1.shape[1]}, "
                             f"{self.b1.size}, {self.a3.size}")


def _phase_settings(epochs, lr_params, batch_size) -> tuple[int, float, int]:
    """The three settings a training phase reads, checked for ``train`` and
    ``baseline_train`` alike: the counts as ``OptimizerConfig`` checks its
    counts (2.0 counts as 2), the learning rate positive and finite."""
    epochs = _count("epochs", epochs, 0)
    if not (np.isfinite(lr_params) and lr_params > 0):
        raise ValueError("lr_params must be positive and finite")
    return epochs, lr_params, _count("batch_size", batch_size, 1)


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
        _check_fields(self, matrices=("a1", "w2"))
        h = self.w2.shape[0]
        if self.w2.shape != (h, h) or self.b2.size != h or self.a3.size != h:
            raise ValueError("w2 must be square with b2 and a3 of matching "
                             "width")
        if self.a1.shape[1] != h or self.b1.size != h:
            raise ValueError("input layer width must match the hidden width")


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


def _core_pass(params: ModelParams, g: WeightedGraph, xs,
               engine: SteadySolveEngine) -> list:
    """Core steady states of many inputs, in order, from one engine call;
    a degenerate input gets its DegenerateInputError in place of a state."""
    psi0s = []
    for x in xs:
        try:
            psi0s.append(input_state(params, x))
        except DegenerateInputError as exc:
            psi0s.append(exc)
    solved = iter(engine.solve_many(
        [(g, p) for p in psi0s if isinstance(p, np.ndarray)]))
    return [p if isinstance(p, Exception) else next(solved) for p in psi0s]


def _checked(core, sample: int) -> SteadyState:
    """The ``_core_pass`` entry of input ``sample`` as a one-input pass
    returns or raises it."""
    if isinstance(core, Exception):
        raise core
    require_converged([core], sample)
    return core


def forward(params: ModelParams, g: WeightedGraph, x,
            engine: SteadySolveEngine):
    """Full pass: input layer, steady-state core, output layer.

    Returns ``(y_hat, psi_inf)``; ``engine`` solves the core, from its warm
    start of the input if it has one.
    """
    st = _checked(_core_pass(params, g, [x], engine)[0], 0)
    return readout_value(params, st.psi_inf), st.psi_inf


def loss_samples(params: ModelParams, g: WeightedGraph, pairs,
                 engine: SteadySolveEngine) -> list[float]:
    """Squared prediction errors of many samples, whose cores ``engine``
    solves in one call; raises the failure of the first sample that fails."""
    cores = _core_pass(params, g, [x for x, _ in pairs], engine)
    preds = [readout_value(params, _checked(core, k).psi_inf)
             for k, core in enumerate(cores)]
    return [float(abs(p - y) ** 2) for p, (_, y) in zip(preds, pairs)]


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


def param_gradients(params: ModelParams, g: WeightedGraph, x, y,
                    state: SteadyState) -> ParamGradients:
    """Loss gradients in (a1, b1, a3, b3) for one sample at its solved core
    state ``state``.

    The core is differentiated implicitly: the output-layer cotangent is
    priced into the frozen potential by one adjoint solve, and the potential
    channel ``|psi0|^2`` carries it back to the input layer.
    """
    x, pre, s, nrm = _input_layer(params, x)
    psi0 = s / nrm
    y_hat = readout_value(params, state.psi_inf)
    g_a3, g_b3, g_psi = _readout_chain(params, state.psi_inf,
                                       2.0 * (y_hat - float(np.real(y))))
    if np.any(g_psi != 0):
        dv = potential_gradient(g, [psi0], [state], [realify(g_psi)])[0]
    else:
        dv = np.zeros(g.n)
    g_psi0 = 2.0 * dv * psi0
    g_a1, g_b1 = _input_chain(params.activation1, x, g_psi0, pre, s, nrm)
    return ParamGradients(g_a1, g_b1, g_a3, g_b3)


# ---------------------------------------------------------------------------
# projection and initialization


def _shrink(a, bound: float):
    """Scale an array or a complex scalar into the closed norm ball; the
    bound holds exactly on return."""
    nrm = float(np.linalg.norm(a))
    if nrm <= bound:
        return a
    out = a * (bound / nrm)
    while float(np.linalg.norm(out)) > bound:
        out = out * (1.0 - 2.0 ** -52)
    return out


_RADIUS = 100.0


def project_params(params):
    """Project every dense parameter of a model or a baseline into the ball
    of radius ``_RADIUS`` (Frobenius norm for matrices, L2 for vectors,
    modulus for scalars)."""
    return dataclasses.replace(params, **{
        f.name: _shrink(getattr(params, f.name), _RADIUS)
        for f in dataclasses.fields(params) if f.type != "str"})


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# the scale of the random draws of every field but a3
_SCALE = 0.5


def random_params(n_inputs: int, n_vertices: int, seed: int, *,
                  activation1: str = "tanh",
                  activation3: str = "identity") -> ModelParams:
    """Seeded random initialization with O(1) pre-activations."""
    rng = np.random.default_rng(seed)
    return ModelParams(
        a1=_SCALE * _complex_normal(rng, (n_inputs, n_vertices))
        / np.sqrt(n_inputs),
        b1=_SCALE * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        a3=_complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        b3=_SCALE * complex(*rng.standard_normal(2)) / 4.0,
        activation1=activation1, activation3=activation3)


def random_baseline(n_inputs: int, n_vertices: int, seed: int, *,
                    activation1: str = "tanh", activation2: str = "tanh",
                    activation3: str = "identity") -> BaselineParams:
    """Seeded random baseline, drawn at the scale of ``random_params``."""
    rng = np.random.default_rng(seed)
    return BaselineParams(
        a1=_SCALE * _complex_normal(rng, (n_inputs, n_vertices))
        / np.sqrt(n_inputs),
        b1=_SCALE * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        w2=_SCALE * _complex_normal(rng, (n_vertices, n_vertices))
        / np.sqrt(n_vertices),
        b2=_SCALE * _complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        a3=_complex_normal(rng, n_vertices) / np.sqrt(n_vertices),
        b3=_SCALE * complex(*rng.standard_normal(2)) / 4.0,
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
    the fresh parameters, before the graph moved), NaN if that step failed.
    Failures are logged strings; the epoch still completes.
    """

    epoch: int
    train_loss: float
    n_edges: int
    b0: int
    b1: int
    failures: tuple = ()


@dataclass(frozen=True)
class BaselineEpochRecord:
    """One epoch of baseline training; failures as in ``EpochRecord``."""

    epoch: int
    train_loss: float
    failures: tuple = ()


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


def _sgd_step(params, grads: list, lr_params: float):
    """One projected batch-mean SGD step at rate ``lr_params`` on the dense
    parameters, along gradient dataclasses whose fields name the
    parameters they move."""
    if not grads:
        return params
    lr = lr_params / len(grads)
    return project_params(dataclasses.replace(params, **{
        f.name: getattr(params, f.name) - lr * sum(getattr(gr, f.name)
                                                   for gr in grads)
        for f in dataclasses.fields(grads[0])}))


def _phase_batches(sampler, epochs: int, b: int) -> list[list]:
    """A phase's ``epochs`` mini-batches of ``b`` pairs, in epoch order,
    from one sampler call that must return exactly ``epochs * b`` pairs."""
    n = epochs * b
    if n == 0:
        return []
    pairs = [(np.asarray(x, dtype=complex), y) for x, y in sampler(n)]
    if len(pairs) != n:
        raise ValueError(f"sampler returned {len(pairs)} pairs when asked "
                         f"for {n}")
    return [pairs[k:k + b] for k in range(0, n, b)]


def train(sampler, params: ModelParams, g: WeightedGraph, *, epochs: int,
          lr_params: float, moduli_config: OptimizerConfig,
          engine: SteadySolveEngine):
    """Interleaved training loop of the model ``params`` on the graph ``g``:
    ``epochs`` epochs at the SGD rate ``lr_params``, whose graph steps run
    under ``moduli_config``.  The three settings a phase reads are checked
    as ``baseline_train`` checks them, before the sampler is called.

    The phase draws all its mini-batches of ``moduli_config.batch_size``
    pairs in one ``sampler`` call, so a teacher sampler labels them in one
    engine call; a sampler that draws pair by pair from one stream yields
    the batches that one call per epoch would.  Each epoch takes a
    projected batch-mean SGD step on the dense parameters along its batch,
    then one graph descent step on that batch with the updated output layer
    as readout.  The SGD step solves its cores in one ``engine`` call and
    the graph step, whose generator ``moduli_config.seed`` seeds, solves
    with it too.  The parameter balls of ``project_params`` do not keep
    tanh pre-activations off the complex poles at ±iπ/2; ``_input_layer``
    rejects the non-finite state a pole gives.  Per-sample and per-step
    failures are recorded on the epoch and training continues.  Returns
    ``(params, graph, history)``; with ``epochs == 0`` the inputs pass
    through untouched and the sampler is not called.
    """
    if not isinstance(moduli_config, OptimizerConfig):
        raise TypeError("moduli_config must be an OptimizerConfig")
    epochs, lr_params, batch_size = _phase_settings(
        epochs, lr_params, moduli_config.batch_size)
    rng = np.random.default_rng(moduli_config.seed)
    history: list[EpochRecord] = []
    for epoch, pairs in enumerate(_phase_batches(sampler, epochs,
                                                 batch_size)):
        failures: list[str] = []

        cores = _core_pass(params, g, [x for x, _ in pairs], engine)
        params = _sgd_step(params, _per_sample(
            lambda k: param_gradients(params, g, *pairs[k],
                                      _checked(cores[k], k)),
            len(pairs), "param gradient, sample", failures), lr_params)

        train_loss = float("nan")
        try:
            batch = Batch.from_pairs([(input_state(params, x), y)
                                      for x, y in pairs])
            g, events = descent_step(g, batch, moduli_config, epoch,
                                     readout=ModelReadout(params),
                                     engine=engine, rng=rng)
            train_loss = events.loss.data
        except _SAMPLE_ERRORS as exc:
            failures.append(f"graph step: {exc}")

        b0, b1 = betti_numbers(g)
        history.append(EpochRecord(epoch, train_loss, g.n_edges, b0, b1,
                                   tuple(failures)))
    return params, g, history


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


def baseline_train(sampler, params: BaselineParams, *, epochs: int,
                   lr_params: float, batch_size: int):
    """Projected batch-SGD on the dense baseline, same policy as ``train``:
    ``epochs`` steps at rate ``lr_params``, each along a mini-batch of
    ``batch_size`` pairs, all three checked as ``train`` checks them.

    The phase draws all its mini-batches in one ``sampler`` call, as in
    ``train``.  Losses are recorded after each epoch's update on that
    epoch's batch, over the samples that do not fail (NaN if none).  Each
    failing sample is logged on the epoch, and training continues.
    """
    epochs, lr_params, batch_size = _phase_settings(epochs, lr_params,
                                                    batch_size)
    history: list[BaselineEpochRecord] = []
    for epoch, pairs in enumerate(_phase_batches(sampler, epochs,
                                                 batch_size)):
        failures: list[str] = []
        params = _sgd_step(params, _per_sample(
            lambda k: baseline_gradients(params, *pairs[k]), len(pairs),
            "param gradient, sample", failures), lr_params)
        losses = _per_sample(lambda k: baseline_loss_sample(params, *pairs[k]),
                             len(pairs), "train sample", failures)
        train_loss = float(np.mean(losses)) if losses else float("nan")
        history.append(BaselineEpochRecord(epoch, train_loss,
                                           tuple(failures)))
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


def model_teacher_sampler(params: ModelParams, g: WeightedGraph,
                          engine: SteadySolveEngine, base_sampler):
    """Wrap an input stream, replacing targets with this model's outputs.

    The wrapped model acts as the data-generating teacher, so the task is
    realizable exactly by construction.  One draw labels all its inputs in
    one ``engine`` call, and each label is a function of its input alone:
    each input is solved from its own start, its last converged state
    across calls, so one draw of ``k * b`` pairs equals ``k`` draws of
    ``b``.
    """
    def draw(batch_size: int):
        xs = [x for x, _ in base_sampler(batch_size)]
        cores = _core_pass(params, g, xs, engine)
        return [(x, readout_value(params, _checked(core, k).psi_inf))
                for k, (x, core) in enumerate(zip(xs, cores))]

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


def _real_leaves(x):
    """``x``, nested lists of real numbers, each checked and never cast."""
    if isinstance(x, list):
        return [_real_leaves(v) for v in x]
    return _exact(x, "entry", real=True)


def _decode_array(d: dict) -> np.ndarray:
    re, im = (np.asarray(_real_leaves(d[k]), dtype=float) for k in ("re", "im"))
    if re.shape != im.shape:
        raise ValueError(f"re has shape {re.shape}, im {im.shape}")
    return re + 1j * im


def save_checkpoint(path, params: ModelParams, g: WeightedGraph, *,
                    extra: dict | None = None) -> None:
    """Write the model and graph as deterministic, realified JSON."""
    payload = {
        "model": _encode_params(params),
        "graph": graph_to_dict(g),
        "extra": extra if extra is not None else {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, WeightedGraph]:
    """The model and graph of a ``save_checkpoint`` file.  Every ``re`` and
    ``im`` leaf of the model must be a real number and not a bool; any
    malformed model is a ValueError naming its field, as a malformed graph
    is a GraphError."""
    with open(path) as fh:
        payload = json.load(fh)
    fields = {}
    for f in dataclasses.fields(ModelParams):
        try:
            value = payload["model"][f.name]
            if f.type != "str":
                value = _decode_array(value)
                if f.type == "complex" and value.ndim:
                    raise ValueError(f"shape {value.shape} is not a scalar's")
            fields[f.name] = value
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint model field {f.name}: {exc!r}"
                             ) from exc
    return ModelParams(**fields), graph_from_dict(payload["graph"])


def write_history_csv(path, record_type: type, history: Sequence) -> None:
    """Records of ``record_type`` (``EpochRecord`` or
    ``BaselineEpochRecord``) as CSV: one column per field but ``failures``,
    floats in shortest round-trip form.  The header comes from the class,
    so an empty history still gets one."""
    fields = [f for f in dataclasses.fields(record_type)
              if f.name != "failures"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in fields])
        for rec in history:
            writer.writerow([repr(float(getattr(rec, f.name)))
                             if f.type == "float" else getattr(rec, f.name)
                             for f in fields])
