"""Tests for the three-layer model and its dense baseline.

Oracles: hand-computable stationary instances (no integration needed),
bit-for-bit composition against manual module chaining, central finite
differences for every gradient path, exact-equality checks for projection
and serialization, and a self-consistent teacher fixed point for the
interleaved training loop.
"""

import dataclasses
import inspect
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_moduli.dynamics import (NlseConfig, SteadyState,
                                      UnconvergedError,
                                      solve_steady_state_many)
from spectral_moduli.graph_core import GraphError, build_graph, graph_to_dict
from spectral_moduli.moduli import (Batch, OptimizerConfig,
                                    SteadySolveEngine, regularized_loss)
from spectral_moduli.topo_metric import (ManifoldSpec, PopulationReadout,
                                         TeacherSampler, build_ground_truth)
from spectral_moduli import fann_model as fm, moduli

RUN_CFG = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
TIGHT_CFG = NlseConfig(dt=1e-2, steady_tol=1e-11, t_max=4000.0)


def opt_config(**kw):
    base = dict(iterations=1, prune_threshold=0.05,
                add_threshold=1e-5, step_size=1.0, batch_size=4,
                l1_coeff=1e-11, l2_coeff=1e-11, seed=0,
                candidate_fraction=1.0)
    base.update(kw)
    return OptimizerConfig(**base)


def train_config(batch_size=4, **kw):
    """``train``'s settings as keyword arguments."""
    base = dict(epochs=2, lr_params=0.1,
                moduli_config=opt_config(batch_size=batch_size))
    base.update(kw)
    return base


@pytest.fixture(scope="module")
def c4():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                               2.0)
    readout = PopulationReadout.random(truth.n, seed=246)
    sampler = TeacherSampler(truth, readout, SteadySolveEngine(RUN_CFG),
                             seed=202)
    return truth, sampler


@pytest.fixture(scope="module")
def c4_model(c4):
    """Random params and the teacher graph for a converged desk instance."""
    truth, _ = c4
    params = fm.random_params(truth.n, truth.n, seed=12)
    return params, truth.teacher_graph()


def solved_gradients(params, point, x, y, config):
    """``param_gradients`` at the core state a fresh engine on ``config``
    solves."""
    (core,) = SteadySolveEngine(config).solve_many(
        [(point, fm.input_state(params, x))])
    assert core.converged
    return fm.param_gradients(params, point, x, y, core)


def unit_vector(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# parameter containers


def test_model_params_validation():
    good = dict(a1=np.zeros((2, 3)), b1=np.ones(3), a3=np.ones(3), b3=0.0)
    fm.ModelParams(**good)
    with pytest.raises(ValueError, match="vertex dimension"):
        fm.ModelParams(**{**good, "b1": np.ones(2)})
    with pytest.raises(ValueError, match="matrix"):
        fm.ModelParams(**{**good, "a1": np.zeros(3)})
    with pytest.raises(ValueError, match="finite"):
        fm.ModelParams(**{**good, "a3": np.array([1.0, np.nan, 0.0])})
    with pytest.raises(ValueError, match="finite"):
        fm.ModelParams(**{**good, "b3": complex(np.inf, 0)})
    with pytest.raises(ValueError, match="activation1"):
        fm.ModelParams(**good, activation1="relu")


def test_train_config_validation():
    # train checks its settings before it calls the sampler, and
    # baseline_train holds its three settings to the same checks
    def untouched(count):
        raise AssertionError("the sampler was called")

    params = fm.random_params(3, 3, seed=0)
    point = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    engine = SteadySolveEngine(RUN_CFG)
    assert fm.train(untouched, params, point, **train_config(epochs=0),
                    engine=engine) == (params, point, [])
    bp = fm.random_baseline(3, 3, seed=0)
    data = fm.fixed_set_sampler([(unit_vector(3, 1), 0.0)])
    phase = dict(epochs=2, lr_params=0.1, batch_size=4)
    for name, bad in ([("epochs", bad) for bad in (-1, 2.5, float("inf"),
                                                   float("nan"))]
                      + [("batch_size", bad) for bad in (0, float("inf"))]
                      + [("lr_params", 0.0)]):
        with pytest.raises(ValueError, match=name):
            # a bad batch size is refused by the OptimizerConfig train reads
            fm.train(untouched, params, point, **train_config(**{name: bad}),
                     engine=engine)
        with pytest.raises(ValueError, match=name):
            fm.baseline_train(data, bp, **{**phase, name: bad})
    with pytest.raises(TypeError, match="OptimizerConfig"):
        fm.train(untouched, params, point, epochs=1, lr_params=0.1,
                 moduli_config=RUN_CFG, engine=engine)


def test_every_setting_is_one_a_run_sets():
    # a new setting arrives with the run that sets it, and every caller of
    # descent_step hands over the generator it keeps across steps
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
        "iterations", "prune_threshold", "add_threshold", "step_size",
        "batch_size", "l1_coeff", "l2_coeff", "seed", "candidate_fraction"]
    # train takes its settings as keywords, the way baseline_train does
    assert [name for name, p in inspect.signature(fm.train).parameters.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY] == [
        "epochs", "lr_params", "moduli_config", "engine"]
    rng = inspect.signature(moduli.descent_step).parameters["rng"]
    assert rng.default is inspect.Parameter.empty
    # the records' fields are the history CSV columns (failures aside), and
    # training measures no heldout set: gap_report.json does that once
    assert [f.name for f in dataclasses.fields(fm.EpochRecord)] == [
        "epoch", "train_loss", "n_edges", "b0", "b1", "failures"]
    assert [f.name for f in dataclasses.fields(fm.BaselineEpochRecord)] == [
        "epoch", "train_loss", "failures"]
    for fn in (fm.train, fm.baseline_train):
        assert "heldout" not in inspect.signature(fn).parameters
    # the baseline reads three settings
    assert list(inspect.signature(fm.baseline_train).parameters) == [
        "sampler", "params", "epochs", "lr_params", "batch_size"]
    # every field of a step's events and of a strata summary has a reader
    assert [f.name for f in dataclasses.fields(moduli.StepEvents)] == [
        "added", "pruned", "loss", "test_gradients", "post_update_weights",
        "skipped_candidates"]
    assert [f.name for f in dataclasses.fields(moduli.StrataSummary)] == [
        "count", "true_subset_count", "spurious_count"]


def test_baseline_params_validation():
    n = 3
    good = dict(a1=np.zeros((n, n)), b1=np.ones(n), w2=np.eye(n),
                b2=np.zeros(n), a3=np.ones(n), b3=0.0)
    fm.BaselineParams(**good)
    with pytest.raises(ValueError, match="square"):
        fm.BaselineParams(**{**good, "w2": np.zeros((n, n + 1))})
    with pytest.raises(ValueError, match="width"):
        fm.BaselineParams(**{**good, "a1": np.zeros((n, n + 1))})
    with pytest.raises(ValueError, match="activation2"):
        fm.BaselineParams(**good, activation2="sigmoid")
    with pytest.raises(ValueError, match="matrix"):
        fm.BaselineParams(**{**good, "w2": np.ones(n)})
    with pytest.raises(ValueError, match="finite"):
        fm.BaselineParams(**{**good, "b2": np.array([0.0, np.inf, 0.0])})
    with pytest.raises(ValueError, match="finite"):
        fm.BaselineParams(**{**good, "b3": complex(0.0, np.nan)})


# ---------------------------------------------------------------------------
# input layer


def test_input_state_unit_norm(c4_model):
    params, _ = c4_model
    psi0 = fm.input_state(params, unit_vector(4, 5))
    assert abs(np.linalg.norm(psi0) - 1.0) < 1e-14


def test_input_state_zero_is_degenerate():
    params = fm.ModelParams(a1=np.zeros((2, 3)), b1=np.zeros(3),
                            a3=np.ones(3), b3=0.0, activation1="identity")
    with pytest.raises(fm.DegenerateInputError, match="zero"):
        fm.input_state(params, np.ones(2))


def test_input_state_shape_check(c4_model):
    params, _ = c4_model
    with pytest.raises(ValueError, match="shape"):
        fm.input_state(params, np.ones(5))


# ---------------------------------------------------------------------------
# forward


def test_forward_single_vertex_hand_value():
    params = fm.ModelParams(a1=np.zeros((1, 1)), b1=np.ones(1),
                            a3=np.ones(1), b3=0.0, activation1="identity",
                            activation3="identity")
    point = build_graph(1, [])
    y, psi = fm.forward(params, point, np.zeros(1), SteadySolveEngine(RUN_CFG))
    assert y == pytest.approx(1.0, abs=1e-12)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_forward_stationary_p2_equals_readout_of_psi0():
    # the uniform state on a symmetric pair is an exact relative
    # equilibrium, so the core returns it unchanged and the whole model
    # collapses to the output layer
    b1 = np.ones(2) / np.sqrt(2.0)
    point = build_graph(2, [(0, 1, 0.7)])
    aligned = fm.ModelParams(a1=np.zeros((2, 2)), b1=b1,
                             a3=b1.astype(complex), b3=0.5,
                             activation1="identity", activation3="identity")
    psi0 = fm.input_state(aligned, np.zeros(2))
    y, psi = fm.forward(aligned, point, np.zeros(2),
                        SteadySolveEngine(RUN_CFG))
    assert np.array_equal(psi, psi0)
    assert y == pytest.approx(1.5, abs=1e-12)


def test_forward_composition_matches_manual_chain(c4_model):
    params, point = c4_model
    x = unit_vector(4, 17)
    y, psi = fm.forward(params, point, x, SteadySolveEngine(RUN_CFG))
    psi0 = fm.input_state(params, x)
    st = solve_steady_state_many([point], [psi0], RUN_CFG)[0]
    assert np.array_equal(psi, st.psi_inf)
    assert y == fm.readout_value(params, st.psi_inf)


def test_forward_vertex_mismatch(c4_model):
    params, _ = c4_model
    # the solver rejects the model's 4-vertex state on a 3-vertex graph
    with pytest.raises(GraphError,
                       match=r"scalar field has shape \(4,\), expected \(3,\)"):
        fm.forward(params, build_graph(3, [(0, 1, 1.0)]),
                   unit_vector(4, 3), SteadySolveEngine(RUN_CFG))


def test_forward_nonconvergence_is_forwarded(c4_model):
    params, point = c4_model
    short = NlseConfig(dt=5e-2, steady_tol=1e-12, t_max=0.2)
    with pytest.raises(UnconvergedError, match="residual") as err:
        fm.forward(params, point, unit_vector(4, 3), SteadySolveEngine(short))
    assert (err.value.sample, err.value.reason) == (0, "horizon")


class Stalling:
    """An engine that returns each input as its state and ends the rows
    ``rows`` of every call with ``reason``."""

    def __init__(self, rows, reason):
        self.rows, self.reason = rows, reason

    def warm_started(self, xs):
        return False

    def solve_many(self, jobs, *, probe=False):
        return [SteadyState(np.asarray(x, dtype=complex), 1.0, 0.5, 0.1,
                            reason=self.reason if i in self.rows else None)
                for i, (_, x) in enumerate(jobs)]


def test_core_error_names_the_failing_sample_and_reason(c4_model):
    # each caller of the core names the input whose state did not settle
    params, point = c4_model
    pairs = [(unit_vector(4, s), 0.0) for s in range(3)]
    engine = Stalling({1}, "singular")
    labels = fm.model_teacher_sampler(params, point, engine,
                                      fm.fixed_set_sampler(pairs))
    for call in (lambda: fm.loss_samples(params, point, pairs, engine),
                 lambda: labels(3)):
        with pytest.raises(UnconvergedError,
                           match=r"sample 1 \(singular: residual 5\.000e-01"
                           ) as err:
            call()
        assert (err.value.sample, err.value.reason) == (1, "singular")
    _, _, (h,) = fm.train(fm.fixed_set_sampler(pairs), params, point,
                          **train_config(batch_size=3, epochs=1),
                          engine=Stalling({0, 1, 2}, "repelled"))
    assert [f.split(" (")[0] for f in h.failures] == [
        f"param gradient, sample {k}: steady-state solve did not converge "
        f"for sample {k}" for k in range(3)] + [
        "graph step: steady-state solve did not converge for sample 0"]


def zero_state_input(params):
    """An input whose pre-activation a1.T x + b1, hence whose state,
    vanishes up to rounding."""
    return np.linalg.solve(params.a1.T, -params.b1)


def test_core_pass_puts_a_degenerate_input_in_its_place(c4_model):
    params, point = c4_model
    xs = [unit_vector(4, 1), zero_state_input(params), unit_vector(4, 2)]
    cores = fm._core_pass(params, point, xs, SteadySolveEngine(RUN_CFG))
    assert len(cores) == 3
    assert isinstance(cores[1], fm.DegenerateInputError)
    assert "zero state" in str(cores[1])
    for k in (0, 2):
        y, _ = fm.forward(params, point, xs[k], SteadySolveEngine(RUN_CFG))
        assert cores[k].converged
        assert fm.readout_value(params, cores[k].psi_inf) == \
            pytest.approx(y, abs=1e-12)


# ---------------------------------------------------------------------------
# loss


def test_loss_sample_trivial_values(c4_model):
    params, point = c4_model
    x = unit_vector(4, 21)
    y_hat, _ = fm.forward(params, point, x, SteadySolveEngine(RUN_CFG))
    assert fm.loss_samples(params, point, [(x, y_hat)],
                           SteadySolveEngine(RUN_CFG))[0] == 0.0
    assert fm.loss_samples(params, point, [(x, y_hat - 1.0)],
                           SteadySolveEngine(RUN_CFG))[0] \
        == pytest.approx(1.0, rel=1e-12)


def test_loss_batch_mean_matches_moduli_data_term(c4_model):
    params, point = c4_model
    engine = SteadySolveEngine(RUN_CFG)
    pairs = [(unit_vector(4, s), 0.1 * s) for s in range(3)]
    batch = Batch.from_pairs([(fm.input_state(params, x), y)
                              for x, y in pairs])
    breakdown = regularized_loss(point, batch, fm.ModelReadout(params),
                                 opt_config(batch_size=3), engine=engine)
    mean = sum(fm.loss_samples(params, point, [(x, y)], engine)[0]
               for x, y in pairs) / len(pairs)
    assert breakdown.data == pytest.approx(mean, rel=1e-14)


def test_gauge_aligned_readout_is_phase_invariant(c4_model):
    params, point = c4_model
    x = unit_vector(4, 33)
    _, psi = fm.forward(params, point, x, SteadySolveEngine(RUN_CFG))
    base = fm.readout_value(params, psi)
    for theta in (0.3, 1.7, -2.9):
        rotated = fm.readout_value(params, np.exp(1j * theta) * psi)
        assert abs(rotated - base) < 1e-10


@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.floats(-np.pi, np.pi), st.sampled_from(["identity", "tanh"]))
def test_readouts_are_gauge_invariant(n, seed, theta, activation3):
    # under psi -> e^{i theta} psi both readouts keep their value, and their
    # realified cotangents turn by the same rotation
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    c, s = np.cos(theta) * np.eye(n), np.sin(theta) * np.eye(n)
    rotation = np.block([[c, -s], [s, c]])
    params = fm.random_params(n, n, seed, activation3=activation3)
    for readout in (PopulationReadout.random(n, seed), fm.ModelReadout(params)):
        turned = np.exp(1j * theta) * psi
        assert abs(readout.value(turned) - readout.value(psi)) <= 1e-12
        assert np.abs(readout.cotangent(turned)
                      - rotation @ readout.cotangent(psi)).max() <= 1e-12


def test_loss_invariant_under_core_phase(c4_model):
    # a bias-free linear input layer is phase-equivariant, so rotating the
    # raw input rotates psi0 -- and with it the core output's global phase,
    # which the aligned readout must not see
    ref, point = c4_model
    rng = np.random.default_rng(41)
    params = dataclasses.replace(
        ref, a1=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        b1=np.zeros(4), activation1="identity")
    x = unit_vector(4, 41)
    y = 0.4
    base = fm.loss_samples(params, point, [(x, y)],
                           SteadySolveEngine(RUN_CFG))[0]
    rotated = fm.loss_samples(params, point, [(np.exp(1.1j) * x, y)],
                              SteadySolveEngine(RUN_CFG))[0]
    assert abs(base - rotated) < 1e-10


# ---------------------------------------------------------------------------
# gradients vs finite differences


def fd_model_gradient(params, point, x, y, config, field, idx, h=1e-5):
    def loss_at(delta):
        if field == "b3":
            p = dataclasses.replace(params, b3=params.b3 + delta)
        else:
            arr = np.array(getattr(params, field), copy=True)
            arr[idx] += delta
            p = dataclasses.replace(params, **{field: arr})
        return fm.loss_samples(p, point, [(x, y)],
                               SteadySolveEngine(config))[0]

    re = (loss_at(h) - loss_at(-h)) / (2 * h)
    im = (loss_at(1j * h) - loss_at(-1j * h)) / (2 * h)
    return re + 1j * im


def test_param_gradients_match_fd(c4_model):
    params, point = c4_model
    x = unit_vector(4, 3)
    y = 0.7
    grads = solved_gradients(params, point, x, y, TIGHT_CFG)
    checks = [("b3", None, grads.b3), ("a3", (0,), grads.a3[0]),
              ("a3", (2,), grads.a3[2]), ("b1", (1,), grads.b1[1]),
              ("b1", (3,), grads.b1[3]), ("a1", (0, 1), grads.a1[0, 1]),
              ("a1", (2, 2), grads.a1[2, 2])]
    for field, idx, got in checks:
        want = fd_model_gradient(params, point, x, y, TIGHT_CFG, field, idx)
        assert abs(got - want) / max(abs(want), 1e-12) < 1e-3, \
            f"{field}[{idx}]: adjoint {got} vs fd {want}"


def test_param_gradients_zero_at_exact_fit(c4_model):
    params, point = c4_model
    x = unit_vector(4, 9)
    y_hat, _ = fm.forward(params, point, x, SteadySolveEngine(RUN_CFG))
    grads = solved_gradients(params, point, x, y_hat, RUN_CFG)
    assert np.all(grads.a1 == 0) and np.all(grads.b1 == 0)
    assert np.all(grads.a3 == 0) and grads.b3 == 0


def test_model_readout_cotangent_matches_fd(c4_model):
    params, _ = c4_model
    bridge = fm.ModelReadout(params)
    psi = unit_vector(4, 50)
    cot = bridge.cotangent(psi)
    h = 1e-7
    for j in range(4):
        for k, delta in enumerate((h, 1j * h)):
            e = np.zeros(4, dtype=complex)
            e[j] = delta
            fd = (bridge.value(psi + e) - bridge.value(psi - e)) / (2 * h)
            assert abs(cot[j + 4 * k] - fd) < 1e-6


def test_baseline_gradients_match_fd():
    n = 3
    bp = fm.random_baseline(n, n, seed=4)
    x = unit_vector(n, 8)
    y = 0.3 - 0.2j
    grads = fm.baseline_gradients(bp, x, y)
    h = 1e-6

    def loss_at(field, idx, delta):
        if field == "b3":
            p = dataclasses.replace(bp, b3=bp.b3 + delta)
        else:
            arr = np.array(getattr(bp, field), copy=True)
            arr[idx] += delta
            p = dataclasses.replace(bp, **{field: arr})
        return fm.baseline_loss_sample(p, x, y)

    for field, idx in (("a1", (0, 2)), ("b1", (1,)), ("w2", (2, 0)),
                       ("b2", (0,)), ("a3", (2,)), ("b3", None)):
        got = grads.b3 if field == "b3" else getattr(grads, field)[idx]
        re = (loss_at(field, idx, h) - loss_at(field, idx, -h)) / (2 * h)
        im = (loss_at(field, idx, 1j * h)
              - loss_at(field, idx, -1j * h)) / (2 * h)
        want = re + 1j * im
        assert abs(got - want) / max(abs(want), 1e-12) < 1e-6, field


# ---------------------------------------------------------------------------
# projection


def dense_norms(params) -> dict:
    """The norm of every dense field: Frobenius, L2 or modulus."""
    return {f.name: float(np.linalg.norm(getattr(params, f.name)))
            for f in dataclasses.fields(params)
            if not isinstance(getattr(params, f.name), str)}


def test_projection_bounds_hold_exactly(monkeypatch):
    monkeypatch.setattr(fm, "_RADIUS", 1.5)
    rng = np.random.default_rng(0)
    params = fm.ModelParams(a1=10.0 * rng.standard_normal((3, 3)),
                            b1=5.0 * rng.standard_normal(3),
                            a3=7.0 * rng.standard_normal(3), b3=4.0 + 3.0j)
    assert all(n > 1.5 for n in dense_norms(params).values())
    proj = fm.project_params(params)
    assert all(n <= 1.5 for n in dense_norms(proj).values())
    again = fm.project_params(proj)
    assert np.array_equal(again.a1, proj.a1)
    assert np.array_equal(again.b1, proj.b1)
    assert np.array_equal(again.a3, proj.a3) and again.b3 == proj.b3


def test_projection_inside_ball_is_identity(c4_model, monkeypatch):
    params, _ = c4_model
    # a ball whose radius is the largest field norm holds every field
    monkeypatch.setattr(fm, "_RADIUS", max(dense_norms(params).values()))
    proj = fm.project_params(params)
    assert np.array_equal(proj.a1, params.a1)
    assert np.array_equal(proj.b1, params.b1)
    assert np.array_equal(proj.a3, params.a3)
    assert proj.b3 == params.b3


def test_baseline_projection_bounds_hold_exactly(monkeypatch):
    monkeypatch.setattr(fm, "_RADIUS", 0.7)
    rng = np.random.default_rng(1)
    bp = fm.BaselineParams(a1=rng.standard_normal((3, 3)) * 9,
                           b1=rng.standard_normal(3) * 9,
                           w2=rng.standard_normal((3, 3)) * 9,
                           b2=rng.standard_normal(3) * 9,
                           a3=rng.standard_normal(3) * 9, b3=9.0)
    assert all(n > 0.7 for n in dense_norms(bp).values())
    proj = fm.project_params(bp)
    assert all(n <= 0.7 for n in dense_norms(proj).values())
    again = fm.project_params(proj)
    assert all(np.array_equal(getattr(again, name), getattr(proj, name))
               for name in dense_norms(bp))


# ---------------------------------------------------------------------------
# training loop


def self_consistent_task(truth, sampler, n_pairs=4):
    """A teacher model over the true graph, generating its own targets."""
    rng = np.random.default_rng(91)
    n = truth.n
    a3 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
    teacher = fm.ModelParams(a1=np.eye(n, dtype=complex), b1=np.zeros(n),
                             a3=a3, b3=0.0, activation1="identity",
                             activation3="identity")
    point = truth.teacher_graph()
    bumps = [x for x, _ in sampler.exact()][:n_pairs]
    base = fm.fixed_set_sampler([(x, 0.0) for x in bumps])
    data = fm.model_teacher_sampler(teacher, point, SteadySolveEngine(RUN_CFG),
                                    base)
    return teacher, point, data


def test_train_zero_epochs_is_passthrough(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    cfg = train_config(epochs=0)
    p, pt, hist = fm.train(data, teacher, point, **cfg,
                           engine=SteadySolveEngine(RUN_CFG))
    assert p is teacher and pt is point and hist == []


def test_train_teacher_fixed_point(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    cfg = train_config(epochs=10, lr_params=0.05)
    p, pt, hist = fm.train(data, teacher, point, **cfg,
                           engine=SteadySolveEngine(RUN_CFG))
    assert len(hist) == 10
    assert max(h.train_loss for h in hist) < 1e-8
    assert pt.edges == point.edges
    assert all((h.b0, h.b1) == truth.betti for h in hist)
    assert all(h.failures == () for h in hist)


def test_train_is_deterministic(c4):
    truth, sampler = c4
    rng_params = fm.random_params(truth.n, truth.n, seed=2)
    point = truth.teacher_graph()
    runs = []
    for _ in range(2):
        teacher, tpoint, data = self_consistent_task(truth, sampler)
        cfg = train_config(epochs=3, lr_params=0.2)
        p, pt, hist = fm.train(data, rng_params, point, **cfg,
                               engine=SteadySolveEngine(RUN_CFG))
        runs.append((p, pt, [h.train_loss for h in hist]))
    (p1, pt1, l1), (p2, pt2, l2) = runs
    assert l1 == l2
    assert np.array_equal(p1.a1, p2.a1) and p1.b3 == p2.b3
    assert np.array_equal(pt1.weights, pt2.weights)


def test_train_logs_failures_and_continues(c4, monkeypatch):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)

    def never_converges(graphs, xs, config, starts=None, probe=False):
        return [SteadyState(psi_inf=np.asarray(x, dtype=complex),
                            t_reached=config.t_max, residual=1.0,
                            gamma=config.gamma, reason="horizon") for x in xs]

    pairs = sampler.exact()  # labelled before the solver fails
    monkeypatch.setattr(moduli, "solve_steady_state_many", never_converges)
    engine = SteadySolveEngine(RUN_CFG)
    cfg = train_config(epochs=2)
    with pytest.raises(UnconvergedError):
        fm.forward(teacher, point, unit_vector(truth.n, 0), engine)
    p, pt, hist = fm.train(fm.fixed_set_sampler(pairs), teacher, point,
                           **cfg, engine=engine)
    assert len(hist) == 2
    for h in hist:
        assert len(h.failures) == cfg["moduli_config"].batch_size + 1  # + step
        assert np.isnan(h.train_loss)
    assert graph_to_dict(pt) == graph_to_dict(point)
    assert np.array_equal(p.a1, teacher.a1)


def test_train_logs_a_degenerate_input_and_continues(c4_model):
    params, point = c4_model
    good = [(unit_vector(4, s), 0.1 * s) for s in (1, 2, 3)]
    pairs = [good[0], (zero_state_input(params), 0.0), good[1], good[2]]
    cfg = train_config(epochs=1)
    p, _, hist = fm.train(fm.fixed_set_sampler(pairs), params, point, **cfg,
                          engine=SteadySolveEngine(RUN_CFG))
    (h,) = hist
    assert h.failures == ("param gradient, sample 1: input layer produced "
                          "the zero state",)
    # the SGD step moves along the three good samples alone; the graph
    # step then runs at the moved parameters, where no input is degenerate
    expect = fm._sgd_step(params, [
        solved_gradients(params, point, x, y, RUN_CFG) for x, y in good],
        cfg["lr_params"])
    assert np.allclose(p.a1, expect.a1, rtol=0.0, atol=1e-12)
    assert np.allclose(p.a3, expect.a3, rtol=0.0, atol=1e-12)
    assert np.isfinite(h.train_loss)


def test_train_epoch_solves_once_per_pass(c4, monkeypatch):
    # one engine call each for the SGD batch and the graph step's current
    # graph and probe pass
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    engine = SteadySolveEngine(RUN_CFG)
    calls = []
    solve_many = engine.solve_many

    def counting(jobs, *args, **kwargs):
        calls.append(len(jobs))
        return solve_many(jobs, *args, **kwargs)

    monkeypatch.setattr(engine, "solve_many", counting)
    params = fm.random_params(truth.n, truth.n, seed=2)
    _, _, hist = fm.train(data, params, point, **train_config(epochs=1),
                          engine=engine)
    # a batch of 4 distinct inputs; C4 has two absent edges to probe
    assert calls == [4, 4, 2 * 4]
    assert hist[0].failures == ()


def counted_teacher(truth, sampler):
    """A self-consistent task whose teacher engine logs each call's job
    count."""
    teacher, point, _ = self_consistent_task(truth, sampler)
    engine = SteadySolveEngine(RUN_CFG)
    calls = []
    solve_many = engine.solve_many

    def counting(jobs, *args, **kwargs):
        calls.append(len(jobs))
        return solve_many(jobs, *args, **kwargs)

    engine.solve_many = counting
    stream = fm.noisy_input_stream([x for x, _ in sampler.exact()], 0.1,
                                   seed=4)
    data = fm.model_teacher_sampler(teacher, point, engine, stream)
    return teacher, point, data, calls


def train_phase(loop, data, cfg, truth, teacher, point):
    """History of one ``train`` or ``baseline_train`` phase on ``data``."""
    if loop == "train":
        return fm.train(data, teacher, point, **cfg,
                        engine=SteadySolveEngine(RUN_CFG))[2]
    return fm.baseline_train(
        data, fm.random_baseline(truth.n, truth.n, seed=1),
        epochs=cfg["epochs"], lr_params=cfg["lr_params"],
        batch_size=cfg["moduli_config"].batch_size)[1]


@pytest.mark.parametrize("loop", ["train", "baseline_train"])
def test_training_phase_labels_in_one_teacher_call(c4, loop):
    truth, sampler = c4
    teacher, point, data, calls = counted_teacher(truth, sampler)
    hist = train_phase(loop, data, train_config(epochs=3), truth, teacher,
                       point)
    assert calls == [3 * 4]
    assert len(hist) == 3


@pytest.mark.parametrize("loop", ["train", "baseline_train"])
def test_training_rejects_a_sampler_that_miscounts(c4, loop):
    # like TeacherSampler.exact_sampler(), this sampler ignores its count
    truth, sampler = c4
    teacher, point, _ = self_consistent_task(truth, sampler)
    pairs = [(x, 0.0) for x, _ in sampler.exact()][:3]
    with pytest.raises(ValueError, match="returned 3 pairs when asked for 8"):
        train_phase(loop, lambda count: pairs, train_config(epochs=2), truth,
                    teacher, point)


# ---------------------------------------------------------------------------
# baseline network


def test_baseline_identity_collapses_to_readout():
    n = 3
    a3 = np.array([0.2 + 0.1j, -0.4j, 0.9])
    bp = fm.BaselineParams(a1=np.eye(n), b1=np.zeros(n), w2=np.eye(n),
                           b2=np.zeros(n), a3=a3, b3=0.3 + 0.2j,
                           activation1="identity", activation2="identity",
                           activation3="identity")
    x = unit_vector(n, 6)
    y, hidden = fm.baseline_forward(bp, x)
    assert np.allclose(hidden, x, atol=1e-15)
    assert y == pytest.approx(complex(np.vdot(a3, x) + bp.b3), abs=1e-14)


def test_baseline_train_reduces_realizable_loss():
    n = 3
    target = fm.random_baseline(n, n, seed=30)
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(8):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pairs.append((x, fm.baseline_forward(target, x)[0]))
    data = fm.fixed_set_sampler(pairs)
    trainee = fm.random_baseline(n, n, seed=31)
    initial = float(np.mean([fm.baseline_loss_sample(trainee, x, y)
                             for x, y in pairs]))
    trained, hist = fm.baseline_train(data, trainee, epochs=40, lr_params=0.2,
                                      batch_size=4)
    final = float(np.mean([fm.baseline_loss_sample(trained, x, y)
                           for x, y in pairs]))
    assert len(hist) == 40
    assert final < 0.2 * initial


def test_baseline_train_skips_a_degenerate_sample_and_continues():
    # b1 = 0 sends the zero input to the zero state
    n = 3
    bp = dataclasses.replace(fm.random_baseline(n, n, seed=0), b1=np.zeros(n))
    good = [(unit_vector(n, s), 0.1 * s) for s in (1, 2, 3)]
    pairs = [good[0], (np.zeros(n), 0.3), good[1], good[2]]
    out, (h,) = fm.baseline_train(fm.fixed_set_sampler(pairs), bp, epochs=1,
                                  lr_params=0.1, batch_size=4)
    # the update moves along the three good samples alone; the epoch loss
    # is then taken at the moved b1, where no input is degenerate
    expect = fm._sgd_step(bp, [fm.baseline_gradients(bp, x, y)
                               for x, y in good], 0.1)
    assert np.array_equal(out.w2, expect.w2)
    assert np.array_equal(out.b1, expect.b1) and out.b3 == expect.b3
    assert h.train_loss == float(np.mean([fm.baseline_loss_sample(out, x, y)
                                          for x, y in pairs]))
    why = ": input layer produced the zero state"
    assert h.failures == ("param gradient, sample 1" + why,)
    # when every sample fails the update is void, the epoch loss reads NaN,
    # each pass names every sample it skipped, and training goes on
    zero = fm.fixed_set_sampler([(np.zeros(n), 0.3)])
    same, hist = fm.baseline_train(zero, bp, epochs=2, lr_params=0.1,
                                   batch_size=2)
    assert len(hist) == 2 and all(np.isnan(r.train_loss) for r in hist)
    assert np.array_equal(same.w2, bp.w2)
    assert [r.failures for r in hist] == [tuple(
        f"{what} {k}{why}" for what in ("param gradient, sample",
                                         "train sample") for k in range(2))] * 2


def test_baseline_train_zero_epochs_and_determinism():
    n = 3
    bp = fm.random_baseline(n, n, seed=1)
    data = fm.fixed_set_sampler([(unit_vector(n, s), 0.1) for s in range(4)])
    phase = dict(lr_params=0.1, batch_size=4)
    out, hist = fm.baseline_train(data, bp, epochs=0, **phase)
    assert out is bp and hist == []
    one, h1 = fm.baseline_train(data, bp, epochs=3, **phase)
    data2 = fm.fixed_set_sampler([(unit_vector(n, s), 0.1) for s in range(4)])
    two, h2 = fm.baseline_train(data2, bp, epochs=3, **phase)
    assert np.array_equal(one.w2, two.w2)
    assert [r.train_loss for r in h1] == [r.train_loss for r in h2]


def test_baseline_train_takes_integral_float_counts():
    # 2.0 epochs of 4.0 pairs pass the integer checks, so they must train
    # as 2 epochs of 4 pairs
    n = 3
    bp = fm.random_baseline(n, n, seed=1)
    pairs = [(unit_vector(n, s), 0.1 * s) for s in range(8)]
    runs = [fm.baseline_train(fm.fixed_set_sampler(pairs), bp, epochs=epochs,
                              lr_params=0.1, batch_size=batch_size)
            for epochs, batch_size in ((2, 4), (2.0, 4.0))]
    (one, h1), (two, h2) = runs
    assert type(fm._phase_settings(2.0, 0.1, 4.0)[0]) is int  # as in train
    assert np.array_equal(one.w2, two.w2) and np.array_equal(one.a3, two.a3)
    assert [r.train_loss for r in h1] == [r.train_loss for r in h2]
    assert len(h2) == 2


# ---------------------------------------------------------------------------
# generalization gap


def test_gap_zero_on_identical_streams():
    losses = [abs(0.2 * s) ** 2 for s in range(5)]
    report = fm.generalization_gap(losses, losses)
    assert report.gap == 0.0
    assert report.m == 5
    assert report.noise_bound == pytest.approx(3.0 / np.sqrt(5))


def test_gap_rejects_empty_sets():
    with pytest.raises(ValueError, match="nonempty"):
        fm.generalization_gap([], [0.0])
    with pytest.raises(ValueError, match="nonempty"):
        fm.generalization_gap([0.0], [])


# ---------------------------------------------------------------------------
# data plumbing


def test_fixed_set_sampler_cycles():
    pairs = [(np.full(2, k, dtype=complex), float(k)) for k in range(3)]
    draw = fm.fixed_set_sampler(pairs)
    ys = [y for _, y in draw(4)] + [y for _, y in draw(2)]
    assert ys == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]


def test_noisy_input_stream_properties():
    base = [unit_vector(4, s) for s in range(2)]
    draw = fm.noisy_input_stream(base, 0.3, seed=5)
    batch = draw(6)
    for x, y in batch:
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert y == 0.0
    again = fm.noisy_input_stream(base, 0.3, seed=5)(6)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(batch, again))
    clean = fm.noisy_input_stream(base, 0.0, seed=5)(4)
    assert all(any(np.array_equal(x, b) for b in base) for x, _ in clean)


def same_pairs(one, other):
    return (len(one) == len(other)
            and all(np.array_equal(x1, x2) and y1 == y2
                    for (x1, y1), (x2, y2) in zip(one, other)))


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(0, 6),
       st.floats(0.0, 0.5))
def test_one_draw_equals_consecutive_draws(seed, a, b, delta):
    base = [unit_vector(3, s) for s in range(3)]
    whole = fm.noisy_input_stream(base, delta, seed=seed)(a + b)
    draw = fm.noisy_input_stream(base, delta, seed=seed)
    assert same_pairs(whole, draw(a) + draw(b))
    fixed = [(unit_vector(3, seed % 97 + s), float(s)) for s in range(4)]
    whole = fm.fixed_set_sampler(fixed)(a + b)
    draw = fm.fixed_set_sampler(fixed)
    assert same_pairs(whole, draw(a) + draw(b))


@settings(max_examples=8)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5),
       st.integers(1, 3), st.integers(1, 3))
def test_teacher_labels_one_draw_equals_k_draws(c4, picks, k, b):
    # repeated inputs share a solve within one call and warm-start from
    # their own converged state across calls; the labels agree bit for bit
    truth, sampler = c4
    teacher, point, _ = self_consistent_task(truth, sampler)
    bumps = [x for x, _ in sampler.exact()]
    inputs = [(bumps[i], 0.0) for i in picks]

    def labelled():
        return fm.model_teacher_sampler(teacher, point,
                                        SteadySolveEngine(RUN_CFG),
                                        fm.fixed_set_sampler(inputs))

    whole = labelled()(k * b)
    draw = labelled()
    assert same_pairs(whole, [p for _ in range(k) for p in draw(b)])


def test_model_teacher_sampler_targets(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    for x, y in data(3):
        assert y == fm.forward(teacher, point, x,
                               SteadySolveEngine(RUN_CFG))[0]


# ---------------------------------------------------------------------------
# serialization


def test_checkpoint_roundtrip_and_determinism(tmp_path, c4_model):
    params, point = c4_model
    path = tmp_path / "model.json"
    fm.save_checkpoint(path, params, point, extra={"note": 1})
    loaded_params, loaded_point = fm.load_checkpoint(path)
    assert np.array_equal(loaded_params.a1, params.a1)
    assert np.array_equal(loaded_params.a3, params.a3)
    assert loaded_params.b3 == params.b3
    assert loaded_point.edges == point.edges
    assert np.array_equal(loaded_point.weights, point.weights)
    first = path.read_bytes()
    fm.save_checkpoint(path, loaded_params, loaded_point, extra={"note": 1})
    assert path.read_bytes() == first
    assert json.loads(first)["extra"] == {"note": 1}


def test_checkpoint_keeps_vertex_and_edge_measures(tmp_path, c4_model):
    params, point = c4_model
    g = point
    rng = np.random.default_rng(12)
    graph = build_graph(g.n, [(u, v, w) for (u, v), w in
                              zip(g.edges, g.weights)][::-1],
                        mu=rng.uniform(0.5, 2.0, g.n),
                        rho=rng.uniform(0.5, 2.0, g.n_edges))
    path = tmp_path / "model.json"
    fm.save_checkpoint(path, params, graph)
    _, loaded = fm.load_checkpoint(path)
    assert loaded.edges == graph.edges
    assert np.array_equal(loaded.weights, graph.weights)
    assert np.array_equal(loaded.mu, graph.mu)
    assert np.array_equal(loaded.rho, graph.rho)


@st.composite
def malformed_models(draw):
    """A saved model half with one defect, and the field the defect is in."""
    model = fm._encode_params(fm.random_params(2, 3, seed=0))
    field = draw(st.sampled_from(["a1", "b1", "a3", "b3"]))
    part = draw(st.sampled_from(["re", "im"]))
    defect = draw(st.sampled_from(["leaf", "field", "part", "container",
                                   "shape"]))
    if defect == "leaf":  # a leaf no real number: cast at the parent
        holder, key = model[field], part
        while isinstance(holder[key], list):
            holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
        holder[key] = draw(st.sampled_from(["2.5", True, False, None, {}]))
    elif defect == "field":
        field = draw(st.sampled_from(sorted(model)))
        del model[field]
    elif defect == "part":
        del model[field][part]
    elif defect == "container":
        model[field] = draw(st.sampled_from([[], "re", 1.0, None]))
    else:  # re and im of different shapes
        model[field][part] = [model[field][part]]
    return model, field


@given(malformed_models())
def test_a_malformed_model_half_is_one_value_error_naming_its_field(case):
    model, field = case
    point = build_graph(3, [(0, 1, 1.0), (1, 2, 0.5)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump({"model": model, "graph": graph_to_dict(point)}, fh)
        with pytest.raises(ValueError, match=f"^checkpoint model field "
                                             f"{field}: "):
            fm.load_checkpoint(path)


def test_history_csv_format(tmp_path):
    records = [fm.EpochRecord(0, float("nan"), 4, 1, 1, ("graph step: x",)),
               fm.EpochRecord(1, 0.25, 5, 1, 2)]
    path = tmp_path / "history.csv"
    fm.write_history_csv(path, fm.EpochRecord, records)
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,n_edges,b0,b1"
    assert lines[1] == "0,nan,4,1,1"
    assert lines[2] == "1,0.25,5,1,2"
    fm.write_history_csv(path, fm.BaselineEpochRecord,
                         [fm.BaselineEpochRecord(0, 0.1 + 0.2)])
    assert path.read_text() == "epoch,train_loss\n0,0.30000000000000004\n"
