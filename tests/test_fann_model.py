"""Tests for the three-layer model and its dense baseline.

Oracles: hand-computable stationary instances (no integration needed),
bit-for-bit composition against manual module chaining, central finite
differences for every gradient path, exact-equality checks for projection
and serialization, and a self-consistent teacher fixed point for the
interleaved training loop.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_moduli.dynamics import NlseConfig, SteadyState, solve_steady_state
from spectral_moduli.graph_core import GraphError, build_graph
from spectral_moduli.moduli import (Batch, ModuliPoint, OptimizerConfig,
                                    SteadySolveEngine, regularized_loss)
from spectral_moduli.topo_metric import (ManifoldSpec, PopulationReadout,
                                         TeacherSampler, build_ground_truth)
from spectral_moduli import fann_model as fm

RUN_CFG = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
TIGHT_CFG = NlseConfig(dt=1e-2, steady_tol=1e-11, t_max=4000.0)


def opt_config(**kw):
    base = dict(iterations=1, init_edge_prob=0.5, prune_threshold=0.05,
                add_threshold=1e-5, step_size=1.0, batch_size=4,
                l1_coeff=1e-11, l2_coeff=1e-11, seed=0,
                candidate_fraction=1.0, steady=RUN_CFG)
    base.update(kw)
    return OptimizerConfig(**base)


def train_config(**kw):
    base = dict(epochs=2, batch_size=4, lr_params=0.1,
                moduli_config=opt_config(batch_size=kw.get("batch_size", 4)),
                seed=0)
    base.update(kw)
    return fm.TrainConfig(**base)


@pytest.fixture(scope="module")
def c4():
    truth = build_ground_truth(ManifoldSpec("circle", (1.0,), n_net_points=4),
                               2.0)
    readout = PopulationReadout.random(truth.n, seed=246)
    sampler = TeacherSampler(truth, readout, RUN_CFG, seed=202)
    return truth, sampler


@pytest.fixture(scope="module")
def c4_model(c4):
    """Random params and the teacher graph for a converged desk instance."""
    truth, _ = c4
    params = fm.random_params(truth.n, truth.n, seed=12)
    return params, ModuliPoint(truth.teacher_graph())


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
    fm.TrainConfig(epochs=0, batch_size=4, lr_params=0.1,
                   moduli_config=opt_config())
    for bad in (-1, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epochs"):
            train_config(epochs=bad)
    for bad in (0, float("inf")):
        with pytest.raises(ValueError, match="batch_size"):
            train_config(batch_size=bad)
    with pytest.raises(ValueError, match="lr_params"):
        train_config(lr_params=0.0)
    with pytest.raises(ValueError, match="match"):
        fm.TrainConfig(epochs=1, batch_size=8, lr_params=0.1,
                       moduli_config=opt_config(batch_size=4))
    with pytest.raises(ValueError, match="r_a3"):
        train_config(r_a3=-1.0)
    with pytest.raises(TypeError, match="OptimizerConfig"):
        fm.TrainConfig(epochs=1, batch_size=4, lr_params=0.1,
                       moduli_config=RUN_CFG)


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
    point = ModuliPoint(build_graph(1, []))
    y, psi = fm.forward(params, point, np.zeros(1), RUN_CFG)
    assert y == pytest.approx(1.0, abs=1e-12)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_forward_stationary_p2_equals_readout_of_psi0():
    # the uniform state on a symmetric pair is an exact relative
    # equilibrium, so the core returns it unchanged and the whole model
    # collapses to the output layer
    b1 = np.ones(2) / np.sqrt(2.0)
    point = ModuliPoint(build_graph(2, [(0, 1, 0.7)]))
    aligned = fm.ModelParams(a1=np.zeros((2, 2)), b1=b1,
                             a3=b1.astype(complex), b3=0.5,
                             activation1="identity", activation3="identity")
    psi0 = fm.input_state(aligned, np.zeros(2))
    y, psi = fm.forward(aligned, point, np.zeros(2), RUN_CFG)
    assert np.array_equal(psi, psi0)
    assert y == pytest.approx(1.5, abs=1e-12)


def test_forward_composition_matches_manual_chain(c4_model):
    params, point = c4_model
    x = unit_vector(4, 17)
    y, psi = fm.forward(params, point, x, RUN_CFG)
    psi0 = fm.input_state(params, x)
    st = solve_steady_state(point.graph, psi0, RUN_CFG)
    assert np.array_equal(psi, st.psi_inf)
    assert y == fm.readout_value(params, st.psi_inf)


def test_forward_engine_config_governs_solves(c4_model):
    params, point = c4_model
    x = unit_vector(4, 17)
    engine = SteadySolveEngine(RUN_CFG)
    y1, psi1 = fm.forward(params, point, x, TIGHT_CFG, engine=engine)
    y2, psi2 = fm.forward(params, point, x, RUN_CFG)
    assert np.array_equal(psi1, psi2)
    assert y1 == y2


def test_forward_vertex_mismatch(c4_model):
    params, _ = c4_model
    with pytest.raises(GraphError, match="vertices"):
        fm.forward(params, ModuliPoint(build_graph(3, [(0, 1, 1.0)])),
                   unit_vector(4, 3), RUN_CFG)


def test_forward_nonconvergence_is_forwarded(c4_model):
    params, point = c4_model
    short = NlseConfig(dt=5e-2, steady_tol=1e-12, t_max=0.2)
    with pytest.raises(fm.CoreConvergenceError, match="residual"):
        fm.forward(params, point, unit_vector(4, 3), short)


# ---------------------------------------------------------------------------
# loss


def test_loss_sample_trivial_values(c4_model):
    params, point = c4_model
    x = unit_vector(4, 21)
    y_hat, _ = fm.forward(params, point, x, RUN_CFG)
    assert fm.loss_sample(params, point, x, y_hat, RUN_CFG) == 0.0
    assert fm.loss_sample(params, point, x, y_hat - 1.0, RUN_CFG) \
        == pytest.approx(1.0, rel=1e-12)


def test_loss_batch_mean_matches_moduli_data_term(c4_model):
    params, point = c4_model
    engine = SteadySolveEngine(RUN_CFG)
    pairs = [(unit_vector(4, s), 0.1 * s) for s in range(3)]
    batch = Batch.from_pairs([(fm.input_state(params, x), y)
                              for x, y in pairs])
    breakdown = regularized_loss(point, batch, fm.ModelReadout(params),
                                 opt_config(batch_size=3), engine=engine)
    mean = sum(fm.loss_sample(params, point, x, y, RUN_CFG, engine=engine)
               for x, y in pairs) / len(pairs)
    assert breakdown.data == pytest.approx(mean, rel=1e-14)


def test_gauge_aligned_readout_is_phase_invariant(c4_model):
    params, point = c4_model
    x = unit_vector(4, 33)
    _, psi = fm.forward(params, point, x, RUN_CFG)
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
    base = fm.loss_sample(params, point, x, y, RUN_CFG)
    rotated = fm.loss_sample(params, point, np.exp(1.1j) * x, y, RUN_CFG)
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
        return fm.loss_sample(p, point, x, y, config)

    re = (loss_at(h) - loss_at(-h)) / (2 * h)
    im = (loss_at(1j * h) - loss_at(-1j * h)) / (2 * h)
    return re + 1j * im


def test_param_gradients_match_fd(c4_model):
    params, point = c4_model
    x = unit_vector(4, 3)
    y = 0.7
    grads = fm.param_gradients(params, point, x, y, TIGHT_CFG)
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
    y_hat, _ = fm.forward(params, point, x, RUN_CFG)
    grads = fm.param_gradients(params, point, x, y_hat, RUN_CFG)
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


def test_projection_bounds_hold_exactly():
    rng = np.random.default_rng(0)
    params = fm.ModelParams(a1=10.0 * rng.standard_normal((3, 3)),
                            b1=5.0 * rng.standard_normal(3),
                            a3=7.0 * rng.standard_normal(3), b3=4.0 + 3.0j)
    cfg = train_config(r_a1=2.0, r_b1=1.0, r_a3=1.5, r_b3=0.5)
    proj = fm.project_params(params, cfg)
    assert np.linalg.norm(proj.a1) <= 2.0
    assert np.linalg.norm(proj.b1) <= 1.0
    assert np.linalg.norm(proj.a3) <= 1.5
    assert abs(proj.b3) <= 0.5
    again = fm.project_params(proj, cfg)
    assert np.array_equal(again.a1, proj.a1) and again.b3 == proj.b3


def test_projection_inside_ball_is_identity(c4_model):
    params, _ = c4_model
    proj = fm.project_params(params, train_config())
    assert np.array_equal(proj.a1, params.a1)
    assert np.array_equal(proj.b1, params.b1)
    assert np.array_equal(proj.a3, params.a3)
    assert proj.b3 == params.b3


def test_baseline_projection_bounds_hold_exactly():
    rng = np.random.default_rng(1)
    bp = fm.BaselineParams(a1=rng.standard_normal((3, 3)) * 9,
                           b1=rng.standard_normal(3) * 9,
                           w2=rng.standard_normal((3, 3)) * 9,
                           b2=rng.standard_normal(3) * 9,
                           a3=rng.standard_normal(3) * 9, b3=9.0)
    cfg = train_config(r_a1=1.0, r_b1=1.0, r_w2=2.0, r_b2=0.7, r_a3=1.0,
                       r_b3=1.0)
    proj = fm.project_params(bp, cfg)
    assert np.linalg.norm(proj.w2) <= 2.0
    assert np.linalg.norm(proj.b2) <= 0.7
    assert abs(proj.b3) <= 1.0


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
    point = ModuliPoint(truth.teacher_graph())
    bumps = [x for x, _ in sampler.exact()][:n_pairs]
    base = fm.fixed_set_sampler([(x, 0.0) for x in bumps])
    data = fm.model_teacher_sampler(teacher, point, RUN_CFG, base)
    return teacher, point, data


def test_train_zero_epochs_is_passthrough(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    cfg = train_config(epochs=0)
    p, pt, hist = fm.train(data, cfg, teacher, point)
    assert p is teacher and pt is point and hist == []


def test_train_teacher_fixed_point(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    cfg = train_config(epochs=10, lr_params=0.05)
    p, pt, hist = fm.train(data, cfg, teacher, point)
    assert len(hist) == 10
    assert max(h.train_loss for h in hist) < 1e-8
    assert pt.graph.edges == point.graph.edges
    assert all((h.b0, h.b1) == truth.betti for h in hist)
    assert all(h.failures == () for h in hist)


def test_train_is_deterministic(c4):
    truth, sampler = c4
    rng_params = fm.random_params(truth.n, truth.n, seed=2)
    point = ModuliPoint(truth.teacher_graph())
    runs = []
    for _ in range(2):
        teacher, tpoint, data = self_consistent_task(truth, sampler)
        cfg = train_config(epochs=3, lr_params=0.2)
        p, pt, hist = fm.train(data, cfg, rng_params, point)
        runs.append((p, pt, [h.train_loss for h in hist]))
    (p1, pt1, l1), (p2, pt2, l2) = runs
    assert l1 == l2
    assert np.array_equal(p1.a1, p2.a1) and p1.b3 == p2.b3
    assert np.array_equal(pt1.graph.weights, pt2.graph.weights)


def test_train_logs_failures_and_continues(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)

    def never_converges(g, x, config):
        return SteadyState(psi_inf=np.asarray(x, dtype=complex),
                           t_reached=config.t_max, residual=1.0,
                           converged=False, gamma=config.gamma)

    engine = SteadySolveEngine(RUN_CFG, solve_fn=never_converges)
    cfg = train_config(epochs=2)
    with pytest.raises(fm.CoreConvergenceError):
        fm.forward(teacher, point, unit_vector(truth.n, 0), RUN_CFG,
                   engine=engine)
    pairs = sampler.exact()
    p, pt, hist = fm.train(fm.fixed_set_sampler(pairs), cfg, teacher, point,
                           engine=engine)
    assert len(hist) == 2
    for h in hist:
        assert len(h.failures) == cfg.batch_size + 1  # every sample + step
        assert np.isnan(h.train_loss)
    assert pt.graph.key() == point.graph.key()
    assert np.array_equal(p.a1, teacher.a1)


def test_train_heldout_column(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    held = data(2)
    cfg = train_config(epochs=2, lr_params=0.05)
    _, _, hist = fm.train(data, cfg, teacher, point, heldout=held)
    assert all(h.test_loss < 1e-8 for h in hist)
    _, _, bare = fm.train(data, cfg, teacher, point)
    assert all(np.isnan(h.test_loss) for h in bare)


def test_train_epoch_solves_once_per_pass(c4, monkeypatch):
    # one engine call each for the SGD batch, the graph step's current
    # graph and probe pass, and the heldout set
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    held = data(2)
    engine = SteadySolveEngine(RUN_CFG)
    calls = []
    solve_many = engine.solve_many

    def counting(jobs, *args, **kwargs):
        calls.append(len(jobs))
        return solve_many(jobs, *args, **kwargs)

    monkeypatch.setattr(engine, "solve_many", counting)
    params = fm.random_params(truth.n, truth.n, seed=2)
    _, _, hist = fm.train(data, train_config(epochs=1), params, point,
                          heldout=held, engine=engine)
    # a batch of 4 distinct inputs; C4 has two absent edges to probe
    assert calls == [4, 4, 2 * 4, 2]
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
    data = fm.model_teacher_sampler(teacher, point, RUN_CFG, stream,
                                    engine=engine)
    return teacher, point, data, calls


def train_phase(loop, data, cfg, truth, teacher, point):
    """History of one ``train`` or ``baseline_train`` phase on ``data``."""
    if loop == "train":
        return fm.train(data, cfg, teacher, point)[2]
    return fm.baseline_train(data, cfg, fm.random_baseline(truth.n, truth.n,
                                                           seed=1))[1]


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
    cfg = train_config(epochs=40, batch_size=4, lr_params=0.2)
    trainee = fm.random_baseline(n, n, seed=31)
    initial = float(np.mean([fm.baseline_loss_sample(trainee, x, y)
                             for x, y in pairs]))
    trained, hist = fm.baseline_train(data, cfg, trainee)
    final = float(np.mean([fm.baseline_loss_sample(trained, x, y)
                           for x, y in pairs]))
    assert len(hist) == 40
    assert final < 0.2 * initial


def test_baseline_train_zero_epochs_and_determinism():
    n = 3
    bp = fm.random_baseline(n, n, seed=1)
    data = fm.fixed_set_sampler([(unit_vector(n, s), 0.1) for s in range(4)])
    out, hist = fm.baseline_train(data, train_config(epochs=0), bp)
    assert out is bp and hist == []
    one, h1 = fm.baseline_train(data, train_config(epochs=3), bp)
    data2 = fm.fixed_set_sampler([(unit_vector(n, s), 0.1) for s in range(4)])
    two, h2 = fm.baseline_train(data2, train_config(epochs=3), bp)
    assert np.array_equal(one.w2, two.w2)
    assert [r.train_loss for r in h1] == [r.train_loss for r in h2]


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
        return fm.model_teacher_sampler(teacher, point, RUN_CFG,
                                        fm.fixed_set_sampler(inputs))

    whole = labelled()(k * b)
    draw = labelled()
    assert same_pairs(whole, [p for _ in range(k) for p in draw(b)])


def test_model_teacher_sampler_targets(c4):
    truth, sampler = c4
    teacher, point, data = self_consistent_task(truth, sampler)
    for x, y in data(3):
        assert y == fm.forward(teacher, point, x, RUN_CFG)[0]


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
    assert loaded_point.graph.edges == point.graph.edges
    assert np.array_equal(loaded_point.graph.weights, point.graph.weights)
    first = path.read_bytes()
    fm.save_checkpoint(path, loaded_params, loaded_point, extra={"note": 1})
    assert path.read_bytes() == first
    assert json.loads(first)["extra"] == {"note": 1}


def test_checkpoint_keeps_vertex_and_edge_measures(tmp_path, c4_model):
    params, point = c4_model
    g = point.graph
    rng = np.random.default_rng(12)
    graph = build_graph(g.n, [(u, v, w) for (u, v), w in
                              zip(g.edges, g.weights)][::-1],
                        mu=rng.uniform(0.5, 2.0, g.n),
                        rho=rng.uniform(0.5, 2.0, g.n_edges))
    path = tmp_path / "model.json"
    fm.save_checkpoint(path, params, ModuliPoint(graph))
    _, loaded = fm.load_checkpoint(path)
    assert loaded.graph.edges == graph.edges
    assert np.array_equal(loaded.graph.weights, graph.weights)
    assert np.array_equal(loaded.graph.mu, graph.mu)
    assert np.array_equal(loaded.graph.rho, graph.rho)


def test_history_csv_format(tmp_path):
    records = [fm.EpochRecord(0, 0.5, float("nan"), 4, 1, 1),
               fm.EpochRecord(1, 0.25, 0.3, 5, 1, 2)]
    path = tmp_path / "history.csv"
    fm.write_history_csv(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,n_edges,b0,b1"
    assert lines[1] == "0,0.5,nan,4,1,1"
    assert lines[2] == "1,0.25,0.3,5,1,2"
