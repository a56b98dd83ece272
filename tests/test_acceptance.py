"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Criteria 2 and 3 (gauge equivalence and constraint transport) check the spin
law that carries the guarantee: ``spin_law="pushforward"``.  It is itself a
Landau-Lifshitz cross-product law.  The chart derivative satisfies
dS_psi(i h) = S x dS_psi(h) exactly, so the pushforward of the complex flow
reads

    dS_j/dt = S_j x H_j - gamma * S_j x (S_j x D_j),
    H_j = -dS_j[((L + V) psi)_j],
    D_j = -dS_j[(P (L psi + (|psi|^2 - V) psi))_j],

with V the frozen potential and P the projector off psi.

The Heisenberg-exchange law ``spin_law="cross"`` (the default) is not
gauge-equivalent under the pointwise stereographic chart, for any choice of
its exchange, on-site or damping coefficients.  At vertex j the chart image
of the neighbour term -i w_jk psi_k is w_jk S_j x dS_j(psi_k), which is
rational in S_k rather than linear, and the projector P in the damping term
is global, which no local D_j expresses.  Only on a single vertex is the gap
the factor of two in the on-site phase rate.  The gap is pinned by
``test_dynamics.py::test_ll_single_vertex_hand_value``,
``::test_cross_law_rate_doubles_on_single_vertex``,
``::test_gauge_check_cross_law_departs``,
``::test_constraint_transport_pushforward_only``,
``test_cli.py::test_gauge_check_cross_law_reports_honest_failure`` and
``::test_gauge_check_single_vertex_cross_law_phase_rate_gap``.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from spectral_moduli import cli
from spectral_moduli import fann_model as fm
from spectral_moduli.graph_core import (
    build_graph,
    cycle_graph,
    norm_equivalence_report,
    path_graph,
    single_vertex_graph,
)
from spectral_moduli.dynamics import (
    NlseConfig,
    gauge_check,
    integrate,
    make_rhs,
    solve_steady_state,
    to_sphere,
)
from spectral_moduli.sensitivity import dpsi_dpsi0, dpsi_dw, fd_oracle
from spectral_moduli.moduli import (
    Batch,
    ModuliPoint,
    OptimizerConfig,
    SteadySolveEngine,
    run,
    stochastic_gradient,
)
from spectral_moduli.topo_metric import (
    ManifoldSpec,
    PopulationReadout,
    TeacherSampler,
    build_ground_truth,
)


def unit_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


@pytest.fixture(scope="module")
def c4_teacher():
    config = NlseConfig(dt=5e-2, steady_tol=1e-8, t_max=3000.0)
    truth = build_ground_truth(
        ManifoldSpec("circle", (1.0,), n_net_points=4), inj_radius=2.0)
    readout = PopulationReadout.random(truth.n, seed=246)
    sampler = TeacherSampler(truth, readout, config, seed=202)
    return config, truth, readout, sampler


def test_criterion_01_norm_conservation():
    # dt=1e-3, T=10, renormalization disabled so the raw flow is measured.
    config = NlseConfig(dt=1e-3, t_max=10.0, renorm_tol=1.0)
    graphs = {
        "single": single_vertex_graph(),
        "p2": path_graph(2),
        "triangle": cycle_graph(3),
        "c8": cycle_graph(8),
    }
    worst = {}
    for i, (name, g) in enumerate(graphs.items()):
        psi0 = unit_state(g.n, seed=17 + i)
        rhs = make_rhs(g, psi0, config, "nlse")
        record = integrate(rhs, psi0, config, system="nlse", t_final=10.0)
        worst[name] = float(np.abs(record.invariant_log["norm"] - 1.0).max())
    assert all(v <= 1e-9 for v in worst.values()), f"norm deviations: {worst}"


def test_criterion_02_gauge_equivalence_cross_law():
    config = NlseConfig(dt=1e-3, t_max=10.0)
    deviations = {}
    for i, (name, g) in enumerate((("triangle", cycle_graph(3)),
                                   ("c8", cycle_graph(8)))):
        psi0 = unit_state(g.n, seed=11 + i)
        deviations[f"{name}/complex"] = gauge_check(
            g, psi0, config, t_final=10.0, pair="complex",
            spin_law="pushforward")
        deviations[f"{name}/real"] = gauge_check(
            g, np.abs(psi0), config, t_final=10.0, pair="real",
            spin_law="pushforward")
    assert all(v <= 1e-6 for v in deviations.values()), (
        "gauge deviations of the pushforward LL law exceed 1e-6: "
        f"{ {k: f'{v:.3e}' for k, v in deviations.items()} }")


def test_criterion_03_constraint_transport():
    config = NlseConfig(dt=1e-3, t_max=10.0)
    worst = {}
    for i, (name, g) in enumerate((("triangle", cycle_graph(3)),
                                   ("c8", cycle_graph(8)))):
        psi0 = unit_state(g.n, seed=11 + i)
        rhs = make_rhs(g, psi0, config, "ll", spin_law="pushforward")
        record = integrate(rhs, to_sphere(psi0), config, system="ll",
                           t_final=10.0)
        worst[name] = float(
            np.abs(record.invariant_log["constraint"] - 1.0).max())
    assert all(v <= 1e-8 for v in worst.values()), (
        "constraint drift along the pushforward LL flow exceeds 1e-8: "
        f"{ {k: f'{v:.3e}' for k, v in worst.items()} }")


def test_criterion_04_sensitivity_matches_fd():
    config = NlseConfig(dt=1e-2, steady_tol=1e-12, t_max=2000.0)
    g = cycle_graph(3)
    psi0 = np.array([0.8, 0.6, 0.0]) + 0j
    psi0 /= np.linalg.norm(psi0)
    steady = solve_steady_state(g, psi0, config)
    assert steady.converged
    for edge in g.edges:
        imp = dpsi_dw(g, psi0, steady, edge)
        fd = fd_oracle(g, psi0, config, ("w", edge), h=1e-5)
        rel = (np.linalg.norm(imp.d_psi_inf - fd.d_psi_inf)
               / np.linalg.norm(fd.d_psi_inf))
        assert rel < 1e-4, f"edge {edge}: relative error {rel:.3e}"
    rng = np.random.default_rng(2)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    direction = z - psi0 * np.vdot(psi0, z).real
    imp = dpsi_dpsi0(g, psi0, steady, direction)
    fd = fd_oracle(g, psi0, config, ("psi0", direction), h=1e-5)
    rel = (np.linalg.norm(imp.d_psi_inf - fd.d_psi_inf)
           / np.linalg.norm(fd.d_psi_inf))
    assert rel < 1e-3, f"initial-state direction: relative error {rel:.3e}"


def test_criterion_05_norm_equivalence_bounds():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = int(rng.integers(2, 11))
        triples = [(u, v, float(rng.uniform(0.2, 2.0)))
                   for u in range(n) for v in range(u + 1, n)
                   if rng.random() < 0.5]
        if not triples:
            triples = [(0, 1, 1.0)]
        g = build_graph(n, triples)
        report = norm_equivalence_report(g, n_samples=200,
                                         seed=int(rng.integers(1 << 31)))
        assert report.violations == 0, (
            f"trial {trial} (n={n}): {report.violations} violations, "
            f"ratios {report.max_ratio_h1_l2:.3f}/{report.c2:.3f} and "
            f"{report.max_ratio_h2_h1:.3f}/{report.c4:.3f}")


def test_criterion_06_structure_recovery(cli_task, load_report):
    for task in ("c4", "c8", "p4", "two_circles"):
        code, out = cli_task("learn-graph", "--set",
                             f"learn_graph.task={task}")
        assert code == 0, f"{task}: driver exit code {code}"
        report = load_report(out)
        final = report["final"]
        assert final["edges_match_truth"], (
            f"{task}: recovered edges {final['edges']} != true edges "
            f"{report['truth']['e_true']}")
        assert final["betti"] == report["truth"]["betti"], (
            f"{task}: betti {final['betti']} != {report['truth']['betti']}")
        assert final["max_additive_distortion"] <= 1e-3, (
            f"{task}: final distortion {final['max_additive_distortion']:.3e}")
        distortions = [c["max_additive_distortion"]
                       for c in report["checkpoints"]]
        assert len(distortions) == 3
        assert distortions[0] >= distortions[1] >= distortions[2], (
            f"{task}: checkpoint distortions increase: {distortions}")


def test_criterion_07_add_prune_sign_margins(c4_teacher):
    config, truth, readout, sampler = c4_teacher
    theta = 1e-5
    weights = dict(zip(truth.e_true, truth.teacher_weights))

    # Sign margins at a large batch: probing a missing true edge at the
    # prune threshold must drive it in; probing a spurious edge must not.
    batch = Batch.from_pairs(sampler(256))
    probe_config = OptimizerConfig(
        iterations=1, prune_threshold=0.05, add_threshold=theta,
        step_size=1.0, batch_size=256, l1_coeff=1e-11, l2_coeff=1e-11,
        steady=config)
    engine = SteadySolveEngine(config)
    for edge in truth.e_true:
        sub = ModuliPoint(build_graph(
            truth.n, [(u, v, weights[(u, v)]) for (u, v) in truth.e_true
                      if (u, v) != edge]))
        grad = stochastic_gradient(sub, batch, edge, test_weight=0.05,
                                   readout=readout, config=probe_config,
                                   engine=engine)
        assert grad < -theta, f"missing true edge {edge}: gradient {grad:+.3e}"
    teacher_point = ModuliPoint(truth.teacher_graph())
    for edge in ((0, 2), (1, 3)):
        grad = stochastic_gradient(teacher_point, batch, edge,
                                   test_weight=0.05, readout=readout,
                                   config=probe_config, engine=engine)
        assert grad > -theta, f"spurious edge {edge}: gradient {grad:+.3e}"

    # Across 20 seeded runs that each start with one true edge removed, the
    # missing edge is re-added and no true edge is ever pruned.
    exact = sampler.exact_sampler()
    eta = (100.0,) * 10 + (1000.0,) * 15
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        drop = truth.e_true[seed % len(truth.e_true)]
        triples = [(u, v, weights[(u, v)] * (1 + 0.05 * rng.uniform(-1, 1)))
                   for (u, v) in truth.e_true if (u, v) != drop]
        run_config = OptimizerConfig(
            iterations=len(eta), prune_threshold=0.05, add_threshold=theta,
            step_size=eta, batch_size=truth.n, l1_coeff=1e-11,
            l2_coeff=1e-11, seed=seed, candidate_fraction=0.5, steady=config)
        point, log, _ = run(run_config, exact,
                            ModuliPoint(build_graph(truth.n, triples)),
                            readout=readout)
        added = [e for r in log.records for e in r.added]
        true_prunes = [(e, r.t) for r in log.records for e in r.pruned
                       if e in truth.e_true]
        assert drop in added, f"seed {seed}: {drop} never re-added"
        assert not true_prunes, f"seed {seed}: true edges pruned {true_prunes}"
        assert set(truth.e_true) <= set(point.edge_set), (
            f"seed {seed}: final edges {point.edge_set}")


def test_criterion_08_strata_accounting(cli_task, load_report):
    code, out = cli_task("learn-graph", "--set", "learn_graph.task=c5_chain")
    assert code == 0
    report = load_report(out)
    e_true = {tuple(e) for e in report["truth"]["e_true"]}
    visited = [{tuple(e) for e in v["edges"]}
               for v in report["strata"]["visited"]]
    assert report["strata"]["spurious_count"] == 0, (
        f"deterministic run visited spurious strata: {report['strata']}")
    for stratum in visited:
        assert stratum <= e_true, f"non-true-subset stratum {stratum}"
    for earlier, later in zip(visited, visited[1:]):
        assert earlier < later, "visited strata are not a monotone chain"
    assert visited[-1] == e_true, f"chain ends at {visited[-1]}, not E_true"
    assert report["final"]["edges_match_truth"]

    # Noisy replicates: the visited-strata count is reported against the
    # predicted scaling  count ~ 2^|E_true| (1 + c sigma^2 / B)  as a
    # measurement, not an assertion.
    lines = ["noisy strata counts (delta=0.15, T=12):"]
    for batch in (2, 8, 32):
        code, out = cli_task("learn-graph",
                             "--set", "learn_graph.task=c5_noisy",
                             "--set", f"learn_graph.batch_size={batch}")
        assert code == 0
        strata = load_report(out)["strata"]
        lines.append(
            f"  B={batch}: visited {strata['count']} "
            f"(true-subset {strata['true_subset_count']}, "
            f"spurious {strata['spurious_count']})")
    print("\n".join(lines))


def fd_param_gradient(params, point, x, y, config, field, idx, h=1e-5):
    def loss_at(delta):
        if field == "b3":
            p = dataclasses.replace(params, b3=params.b3 + delta)
        else:
            arr = np.array(getattr(params, field), copy=True)
            arr[idx] += delta
            p = dataclasses.replace(params, **{field: arr})
        return fm.loss_sample(p, point, x, y, config)

    real = (loss_at(h) - loss_at(-h)) / (2 * h)
    imag = (loss_at(1j * h) - loss_at(-1j * h)) / (2 * h)
    return real + 1j * imag


def test_criterion_09_model_correctness_and_gap_report(cli_task):
    # Parameter gradients against central finite differences.
    config = NlseConfig(dt=1e-2, steady_tol=1e-11, t_max=4000.0)
    truth = build_ground_truth(
        ManifoldSpec("circle", (1.0,), n_net_points=4), inj_radius=2.0)
    point = ModuliPoint(truth.teacher_graph())
    params = fm.random_params(4, 4, seed=12)
    x, y = unit_state(4, seed=3), 0.25
    grads = fm.param_gradients(params, point, x, y, config)
    checks = [("b3", None, grads.b3), ("a3", (1,), grads.a3[1]),
              ("b1", (2,), grads.b1[2]), ("a1", (0, 1), grads.a1[0, 1])]
    for field, idx, got in checks:
        want = fd_param_gradient(params, point, x, y, config, field, idx)
        rel = abs(got - want) / max(abs(want), 1e-12)
        assert rel < 1e-3, (
            f"{field}[{idx}]: implicit {got:.6e} vs fd {want:.6e}")

    # Teacher-initialized training keeps the loss at zero for 10 epochs.
    code, out = cli_task("train", "--set", "train.task=teacher_fixed_point")
    assert code == 0
    with open(out / "history.csv") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()
                if ln and not ln.startswith(("#", "epoch"))]
    losses = [float(r[1]) for r in rows]
    assert len(losses) == 10
    assert max(losses) < 1e-8, f"teacher-init losses reach {max(losses):.3e}"

    # The quantitative generalization bound is not reproducible from desk
    # data; the contract is the archived gap report for both models at
    # m in {50, 100, 200} with the declared sampling-noise bound 3/sqrt(m).
    code, out = cli_task("train", "--seed", "0")
    assert code == 0
    with open(out / "gap_report.json") as fh:
        gap = json.load(fh)
    assert set(gap["models"]) == {"model", "baseline"}
    for rows in gap["models"].values():
        assert [r["m"] for r in rows] == [50, 100, 200]
        for r in rows:
            assert r["noise_bound"] == pytest.approx(3.0 / np.sqrt(r["m"]))
            assert abs(r["gap"]) <= r["noise_bound"], (
                f"m={r['m']}: gap {r['gap']:+.3e} outside the declared "
                f"sampling-noise bound {r['noise_bound']:.3e}")
    print("gap report:", {name: [(r["m"], f"{r['gap']:+.2e}") for r in rows]
                          for name, rows in gap["models"].items()})


def test_criterion_10_cli_determinism(tmp_path):
    def hashes(path):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(path.iterdir())}

    commands = {
        "simulate": ("simulate", "--seed", "4",
                     "--set", "simulate.dynamics.t_final=0.5"),
        "gauge-check": ("gauge-check",
                        "--set", "gauge_check.spin_law=pushforward",
                        "--set", "gauge_check.dynamics.dt=0.01",
                        "--set", "gauge_check.dynamics.t_final=1.0"),
        "learn-graph": ("learn-graph", "--set", "learn_graph.iterations=2"),
        "train": ("train", "--set", "train.task=teacher_fixed_point",
                  "--set", "train.phase1.epochs=2"),
    }
    for name, args in commands.items():
        out = tmp_path / name.replace("-", "_")
        argv = list(args) + ["--out", str(out)]
        assert cli.main(argv) == 0, f"{name}: first run failed"
        first = hashes(out)
        assert cli.main(argv) == 0, f"{name}: second run failed"
        assert hashes(out) == first, f"{name}: rerun changed output bytes"
    # report aggregates the train outputs; rerunning must be stable too.
    target = tmp_path / "train"
    argv = ["report", "--out", str(target)]
    assert cli.main(argv) == 0
    first = hashes(target)
    assert cli.main(argv) == 0
    assert hashes(target) == first, "report: rerun changed output bytes"


def test_supplementary_desk_training_bundled_seeds(cli_task):
    # Random-init training on the bundled task: final loss under 10% of the
    # initial loss on each bundled seed.
    ratios = {}
    for seed, args in ((0, ("train", "--seed", "0")),
                       (1, ("train", "--seed", "1",
                            "--set", "train.include_baseline=false",
                            "--set", "train.gap_sizes=null")),
                       (2, ("train", "--seed", "2",
                            "--set", "train.include_baseline=false",
                            "--set", "train.gap_sizes=null"))):
        code, out = cli_task(*args)
        assert code == 0
        with open(out / "history.csv") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()
                    if ln and not ln.startswith(("#", "epoch"))]
        first, last = float(rows[0][1]), float(rows[-1][1])
        ratios[seed] = last / first
        assert last < 0.1 * first, (
            f"seed {seed}: final {last:.3e} vs initial {first:.3e}")
    print("desk final/initial loss ratios:",
          {s: f"{r:.4f}" for s, r in ratios.items()})
