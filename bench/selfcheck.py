"""Checks of the benchmark's own arithmetic and wrappers (no package runs).

    python3 bench/selfcheck.py

Kept out of the package's test suite on purpose: the file name does not
match pytest's ``test_*.py`` pattern.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, merge, rebind, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_learn_c8  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so span times are known exactly."""

    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, None],
            ["a", 1.0, 4.0, 0, None],
            ["b", 5.0, 9.0, 0, None],
            ["c", 6.0, 8.0, 2, None],
            ["d", 11.0, 12.5, -1, None],
        ]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.0, 2.0, 1.5])
        self.assertEqual(sum(self_times(spans)), 10.0 + 1.5)

    def test_merge_offsets_parents_and_adds_counts(self):
        one = ([["x", 0.0, 2.0, -1, None], ["y", 0.5, 1.0, 0, None]], {"k": 2})
        two = ([["x", 0.0, 1.0, -1, None], ["y", 0.2, 0.4, 0, None]], {"k": 3})
        spans, counts = merge([one, two])
        self.assertEqual([s[3] for s in spans], [-1, 0, -1, 2])
        self.assertEqual(counts, {"k": 5})


class Wrappers(unittest.TestCase):
    def test_arguments_and_result_pass_through(self):
        tracer = Tracer(clock=FakeClock())
        sentinel = object()

        def f(a, b=2, *rest, key=None, **extra):
            return (a, b, rest, key, extra, sentinel)

        g = tracer.wrap("f", f, lambda args, kwargs, result: {"n": len(args)})
        self.assertEqual(g(1, 3, 4, key="k", z=5),
                         (1, 3, (4,), "k", {"z": 5}, sentinel))
        self.assertIs(g(1)[-1], sentinel)
        self.assertEqual(g.__name__, "f")
        self.assertEqual(tracer.spans[0], ["f", 0.0, 1.0, -1, {"n": 3}])

    def test_exception_passes_through_and_stack_unwinds(self):
        tracer = Tracer(clock=FakeClock())
        error = KeyError("boom")

        def bad():
            raise error

        outer = tracer.wrap("outer", lambda fn: fn())
        inner = tracer.wrap("inner", bad)
        with self.assertRaises(KeyError) as caught:
            outer(inner)
        self.assertIs(caught.exception, error)
        self.assertEqual(tracer.spans[1][3], 0)
        self.assertEqual(tracer.spans[1][4], {"raised": "KeyError"})
        self.assertEqual(tracer.spans[0][4], {"raised": "KeyError"})
        tracer.wrap("after", lambda: None)()
        self.assertEqual(tracer.spans[2][3], -1)

    def test_count_passes_through(self):
        tracer = Tracer()
        g = tracer.count("c", lambda x, *, y: x + y)
        self.assertEqual(g(1, y=2), 3)
        self.assertEqual(g(2, y=2), 4)
        self.assertEqual(tracer.counts, {"c": 2})

    def test_rebind_reaches_from_imports_and_aliases(self):
        def original():
            return 1

        owner = types.ModuleType("owner")
        owner.solve = original
        user = types.ModuleType("user")
        user.solve = original
        user.alias = original
        other = types.ModuleType("other")
        other.solve = lambda: 2
        replacement = lambda: 3  # noqa: E731
        self.assertEqual(rebind([owner, user, other], original, replacement),
                         3)
        self.assertIs(user.alias, replacement)
        self.assertEqual(other.solve(), 2)


class Summary(unittest.TestCase):
    def test_phases_ratios_and_accounting(self):
        spans = [
            ["moduli.run", 0.0, 10.0, -1, None],
            ["moduli.descent_step", 1.0, 9.0, 0,
             {"adds": 1, "prunes": 0, "skipped": 1}],
            ["moduli.engine.solve_many", 1.0, 3.0, 1,
             {"jobs": 4, "probe": False}],
            ["dynamics.steady", 1.5, 2.5, 2,
             {"rows": 2, "warm_rows": 1, "warm_steps": 100,
              "cold_steps": 300, "converged": 2}],
            ["sensitivity.weight_gradients", 3.0, 4.0, 1, {"edges": 3}],
            ["sensitivity.adjoint", 3.0, 3.5, 4, None],
            ["moduli.engine.solve_many", 4.0, 6.0, 1,
             {"jobs": 4, "probe": True}],
            ["dynamics.steady", 4.0, 5.0, 6,
             {"rows": 1, "warm_rows": 0, "warm_steps": 0,
              "cold_steps": 200, "converged": 1}],
            ["moduli.stochastic_gradient", 6.0, 8.0, 1, {"probe": True}],
        ]
        m = layers.summarize(spans, {"graph_core.laplacian.calls": 7}, 12.0)
        self.assertEqual(m["moduli.phase.weight_grad_s"], 3.0)
        self.assertEqual(m["moduli.phase.probe_solve_s"], 2.0)
        self.assertEqual(m["moduli.phase.probe_grad_s"], 2.0)
        self.assertEqual(m["moduli.engine.jobs"], 8)
        self.assertEqual(m["moduli.engine.hit_ratio"], 1.0 - 3 / 8)
        self.assertEqual(m["dynamics.steady.rows"], 3)
        self.assertEqual(m["dynamics.steady.rk4_steps_per_warm_row"], 100.0)
        self.assertEqual(m["dynamics.steady.rk4_steps_per_cold_row"], 250.0)
        self.assertAlmostEqual(m["dynamics.steady.us_per_row_step"],
                               1e6 * 2.0 / 600)
        self.assertEqual(m["sensitivity.weight_gradients.busy_s"], 0.5)
        self.assertEqual(m["moduli.probes"], 1)
        self.assertEqual(m["moduli.probes_skipped"], 1)
        self.assertEqual(m["moduli.adds"], 1)
        self.assertEqual(m["graph_core.laplacian.calls"], 7)
        layer_self = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        self.assertEqual(layer_self, 10.0)
        self.assertEqual(m["cli.other_s"], 2.0)

    def test_idle_layers_report_zero(self):
        m = layers.summarize([], {}, 1.5)
        self.assertEqual(m["dynamics.steady.rows_per_call"], 0.0)
        self.assertEqual(m["moduli.engine.hit_ratio"], 0.0)
        self.assertEqual(m["cli.other_s"], 1.5)
        names = {name for name, _, _ in layers.PER_LAYER}
        self.assertEqual(names - set(m), {"trace.overhead_s"})


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(BENCH.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(layers.PER_LAYER))

    def test_pooled_seeds_rotate(self):
        c8 = WORKLOADS["learn_c8"]
        self.assertEqual(c8.cli_seeds(4), [0, 1])
        self.assertEqual(c8.cli_seeds(11), [1, 0])
        self.assertEqual(WORKLOADS["train_desk"].cli_seeds(4), [1, 2, 0])
        self.assertEqual(WORKLOADS["flow_rk4"].cli_seeds(11), [11])

    def test_learn_check_rejects_rising_distortion(self):
        report = {
            "truth": {"betti": [1, 1]},
            "final": {"edges_match_truth": True, "betti": [1, 1],
                      "max_additive_distortion": 1e-5},
            "checkpoints": [{"max_additive_distortion": d}
                            for d in (1e-2, 1e-4, 1e-5)],
        }
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "report.json")
            with open(path, "w") as fh:
                json.dump(report, fh)
            check_learn_c8(out)
            report["checkpoints"][2]["max_additive_distortion"] = 2e-4
            with open(path, "w") as fh:
                json.dump(report, fh)
            with self.assertRaises(CheckFailed):
                check_learn_c8(out)


if __name__ == "__main__":
    unittest.main()
