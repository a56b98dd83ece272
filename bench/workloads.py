"""The three benchmark workloads: the CLI commands they run and the checks
their artifacts must pass.

A pass of a workload runs its commands once for each CLI seed of the run,
in order, every command in a fresh process.  Each CLI seed writes to its own
output directory, the same one on every pass, so repeats of a seed can be
compared byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

# The per-seed cost of learn-graph c8 and train varies by up to a third
# between seeds (15.3-24.5 s and 6.1-8.5 s over seeds 0-11 on a 2-vCPU
# x86-64 VM at 2.1 GHz), far more than the run-to-run noise.  Every pass of those
# two workloads therefore runs the same pool of bundled seeds (the seeds the
# acceptance tests use), rotated by the benchmark seed, so passes of
# different runs do the same work.  learn_c8 pools two seeds to keep a run
# near one minute.  flow_rk4 does the same 10,000 steps at any seed, so it
# runs the benchmark seed itself.


class CheckFailed(Exception):
    """An artifact does not hold what the workload promises."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_learn_c8(out: str) -> None:
    report = _read_json(os.path.join(out, "report.json"))
    final = report["final"]
    _require(final["edges_match_truth"] is True, "edges do not match truth")
    _require(final["betti"] == report["truth"]["betti"],
             f"betti {final['betti']} != truth {report['truth']['betti']}")
    _require(final["max_additive_distortion"] <= 1e-3,
             f"final distortion {final['max_additive_distortion']} > 1e-3")
    dist = [c["max_additive_distortion"] for c in report["checkpoints"]]
    _require(len(dist) == 3 and all(b <= a for a, b in zip(dist, dist[1:])),
             f"checkpoint distortions {dist} are not non-increasing")


def check_train_desk(out: str) -> None:
    with open(os.path.join(out, "history.csv")) as fh:
        rows = list(csv.DictReader(
            line for line in fh if not line.startswith("# meta:")))
    first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
    _require(last < 0.1 * first,
             f"final train loss {last} is not below 0.1 x first {first}")
    gaps = _read_json(os.path.join(out, "gap_report.json"))["models"]
    for model, sweep in gaps.items():
        for row in sweep:
            _require(abs(row["gap"]) <= row["noise_bound"],
                     f"{model} gap {row['gap']} at m={row['m']} exceeds "
                     f"noise bound {row['noise_bound']}")


def check_flow_rk4(out: str) -> None:
    deviation = _read_json(os.path.join(out, "deviation.json"))
    _require(deviation["pass"] is True,
             f"gauge check failed: {deviation.get('max_deviation')}")
    steps = 0
    with open(os.path.join(out, "invariants.jsonl")) as fh:
        for line in fh:
            record = json.loads(line)
            if "meta" in record:
                continue
            steps += 1
            _require(abs(record["norm"] - 1.0) <= 1e-9,
                     f"norm {record['norm']} at t={record['t']} is not 1")
    _require(steps == 10001, f"{steps} invariant records, expected 10001")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[str], None]
    pool: tuple[int, ...] = ()

    def cli_seeds(self, seed: int) -> list[int]:
        """The CLI seeds of one pass; the first is the one traced."""
        if not self.pool:
            return [seed]
        k = seed % len(self.pool)
        return list(self.pool[k:] + self.pool[:k])

    def argv(self, command: tuple[str, ...], cli_seed: int,
             out: str) -> list[str]:
        return list(command) + ["--seed", str(cli_seed), "--out", out]


WORKLOADS = {
    w.name: w for w in (
        Workload("learn_c8",
                 (("learn-graph", "--set", "learn_graph.task=c8"),),
                 check_learn_c8, pool=(0, 1)),
        Workload("train_desk", (("train",),), check_train_desk,
                 pool=(0, 1, 2)),
        Workload("flow_rk4",
                 (("simulate",),
                  ("gauge-check", "--set", "gauge_check.spin_law=pushforward")),
                 check_flow_rk4),
    )
}
