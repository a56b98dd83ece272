"""Benchmark of the ``spectral-moduli`` command line: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Every command of the workload runs in a fresh single-threaded
process (``SPECTRAL_MODULI_THREADS`` and the BLAS/OpenMP thread variables
set to 1 before numpy loads), one process at a time.  Scratch output goes
to ``.bench_work/`` in the checkout.

``--trace 0`` repeats passes of the workload (see workloads.py) until
``--seconds`` have gone by, then adds set-up-only passes until set-up has
been measured ``SETUP_SAMPLES`` times, and prints the end-to-end metrics:
medians over passes of the summed wall and set-up times, and the largest
peak RSS of any process.  ``--trace 1`` runs the workload's first CLI seed
untraced, traced, traced, untraced (more pairs if ``--seconds`` allows)
and prints the per-layer metrics.  Every pass checks the artifacts, and repeats
of one seed must produce the same bytes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (passes) and
``metrics``.  Metric names, units and what each one answers: NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
from tracing import merge  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_SAMPLES = 3
# Stop starting passes this long after the run began, so that a run ends
# within three minutes.
DEADLINE_S = 165.0
THREAD_VARS = ("SPECTRAL_MODULI_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Proc:
    wall: float
    setup: float | None
    rss_kb: int
    code: int


@dataclass
class Pass:
    procs: list[Proc] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traces: list[tuple[list, dict]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def setup(self) -> float | None:
        if not self.procs or any(p.setup is None for p in self.procs):
            return None
        return sum(p.setup for p in self.procs)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cli_args: list[str], *, trace: bool, setup_only: bool,
          deadline: float) -> tuple[Proc, tuple[list, dict] | None]:
    """Run one child to its end; wall time is spawn to exit."""
    stamp, trace_file = WORK / "stamp", WORK / "trace.json"
    for path in (stamp, trace_file):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--stamp", str(stamp)]
    if trace:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd += ["--setup-only"]
    with open(WORK / "child.log", "ab") as log:
        log.write(f"$ {' '.join(cli_args)}\n".encode())
        log.flush()
        start = time.monotonic()
        proc = subprocess.Popen(cmd + ["--"] + cli_args, cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, deadline + 10.0 - start),
                                   proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = stamp.read_text() if stamp.exists() else ""
    setup = float(text) - start if text else None
    traced = None
    if trace and proc.returncode == 0:
        with open(trace_file) as fh:
            data = json.load(fh)
        traced = (data["spans"], data["counts"])
    return Proc(end - start, setup, usage.ru_maxrss, proc.returncode), traced


def digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


class Runner:
    """Runs passes of one workload and keeps the first digest of each seed."""

    def __init__(self, workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.digests: dict[int, dict[str, str]] = {}

    def out_dir(self, cli_seed: int) -> Path:
        return WORK / self.workload.name / f"seed{cli_seed}"

    def run_pass(self, cli_seeds: list[int], *, trace: bool = False,
                 setup_only: bool = False) -> Pass:
        result = Pass()
        for cli_seed in cli_seeds:
            out = self.out_dir(cli_seed)
            if not setup_only:
                shutil.rmtree(out, ignore_errors=True)
            for command in self.workload.commands:
                args = self.workload.argv(command, cli_seed,
                                          str(out.relative_to(ROOT)))
                proc, traced = spawn(args, trace=trace,
                                     setup_only=setup_only,
                                     deadline=self.deadline)
                result.procs.append(proc)
                if traced is not None:
                    result.traces.append(traced)
                if proc.code != 0:
                    result.failures.append(
                        f"seed {cli_seed}: {command[0]} exited {proc.code}")
                    break
                if proc.setup is None:
                    result.failures.append(
                        f"seed {cli_seed}: {command[0]} never entered its "
                        "main loop")
            else:
                if not setup_only:
                    self._check(cli_seed, out, result)
            if result.failures:
                break
        return result

    def _check(self, cli_seed: int, out: Path, result: Pass) -> None:
        try:
            self.workload.check(str(out))
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            result.failures.append(f"seed {cli_seed}: {type(exc).__name__}: "
                                   f"{exc}")
        sums = digest(out)
        first = self.digests.setdefault(cli_seed, sums)
        if sums != first:
            changed = sorted(k for k in set(sums) | set(first)
                             if sums.get(k) != first.get(k))
            result.failures.append(f"seed {cli_seed}: repeat changed "
                                   f"{', '.join(changed)}")

    def room_for(self, seconds: float) -> bool:
        return time.monotonic() + 1.2 * seconds < self.deadline


def plain_run(runner: Runner, seed: int, seconds: float, start: float):
    seeds = runner.workload.cli_seeds(seed)
    passes = [runner.run_pass(seeds)]
    while (time.monotonic() - start < seconds and not passes[-1].failures
           and runner.room_for(passes[-1].wall)):
        passes.append(runner.run_pass(seeds))
    setups = [p.setup for p in passes if p.setup is not None]
    probes: list[Pass] = []
    while (len(setups) < SETUP_SAMPLES and setups
           and runner.room_for(setups[-1])):
        probe = runner.run_pass(seeds, setup_only=True)
        probes.append(probe)
        if probe.setup is None:
            break
        setups.append(probe.setup)
    metrics = {}
    if setups:
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(pr.rss_kb for p in passes + probes
                               for pr in p.procs) / 1024.0,
        }
    return passes + probes, metrics


def traced_run(runner: Runner, seed: int, seconds: float, start: float):
    seeds = runner.workload.cli_seeds(seed)[:1]
    # untraced, traced, traced, untraced: the order cancels a linear drift
    # of machine speed out of trace.overhead_s
    plan = [False, True, True, False]
    passes: list[tuple[bool, Pass]] = []
    while (len(passes) < 3 or plan and runner.room_for(passes[-1][1].wall)
           or (time.monotonic() - start < seconds
               and runner.room_for(2 * passes[-1][1].wall))):
        if not plan:
            plan = [True, False]
        traced = plan.pop(0)
        one = runner.run_pass(seeds, trace=traced)
        passes.append((traced, one))
        if one.failures:
            break
    traced_ok = [p for traced, p in passes if traced and not p.failures]
    summaries = [layers.summarize(*merge(p.traces), p.wall) for p in traced_ok]
    untraced = [p.wall for traced, p in passes if not traced]
    metrics = {}
    if len(summaries) >= 2 and untraced:
        first = summaries[0]
        for one, other in zip(traced_ok[1:], summaries[1:]):
            drift = [k for k in layers.EXACT if other[k] != first[k]]
            if drift:
                one.failures.append(
                    "counters differ from the first traced pass: "
                    + ", ".join(f"{k} {first[k]} vs {other[k]}"
                                for k in drift))
        for name, unit, _ in layers.PER_LAYER:
            if name == "trace.overhead_s":
                continue
            metrics[name] = (first[name] if name in layers.EXACT else
                             statistics.median(s[name] for s in summaries))
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(untraced))
        accounted = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
        print(f"# accounted: layer self times {accounted:.4f} s + cli.other_s "
              f"{metrics['cli.other_s']:.4f} s = traced wall "
              f"{metrics['trace.wall_s']:.4f} s")
    return [p for _, p in passes], metrics


def environment(seed_pool: list[int]) -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "cli_seeds": seed_pool,
    }
    for dist in ("numpy", "scipy"):
        try:
            info[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            info[dist] = None
    info["git_sha"] = info["git_dirty"] = None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain"))
    return info


def blas_version() -> str | None:
    os.environ.update({var: "1" for var in THREAD_VARS})
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectral_moduli" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              "spectral-moduli checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    env = environment(workload.cli_seeds(args.seed))
    runner = Runner(workload, start + DEADLINE_S)
    run = traced_run if args.trace else plain_run
    passes, metrics = run(runner, args.seed, args.seconds, start)
    env["blas"] = blas_version()
    print("# env: " + json.dumps(env, sort_keys=True))

    failed = [p for p in passes if p.failures]
    for p in failed:
        for why in p.failures:
            print(f"# FAILED: {why}", file=sys.stderr)
    table = layers.PER_LAYER if args.trace else END_TO_END
    if len(metrics) != len(table):
        print("error: too few successful passes to report metrics; see "
              f"{WORK / 'child.log'}", file=sys.stderr)
        return 1
    print(f"# {args.workload}: {len(passes)} passes, "
          f"{len(failed)} failed, failed_ratio {len(failed) / len(passes):g}")
    for name, unit, better in table:
        print(f"# {name} = {metrics[name]:.6g} {unit} ({better} is better)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
