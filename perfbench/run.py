#!/usr/bin/env python3
"""Benchmark of the aoi-csma-game CLI on four seeded workloads.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload mc_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each run writes a seeded scenario file, then spawns
``python -m aoi_csma_game`` on it (with ``PYTHONPATH=src``) one invocation at
a time, for about ``--seconds`` seconds, and checks every output against
the independent computations in ``checks.py``.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median wall time of one CLI invocation, spawn to exit;
- ``peak_rss_mb``: largest peak RSS of one invocation, from ``os.wait4``
  in ``spawn.py``;
- ``setup_s``: median time of a fresh ``import aoi_csma_game.cli``, which
  every invocation pays before any work starts;
- ``ok_rate``: invocations that passed / attempted, i.e. 1 - error_rate.
  An invocation fails if it exits non-zero, writes a traceback or fails an
  output check.

``--trace 1`` spends half the time on untraced invocations and half on
in-process traced calls of ``cli.main`` (see ``tracing.py``) and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scenario files,
outputs, a run manifest (versions, seed, sha256 digests of stdout and CSV)
and traced spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_INVOCATIONS = 3
MIN_SETUP_SAMPLES = 5
# Three timed-out invocations must still end a run within 180 s.
INVOCATION_TIMEOUT_S = 40.0

# Layer group predicted to dominate each workload: at least 70% of cli.main
# there, so a change to that layer should move that workload's wall_s.
PREDICTED_DOMINANT = {
    "mc_stream": ("cli.self_s", "simulate.simulate_age_trajectory.s"),
    "mc_restart": ("simulate.run_monte_carlo.s",),
    "msne_wide": ("game.s", "equilibrium.msne_closed_form.s"),
    "pure_enum": ("equilibrium.check_weak_dominance.s", "equilibrium.enumerate_pure_nash.s"),
}


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sha256_file(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Finished:
    wall_s: float
    rss_mb: float
    code: int


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> Finished:
    """Run one child to completion through spawn.py, which times it and
    takes its own peak RSS from wait4, free of this process's memory."""
    launcher = [sys.executable, str(HERE / "spawn.py"), str(INVOCATION_TIMEOUT_S),
                str(stdout), str(stderr), "--", *argv]
    done = subprocess.run(launcher, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S + 30)
    if done.returncode != 0:
        _fail(f"spawn.py exited with {done.returncode}: {done.stderr.strip()}")
    return Finished(**json.loads(done.stdout))


@dataclass
class Checker:
    """Checks outputs; byte-identical outputs share one full check."""

    workload: workloads.Workload
    model: checks.Model
    verified: dict = field(default_factory=dict)  # (stdout sha, csv sha) -> problems
    verdicts: set = field(default_factory=set)  # "within 3 SE" answers seen

    def check(self, code: int, stdout: bytes, stderr: bytes, csv: Path | None) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        key = (hashlib.sha256(stdout).hexdigest(), _sha256_file(csv) if csv else None)
        if key not in self.verified:
            self.verified[key] = self._full_check(stdout.decode(errors="replace"), csv)
        if key != next(iter(self.verified)):
            problems.append("output differs between invocations of one scenario and seed")
        return problems + self.verified[key]

    def _full_check(self, stdout: str, csv: Path | None) -> list[str]:
        if self.workload.command == "analyze":
            return checks.check_analyze(stdout, self.model)
        problems, report = checks.check_simulate(stdout, self.model)
        if report is not None:
            self.verdicts.add(report.verdict)
            if csv is not None:
                problems += checks.check_trajectory(str(csv), self.model, report)
        return problems


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    workdir: Path
    env: dict
    checker: Checker
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def scenario_path(self) -> str:
        return str((self.workdir / "scenario.json").relative_to(ROOT))

    @property
    def csv_path(self) -> Path | None:
        return self.workdir / "trajectory.csv" if self.workload.writes_csv else None

    def cli_args(self) -> list[str]:
        args = [self.workload.command, "--scenario", self.scenario_path]
        if self.csv_path is not None:
            args += ["--out", str(self.csv_path.relative_to(ROOT))]
        return args

    def time_setup(self) -> float:
        log = self.workdir / "setup.out"
        done = spawn([sys.executable, "-c", "import aoi_csma_game.cli"], self.env, log, log)
        if done.code != 0:
            _fail(f"import aoi_csma_game.cli failed with exit code {done.code}")
        return done.wall_s

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"invocation {self.attempted}: " + "; ".join(problems))

    def remove_csv(self) -> None:
        if self.csv_path is not None:
            self.csv_path.unlink(missing_ok=True)

    def invoke(self) -> None:
        stdout, stderr = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        self.remove_csv()
        argv = [sys.executable, "-m", "aoi_csma_game", *self.cli_args()]
        done = spawn(argv, self.env, stdout, stderr)
        self.walls.append(done.wall_s)
        self.rss.append(done.rss_mb)
        self.record(self.checker.check(
            done.code, stdout.read_bytes(), stderr.read_bytes(), self.csv_path
        ))

    def measure(self, seconds: float) -> None:
        """Untraced invocations, each after one fresh-import set-up sample."""
        self.time_setup()  # warm-up (file cache, .pyc where allowed), not counted
        deadline = time.perf_counter() + seconds
        while True:
            self.setups.append(self.time_setup())
            self.invoke()
            next_cost = statistics.median(self.walls) + statistics.median(self.setups)
            if len(self.walls) >= MIN_INVOCATIONS and time.perf_counter() + next_cost > deadline:
                break
        while len(self.setups) < MIN_SETUP_SAMPLES:
            self.setups.append(self.time_setup())

    def end_to_end(self) -> dict:
        return {
            "wall_s": (statistics.median(self.walls), "s"),
            "peak_rss_mb": (max(self.rss), "MB"),
            "setup_s": (statistics.median(self.setups), "s"),
            "ok_rate": ((self.attempted - len(self.failures)) / self.attempted, "ratio"),
        }

    def trace(self, seconds: float, recorder: tracing.Recorder) -> tuple[dict, dict]:
        """Traced in-process calls of cli.main.

        Returns the per-layer metrics and, for each workload's predicted
        dominant layer group, its median share of cli.main.
        """
        from aoi_csma_game import cli

        summaries, output_bytes = [], 0
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            self.remove_csv()
            call = len(summaries)
            code, out, err = recorder.traced_main(call, cli, self.cli_args())
            self.record(self.checker.check(code, out.encode(), err.encode(), self.csv_path))
            output_bytes = len(out.encode()) + (self.csv_path.stat().st_size
                                                if self.csv_path and self.csv_path.exists() else 0)
            summary = recorder.call_summary(call)
            summary["game.s"] = sum(summary.get(f"game.{name}.s", 0.0)
                                    for name in tracing.TRACED["game"])
            for workload, group in PREDICTED_DOMINANT.items():
                summary[f"share.{workload}"] = (sum(summary.get(g, 0.0) for g in group)
                                                / summary[f"{tracing.ROOT}.s"])
            summaries.append(summary)
            cost = statistics.median(s[f"{tracing.ROOT}.s"] for s in summaries)
            if len(summaries) >= MIN_INVOCATIONS and time.perf_counter() + cost > deadline:
                break
        medians = tracing.median_summary(summaries)
        shares = {w: medians[f"share.{w}"] for w in PREDICTED_DOMINANT}
        return self._per_layer(medians, output_bytes), shares

    def _per_layer(self, m: dict, output_bytes: int) -> dict:
        scenario = self.workload.scenario
        n, slots = scenario["n"], scenario["num_slots"]

        def seconds(name):
            return (m.get(f"{name}.s", 0.0), "s")

        def calls(name):
            return (m.get(f"{name}.calls", 0.0), "count")

        def slots_per_s(name):
            busy = m.get(f"{name}.s", 0.0)
            return (slots * m.get(f"{name}.calls", 0.0) / busy if busy else 0.0, "slots/s")

        metrics = {
            "cli.main.s": seconds(tracing.ROOT),
            "cli.self_s": (m.get("cli.self_s", 0.0), "s"),
            "cli.output_bytes": (output_bytes, "count"),
            "scenario.load_scenario.s": seconds("scenario.load_scenario"),
        }
        for name in tracing.TRACED["game"]:
            metrics[f"game.{name}.s"] = seconds(f"game.{name}")
            metrics[f"game.{name}.calls"] = calls(f"game.{name}")
        metrics["game.s"] = (m.get("game.s", 0.0), "s")
        metrics["equilibrium.msne_closed_form.s"] = seconds("equilibrium.msne_closed_form")
        metrics["equilibrium.check_weak_dominance.s"] = seconds("equilibrium.check_weak_dominance")
        metrics["equilibrium.check_weak_dominance.calls"] = calls(
            "equilibrium.check_weak_dominance")
        metrics["equilibrium.enumerate_pure_nash.s"] = seconds("equilibrium.enumerate_pure_nash")
        # Computed, not counted by the program: 2^n profiles per call.
        metrics["equilibrium.enumerate_pure_nash.profiles"] = (
            2 ** n * m.get("equilibrium.enumerate_pure_nash.calls", 0.0), "count")
        for name in ("run_monte_carlo", "simulate_age_trajectory"):
            metrics[f"simulate.{name}.s"] = seconds(f"simulate.{name}")
            metrics[f"simulate.{name}.slots_per_s"] = slots_per_s(f"simulate.{name}")
        # Computed: each sampler call draws one uniform per node per slot.
        metrics["simulate.variates"] = (n * slots * (
            m.get("simulate.run_monte_carlo.calls", 0.0)
            + m.get("simulate.simulate_age_trajectory.calls", 0.0)), "count")
        untraced_main = statistics.median(self.walls) - statistics.median(self.setups)
        metrics["trace.overhead_s"] = (m.get(f"{tracing.ROOT}.s", 0.0) - untraced_main, "s")
        return metrics

    def manifest(self, trace: bool) -> dict:
        stdout_sha, csv_sha = next(iter(self.checker.verified), (None, None))
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(trace),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "scenario_sha256": _sha256_file(self.workdir / "scenario.json"),
            "stdout_sha256": stdout_sha,
            "csv_sha256": csv_sha,
            "distinct_outputs": len(self.checker.verified),
            "verdict_within_3se": sorted(self.checker.verdicts),
            "invocations": self.attempted,
            "wall_s": self.walls,
            "setup_s": self.setups,
            "peak_rss_mb": self.rss,
            "failures": self.failures,
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    try:
        workload = workloads.generate(name, seed)
    except RuntimeError as exc:
        _fail(str(exc))
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "scenario.json").write_text(json.dumps(workload.scenario, indent=2) + "\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    checker = Checker(workload, checks.Model.from_scenario(workload.scenario))
    run = Run(workload, seed, workdir, env, checker)
    shares = None
    if not trace:
        run.measure(seconds)
        metrics = run.end_to_end()
    else:
        recorder = tracing.Recorder()
        run.measure(seconds / 2)
        metrics, shares = run.trace(seconds / 2, recorder)
        (workdir / "spans.json").write_text(json.dumps(recorder.as_json()) + "\n")
    manifest = run.manifest(trace)
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _print_summary(run, metrics, shares)
    print("manifest: " + json.dumps({k: v for k, v in manifest.items()
                                     if k not in ("wall_s", "setup_s", "peak_rss_mb")}))
    return run, metrics


def _print_summary(run: Run, metrics: dict, shares: dict | None) -> None:
    print(f"== {run.workload.name} seed {run.seed}: {run.attempted} invocations, "
          f"{len(run.failures)} failed")
    for failure in run.failures[:5]:
        print(f"   FAILED {failure}")
    if shares is None:
        notes = {
            "wall_s": f"median of {len(run.walls)} invocations",
            "peak_rss_mb": f"largest of {len(run.rss)} invocations",
            "setup_s": f"median of {len(run.setups)} fresh imports",
            "ok_rate": "1 - error_rate",
        }
        for name, (value, unit) in metrics.items():
            print(f"   {name:<12} {value:>12.6g} {unit:<6} {notes[name]}")
        error_rate = len(run.failures) / run.attempted
        print(f"   {'error_rate':<12} {error_rate:>12.6g} {'ratio':<6} "
              f"{len(run.failures)}/{run.attempted} invocations failed")
        return
    for name, (value, unit) in sorted(metrics.items()):
        print(f"   {name:<44} {value:>14.6g} {unit}")
    print("   median share of cli.main per traced call:")
    for workload, group in PREDICTED_DOMINANT.items():
        share = shares[workload]
        mark = "predicted >= 70% here" if workload == run.workload.name else "predicted small"
        print(f"     {' + '.join(group):<72} {share:7.1%}  ({mark})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "aoi_csma_game" / "cli.py").is_file():
        _fail(f"package source not found under {SRC}; run from a checkout of the repository")
    os.chdir(ROOT)
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, run_metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += len(run.failures)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in run_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
