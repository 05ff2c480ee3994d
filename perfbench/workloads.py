"""Seeded scenario generators for the four benchmark workloads.

Each workload stresses one layer of the package and barely runs the others:

- ``mc_stream``: Table I row IV, ``simulate --out`` at 2e5 slots:
  trajectory building and CSV emission (``cli`` self time and
  ``simulate_age_trajectory``).
- ``mc_restart``: n=10 with explicit equal taus of 0.1, ``simulate`` without
  ``--out`` at 1e7 slots: the restart Monte Carlo (``run_monte_carlo``) alone.
- ``msne_wide``: n=150, long collisions, near-equal ages, ``simulate``
  without ``--out`` at 1e5 slots: the per-node analytic report (``game``)
  and the closed-form equilibrium with its residuals (``equilibrium``).
- ``pure_enum``: n=13, short collisions, ``analyze``: the 2^n weak-dominance
  and pure-Nash loops (``equilibrium``).

The seed sets the Monte Carlo seed and draws the ages (all but
``mc_stream``, whose ages are Table I's). The generators use only the
standard library; they never call the package, so the scenario is an input
the program cannot shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SIGMA_IDLE = 0.01
SIGMA_SUCCESS = 1.01

# Sizes: one invocation takes about 1.5-2.5 s on a 2-core x86-64 KVM guest,
# so a 30 s run holds about 10 to 16 invocations.
MC_STREAM_SLOTS = 200_000
MC_RESTART_NODES = 10
MC_RESTART_TAU = 0.1
MC_RESTART_SLOTS = 10_000_000
MSNE_WIDE_NODES = 150
MSNE_WIDE_SLOTS = 100_000
MSNE_WIDE_BASE_AGE = 3.0 * SIGMA_SUCCESS
# Relative age spread. The interior condition leaves about (a - d)/(n - 2)
# of slack per node, 0.45% at n=150: a 2% spread breaks it, 0.1% keeps it.
MSNE_WIDE_SPREAD = 1e-3
PURE_ENUM_NODES = 13


@dataclass(frozen=True)
class Workload:
    """One generated scenario and the CLI arguments that run it."""

    name: str
    scenario: dict
    command: str  # "simulate" or "analyze"
    writes_csv: bool


def interior_condition_holds(ages: list[float], sigma_idle: float, sigma_success: float) -> bool:
    """Closed-form MSNE interior condition, checked node by node.

    a_i < ((n-1) m_i - (sigma_s - sigma_i)) / (n-2), with m_i the mean of
    the other nodes' ages; strict, as in the paper.
    """
    n = len(ages)
    total = sum(ages)
    d = sigma_success - sigma_idle
    for a in ages:
        m = (total - a) / (n - 1)
        if not (n - 2) * a < (n - 1) * m - d:
            return False
    return True


def _mc_stream(seed: int) -> Workload:
    scenario = {
        "n": 3,
        "sigma_idle": SIGMA_IDLE,
        "sigma_success": SIGMA_SUCCESS,
        "sigma_collision": 2 * SIGMA_SUCCESS,
        "initial_ages": [
            {"value": 2, "unit": "sigma_s"},
            {"value": 3, "unit": "sigma_s"},
            {"value": 3, "unit": "sigma_s"},
        ],
        "seed": seed,
        "num_slots": MC_STREAM_SLOTS,
    }
    return Workload("mc_stream", scenario, "simulate", True)


def _mc_restart(seed: int) -> Workload:
    rng = random.Random(seed)
    n = MC_RESTART_NODES
    scenario = {
        "n": n,
        "sigma_idle": SIGMA_IDLE,
        "sigma_success": SIGMA_SUCCESS,
        "sigma_collision": 2 * SIGMA_SUCCESS,
        "initial_ages": [round(rng.uniform(1.0, 4.0) * SIGMA_SUCCESS, 6) for _ in range(n)],
        "seed": seed,
        "num_slots": MC_RESTART_SLOTS,
        "taus": [MC_RESTART_TAU] * n,
    }
    return Workload("mc_restart", scenario, "simulate", False)


def _msne_wide(seed: int) -> Workload:
    rng = random.Random(seed)
    n = MSNE_WIDE_NODES
    for _ in range(100):
        ages = [
            round(MSNE_WIDE_BASE_AGE * (1.0 + MSNE_WIDE_SPREAD * rng.uniform(-1.0, 1.0)), 9)
            for _ in range(n)
        ]
        if interior_condition_holds(ages, SIGMA_IDLE, SIGMA_SUCCESS):
            break
    else:
        raise RuntimeError(f"msne_wide: no feasible age draw for seed {seed}")
    scenario = {
        "n": n,
        "sigma_idle": SIGMA_IDLE,
        "sigma_success": SIGMA_SUCCESS,
        "sigma_collision": 2 * SIGMA_SUCCESS,
        "initial_ages": ages,
        "seed": seed,
        "num_slots": MSNE_WIDE_SLOTS,
    }
    return Workload("msne_wide", scenario, "simulate", False)


def _pure_enum(seed: int) -> Workload:
    rng = random.Random(seed)
    n = PURE_ENUM_NODES
    scenario = {
        "n": n,
        "sigma_idle": SIGMA_IDLE,
        "sigma_success": SIGMA_SUCCESS,
        "sigma_collision": SIGMA_SUCCESS / 2,
        "initial_ages": [round(rng.uniform(1.0, 4.0) * SIGMA_SUCCESS, 6) for _ in range(n)],
        "seed": seed,
        "num_slots": 1,
    }
    return Workload("pure_enum", scenario, "analyze", False)


GENERATORS = {
    "mc_stream": _mc_stream,
    "mc_restart": _mc_restart,
    "msne_wide": _msne_wide,
    "pure_enum": _pure_enum,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
