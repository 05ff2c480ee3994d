"""Independent checks of the CLI's printed reports and trajectory CSV.

Every expected value is recomputed here with plain numpy from the scenario
file, never by calling the package, so a wrong kernel in the program cannot
also be wrong in its check. Each check returns a list of problems; an empty
list means the output is correct.

The "within 3 standard errors" verdict is parsed and returned as
information only: with 2n+2 quantities each tested at 3 SE its family-wise
false-alarm rate is 1 - 0.9973^(2n+2), about 2% at n=3, 6% at n=10 and far
higher at n=150, so gating on it would fail some seeds by chance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# Printed reports round to 6 (simulate) or 4 (analyze) decimals.
TOL_6 = 6e-7
TOL_4 = 6e-5


@dataclass
class Model:
    """Scenario values resolved to plain floats."""

    n: int
    sigma_idle: float
    sigma_success: float
    sigma_collision: float
    ages: np.ndarray
    seed: int
    num_slots: int
    taus: np.ndarray | None

    @classmethod
    def from_scenario(cls, scenario: dict) -> Model:
        s = float(scenario["sigma_success"])
        ages = [
            float(a["value"]) * s if isinstance(a, dict) else float(a)
            for a in scenario["initial_ages"]
        ]
        taus = scenario.get("taus")
        return cls(
            n=int(scenario["n"]),
            sigma_idle=float(scenario["sigma_idle"]),
            sigma_success=s,
            sigma_collision=float(scenario["sigma_collision"]),
            ages=np.array(ages),
            seed=int(scenario["seed"]),
            num_slots=int(scenario["num_slots"]),
            taus=None if taus is None else np.array(taus, dtype=float),
        )

    def closed_form_taus(self) -> np.ndarray:
        """Interior mixed equilibrium, tau_i = (d + s_i) / (D + s_i)."""
        n, a = self.n, self.ages
        shifted = (n - 1) * a - a.sum()
        d = self.sigma_success - self.sigma_idle
        big_d = n * self.sigma_success - (n - 1) * self.sigma_collision - self.sigma_idle
        return (d + shifted) / (big_d + shifted)

    def interior_flags(self) -> np.ndarray:
        n, a = self.n, self.ages
        return a.mean() - (n - 1) * a / n > (self.sigma_success - self.sigma_idle) / n


def _leave_one_out_silent(taus: np.ndarray) -> np.ndarray:
    """prod_{j != i} (1 - tau_j) for every i, by prefix and suffix products."""
    q = 1.0 - taus
    prefix = np.concatenate(([1.0], np.cumprod(q)[:-1]))
    suffix = np.concatenate((np.cumprod(q[::-1])[::-1][1:], [1.0]))
    return prefix * suffix


def slot_probabilities(taus: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(P idle, P success of each node, P collision) from a count recursion."""
    p0, p1, p2 = 1.0, 0.0, 0.0
    for t in taus:
        p0, p1, p2 = p0 * (1.0 - t), p1 * (1.0 - t) + p0 * t, p2 + p1 * t
    return p0, taus * _leave_one_out_silent(taus), p2


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


@dataclass
class SimulateReport:
    """What a simulate report states, parsed from its stdout."""

    taus: list[float]
    slots: int
    seed: int
    idle: int
    collision: int
    successes: list[int]
    rows: dict[str, tuple[float, float]]  # quantity -> (analytic, empirical)
    verdict: str
    breakpoints: int | None


def parse_simulate(stdout: str) -> SimulateReport:
    taus = re.search(r"^taus: (.*)$", stdout, re.M)
    slots = re.search(r"^slots: (\d+), seed: (-?\d+)$", stdout, re.M)
    counts = re.search(
        r"^counts: idle=(\d+) collision=(\d+) success=\(([\d, ]*)\)$", stdout, re.M
    )
    verdict = re.search(r"^all quantities within 3 standard errors: (\w+)$", stdout, re.M)
    written = re.search(r"^trajectory written to .* \((\d+) breakpoints\)$", stdout, re.M)
    if not (taus and slots and counts and verdict):
        raise ValueError("simulate report is missing the taus, slots, counts or verdict line")
    rows = {}
    for m in re.finditer(r"^(p_\w+|mean_age_\d+)\s+(\S+)\s+(\S+)\s+\S+\s+\S+\s+(?:yes|no)$",
                         stdout, re.M):
        rows[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    return SimulateReport(
        taus=_floats(taus.group(1)),
        slots=int(slots.group(1)),
        seed=int(slots.group(2)),
        idle=int(counts.group(1)),
        collision=int(counts.group(2)),
        successes=[int(x) for x in counts.group(3).split(",")],
        rows=rows,
        verdict=verdict.group(1),
        breakpoints=int(written.group(1)) if written else None,
    )


def _close(label: str, got: float, want: float, tol: float, problems: list[str]) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{label}: printed {got!r}, expected {float(want)!r} within {tol}")


def check_simulate(stdout: str, model: Model) -> tuple[list[str], SimulateReport | None]:
    """Check a simulate report against numpy formulas; returns (problems, report)."""
    try:
        report = parse_simulate(stdout)
    except ValueError as exc:
        return [str(exc)], None
    problems: list[str] = []
    n = model.n
    taus = model.taus if model.taus is not None else model.closed_form_taus()
    if len(report.taus) != n or len(report.successes) != n:
        return [f"report lists {len(report.taus)} taus and {len(report.successes)} "
                f"success counts for n = {n}"], report
    for i in range(n):
        _close(f"tau_{i + 1}", report.taus[i], taus[i], TOL_6, problems)
    if (report.slots, report.seed) != (model.num_slots, model.seed):
        problems.append(f"slots/seed {report.slots}/{report.seed}, expected "
                        f"{model.num_slots}/{model.seed}")
    slots = model.num_slots
    if report.idle + report.collision + sum(report.successes) != slots:
        problems.append("idle + collision + successes != slots")

    p_idle, p_succ, p_coll = slot_probabilities(taus)
    expected_slot = (p_idle * model.sigma_idle + p_succ.sum() * model.sigma_success
                     + p_coll * model.sigma_collision)
    duration = (report.idle * model.sigma_idle + sum(report.successes) * model.sigma_success
                + report.collision * model.sigma_collision)
    want = {
        "p_idle": (p_idle, report.idle / slots),
        "p_collision": (p_coll, report.collision / slots),
    }
    for i in range(n):
        want[f"p_success_{i + 1}"] = (p_succ[i], report.successes[i] / slots)
        want[f"mean_age_{i + 1}"] = (
            (1.0 - p_succ[i]) * model.ages[i] + expected_slot,
            (duration + model.ages[i] * (slots - report.successes[i])) / slots,
        )
    if set(report.rows) != set(want):
        problems.append(f"report rows {sorted(report.rows)} differ from {sorted(want)}")
    for name, (analytic, empirical) in want.items():
        if name in report.rows:
            got_a, got_e = report.rows[name]
            _close(f"{name} analytic", got_a, analytic, TOL_6, problems)
            _close(f"{name} empirical", got_e, empirical, TOL_6, problems)
    return problems, report


def check_trajectory(csv_path: str, model: Model, report: SimulateReport) -> list[str]:
    """slots+1 rows, increasing times, ages >= sigma_s, resets == successes."""
    with open(csv_path) as f:
        header = f.readline().strip()
        want_header = ",".join(["time"] + [f"age_{k + 1}" for k in range(model.n)])
        if header != want_header:
            return [f"CSV header {header!r}, expected {want_header!r}"]
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    problems = []
    rows = model.num_slots + 1
    if data.shape != (rows, model.n + 1):
        return [f"CSV has shape {data.shape}, expected {(rows, model.n + 1)}"]
    if report.breakpoints != rows:
        problems.append(f"report states {report.breakpoints} breakpoints, expected {rows}")
    times, ages = data[:, 0], data[:, 1:]
    if times[0] != 0.0 or not np.all(np.diff(times) > 0.0):
        problems.append("CSV times do not start at 0 and increase strictly")
    if not np.allclose(ages[0], model.ages, rtol=1e-11, atol=0.0):
        problems.append("CSV first row differs from the initial ages")
    s = model.sigma_success
    if np.any(ages < s * (1.0 - 1e-11)):
        problems.append("CSV has an age below sigma_success")
    # An own success pins the age to sigma_s; every other slot adds at least
    # sigma_idle, so a reset is an age within sigma_idle/2 of sigma_s.
    resets = np.count_nonzero(ages[1:] < s + model.sigma_idle / 2, axis=0).tolist()
    if resets != report.successes:
        problems.append(f"CSV reset counts {resets} differ from success counts "
                        f"{report.successes}")
    return problems


def pure_nash_count(n: int, sigma_success: float, sigma_collision: float) -> int:
    """Transmitter-count rule: a profile with k transmitters is a pure Nash
    equilibrium iff k >= 3, or k == 2 and sigma_c <= sigma_s, or k == 1 and
    sigma_c >= sigma_s; k == 0 never is."""
    total = sum(math.comb(n, k) for k in range(3, n + 1))
    if sigma_collision <= sigma_success:
        total += math.comb(n, 2)
    if sigma_collision >= sigma_success:
        total += n
    return total


def _pure_payoff(model: Model, i: int, transmit: bool, others: int) -> float:
    """Node i's payoff when `others` other nodes transmit."""
    a = model.ages[i]
    if transmit:
        return -model.sigma_success if others == 0 else -(a + model.sigma_collision)
    if others == 0:
        return -(a + model.sigma_idle)
    if others == 1:
        return -(a + model.sigma_success)
    return -(a + model.sigma_collision)


def _dominance(model: Model, i: int, transmit: bool) -> tuple[bool, bool]:
    """(weakly dominant, strictly better somewhere) over other-transmitter counts."""
    gaps = [_pure_payoff(model, i, transmit, k) - _pure_payoff(model, i, not transmit, k)
            for k in range(model.n)]
    weak = all(g >= 0.0 for g in gaps)
    return weak, weak and any(g > 0.0 for g in gaps)


def check_analyze(stdout: str, model: Model) -> list[str]:
    problems: list[str] = []
    n = model.n
    if not re.search(rf"^nodes: {n}$", stdout, re.M):
        problems.append(f"missing 'nodes: {n}' line")
    yn = {True: "yes", False: "no"}
    for i in range(n):
        want_t, want_ts = _dominance(model, i, True)
        want_i, want_is = _dominance(model, i, False)
        line = (
            f"  node {i + 1}: transmit: weakly dominant={yn[want_t]} "
            f"(strictly better somewhere={yn[want_ts]}) | idle: weakly dominant="
            f"{yn[want_i]} (strictly better somewhere={yn[want_is]})"
        )
        if line not in stdout.splitlines():
            problems.append(f"dominance line for node {i + 1} differs from {line.strip()!r}")

    raw = re.search(r"^  raw taus: (.*)$", stdout, re.M)
    flags = re.search(r"^  interior condition per node: (.*)$", stdout, re.M)
    feasible = re.search(r"^  feasible: (\w+)$", stdout, re.M)
    if not (raw and flags and feasible):
        return problems + ["mixed-equilibrium section is incomplete"]
    taus = model.closed_form_taus()
    got = _floats(raw.group(1))
    if len(got) != n:
        problems.append(f"{len(got)} raw taus for n = {n}")
    else:
        for i in range(n):
            _close(f"raw tau_{i + 1}", got[i], taus[i], TOL_4, problems)
    want_flags = model.interior_flags()
    if flags.group(1) != ", ".join(yn[bool(f)] for f in want_flags):
        problems.append("interior condition flags differ")
    want_feasible = bool(want_flags.all()) and model.sigma_collision > model.sigma_success
    if feasible.group(1) != yn[want_feasible]:
        problems.append(f"feasible: {feasible.group(1)}, expected {yn[want_feasible]}")

    nash = re.search(r"^pure Nash equilibria \((\d+)\):(.*)$", stdout, re.M)
    if not nash:
        return problems + ["missing pure Nash line"]
    want_count = pure_nash_count(n, model.sigma_success, model.sigma_collision)
    if int(nash.group(1)) != want_count:
        problems.append(f"pure Nash count {nash.group(1)}, expected {want_count}")
    listed = [p for p in nash.group(2).strip().split(", ") if p]
    if listed:
        if len(set(listed)) != want_count:
            problems.append(f"{len(set(listed))} distinct profiles listed, expected {want_count}")
        s, c = model.sigma_success, model.sigma_collision
        for p in listed:
            k = p.count("T")
            if len(p) != n or set(p) - {"T", "I"} or not (
                k >= 3 or (k == 2 and c <= s) or (k == 1 and c >= s)
            ):
                problems.append(f"listed profile {p!r} is not a pure Nash equilibrium")
                break
    return problems
