"""Command-line front end: analyze scenarios, print the reference table,
sweep one node's starting age, and validate analytics by simulation.

Exit codes: 0 on success, 1 on validation failures (bad scenario file,
violated model invariant, unusable request, unwritable output file), 2 when
the reference-table self-check finds a mismatch, 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .equilibrium import (
    SingularGameError,
    _closed_form,
    check_weak_dominance,
    enumerate_pure_nash,
    msne_closed_form,
)
from .game import Action, StrategyProfile, age_pmf, outcome_probabilities
from .reference import GOLDEN_TAU_TOLERANCE, REFERENCE_ROWS
from .scenario import Scenario, ScenarioError, load_scenario
from .simulate import SimStats, run_monte_carlo, simulate_age_trajectory


# Decimal for CSV cells: 12 significant digits, which do not round-trip
# every double.
_CELL = "%.12g"


def _four(x: float) -> str:
    return format(x, ".4f")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args: argparse.Namespace) -> int:
    game = load_scenario(args.scenario).game
    lengths = game.slot_lengths
    # Both may refuse the scenario before any report is printed; the O(1) cap check first.
    nash = enumerate_pure_nash(game)
    result = msne_closed_form(game)
    print(f"scenario: {args.scenario}")
    print(f"nodes: {game.n}")
    print(
        f"slot lengths: sigma_idle={lengths.sigma_idle} "
        f"sigma_success={lengths.sigma_success} sigma_collision={lengths.sigma_collision}"
    )
    regime, relation = (
        ("short_collision", "<=") if lengths.short_collision else ("long_collision", ">")
    )
    print(f"regime: {regime} (sigma_collision {relation} sigma_success)")
    print("initial ages: " + ", ".join(_four(a) for a in game.initial_ages))
    print()
    print(f"weak dominance (exhaustive over the {2 ** (game.n - 1)} pure opponent profiles):")
    for i in range(game.n):
        parts = []
        for action in (Action.TRANSMIT, Action.IDLE):
            report = check_weak_dominance(game, i, action)
            parts.append(
                f"{action.name.lower()}: weakly dominant={_yesno(report.weakly_dominant)}"
                f" (strictly better somewhere={_yesno(report.strictly_better_somewhere)})"
            )
        print(f"  node {i + 1}: " + " | ".join(parts))
    print()
    print("mixed equilibrium (closed form):")
    print("  raw taus: " + ", ".join(_four(t) for t in result.raw_taus))
    print(
        "  interior condition per node: "
        + ", ".join(_yesno(f) for f in result.feasible_per_node)
    )
    print(f"  feasible: {_yesno(result.feasible)}")
    print(
        "  indifference residuals: "
        + ", ".join(format(r, ".3e") for r in result.indifference_residuals)
    )
    print()
    print(f"pure Nash equilibria ({len(nash)}): " + ", ".join(nash.as_strings()))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    header = (
        f"{'row':<4} {'sigma_c':>8} {'ages':<22} {'raw taus':<28} "
        f"{'feasible':<9} pure Nash equilibria"
    )
    print(header)
    print("-" * len(header))
    problems = []
    for row in REFERENCE_ROWS:
        game = row.game()
        result = msne_closed_form(game)
        nash = enumerate_pure_nash(game).as_strings()
        taus = ", ".join(_four(t) for t in result.raw_taus)
        ages = ", ".join(_four(a) for a in row.initial_ages)
        print(
            f"{row.label:<4} {row.sigma_collision:>8.4f} {ages:<22} {taus:<28} "
            f"{_yesno(result.feasible):<9} {', '.join(nash)}"
        )
        for i, (got, want) in enumerate(zip(result.raw_taus, row.golden_taus)):
            if abs(got - want) > GOLDEN_TAU_TOLERANCE:
                problems.append(
                    f"row {row.label}: tau_{i + 1} = {got:.6f}, expected "
                    f"{want:.4f} within {GOLDEN_TAU_TOLERANCE}"
                )
        if result.feasible != row.golden_feasible:
            problems.append(
                f"row {row.label}: feasible = {result.feasible}, "
                f"expected {row.golden_feasible}"
            )
        if frozenset(nash) != row.golden_pure_nash:
            problems.append(
                f"row {row.label}: pure Nash set {sorted(nash)}, "
                f"expected {sorted(row.golden_pure_nash)}"
            )
    if args.check:
        for problem in problems:
            print(f"self-check: {problem}", file=sys.stderr)
        if problems:
            return 2
        print("self-check: all reference rows match the golden values")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    sweep = scenario.sweep
    if sweep is None:
        raise ScenarioError(f"{args.scenario}: scenario has no sweep block")
    game = scenario.game
    n = game.n
    ages = list(game.initial_ages)
    header = (
        ["swept_age"]
        + [f"tau_{k + 1}" for k in range(n)]
        + ["feasible"]
        + [f"psucc_{k + 1}" for k in range(n)]
    )
    row = ",".join([_CELL] * (n + 1) + ["%s"] + [_CELL] * n) + "\n"
    nan = (math.nan,) * n
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as out:
        out.write(",".join(header) + "\n")
        for value in sweep.values():
            ages[sweep.node - 1] = value
            try:
                result = _closed_form(game.slot_lengths, ages)
            except SingularGameError:
                out.write(row % (value, *nan, "false", *nan))
                continue
            # Raw taus that are no profile have no success probabilities.
            psucc = nan if result.profile is None else [
                outcome_probabilities(i, result.profile)[1] for i in range(n)
            ]
            out.write(row % (value, *result.raw_taus, str(result.feasible).lower(), *psucc))
    if args.out is not None:
        print(f"sweep written to {args.out} ({sweep.steps} points)")
    return 0


def _simulation_profile(scenario: Scenario) -> tuple[StrategyProfile, str]:
    if scenario.profile is not None:
        return scenario.profile, "explicit taus from scenario"
    profile = msne_closed_form(scenario.game).profile
    if profile is None:
        raise ScenarioError(
            "closed-form equilibrium is infeasible for this scenario; "
            "provide an explicit 'taus' list to simulate"
        )
    return profile, "closed-form mixed equilibrium"


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    game = scenario.game
    lengths = game.slot_lengths
    seed = scenario.seed if args.seed is None else args.seed
    num_slots = scenario.num_slots if args.slots is None else args.slots
    profile, source = _simulation_profile(scenario)
    if args.out is None:
        stats = run_monte_carlo(game, profile, num_slots, seed)
    else:
        # The call refuses a bad run before the file is created. The pass that
        # writes the trajectory also counts its slots for the report, which
        # is printed after it, so an unwritable path prints only the error.
        blocks = simulate_age_trajectory(game, profile, num_slots, seed)
        with open(args.out, "wb") as out:
            stats = _write_trajectory(out, game.n, blocks)

    n = game.n
    p_idle, _, _, p_coll = outcome_probabilities(0, profile)
    rows = [
        ("p_idle", p_idle, stats.idle_count / num_slots, _freq_se(p_idle, num_slots)),
        ("p_collision", p_coll, stats.collision_count / num_slots, _freq_se(p_coll, num_slots)),
    ] + [None] * (2 * n)
    # One pass fills node i's p_success row and, n rows later, its mean_age row.
    for i in range(n):
        psucc = outcome_probabilities(i, profile)[1]
        success = stats.success_count_per_node[i] / num_slots
        rows[2 + i] = (f"p_success_{i + 1}", psucc, success, _freq_se(psucc, num_slots))
        support = age_pmf(i, game.initial_ages[i], profile, lengths)
        mean = math.fsum(v * p for v, p in support)
        # Centred, so that a large age does not cancel the spread of a few
        # slots; hypot scales its terms, so their squares cannot overflow.
        spread = math.hypot(*(math.sqrt(p) * (v - mean) for v, p in support))
        empirical = stats.mean_age_after_per_node[i]
        rows[2 + n + i] = (f"mean_age_{i + 1}", mean, empirical, spread / math.sqrt(num_slots))

    print(f"scenario: {args.scenario}")
    print(f"profile source: {source}")
    print("taus: " + ", ".join(format(t, ".6f") for t in profile))
    print(f"slots: {num_slots}, seed: {seed}")
    print(
        f"counts: idle={stats.idle_count} collision={stats.collision_count} "
        f"success=({', '.join(str(c) for c in stats.success_count_per_node)})"
    )
    print()
    print(
        f"{'quantity':<14} {'analytic':>14} {'empirical':>14} {'|diff|':>12} "
        f"{'3*SE':>12} within"
    )
    all_within = True
    for name, analytic, empirical, se in rows:
        diff = abs(analytic - empirical)
        band = 3.0 * se
        # A certain outcome has a band of 0, yet the two sides may round it
        # apart: by 2 ulp at most over 1e5 random pure games.
        within = diff <= band + 8 * math.ulp(analytic)
        all_within = all_within and within
        print(
            f"{name:<14} {analytic:>14.6f} {empirical:>14.6f} "
            f"{diff:>12.2e} {band:>12.2e} {_yesno(within)}"
        )
    print()
    print(f"all quantities within 3 standard errors: {_yesno(all_within)}")
    if args.out is not None:
        print(f"trajectory written to {args.out} ({num_slots + 1} breakpoints)")
    return 0


def _write_trajectory(out, n: int, blocks) -> SimStats:
    """Write the `simulate_age_trajectory` `blocks` of an n-node game to the
    binary file `out` as CSV; return the `SimStats` the generator returns."""
    from .csv_cells import format_cells

    out.write(",".join(["time"] + [f"age_{k + 1}" for k in range(n)]).encode() + b"\n")
    while True:
        try:
            # No name holds a block while the next one is built.
            out.writelines(format_cells(next(blocks)))
        except StopIteration as done:
            return done.value


def _freq_se(p: float, num_slots: int) -> float:
    return math.sqrt(max(0.0, p * (1.0 - p)) / num_slots)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-csma-game",
        description=(
            "One-shot transmit/idle contention game over slotted CSMA/CA: "
            "age payoffs, equilibria, and Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="dominance, equilibria, and feasibility for one scenario"
    )
    analyze.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    analyze.set_defaults(func=cmd_analyze)

    table1 = sub.add_parser(
        "table1", help="print the five bundled reference scenarios"
    )
    table1.add_argument(
        "--check", action="store_true", help="compare against golden values; exit 2 on mismatch"
    )
    table1.set_defaults(func=cmd_table1)

    sweep = sub.add_parser(
        "sweep", help="sweep one node's starting age and emit equilibrium CSV"
    )
    sweep.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo run with analytic-vs-empirical report"
    )
    simulate.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    simulate.add_argument("--out", default=None, help="trajectory CSV output path")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument(
        "--slots", type=int, default=None, help="override the scenario num_slots"
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
