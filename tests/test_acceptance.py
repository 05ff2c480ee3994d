"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in failure reports).

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from aoi_csma_game import (
    Action,
    GameInstance,
    StrategyProfile,
    age_pmf,
    busy_seen_probability,
    check_weak_dominance,
    collision_probability,
    enumerate_pure_nash,
    expected_age_after,
    idle_probability,
    mixed_payoff,
    monotonicity_derivatives,
    msne_closed_form,
    pure_payoff,
    run_monte_carlo,
    success_probability_of,
    total_success_probability,
    verify_indifference,
)
from aoi_csma_game import cli
from aoi_csma_game.reference import GOLDEN_TAU_TOLERANCE, REFERENCE_ROWS
from helpers import random_feasible_game, random_game, random_slot_lengths

ROW = {row.label: row for row in REFERENCE_ROWS}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:>2}/10] {label}: FAIL")
        raise
    print(f"[acceptance {number:>2}/10] {label}: PASS")


def test_criterion_01_golden_equilibrium_values():
    with criterion(1, "golden closed-form equilibrium values"):
        start = time.perf_counter()
        for row in REFERENCE_ROWS:
            result = msne_closed_form(row.game())
            for i, (got, want) in enumerate(zip(result.raw_taus, row.golden_taus)):
                assert abs(got - want) <= GOLDEN_TAU_TOLERANCE, (
                    f"row {row.label} tau_{i + 1}: {got} vs {want}"
                )
        assert time.perf_counter() - start < 1.0


def test_criterion_02_golden_pure_nash_sets():
    with criterion(2, "golden pure Nash sets"):
        start = time.perf_counter()
        for row in REFERENCE_ROWS:
            nash = frozenset(enumerate_pure_nash(row.game()).as_strings())
            assert nash == row.golden_pure_nash, f"row {row.label}: {sorted(nash)}"
        assert time.perf_counter() - start < 1.0


def test_criterion_03_feasibility_logic():
    with criterion(3, "feasibility flags and indifference residuals"):
        for label in ("I", "II"):
            result = msne_closed_form(ROW[label].game())
            assert not result.feasible
            # These rows fail on the slot-length gate, not the age condition.
            assert ROW[label].game().slot_lengths.short_collision
        row3 = msne_closed_form(ROW["III"].game())
        assert not row3.feasible
        assert row3.feasible_per_node == (True, True, False)
        assert not ROW["III"].game().slot_lengths.short_collision
        for label in ("IV", "V"):
            game = ROW[label].game()
            result = msne_closed_form(game)
            assert result.feasible
            for residual in result.indifference_residuals:
                assert abs(residual) < 1e-9
            for residual in verify_indifference(game, result.profile()):
                assert abs(residual) < 1e-9


def test_criterion_04_dominance_regime_enumeration():
    with criterion(4, "dominance regimes over random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(40404)
        for n in (2, 3, 4, 5):
            for short in (True, False):
                for trial in range(1000):
                    if short and trial % 100 == 0:
                        ratio = (1.0, 1.0)  # exercise the boundary exactly
                    else:
                        ratio = (0.05, 1.0) if short else (1.0000001, 3.0)
                    lengths = random_slot_lengths(rng, collision_ratio=ratio)
                    game = random_game(rng, n, lengths)
                    assert lengths.short_collision == short
                    for i in range(n):
                        transmit = check_weak_dominance(game, i, Action.TRANSMIT)
                        idle = check_weak_dominance(game, i, Action.IDLE)
                        if lengths.short_collision:
                            assert transmit.weakly_dominant, (n, trial, i)
                        else:
                            assert not transmit.weakly_dominant, (n, trial, i)
                            assert not idle.weakly_dominant, (n, trial, i)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_05_probability_model_properties():
    with criterion(5, "probability closure, busy identity, and age distribution"):
        rng = np.random.default_rng(50505)
        for _ in range(10_000):
            n = int(rng.integers(2, 6))
            lengths = random_slot_lengths(rng, collision_ratio=(0.05, 3.0))
            profile = StrategyProfile(tuple(float(t) for t in rng.random(n)))
            p_idle = idle_probability(profile)
            p_total = total_success_probability(profile)
            p_coll = collision_probability(profile)
            assert abs(p_idle + p_total + p_coll - 1.0) <= 1e-12
            for i in range(n):
                gap = busy_seen_probability(i, profile) - (
                    p_total - success_probability_of(i, profile)
                )
                assert abs(gap) <= 1e-12
            i = int(rng.integers(0, n))
            age = float(lengths.sigma_success * (1.0 + 9.0 * rng.random()))
            pmf = age_pmf(i, age, profile, lengths)
            assert abs(pmf.total_mass() - 1.0) <= 1e-12
            expected = expected_age_after(i, age, profile, lengths)
            assert abs(pmf.mean() - expected) <= 1e-12 * abs(expected)


def test_criterion_06_corner_equivalence():
    with criterion(6, "mixed payoff equals pure payoff at every corner"):
        rng = np.random.default_rng(60606)
        for n in (2, 3, 4):
            for _ in range(100):
                lengths = random_slot_lengths(rng, collision_ratio=(0.05, 3.0))
                game = random_game(rng, n, lengths)
                for actions in itertools.product(
                    (Action.TRANSMIT, Action.IDLE), repeat=n
                ):
                    profile = StrategyProfile.from_actions(actions)
                    for i in range(n):
                        assert mixed_payoff(i, game, profile) == pure_payoff(
                            i, game, actions
                        )


def test_criterion_07_age_sensitivity_derivatives():
    with criterion(7, "equilibrium age derivatives vs finite differences"):
        rng = np.random.default_rng(70707)
        for _ in range(1000):
            n = int(rng.integers(3, 6))
            game = random_feasible_game(rng, n)
            i = int(rng.integers(0, n))
            j = int((i + 1 + rng.integers(0, n - 1)) % n)
            own, cross = monotonicity_derivatives(game, i, j)
            assert own < 0.0
            assert cross > 0.0
            step = 1e-5 * game.slot_lengths.sigma_success

            def tau_i_at(ages):
                shifted = GameInstance(n, game.slot_lengths, ages)
                return msne_closed_form(shifted).raw_taus[i]

            for target, analytic in ((i, own), (j, cross)):
                up = list(game.initial_ages)
                down = list(game.initial_ages)
                up[target] += step
                down[target] -= step
                fd = (tau_i_at(up) - tau_i_at(down)) / (2 * step)
                assert abs(analytic - fd) <= 1e-6 * abs(analytic), (
                    f"n={n} i={i} j={j} target={target}: {analytic} vs {fd}"
                )


def test_criterion_08_monte_carlo_validation():
    with criterion(8, "Monte Carlo agreement at the feasible reference row"):
        start = time.perf_counter()
        game = ROW["IV"].game()
        profile = msne_closed_form(game).profile()
        slots = 1_000_000
        stats = run_monte_carlo(game, profile, slots, seed=42)
        lengths = game.slot_lengths

        def freq_band(p):
            return 3.0 * math.sqrt(p * (1.0 - p) / slots)

        p_idle = idle_probability(profile)
        p_coll = collision_probability(profile)
        assert abs(stats.idle_count / slots - p_idle) <= freq_band(p_idle)
        assert abs(stats.collision_count / slots - p_coll) <= freq_band(p_coll)
        for i in range(game.n):
            p = success_probability_of(i, profile)
            assert abs(stats.success_count_per_node[i] / slots - p) <= freq_band(p)
        for i in range(game.n):
            age = game.initial_ages[i]
            mean = expected_age_after(i, age, profile, lengths)
            pmf = age_pmf(i, age, profile, lengths)
            variance = sum(p * v * v for v, p in pmf.support) - mean**2
            band = 3.0 * math.sqrt(variance / slots)
            assert abs(stats.mean_age_after_per_node[i] - mean) <= band
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_09_success_probability_sweep():
    with criterion(9, "success-probability sweep crosses monotonically"):
        lengths = ROW["IV"].game().slot_lengths
        base_ages = list(ROW["IV"].initial_ages)
        swept = np.linspace(3 * 1.01, 4 * 1.01, 11)
        taus_per_point = []
        psucc_per_point = []
        for value in swept:
            ages = base_ages.copy()
            ages[2] = float(value)
            game = GameInstance(3, lengths, ages)
            result = msne_closed_form(game)
            assert result.feasible
            profile = result.profile()
            taus_per_point.append(result.raw_taus)
            psucc_per_point.append(
                tuple(success_probability_of(i, profile) for i in range(3))
            )
        for got, want in zip(taus_per_point[0], ROW["IV"].golden_taus):
            assert abs(got - want) <= GOLDEN_TAU_TOLERANCE
        for got, want in zip(taus_per_point[-1], ROW["V"].golden_taus):
            assert abs(got - want) <= GOLDEN_TAU_TOLERANCE
        for k in range(1, len(swept)):
            assert psucc_per_point[k][0] > psucc_per_point[k - 1][0]
            assert psucc_per_point[k][1] > psucc_per_point[k - 1][1]
            assert psucc_per_point[k][2] < psucc_per_point[k - 1][2]


def test_criterion_10_simulation_csv_determinism(tmp_path):
    with criterion(10, "byte-identical simulation CSV under a fixed seed"):
        scenario = {
            "n": 3,
            "sigma_idle": 0.01,
            "sigma_success": 1.01,
            "sigma_collision": 2.02,
            "initial_ages": [
                {"value": 2, "unit": "sigma_s"},
                {"value": 3, "unit": "sigma_s"},
                {"value": 3, "unit": "sigma_s"},
            ],
            "seed": 7,
            "num_slots": 20_000,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().splitlines()[0] == "time,age_1,age_2,age_3"
