"""Dominance, pure Nash enumeration, and the closed-form mixed equilibrium."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from aoi_csma_game import (
    Action,
    GameInstance,
    SingularGameError,
    SlotLengths,
    StrategyProfile,
    actions_from_string,
    check_weak_dominance,
    enumerate_pure_nash,
    monotonicity_derivatives,
    msne_closed_form,
    pure_payoff,
    verify_indifference,
)
from aoi_csma_game.reference import GOLDEN_TAU_TOLERANCE, REFERENCE_ROWS
from helpers import (
    best_response_oracle,
    dominance_oracle,
    interior_condition_holds,
    pure_nash_oracle,
    random_feasible_game,
    random_game,
    random_slot_lengths,
    response_payoffs,
)
from test_game import games_st

SHORT = SlotLengths(0.01, 1.01, 0.101)
LONG = SlotLengths(0.01, 1.01, 2.02)
EQUAL = SlotLengths(0.01, 1.01, 1.01)

ROW = {row.label: row for row in REFERENCE_ROWS}


# ---------------------------------------------------------------------------
# weak dominance


def test_transmit_weakly_dominant_when_collisions_short():
    game = GameInstance(3, SHORT, (1.01, 2.02, 3.03))
    for i in range(3):
        report = check_weak_dominance(game, i, Action.TRANSMIT)
        assert report.node == i
        assert report.strategy is Action.TRANSMIT
        assert report.weakly_dominant
        assert report.strictly_better_somewhere
        assert report.weakly_dominant_strict_sense
        assert not check_weak_dominance(game, i, Action.IDLE).weakly_dominant


def test_no_weakly_dominant_strategy_when_collisions_long():
    game = GameInstance(3, LONG, (2.02, 3.03, 3.03))
    for i in range(3):
        for action in (Action.TRANSMIT, Action.IDLE):
            assert not check_weak_dominance(game, i, action).weakly_dominant


def test_boundary_equal_lengths_transmit_dominant_strict_only_at_all_idle():
    game = GameInstance(3, EQUAL, (2.02, 2.02, 2.02))
    report = check_weak_dominance(game, 0, Action.TRANSMIT)
    assert report.weakly_dominant
    assert report.strictly_better_somewhere
    # The strict gain must come only from the all-idle opponent profile.
    for opponents in itertools.product((Action.TRANSMIT, Action.IDLE), repeat=2):
        u_t = pure_payoff(0, game, (Action.TRANSMIT,) + opponents)
        u_i = pure_payoff(0, game, (Action.IDLE,) + opponents)
        if all(a is Action.IDLE for a in opponents):
            assert u_t > u_i
        else:
            assert u_t == u_i


@settings(max_examples=60, deadline=None)
@given(games_st(min_n=2, max_n=6))
def test_dominance_regime_dichotomy_property(game):
    short = game.slot_lengths.short_collision
    for i in range(game.n):
        transmit = check_weak_dominance(game, i, Action.TRANSMIT)
        idle = check_weak_dominance(game, i, Action.IDLE)
        if short:
            assert transmit.weakly_dominant
            assert not idle.weakly_dominant
        else:
            assert not transmit.weakly_dominant
            assert not idle.weakly_dominant
        # Both flags against a brute-force loop over every opponent profile.
        for report in (transmit, idle):
            weakly, strictly = dominance_oracle(game, i, report.strategy is Action.TRANSMIT)
            assert report.weakly_dominant == weakly
            assert report.strictly_better_somewhere == strictly


def test_dominance_rejects_out_of_range_node():
    game = GameInstance(3, LONG, (2.02, 3.03, 3.03))
    for i in (-1, 3):
        with pytest.raises(IndexError):
            check_weak_dominance(game, i, Action.TRANSMIT)


@pytest.mark.parametrize("strategy", ["T", "I", True, None])
def test_dominance_refuses_a_non_action_strategy(strategy):
    # "T" is not Action.TRANSMIT, so unchecked it would be judged as idling.
    game = GameInstance(3, SHORT, (2.02, 3.03, 3.03))
    with pytest.raises(ValueError, match="strategy = .* is not an Action"):
        check_weak_dominance(game, 0, strategy)


def test_float_tie_keeps_profiles_and_strictness():
    """sigma_c one ulp above sigma_s: age + sigma_c rounds onto age + sigma_s.

    The tie must be resolved by the same float arithmetic as the pure
    payoffs, not by the sign of sigma_s - sigma_c.
    """
    lengths = SlotLengths(0.01, 1.01, math.nextafter(1.01, 2.0))
    game = GameInstance(2, lengths, (10.1, 10.1))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"IT", "TI", "TT"}
    for i in range(2):
        report = check_weak_dominance(game, i, Action.TRANSMIT)
        assert report.weakly_dominant
        assert report.strictly_better_somewhere


# ---------------------------------------------------------------------------
# pure Nash enumeration


@pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
def test_reference_rows_pure_nash_sets(label):
    row = ROW[label]
    nash = enumerate_pure_nash(row.game())
    assert frozenset(nash.as_strings()) == row.golden_pure_nash


def test_two_node_pure_nash_long_collisions():
    game = GameInstance(2, LONG, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TI", "IT"}


def test_two_node_pure_nash_equal_lengths():
    game = GameInstance(2, EQUAL, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TT", "TI", "IT"}


def test_two_node_pure_nash_short_collisions():
    game = GameInstance(2, SHORT, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TT"}


def test_enumeration_guard_rejects_large_games():
    game = GameInstance(21, LONG, (2.02,) * 21)
    with pytest.raises(ValueError, match="capped"):
        enumerate_pure_nash(game)


def test_pure_nash_set_interface():
    nash = enumerate_pure_nash(ROW["IV"].game())
    assert len(nash) == 4
    ttt = (Action.TRANSMIT,) * 3
    assert ttt in nash
    assert list(nash.as_strings()) == sorted(nash.as_strings())
    assert list(nash) == [actions_from_string(s) for s in nash.as_strings()]
    assert "TTT" not in nash  # a string is not an action profile


@pytest.mark.parametrize(
    "toward, expected_class, expected",
    [
        (0.0, (1, frozenset({0}), (1, 2)), ("ITT", "TII", "TIT", "TTI", "TTT")),
        (2.0, (2, frozenset(), (1, 2)), ("IIT", "ITI", "ITT", "TII", "TTT")),
    ],
    ids=["forced-and-free", "free-and-barred"],
)
def test_classes_that_split_the_nodes(toward, expected_class, expected):
    """sigma_c one ulp from sigma_s: age + sigma_c rounds onto age + sigma_s
    for the old nodes but not for the young node 0, so node 0 strictly
    prefers one action where the old nodes tie. One ulp below, node 0 must
    transmit with one transmitter; one ulp above, it must idle with two."""
    lengths = SlotLengths(0.01, 1.01, math.nextafter(1.01, toward))
    game = GameInstance(3, lengths, (1.01, 10.1, 10.1))
    nash = enumerate_pure_nash(game)
    assert expected_class in nash.classes
    assert nash.as_strings() == expected
    every = itertools.product((Action.TRANSMIT, Action.IDLE), repeat=3)
    assert {profile for profile in every if profile in nash} == pure_nash_oracle(game)
    assert len(nash) == len(expected)


@settings(max_examples=60, deadline=None)
@given(games_st(min_n=2, max_n=6))
def test_pure_nash_soundness_against_independent_oracle(game):
    """Membership must coincide with an independently coded deviation test."""
    nash = enumerate_pure_nash(game)
    oracle = pure_nash_oracle(game)
    assert set(nash) == oracle
    assert len(nash) == len(oracle)
    assert all(profile in nash for profile in oracle)
    every = itertools.product((Action.TRANSMIT, Action.IDLE), repeat=game.n)
    assert {profile for profile in every if profile in nash} == oracle
    assert (Action.TRANSMIT,) * (game.n + 1) not in nash
    assert (Action.IDLE,) * (game.n - 1) not in nash


# ---------------------------------------------------------------------------
# closed-form mixed equilibrium


def test_reference_row_taus_match_goldens():
    for row in REFERENCE_ROWS:
        result = msne_closed_form(row.game())
        for got, want in zip(result.raw_taus, row.golden_taus):
            assert abs(got - want) <= GOLDEN_TAU_TOLERANCE


def test_row_iv_exact_closed_form_values():
    result = msne_closed_form(ROW["IV"].game())
    assert result.raw_taus[0] == pytest.approx(0.6007905138339922, abs=1e-12)
    assert result.raw_taus[1] == pytest.approx(0.33552631578947384, abs=1e-12)
    assert result.raw_taus[2] == pytest.approx(0.33552631578947384, abs=1e-12)
    assert result.feasible
    assert result.feasible_per_node == (True, True, True)


def test_row_i_raw_values_reported_outside_unit_interval():
    result = msne_closed_form(ROW["I"].game())
    assert result.raw_taus[0] == pytest.approx(2.4877250409, abs=1e-9)
    assert result.raw_taus[1] == pytest.approx(-1.2781954887, abs=1e-9)
    assert result.raw_taus[2] == pytest.approx(0.3548616040, abs=1e-9)
    assert not result.feasible


def test_row_iii_interior_condition_fails_only_for_oldest_node():
    result = msne_closed_form(ROW["III"].game())
    assert result.feasible_per_node == (True, True, False)
    assert not result.feasible


def test_row_ii_interior_condition_holds_but_short_collisions_block():
    # Equal ages satisfy the age condition, yet with sigma_collision below
    # sigma_success no node randomizes, so the instance stays infeasible.
    result = msne_closed_form(ROW["II"].game())
    assert result.feasible_per_node == (True, True, True)
    assert not result.feasible
    assert result.raw_taus[0] == result.raw_taus[1] == result.raw_taus[2]


def test_feasible_rows_have_vanishing_residuals():
    for label in ("IV", "V"):
        result = msne_closed_form(ROW[label].game())
        assert result.feasible
        for residual in result.indifference_residuals:
            assert abs(residual) < 1e-9


def test_two_node_symmetric_feasible_equilibrium():
    game = GameInstance(2, LONG, (2.02, 2.02))
    result = msne_closed_form(game)
    assert result.feasible
    assert result.raw_taus[0] == result.raw_taus[1]
    assert 0.0 < result.raw_taus[0] < 1.0
    for residual in verify_indifference(game, result.profile()):
        assert abs(residual) < 1e-9


def test_singular_denominator_raises():
    game = GameInstance(2, SlotLengths(0.25, 1.0, 0.5), (1.25, 1.0))
    with pytest.raises(SingularGameError, match="denominator"):
        msne_closed_form(game)


def test_msne_profile_only_defined_when_feasible():
    feasible = msne_closed_form(ROW["IV"].game())
    profile = feasible.profile()
    assert isinstance(profile, StrategyProfile)
    infeasible = msne_closed_form(ROW["I"].game())
    with pytest.raises(ValueError, match="interior"):
        infeasible.profile()


def test_feasibility_implies_interior_and_indifference():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        game = random_feasible_game(rng, n)
        result = msne_closed_form(game)
        assert result.feasible
        for tau in result.raw_taus:
            assert 0.0 < tau < 1.0
        for residual in result.indifference_residuals:
            assert abs(residual) < 1e-9
        for residual in verify_indifference(game, result.profile()):
            assert abs(residual) < 1e-9


def test_short_collisions_always_infeasible():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        lengths = random_slot_lengths(rng, collision_ratio=(0.05, 1.0))
        game = random_game(rng, n, lengths)
        assert not msne_closed_form(game).feasible


def test_equal_ages_give_equal_taus():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        lengths = random_slot_lengths(rng, collision_ratio=(0.05, 3.0))
        age = float(lengths.sigma_success * rng.uniform(1.0, 10.0))
        game = GameInstance(n, lengths, (age,) * n)
        result = msne_closed_form(game)
        assert len(set(result.raw_taus)) == 1


# ---------------------------------------------------------------------------
# indifference verification


def test_verify_indifference_at_reference_equilibrium():
    game = ROW["IV"].game()
    result = msne_closed_form(game)
    residuals = verify_indifference(game, result.profile())
    for residual in residuals:
        assert abs(residual) < 1e-9


def test_lone_node_strictly_prefers_transmit():
    game = GameInstance(3, LONG, (2.02, 3.03, 3.03))
    residuals = verify_indifference(game, StrategyProfile((0.0, 0.0, 0.0)))
    for i in range(3):
        expected = (game.initial_ages[i] + 0.01) - 1.01
        assert residuals[i] == pytest.approx(expected, abs=1e-12)
        assert residuals[i] > 0


def test_indifference_breaks_off_equilibrium():
    row_iv_taus = msne_closed_form(ROW["IV"].game()).profile()
    perturbed = GameInstance(3, LONG, (2.02, 3.03, 3.03 + 1.01))
    residuals = verify_indifference(perturbed, row_iv_taus)
    assert abs(residuals[2]) > 1e-6


def test_verify_indifference_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries for n"):
        verify_indifference(ROW["IV"].game(), StrategyProfile((0.5, 0.5)))


# ---------------------------------------------------------------------------
# best response oracle


def test_best_response_against_silent_opponents_is_transmit():
    game = GameInstance(3, LONG, (2.02, 3.03, 3.03))
    tau, payoff = best_response_oracle(game, 0, (0.0, 0.0))
    assert tau == 1.0
    assert payoff == -1.01


def test_best_response_against_certain_transmitter_is_idle():
    game = GameInstance(3, LONG, (2.02, 3.03, 3.03))
    tau, payoff = best_response_oracle(game, 0, (1.0, 0.0))
    assert tau == 0.0
    assert payoff == -(2.02 + 1.01)


def test_payoff_spread_vanishes_at_feasible_equilibrium():
    game = ROW["IV"].game()
    taus = msne_closed_form(game).raw_taus
    for i in range(game.n):
        opponents = tuple(t for j, t in enumerate(taus) if j != i)
        payoffs = [p for _, p in response_payoffs(game, i, opponents, 101)]
        assert max(payoffs) - min(payoffs) < 1e-9


def test_best_response_validates_inputs():
    game = ROW["IV"].game()
    with pytest.raises(ValueError, match="grid_size"):
        best_response_oracle(game, 0, (0.5, 0.5), grid_size=2)
    with pytest.raises(ValueError, match="opponent"):
        best_response_oracle(game, 0, (0.5,))


# ---------------------------------------------------------------------------
# equilibrium sensitivity to starting ages


def test_derivative_signs_for_long_collisions():
    game = ROW["IV"].game()
    own, cross = monotonicity_derivatives(game, 0, 1)
    assert own == pytest.approx(-0.0788951554, abs=1e-9)
    assert cross == pytest.approx(0.0788951554, abs=1e-9)
    own1, cross1 = monotonicity_derivatives(game, 1, 2)
    assert own1 == pytest.approx(-0.2185768698, abs=1e-9)
    assert cross1 == pytest.approx(0.2185768698, abs=1e-9)


def test_two_node_own_derivative_vanishes():
    game = GameInstance(2, LONG, (2.02, 3.03))
    own, cross = monotonicity_derivatives(game, 0, 1)
    assert own == 0.0
    assert cross > 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        game = random_feasible_game(rng, n)
        i = int(rng.integers(0, n))
        j = int((i + 1 + rng.integers(0, n - 1)) % n)
        own, cross = monotonicity_derivatives(game, i, j)
        step = 1e-5 * game.slot_lengths.sigma_success

        def tau_i_at(ages):
            shifted = GameInstance(n, game.slot_lengths, ages)
            return msne_closed_form(shifted).raw_taus[i]

        ages = list(game.initial_ages)
        up, down = list(ages), list(ages)
        up[i] += step
        down[i] -= step
        fd_own = (tau_i_at(up) - tau_i_at(down)) / (2 * step)
        up, down = list(ages), list(ages)
        up[j] += step
        down[j] -= step
        fd_cross = (tau_i_at(up) - tau_i_at(down)) / (2 * step)
        assert abs(own - fd_own) <= 1e-6 * abs(own)
        assert abs(cross - fd_cross) <= 1e-6 * abs(cross)
        assert own < 0.0
        assert cross > 0.0


def test_derivatives_validate_inputs():
    game = ROW["IV"].game()
    with pytest.raises(ValueError, match="j != i"):
        monotonicity_derivatives(game, 1, 1)
    with pytest.raises(IndexError):
        monotonicity_derivatives(game, 0, 5)
    singular = GameInstance(2, SlotLengths(0.25, 1.0, 0.5), (1.25, 1.0))
    with pytest.raises(SingularGameError):
        monotonicity_derivatives(singular, 1, 0)


def test_interior_condition_helper_agrees_with_solver():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        lengths = random_slot_lengths(rng, collision_ratio=(1.05, 3.0))
        game = random_game(rng, n, lengths)
        result = msne_closed_form(game)
        assert all(result.feasible_per_node) == interior_condition_holds(game)
