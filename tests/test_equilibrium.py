"""Dominance, pure Nash enumeration, and the closed-form mixed equilibrium."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoi_csma_game import (
    MAX_ENUMERATION_NODES,
    Action,
    GameInstance,
    MsneResult,
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
    U,
    best_response_oracle,
    check_closed_form_at_equal_ages,
    closed_form_denominators,
    closed_form_error_bounds,
    closed_form_numerators,
    closed_form_taus_exact,
    indifference_residuals_exact,
    monotonicity_derivatives_exact,
    others_transmitting_exact,
    dominance_oracle,
    interior_condition_holds,
    pure_nash_oracle,
    random_feasible_game,
    random_game,
    random_slot_lengths,
    response_payoffs,
)
from test_game import games_st, slot_lengths_st

SHORT = SlotLengths(0.01, 1.01, 0.101)
LONG = SlotLengths(0.01, 1.01, 2.02)
EQUAL = SlotLengths(0.01, 1.01, 1.01)

ROW = {row.label: row for row in REFERENCE_ROWS}


# ---------------------------------------------------------------------------
# weak dominance


def test_transmit_weakly_dominant_when_collisions_short():
    game = GameInstance(SHORT, (1.01, 2.02, 3.03))
    for i in range(3):
        report = check_weak_dominance(game, i, Action.TRANSMIT)
        assert report.weakly_dominant
        assert report.strictly_better_somewhere
        assert not check_weak_dominance(game, i, Action.IDLE).weakly_dominant


def test_no_weakly_dominant_strategy_when_collisions_long():
    game = GameInstance(LONG, (2.02, 3.03, 3.03))
    for i in range(3):
        for action in (Action.TRANSMIT, Action.IDLE):
            assert not check_weak_dominance(game, i, action).weakly_dominant


def test_boundary_equal_lengths_transmit_dominant_strict_only_at_all_idle():
    game = GameInstance(EQUAL, (2.02, 2.02, 2.02))
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


@st.composite
def untied_games_st(draw, min_n=2, max_n=6):
    """Games whose ages reach as far as the slot lengths alone still decide dominance.

    With longer collisions, the ages stay below 2**(top - 1), where ``top``
    is the largest exponent such that every double below 2**top has an ulp
    below sigma_collision - sigma_success. Then a + sigma_collision stays
    below 2**top and rounds above a + sigma_success. That is within a factor
    of four of the age whose ulp equals the gap, where the sums may tie
    already (see `test_dominance_follows_float_ties_at_large_ages`). Short
    collisions need no bound.
    """
    lengths = draw(slot_lengths_st())
    gap = lengths.sigma_collision - lengths.sigma_success
    widest = 1e300
    if gap > 0.0:
        mantissa, exponent = math.frexp(gap)  # gap in [2**(exponent - 1), 2**exponent)
        # A double in [2**(e - 1), 2**e) has an ulp of 2**(e - 53).
        top = exponent + 52 if mantissa > 0.5 else exponent + 51
        widest = math.ldexp(1.0, top - 1)
        assume(lengths.sigma_collision < widest)
    n = draw(st.integers(min_n, max_n))
    ages = st.floats(lengths.sigma_success, widest, exclude_max=True)
    return GameInstance(lengths, tuple(draw(ages) for _ in range(n)))


@settings(max_examples=60, deadline=None)
@given(untied_games_st())
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
        for report, transmits in ((transmit, True), (idle, False)):
            weakly, strictly = dominance_oracle(game, i, transmits)
            assert report.weakly_dominant == weakly
            assert report.strictly_better_somewhere == strictly


def test_dominance_rejects_out_of_range_node():
    game = GameInstance(LONG, (2.02, 3.03, 3.03))
    for i in (-1, 3):
        with pytest.raises(IndexError):
            check_weak_dominance(game, i, Action.TRANSMIT)


@pytest.mark.parametrize("strategy", ["T", "I", True, None])
def test_dominance_refuses_a_non_action_strategy(strategy):
    # "T" is not Action.TRANSMIT, so unchecked it would be judged as idling.
    game = GameInstance(SHORT, (2.02, 3.03, 3.03))
    with pytest.raises(ValueError, match="strategy = .* is not an Action"):
        check_weak_dominance(game, 0, strategy)


def test_float_tie_keeps_profiles_and_strictness():
    """sigma_c one ulp above sigma_s: age + sigma_c rounds onto age + sigma_s.

    The tie must be resolved by the same float arithmetic as the pure
    payoffs, not by the sign of sigma_s - sigma_c.
    """
    lengths = SlotLengths(0.01, 1.01, math.nextafter(1.01, 2.0))
    game = GameInstance(lengths, (10.1, 10.1))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"IT", "TI", "TT"}
    for i in range(2):
        report = check_weak_dominance(game, i, Action.TRANSMIT)
        assert report.weakly_dominant
        assert report.strictly_better_somewhere


ALL_BUT_III = {"IIT", "ITI", "ITT", "TII", "TIT", "TTI", "TTT"}


@pytest.mark.parametrize(
    "lengths, age, dominant, nash",
    [
        # ulp(1e16) = 2: 1e16 + 1.01 and 1e16 + 2.02 both round to 1e16 + 2.
        (LONG, 1e16, True, ALL_BUT_III),
        # ulp(1e15) = 0.125: the sums round to 1e15 + 1 and 1e15 + 2.
        (LONG, 1e15, False, {"IIT", "ITI", "TII", "TTT"}),
        # ulp(2**52) = 1 equals the gap, yet 2**52 + 1.5 and 2**52 + 2.5 are
        # ties that both round to the even 2**52 + 2.
        (SlotLengths(0.5, 1.5, 2.5), 2.0**52, True, ALL_BUT_III),
    ],
)
def test_dominance_follows_float_ties_at_large_ages(lengths, age, dominant, nash):
    """With collisions longer than successes, transmit is weakly dominant at
    an age where a + sigma_collision rounds onto a + sigma_success."""
    game = GameInstance(lengths, (age,) * 3)
    assert lengths.sigma_collision > lengths.sigma_success
    assert ((age + lengths.sigma_collision) <= (age + lengths.sigma_success)) is dominant
    for i in range(3):
        report = check_weak_dominance(game, i, Action.TRANSMIT)
        assert report.weakly_dominant is dominant
        assert report.strictly_better_somewhere is dominant
        assert not check_weak_dominance(game, i, Action.IDLE).weakly_dominant
        assert dominance_oracle(game, i, True) == (dominant, dominant)
    assert frozenset(enumerate_pure_nash(game).as_strings()) == nash
    assert set(enumerate_pure_nash(game)) == pure_nash_oracle(game)


# ---------------------------------------------------------------------------
# pure Nash enumeration


@pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
def test_reference_rows_pure_nash_sets(label):
    row = ROW[label]
    nash = enumerate_pure_nash(row.game())
    assert frozenset(nash.as_strings()) == row.golden_pure_nash


def test_two_node_pure_nash_long_collisions():
    game = GameInstance(LONG, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TI", "IT"}


def test_two_node_pure_nash_equal_lengths():
    game = GameInstance(EQUAL, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TT", "TI", "IT"}


def test_two_node_pure_nash_short_collisions():
    game = GameInstance(SHORT, (2.02, 2.02))
    assert frozenset(enumerate_pure_nash(game).as_strings()) == {"TT"}


def test_enumeration_guard_rejects_large_games():
    game = GameInstance(LONG, (2.02,) * 21)
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
    game = GameInstance(lengths, (1.01, 10.1, 10.1))
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
    game = GameInstance(LONG, (2.02, 2.02))
    result = msne_closed_form(game)
    assert result.feasible
    assert result.raw_taus[0] == result.raw_taus[1]
    assert 0.0 < result.raw_taus[0] < 1.0
    for residual in verify_indifference(game, result.profile):
        assert abs(residual) < 1e-9


def test_singular_denominator_raises():
    game = GameInstance(SlotLengths(0.25, 1.0, 0.5), (1.25, 1.0))
    with pytest.raises(SingularGameError, match="denominator"):
        msne_closed_form(game)


def test_msne_profile_only_defined_when_feasible():
    assert isinstance(msne_closed_form(ROW["IV"].game()).profile, StrategyProfile)
    assert msne_closed_form(ROW["I"].game()).profile is None


def test_msne_profile_is_the_one_its_residuals_were_read_from():
    game = ROW["IV"].game()
    result = msne_closed_form(game)
    profile = result.profile
    assert profile == StrategyProfile(result.raw_taus)
    assert verify_indifference(game, profile) == result.indifference_residuals
    # A field: the profile is part of the repr and of equality.
    assert repr(result).endswith(f", profile={profile!r})")
    fields = (result.raw_taus, result.feasible_per_node, result.indifference_residuals)
    assert result == MsneResult(*fields, profile)
    assert result != MsneResult(*fields, None)


def past_bound_game():
    """Collisions one ulp longer than successes put every age past the bound
    in msne_closed_form's docstring; at ten nodes of age sigma_success every
    numerator is negative, yet the raw taus round to 1 + 4 ulp."""
    sigma_success = 0.4956368098890145
    lengths = SlotLengths(0.2616532086612471, sigma_success, math.nextafter(sigma_success, 1.0))
    return GameInstance(lengths, [sigma_success] * 10)


def test_tau_rounded_past_one_is_infeasible():
    result = msne_closed_form(past_bound_game())
    assert result.feasible_per_node == (True,) * 10
    assert result.raw_taus == (1.0000000000000009,) * 10
    assert not result.feasible
    assert result.profile is None


@pytest.mark.parametrize(
    "game",
    [row.game() for row in REFERENCE_ROWS] + [past_bound_game()],
    ids=[row.label for row in REFERENCE_ROWS] + ["past-bound"],
)
def test_result_is_rebuilt_from_its_fields(game):
    result = msne_closed_form(game)
    rebuilt = MsneResult(*(getattr(result, field) for field in MsneResult.__match_args__))
    assert rebuilt == result and hash(rebuilt) == hash(result)
    assert rebuilt.profile == result.profile
    assert rebuilt.feasible == result.feasible == (rebuilt.profile is not None)


def test_result_refuses_a_profile_other_than_its_raw_taus():
    result = msne_closed_form(ROW["IV"].game())
    fields = (result.raw_taus, result.feasible_per_node, result.indifference_residuals)
    for wrong in (StrategyProfile((0.5,) * 3), True):
        with pytest.raises(ValueError, match="profile"):
            MsneResult(*fields, wrong)


def test_derivatives_refuse_only_a_vanishing_own_denominator():
    # Dyadic lengths and ages: the denominators are exactly 0, -1 and -0.5.
    game = GameInstance(SlotLengths(0.25, 1.0, 0.5), (2.5, 2.0, 2.25))
    assert closed_form_denominators(game) == [0, -1, Fraction(-1, 2)]
    with pytest.raises(SingularGameError, match="vanishes for node 0;"):
        msne_closed_form(game)
    assert monotonicity_derivatives(game, 1, 0) == (1.0, -1.0)
    assert monotonicity_derivatives(game, 2, 0) == (4.0, -4.0)
    assert monotonicity_derivatives(game, 1, 2) == (1.0, -1.0)
    with pytest.raises(SingularGameError, match="vanishes for node 0;"):
        monotonicity_derivatives(game, 0, 1)


def test_ages_summing_past_the_largest_float_are_singular():
    # Each age is valid, but math.fsum of all three overflows.
    game = GameInstance(LONG, (1e308, 1e308, 1e308))
    for call in (lambda: msne_closed_form(game), lambda: monotonicity_derivatives(game, 0, 1)):
        with pytest.raises(SingularGameError, match="^the starting ages sum past the largest float;"):
            call()


def test_an_age_far_above_the_mean_is_singular():
    # The ages sum to a finite double, but 9 * (1e308 - 1e307) overflows.
    game = GameInstance(LONG, (1e308,) + (1.01,) * 9)
    for call in (lambda: msne_closed_form(game), lambda: monotonicity_derivatives(game, 1, 2)):
        with pytest.raises(SingularGameError, match="^a starting age lies too far above the mean"):
            call()


def test_closed_form_mean_age_is_the_fsum_one_in_any_order():
    # ulp(1e16) = 2, so the exact sum 1e16 + 2.02 rounds to 1e16 + 2, which
    # math.fsum gives in any order. Plain additions from the left round up
    # twice, to 1e16 + 4, and give taus (1.0000000000000002,
    # 0.9999999999999996, 0.9999999999999996).
    ages = (1e16, 1.01, 1.01)
    want = (1.0000000000000004, 0.9999999999999998, 0.9999999999999998)
    for order in itertools.permutations(range(3)):
        result = msne_closed_form(GameInstance(LONG, [ages[i] for i in order]))
        assert result.raw_taus == tuple(want[i] for i in order)


@st.composite
def long_collision_games_st(draw, min_n=3, max_n=12):
    """Long-collision games with every age below 2**51 (sigma_collision -
    sigma_success), some of them with one node's age within a few ulps of
    where its closed-form numerator changes sign."""
    lengths = draw(slot_lengths_st())
    sigma_success = lengths.sigma_success
    gap_ratio = draw(st.floats(0.05, 2.0))
    lengths = SlotLengths(lengths.sigma_idle, sigma_success, sigma_success * (1.0 + gap_ratio))
    widest = math.ldexp(lengths.sigma_collision - sigma_success, 51)
    n = draw(st.integers(min_n, max_n))
    top = draw(st.sampled_from((10.0 * sigma_success, 1e6 * sigma_success, widest)))
    ages = [draw(st.floats(sigma_success, top, exclude_max=True)) for _ in range(n)]
    if draw(st.booleans()):
        # Numerator zero: (n - 2) age_k = sum of the others - (sigma_s - sigma_i).
        k = draw(st.integers(0, n - 1))
        others = math.fsum(ages) - ages[k]
        age = (others - (sigma_success - lengths.sigma_idle)) / (n - 2)
        for _ in range(draw(st.integers(0, 4))):
            age = math.nextafter(age, draw(st.sampled_from((0.0, math.inf))))
        ages[k] = min(max(age, sigma_success), math.nextafter(widest, 0.0))
    return GameInstance(lengths, tuple(ages))


@settings(max_examples=300, deadline=None)
@given(long_collision_games_st())
def test_interior_flag_is_the_printed_tau_inside_the_unit_interval(game):
    """The flag and the raw tau come from one numerator. With collisions
    longer than successes the denominator lies (n - 1)(sigma_c - sigma_s)
    below it, and below ages of 2**51 (sigma_c - sigma_s) that gap
    outweighs the rounding of both, so tau_i rounds inside (0, 1) exactly
    when the numerator is negative. Past that, at ages of about 1e16 with
    the paper's slot lengths, a far interior tau may round to 1.0."""
    try:
        result = msne_closed_form(game)
    except SingularGameError:
        assume(False)
    for flag, tau in zip(result.feasible_per_node, result.raw_taus):
        assert flag == (0.0 < tau < 1.0), (flag, tau)
    assert result.feasible == all(result.feasible_per_node)


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
        for residual in verify_indifference(game, result.profile):
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
        game = GameInstance(lengths, (age,) * n)
        result = msne_closed_form(game)
        assert len(set(result.raw_taus)) == 1


# ---------------------------------------------------------------------------
# indifference verification


def test_verify_indifference_at_reference_equilibrium():
    game = ROW["IV"].game()
    result = msne_closed_form(game)
    residuals = verify_indifference(game, result.profile)
    for residual in residuals:
        assert abs(residual) < 1e-9


def test_lone_node_strictly_prefers_transmit():
    game = GameInstance(LONG, (2.02, 3.03, 3.03))
    residuals = verify_indifference(game, StrategyProfile((0.0, 0.0, 0.0)))
    for i in range(3):
        expected = (game.initial_ages[i] + 0.01) - 1.01
        assert residuals[i] == pytest.approx(expected, abs=1e-12)
        assert residuals[i] > 0


def test_indifference_breaks_off_equilibrium():
    row_iv_taus = msne_closed_form(ROW["IV"].game()).profile
    perturbed = GameInstance(LONG, (2.02, 3.03, 3.03 + 1.01))
    residuals = verify_indifference(perturbed, row_iv_taus)
    assert abs(residuals[2]) > 1e-6


def test_verify_indifference_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries for n"):
        verify_indifference(ROW["IV"].game(), StrategyProfile((0.5, 0.5)))


# ---------------------------------------------------------------------------
# best response oracle


def test_best_response_against_silent_opponents_is_transmit():
    game = GameInstance(LONG, (2.02, 3.03, 3.03))
    tau, payoff = best_response_oracle(game, 0, (0.0, 0.0))
    assert tau == 1.0
    assert payoff == -1.01


def test_best_response_against_certain_transmitter_is_idle():
    game = GameInstance(LONG, (2.02, 3.03, 3.03))
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
    game = GameInstance(LONG, (2.02, 3.03))
    own, cross = monotonicity_derivatives(game, 0, 1)
    assert own == 0.0
    assert cross > 0.0


def test_derivatives_at_huge_ages_underflow_instead_of_raising():
    # The denominator is about -3e200 for node 0; its square overflowed.
    game = GameInstance(LONG, (1e200, 2e200, 3e200))
    own, cross = monotonicity_derivatives(game, 0, 1)
    assert own == 0.0
    assert cross == 0.0


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
            shifted = GameInstance(game.slot_lengths, ages)
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
    singular = GameInstance(SlotLengths(0.25, 1.0, 0.5), (1.25, 1.0))
    with pytest.raises(SingularGameError):
        monotonicity_derivatives(singular, 1, 0)


# ---------------------------------------------------------------------------
# the closed form against exact arithmetic on its doubles

@st.composite
def closed_form_games_st(draw, long_collisions=False):
    """Games of 2 to 40 nodes whose ages sit at sigma_success to 1e6 times it,
    with spreads from none (equal ages) to nine times the smallest age."""
    lengths = draw(slot_lengths_st())
    if long_collisions:
        ratio = draw(st.floats(1.05, 3.0))
        sigma_collision = ratio * lengths.sigma_success
        lengths = SlotLengths(lengths.sigma_idle, lengths.sigma_success, sigma_collision)
    n = draw(st.integers(2, 40))
    base = lengths.sigma_success * draw(st.floats(1.0, 1e6))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1.0, 9.0]))
    ages = tuple(base * (1.0 + spread * draw(st.floats(0.0, 1.0))) for _ in range(n))
    return GameInstance(lengths, ages)


@given(st.one_of(closed_form_games_st(), closed_form_games_st(long_collisions=True)))
@example(past_bound_game())
@settings(max_examples=200, deadline=None)
def test_feasible_exactly_when_a_profile_exists(game):
    try:
        result = msne_closed_form(game)
    except SingularGameError:
        assume(False)
    in_unit_interval = all(0.0 <= tau <= 1.0 for tau in result.raw_taus)
    interior = all(result.feasible_per_node) and not game.slot_lengths.short_collision
    if result.profile is None:
        assert not result.feasible
        assert not (interior and in_unit_interval)
    else:
        assert result.feasible
        assert interior
        assert result.profile.taus == result.raw_taus


@given(closed_form_games_st())
@settings(max_examples=200, deadline=None)
def test_closed_form_taus_are_within_their_rounding_bound_of_exact(game):
    """Each raw tau is within (1 + u) (e_N + |tau| e_D) / (|D| - e_D) + u |tau|
    of the exact N / D, with e_N and e_D the bounds of
    `closed_form_error_bounds`.

    The bound is relative to the terms of the numerator and denominator, not
    to tau: near the edge of the interior region N cancels to about 0, and
    near a singular game so does D. For computed N + d_N and D + d_D, the
    quotient is off by (d_N - tau d_D) / (D + d_D) before its own rounding
    of u. A node with |D| <= e_D is skipped: its computed denominator may
    have either sign.
    """
    try:
        result = msne_closed_form(game)
    except SingularGameError:
        return
    taus = closed_form_taus_exact(game)
    numerators = closed_form_numerators(game)
    for i, (got, denominator, (numerator_error, denominator_error)) in enumerate(
        zip(result.raw_taus, closed_form_denominators(game), closed_form_error_bounds(game))
    ):
        if abs(denominator) <= denominator_error:
            continue
        tau = taus[i]
        quotient_error = (numerator_error + abs(tau) * denominator_error) / (
            abs(denominator) - denominator_error
        )
        bound = (1 + U) * quotient_error + U * abs(tau)
        assert abs(Fraction(got) - tau) <= bound, (i, got, float(tau), float(bound))
        # The interior flag is the sign of the computed numerator, which
        # agrees with the exact one wherever that exceeds its error bound.
        if abs(numerators[i]) > numerator_error:
            assert result.feasible_per_node[i] == (numerators[i] < 0), i


@pytest.mark.parametrize(
    "n, age, mean_rounds",
    [
        (3, 3.03, False),
        (3, 3.3376615851337403, True),
        (1_000, 3.03, False),
        (1_000, 8.923711014212094, True),
        (100_000, 3.03, False),
        (100_000, 7.850790454289072, True),
    ],
)
def test_closed_form_at_equal_ages_is_within_its_rounding_bound(n, age, mean_rounds):
    """`check_closed_form_at_equal_ages`, at sizes where the computed mean
    age equals a and, at the second age of each size, where it rounds away.
    CI's large-n smoke step runs the check at n = 10**6."""
    assert (math.fsum([age] * n) / n != age) == mean_rounds
    check_closed_form_at_equal_ages(n, age)


@given(closed_form_games_st(long_collisions=True))
@settings(max_examples=100, deadline=None)
def test_residuals_are_within_their_rounding_bound_of_exact(game):
    """Each residual, at the double raw taus, is within
    ((3n + 7) u + u sigma_success / sigma_idle) S + n^2 2^-1072 (|e| + |c|)
    of the exact residual at those taus, where S = |q0 e| + |q1 c| with
    e = a + sigma_idle - sigma_success and c = sigma_success - sigma_collision.

    The bound is relative to the two products, not to the residual, which
    cancels to about 0 at an equilibrium. With every tau in [0, 1], each
    kernel entry is within gamma_(3n+1) of exact, plus n^2 2^-1072 (see
    `test_kernel_is_within_its_rounding_bound_of_exact`); each product and
    c add u and the final sum u S. `a + sigma_idle` rounds by up to u (a +
    sigma_idle), which exceeds u |e| by at most u sigma_success as a >=
    sigma_success, and |e| >= sigma_idle, so this part is at most u (1 +
    sigma_success / sigma_idle) |q0 e|. The 7 covers these and the second
    order terms.
    """
    try:
        result = msne_closed_form(game)
    except SingularGameError:
        return
    assume(all(0.0 <= tau <= 1.0 for tau in result.raw_taus))
    n = game.n
    lengths = game.slot_lengths
    sigma_idle, sigma_success, sigma_collision = (
        Fraction(lengths.sigma_idle),
        Fraction(lengths.sigma_success),
        Fraction(lengths.sigma_collision),
    )
    rate = (3 * n + 7) * U + U * sigma_success / sigma_idle
    floor = Fraction(n * n, 2**1072)
    exact = indifference_residuals_exact(game, result.raw_taus)
    others = others_transmitting_exact(result.raw_taus)
    for i, (got, want, (q0, q1, _)) in enumerate(
        zip(result.indifference_residuals, exact, others)
    ):
        e = Fraction(game.initial_ages[i]) + sigma_idle - sigma_success
        c = sigma_success - sigma_collision
        bound = rate * (abs(q0 * e) + abs(q1 * c)) + floor * (abs(e) + abs(c))
        assert abs(Fraction(got) - want) <= bound, (i, got, float(want), float(bound))


@given(closed_form_games_st(), st.data())
@settings(max_examples=200, deadline=None)
def test_derivatives_are_within_their_rounding_bound_of_exact(game, data):
    """Both derivatives are within |d| ((1 + u)^4 / (1 - r)^2 - 1) of the
    exact d, with r = e_D / |D| (`closed_form_error_bounds`).

    Each is k (sigma_success - sigma_collision) / D / D for an integer k,
    formed in four roundings (the difference, the product and two
    quotients) from the computed denominator, which is D (1 + t) with |t| <= r.
    A game with r >= 1/2 is skipped: its derivatives are ill-conditioned.
    Below that, the computed denominator cannot be 0.
    """
    i = data.draw(st.integers(0, game.n - 1))
    j = data.draw(st.integers(0, game.n - 2))
    j += j >= i
    denominator_error = closed_form_error_bounds(game)[i][1]
    denominator = abs(closed_form_denominators(game)[i])
    if denominator <= 2 * denominator_error:
        return
    ratio = denominator_error / denominator
    rate = (1 + U) ** 4 / (1 - ratio) ** 2 - 1
    got = monotonicity_derivatives(game, i, j)
    for value, exact in zip(got, monotonicity_derivatives_exact(game, i, j)):
        assert abs(Fraction(value) - exact) <= rate * abs(exact), (value, float(exact))


def test_interior_condition_helper_agrees_with_solver():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        lengths = random_slot_lengths(rng, collision_ratio=(1.05, 3.0))
        game = random_game(rng, n, lengths)
        result = msne_closed_form(game)
        assert all(result.feasible_per_node) == interior_condition_holds(game)


# ---------------------------------------------------------------------------
# symmetries: node relabelling and power-of-two rescaling (metamorphic tests,
# Chen, Cheung and Yiu, HKUST-CS98-01, 1998)


@st.composite
def analysed_games_st(draw, min_n=2, max_n=40):
    """Games with ages from sigma_s up to 9 sigma_s apart, or within 0.1% of
    one age, which are mostly feasible with long collisions."""
    lengths = draw(slot_lengths_st())
    n = draw(st.integers(min_n, max_n))
    base = draw(st.floats(1.0, 9.0))
    spread = draw(st.sampled_from((1e-3 * base, 9.0)))
    factors = [base + spread * draw(st.floats(0.0, 1.0)) for _ in range(n)]
    return GameInstance(lengths, tuple(lengths.sigma_success * f for f in factors))


def _solved(game):
    try:
        return msne_closed_form(game)
    except SingularGameError:
        assume(False)


def _dominance(game):
    return [
        [
            (report.weakly_dominant, report.strictly_better_somewhere)
            for report in (check_weak_dominance(game, i, action) for action in Action)
        ]
        for i in range(game.n)
    ]


def _residual_terms(game, taus, i):
    """Magnitudes of the two terms of node i's residual, from |tau_j| and
    |1 - tau_j| over the other nodes: the products whose rounding order the
    kernel's prefix and suffix passes depend on."""
    lengths = game.slot_lengths
    others = [j for j in range(game.n) if j != i]
    q0 = math.prod(abs(1.0 - taus[j]) for j in others)
    q1 = math.fsum(
        abs(taus[j]) * math.prod(abs(1.0 - taus[k]) for k in others if k != j) for j in others
    )
    own = abs(game.initial_ages[i] + lengths.sigma_idle - lengths.sigma_success)
    return q0 * own + q1 * abs(lengths.sigma_success - lengths.sigma_collision)


@settings(max_examples=60, deadline=None)
@given(analysed_games_st(min_n=3), st.data())
def test_relabelling_the_nodes_permutes_every_result(game, data):
    """New node j is old node order[j]. The mean age is the same double in
    any order and every other term of a tau is node-local, so taus, flags,
    dominance and the pure Nash set permute exactly; the residuals only
    within 4 n eps of their terms, since the kernel's products round in
    node order."""
    order = data.draw(st.permutations(range(game.n)))
    relabelled = GameInstance(game.slot_lengths, [game.initial_ages[i] for i in order])
    result, moved = _solved(game), _solved(relabelled)
    assert moved.raw_taus == tuple(result.raw_taus[i] for i in order)
    assert moved.feasible_per_node == tuple(result.feasible_per_node[i] for i in order)
    assert moved.feasible == result.feasible
    dominance = _dominance(game)
    assert _dominance(relabelled) == [dominance[i] for i in order]
    for j, i in enumerate(order):
        bound = 4 * game.n * sys.float_info.epsilon * _residual_terms(game, result.raw_taus, i)
        gap = moved.indifference_residuals[j] - result.indifference_residuals[i]
        assert abs(gap) <= bound, (i, gap, bound)
    if game.n <= MAX_ENUMERATION_NODES:
        new_label = {i: j for j, i in enumerate(order)}
        want = tuple(
            (k, frozenset(new_label[i] for i in forced), tuple(sorted(new_label[i] for i in free)))
            for k, forced, free in enumerate_pure_nash(game).classes
        )
        assert enumerate_pure_nash(relabelled).classes == want


@settings(max_examples=60, deadline=None)
@given(analysed_games_st(max_n=12), st.sampled_from((-20, -8, -3, 3, 8, 20)))
def test_rescaling_by_a_power_of_two_scales_every_result(game, k):
    """Multiplying every slot length and age by 2**k rounds nothing, away from
    overflow and underflow, so the analysis is unchanged and each residual,
    an age difference times probabilities, scales by exactly 2**k."""
    scale = math.ldexp(1.0, k)
    lengths = game.slot_lengths
    scaled = GameInstance(
        SlotLengths(
            scale * lengths.sigma_idle,
            scale * lengths.sigma_success,
            scale * lengths.sigma_collision,
        ),
        [scale * age for age in game.initial_ages],
    )
    result, big = _solved(game), _solved(scaled)
    assert big.raw_taus == result.raw_taus
    assert big.feasible_per_node == result.feasible_per_node
    assert big.feasible == result.feasible
    assert big.indifference_residuals == tuple(r * scale for r in result.indifference_residuals)
    assert _dominance(scaled) == _dominance(game)
    assert enumerate_pure_nash(scaled) == enumerate_pure_nash(game)
    if game.n >= 3:
        own, cross = monotonicity_derivatives(game, 0, 1)
        assert monotonicity_derivatives(scaled, 0, 1) == (own / scale, cross / scale)
