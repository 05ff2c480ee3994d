"""Slot probabilities, age distribution, and payoffs for the one-shot game."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_csma_game import (
    Action,
    AgePmf,
    GameInstance,
    SlotLengths,
    StrategyProfile,
    actions_from_string,
    age_pmf,
    busy_seen_probability,
    collision_probability,
    idle_probability,
    mixed_payoff,
    msne_closed_form,
    pure_payoff,
    success_probability_of,
    total_success_probability,
)
from aoi_csma_game.game import others_transmitting
from helpers import (
    age_pmf_oracle,
    expected_age_oracle,
    others_transmitting_exact,
    outcome_probabilities,
)

LENGTHS = SlotLengths(sigma_idle=0.01, sigma_success=1.01, sigma_collision=2.02)
# Transmit probabilities used throughout: the 4-decimal rounding of the
# feasible reference-row equilibrium. All expected values below are frozen
# from the brute-force enumeration oracle in helpers.py.
PROFILE = StrategyProfile((0.6008, 0.3355, 0.3355))


# ---------------------------------------------------------------------------
# domain type invariants


def test_slot_lengths_reject_nonpositive():
    with pytest.raises(ValueError, match="sigma_idle"):
        SlotLengths(0.0, 1.01, 2.02)
    with pytest.raises(ValueError, match="sigma_collision"):
        SlotLengths(0.01, 1.01, -1.0)


def test_slot_lengths_reject_idle_not_shorter_than_success():
    with pytest.raises(ValueError, match="shorter"):
        SlotLengths(1.01, 1.01, 2.02)


def test_slot_regime_classification_is_total():
    assert SlotLengths(0.01, 1.01, 0.101).short_collision
    assert SlotLengths(0.01, 1.01, 1.01).short_collision
    assert not SlotLengths(0.01, 1.01, 1.0100001).short_collision


@pytest.mark.parametrize(
    "age, message",
    [
        (float("nan"), "initial_ages[1] = nan is not finite"),
        (float("inf"), "initial_ages[1] = inf is not finite"),
        (-1.0, "initial_ages[1] = -1.0 violates age >= sigma_success (1.01)"),
        (0.5, "initial_ages[1] = 0.5 violates age >= sigma_success (1.01)"),
    ],
)
def test_game_instance_refuses_non_finite_or_too_small_ages(age, message):
    with pytest.raises(ValueError) as info:
        GameInstance(3, LENGTHS, (2.02, age, 3.03))
    assert str(info.value) == message


def test_game_instance_holds_its_ages_as_a_tuple_of_floats():
    ages = GameInstance(2, LENGTHS, [2, 3.03]).initial_ages
    assert ages == (2.0, 3.03)
    assert type(ages) is tuple and all(type(a) is float for a in ages)


def test_strategy_profile_rejects_bad_probability():
    with pytest.raises(ValueError, match=r"taus\[1\]"):
        StrategyProfile((0.5, 1.5))
    with pytest.raises(ValueError, match=r"taus\[0\]"):
        StrategyProfile((-0.1, 0.5))


def test_strategy_profile_needs_a_node():
    with pytest.raises(ValueError, match="^profile needs at least one node$"):
        StrategyProfile(())


def test_strategy_profile_purity():
    pure = StrategyProfile.from_actions((Action.TRANSMIT, Action.IDLE))
    assert pure.taus == (1.0, 0.0)


def test_game_instance_rejects_single_node():
    with pytest.raises(ValueError, match="at least 2 contending nodes"):
        GameInstance(1, LENGTHS, (2.02, 2.02))


@pytest.mark.parametrize("n", [3.0, 2.5, float("nan"), True, False, "3"])
def test_game_instance_refuses_a_non_int_node_count(n):
    with pytest.raises(ValueError, match=r"^n must be an int, got "):
        GameInstance(n, LENGTHS, (2.02, 2.02, 2.02))


def test_game_instance_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries for n"):
        GameInstance(3, LENGTHS, (2.02, 2.02))


def test_game_instance_rejects_age_below_success_length():
    with pytest.raises(ValueError, match="sigma_success"):
        GameInstance(2, LENGTHS, (1.0, 2.02))


def test_action_string_round_trip():
    actions = actions_from_string("TTI")
    assert actions == (Action.TRANSMIT, Action.TRANSMIT, Action.IDLE)
    assert "".join(a.value for a in actions) == "TTI"
    with pytest.raises(ValueError, match="'T' and 'I'"):
        actions_from_string("TXI")


# ---------------------------------------------------------------------------
# slot probabilities


def test_idle_probability_trivial_cases():
    assert idle_probability(StrategyProfile((0.0, 0.0, 0.0))) == 1.0
    assert idle_probability(StrategyProfile((0.3, 1.0, 0.2))) == 0.0


def test_idle_probability_frozen_value():
    assert idle_probability(PROFILE) == pytest.approx(0.1762708518, abs=1e-10)


def test_success_probability_trivial_cases():
    assert success_probability_of(1, StrategyProfile((0.0, 1.0, 0.0))) == 1.0
    assert success_probability_of(1, StrategyProfile((0.0, 0.0, 0.0))) == 0.0


def test_success_probability_frozen_value():
    assert success_probability_of(0, PROFILE) == pytest.approx(0.2652893982, abs=1e-10)


def test_success_probability_rejects_bad_index():
    with pytest.raises(IndexError):
        success_probability_of(3, PROFILE)
    with pytest.raises(IndexError):
        success_probability_of(-1, PROFILE)


def test_total_success_probability_cases():
    assert total_success_probability(StrategyProfile((0.0, 0.0))) == 0.0
    assert total_success_probability(StrategyProfile((1.0, 0.0))) == 1.0
    assert total_success_probability(StrategyProfile((0.5, 0.5))) == pytest.approx(
        0.5, abs=1e-15
    )


def test_busy_seen_trivial_cases():
    assert busy_seen_probability(0, StrategyProfile((1.0, 0.3))) == 0.0
    assert busy_seen_probability(0, StrategyProfile((0.0, 1.0))) == 1.0


def test_busy_seen_frozen_value():
    assert busy_seen_probability(2, PROFILE) == pytest.approx(0.3542869464, abs=1e-10)


def test_collision_probability_cases():
    assert collision_probability(StrategyProfile((0.0, 0.0, 0.0))) == 0.0
    assert collision_probability(StrategyProfile((1.0, 1.0))) == 1.0
    assert collision_probability(StrategyProfile((0.5, 0.5))) == pytest.approx(
        0.25, abs=1e-15
    )


def test_probabilities_match_enumeration_oracle():
    p_idle, p_success, p_collision, p_busy = outcome_probabilities(PROFILE.taus)
    assert idle_probability(PROFILE) == pytest.approx(p_idle, abs=1e-15)
    for i in range(3):
        assert success_probability_of(i, PROFILE) == pytest.approx(p_success[i], abs=1e-15)
        assert busy_seen_probability(i, PROFILE) == pytest.approx(p_busy[i], abs=1e-15)
    assert collision_probability(PROFILE) == pytest.approx(p_collision, abs=1e-15)


@pytest.mark.parametrize(
    "taus",
    [(1e-9,) * 3, (1e-12, 1e-9, 0.5), (1 - 1e-9,) * 3, (1 - 1e-9, 1e-9, 0.3)],
)
def test_probabilities_keep_relative_precision_at_extreme_taus(taus):
    """Every outcome probability is within 1e-12 relative error of exact arithmetic.

    Tiny and near-one taus make the collision mass many orders of magnitude
    smaller than the idle or success mass, so it must not be derived by
    subtracting those from one.
    """
    profile = StrategyProfile(taus)
    p_idle, p_success, p_collision, p_busy = outcome_probabilities(
        [Fraction(t) for t in taus], one=Fraction(1)
    )
    pairs = [(idle_probability(profile), p_idle), (collision_probability(profile), p_collision)]
    for i in range(len(taus)):
        pairs.append((success_probability_of(i, profile), p_success[i]))
        pairs.append((busy_seen_probability(i, profile), p_busy[i]))
    for got, exact in pairs:
        assert exact > 0
        assert float(abs(Fraction(got) - exact) / exact) <= 1e-12, (got, float(exact))


# Each kind of tau the kernel must keep precise: tiny (down to subnormal),
# within 1e-6 of one (down to 1 - 2^-53), and anything in [0, 1].
KERNEL_TAUS = {
    "tiny": st.floats(0.0, 1e-6),
    "near_one": st.floats(1.0 - 1e-6, 1.0),
    "any": st.floats(0.0, 1.0),
}


@st.composite
def kernel_taus_st(draw):
    kind = draw(st.sampled_from(["tiny", "near_one", "any", "mixed"]))
    element = st.one_of(*KERNEL_TAUS.values()) if kind == "mixed" else KERNEL_TAUS[kind]
    return draw(st.lists(element, min_size=2, max_size=40))


@given(kernel_taus_st())
@settings(max_examples=100, deadline=None)
def test_kernel_is_within_its_rounding_bound_of_exact(taus):
    """Every kernel entry lies within gamma_(3n+1) of its exact value, plus n^2 2^-1072.

    Every rounding the kernel makes multiplies some terms of an entry by a
    (1 + d) with |d| <= u = 2^-53: `1 - tau`, each product and each sum. A
    step of the prefix or suffix product adds at most 3 to a term (in the
    one-transmitter entry: `1 - tau`, the product and the sum), and the
    final combination at most 4 (`s0 + s1`, the product with `p2` and two
    sums). So no term carries more than 3 (n - 1) + 4 = 3n + 1. Every term is
    non-negative and nothing is subtracted, so the entry's relative error
    is at most gamma_(3n+1) = (3n + 1) u / (1 - (3n + 1) u) (Higham,
    "Accuracy and Stability of Numerical Algorithms", Lemma 3.1). A product
    below 2^-1022 may also lose up to 2^-1075 absolutely. Later steps only
    scale such a loss by factors of at most about 1 and add it up, so the
    losses in one entry stay below 8 n^2 2^-1075 = n^2 2^-1072.
    """
    n = len(taus)
    gamma = Fraction(3 * n + 1, 2**53 - (3 * n + 1))
    floor = Fraction(n * n, 2**1072)
    for i, (row, exact_row) in enumerate(
        zip(others_transmitting(taus), others_transmitting_exact(taus))
    ):
        for k, (got, exact) in enumerate(zip(row, exact_row)):
            assert abs(Fraction(got) - exact) <= gamma * exact + floor, (i, k, got, float(exact))


# ---------------------------------------------------------------------------
# age distribution and expectation


def test_age_pmf_certain_success_resets_age():
    pmf = age_pmf(0, 2.02, StrategyProfile((1.0, 0.0, 0.0)), LENGTHS)
    assert pmf.support == ((1.01, 1.0),)


def test_age_pmf_all_idle_grows_by_idle_slot():
    pmf = age_pmf(0, 2.02, StrategyProfile((0.0, 0.0, 0.0)), LENGTHS)
    assert pmf.support == ((2.02 + 0.01, 1.0),)


def test_age_pmf_four_point_frozen_masses():
    pmf = dict(age_pmf(0, 2.02, PROFILE, LENGTHS).support)
    assert len(pmf) == 4
    assert pmf[1.01] == pytest.approx(0.2652893982, abs=1e-10)  # own success
    assert pmf[2.02 + 0.01] == pytest.approx(0.1762708518, abs=1e-10)  # idle
    assert pmf[2.02 + 1.01] == pytest.approx(0.1779950964, abs=1e-10)  # busy
    assert pmf[2.02 + 2.02] == pytest.approx(0.3804446536, abs=1e-10)  # collision


def test_age_pmf_mass_sums_to_one():
    pmf = age_pmf(0, 2.02, PROFILE, LENGTHS)
    assert abs(math.fsum(p for _, p in pmf.support) - 1.0) <= 1e-12


def test_age_pmf_merges_coinciding_support():
    lengths = SlotLengths(0.01, 1.01, 1.01)  # collision and busy ages coincide
    profile = StrategyProfile((0.4, 0.3, 0.2))
    pmf = age_pmf(0, 2.5, profile, lengths)
    assert len(pmf.support) == 3
    merged = dict(pmf.support)[2.5 + 1.01]
    expected = collision_probability(profile) + busy_seen_probability(0, profile)
    assert merged == pytest.approx(expected, abs=1e-15)
    assert abs(math.fsum(p for _, p in pmf.support) - 1.0) <= 1e-12


def test_age_pmf_mass_holds_at_large_n():
    # On these near-equal taus the kernel's rows drift from mass 1 by about
    # 1e-12 at n = 1e5, so unscaled cells would fail AgePmf's own check.
    n = 100_000
    game = GameInstance(n, LENGTHS, [3.03 * (1 + 1e-6 * (i % 7)) for i in range(n)])
    profile = msne_closed_form(game).profile()
    for i in (0, n // 2, n - 1):
        pmf = age_pmf(i, game.initial_ages[i], profile, LENGTHS)
        assert abs(math.fsum(p for _, p in pmf.support) - 1.0) <= 1e-12


def test_age_pmf_rejects_age_below_success_length():
    with pytest.raises(ValueError, match="sigma_success"):
        age_pmf(0, 0.5, PROFILE, LENGTHS)


@pytest.mark.parametrize("age", [float("nan"), float("inf")])
@pytest.mark.parametrize("profile", [PROFILE, StrategyProfile((1.0, 0.0, 0.0))])
def test_age_operations_refuse_non_finite_ages(age, profile):
    # With profile (1, 0, 0) an inf age would give inf * 0 = nan as the mean.
    with pytest.raises(ValueError, match=f"^age_before = {age} is not finite$"):
        age_pmf(0, age, profile, LENGTHS)


@pytest.mark.parametrize(
    "support, message",
    [
        (((1.0, float("nan")),), "sum to nan"),
        (((1.0, 0.5), (2.0, float("nan"))), "sum to nan"),
        (((1.0, float("inf")),), "sum to inf"),
        (((float("inf"), 1.0),), "age inf is not finite"),
        (((1.0, 0.5), (float("nan"), 0.5)), "age nan is not finite"),
        (((2.0, 0.5), (2.0, 0.5)), "^support values must be distinct$"),
        (((1.0, 1.25), (2.0, -0.25)), "^probability -0.25 at age 2.0 is negative$"),
    ],
)
def test_age_pmf_record_refuses_non_finite_entries(support, message):
    with pytest.raises(ValueError, match=message):
        AgePmf(support)


def test_expected_age_trivial_cases():
    assert age_pmf(0, 2.02, StrategyProfile((1.0, 0.0, 0.0)), LENGTHS).mean() == 1.01
    assert age_pmf(0, 2.02, StrategyProfile((0.0, 0.0, 0.0)), LENGTHS).mean() == 2.03


def test_expected_age_frozen_value():
    value = age_pmf(0, 2.02, PROFILE, LENGTHS).mean()
    assert value == pytest.approx(2.702093663972, abs=1e-11)


def test_expected_age_equals_pmf_mean():
    value = expected_age_oracle(0, PROFILE.taus, 2.02, LENGTHS)
    mean = age_pmf(0, 2.02, PROFILE, LENGTHS).mean()
    assert abs(value - mean) <= 1e-12 * abs(mean)


# ---------------------------------------------------------------------------
# payoffs

GAME3 = GameInstance(3, LENGTHS, (2.02, 3.03, 3.03))


def test_pure_payoff_case_analysis():
    age0 = GAME3.initial_ages[0]
    # node 0 collides with node 1
    assert pure_payoff(0, GAME3, actions_from_string("TTI")) == -(age0 + 2.02)
    # node 0 transmits alone
    assert pure_payoff(0, GAME3, actions_from_string("TII")) == -1.01
    # everyone idles
    assert pure_payoff(0, GAME3, actions_from_string("III")) == -(age0 + 0.01)
    # node 0 idles through exactly one transmission
    assert pure_payoff(0, GAME3, actions_from_string("ITI")) == -(age0 + 1.01)
    # node 0 idles through a collision
    assert pure_payoff(0, GAME3, actions_from_string("ITT")) == -(age0 + 2.02)


def test_pure_payoff_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries for n"):
        pure_payoff(0, GAME3, actions_from_string("TT"))


@pytest.mark.parametrize("actions", ["TII", ("T", "I", "I"), (Action.TRANSMIT, "I", Action.IDLE)])
def test_pure_payoff_refuses_non_action_entries(actions):
    # "T" is not Action.TRANSMIT, so unchecked it would count as idling.
    with pytest.raises(ValueError, match=r"actions\[\d\] = '[TI]' is not an Action"):
        pure_payoff(0, GAME3, actions)


def test_mixed_payoff_trivial_cases():
    assert mixed_payoff(0, GAME3, StrategyProfile((1.0, 0.0, 0.0))) == -1.01
    assert mixed_payoff(0, GAME3, StrategyProfile((0.0, 0.0, 0.0))) == -(2.02 + 0.01)


def test_mixed_payoff_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries for n"):
        mixed_payoff(0, GAME3, StrategyProfile((0.5, 0.5)))


def test_mixed_payoff_equals_pure_payoff_on_all_corners():
    import itertools

    for actions in itertools.product((Action.TRANSMIT, Action.IDLE), repeat=3):
        profile = StrategyProfile.from_actions(actions)
        for i in range(3):
            assert mixed_payoff(i, GAME3, profile) == pure_payoff(i, GAME3, actions)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def slot_lengths_st(draw):
    sigma_idle = draw(st.floats(0.001, 1.0))
    sigma_success = sigma_idle + draw(st.floats(0.001, 10.0))
    sigma_collision = draw(st.floats(0.001, 20.0))
    return SlotLengths(sigma_idle, sigma_success, sigma_collision)


@st.composite
def profiles_st(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    taus = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return StrategyProfile(tuple(taus))


@st.composite
def games_st(draw, min_n=2, max_n=4):
    lengths = draw(slot_lengths_st())
    n = draw(st.integers(min_n, max_n))
    ages = tuple(
        lengths.sigma_success * (1.0 + draw(st.floats(0.0, 9.0))) for _ in range(n)
    )
    return GameInstance(n, lengths, ages)


@given(profiles_st())
def test_probability_closure(profile):
    total = (
        idle_probability(profile)
        + total_success_probability(profile)
        + collision_probability(profile)
    )
    assert abs(total - 1.0) <= 1e-12


@given(profiles_st())
def test_busy_seen_identity(profile):
    p_total = total_success_probability(profile)
    for i in range(len(profile)):
        gap = busy_seen_probability(i, profile) - (
            p_total - success_probability_of(i, profile)
        )
        assert abs(gap) <= 1e-12


@given(profiles_st(), slot_lengths_st(), st.floats(0.0, 9.0))
@settings(max_examples=200)
def test_pmf_mean_matches_expected_age(profile, lengths, age_factor):
    age = lengths.sigma_success * (1.0 + age_factor)
    for i in range(len(profile)):
        pmf = age_pmf(i, age, profile, lengths)
        assert abs(math.fsum(p for _, p in pmf.support) - 1.0) <= 1e-12
        expected = expected_age_oracle(i, profile.taus, age, lengths)
        assert abs(pmf.mean() - expected) <= 1e-12 * abs(expected)


@given(profiles_st(max_n=6), slot_lengths_st(), st.floats(0.0, 9.0), st.booleans())
@settings(max_examples=200)
def test_age_pmf_matches_enumeration_oracle(profile, lengths, age_factor, coincide):
    if coincide:  # a collision then ages a node as much as a busy slot
        lengths = SlotLengths(lengths.sigma_idle, lengths.sigma_success, lengths.sigma_success)
    age = lengths.sigma_success * (1.0 + age_factor)
    for i in range(len(profile)):
        pmf = dict(age_pmf(i, age, profile, lengths).support)
        oracle = age_pmf_oracle(i, profile.taus, age, lengths)
        assert all(mass > 0.0 for mass in pmf.values())
        for value in pmf.keys() | oracle.keys():
            assert abs(pmf.get(value, 0.0) - oracle.get(value, 0.0)) <= 1e-12, value


@given(games_st())
@settings(max_examples=100)
def test_corner_consistency_property(game):
    import itertools

    for actions in itertools.product((Action.TRANSMIT, Action.IDLE), repeat=game.n):
        profile = StrategyProfile.from_actions(actions)
        for i in range(game.n):
            assert mixed_payoff(i, game, profile) == pure_payoff(i, game, actions)


@given(profiles_st(), st.data())
def test_collision_probability_monotone_in_each_tau(profile, data):
    i = data.draw(st.integers(0, len(profile) - 1))
    higher = data.draw(st.floats(profile[i], 1.0))
    bumped = profile.with_tau(i, higher)
    assert collision_probability(bumped) >= collision_probability(profile) - 1e-12


@given(profiles_st())
def test_probabilities_agree_with_oracle_property(profile):
    p_idle, p_success, p_collision, p_busy = outcome_probabilities(profile.taus)
    assert abs(idle_probability(profile) - p_idle) <= 1e-12
    assert abs(collision_probability(profile) - p_collision) <= 1e-12
    for i in range(len(profile)):
        assert abs(success_probability_of(i, profile) - p_success[i]) <= 1e-12
        assert abs(busy_seen_probability(i, profile) - p_busy[i]) <= 1e-12
