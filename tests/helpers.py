"""Shared test utilities: independent oracles and seeded instance samplers.

The outcome oracle enumerates all 2^n transmit patterns with their Bernoulli
weights, deliberately sharing no code with the closed-form probability
operations it checks; the age-distribution oracle does the same, taking
each pattern's age from the pure-payoff case analysis. The dominance and
pure-Nash oracles loop over every pure profile with that independently
coded payoff case analysis. The slot sampler replays the simulator's
variate stream one slot at a time, the outcome-code oracle decodes a whole
transmit matrix of that stream, and the grid best-response oracle searches
a node's own transmit probability with the generic mixed payoff. The
exact oracles read every double as the rational number it is: the kernel
oracle multiplies out each node's others one by one in integers over a
power of two, and the closed-form oracles state each node's numerator
(whose sign is its interior condition), denominator and value, the
indifference residuals at given taus, and the age derivatives by the
quotient rule. At equal taus the kernel oracle is a closed form evaluated
in ``decimal``, and at equal ages the closed-form value has a one-term
``Fraction`` expression; both are cheap at any n. The frozen-dataclass
twins of the value types are the oracle for their record methods.
"""

from __future__ import annotations

import dataclasses
import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from aoi_csma_game import (
    Action,
    DominanceReport,
    GameInstance,
    MsneResult,
    PureNashSet,
    Scenario,
    SimStats,
    SlotLengths,
    StrategyProfile,
    SweepSpec,
    mixed_payoff,
    msne_closed_form,
)
from aoi_csma_game.game import others_transmitting
from aoi_csma_game.reference import ReferenceRow


def outcome_probabilities_oracle(taus, one=1.0):
    """Brute-force slot-outcome probabilities for a transmit-probability vector.

    Returns ``(p_idle, p_success_per_node, p_collision, p_busy_per_node)``
    where busy means "this node silent and exactly one other transmitting".
    Pass ``one=Fraction(1)`` with ``Fraction`` taus for exact arithmetic.
    """
    n = len(taus)
    zero = one - one
    p_idle = zero
    p_success = [zero] * n
    p_collision = zero
    p_busy = [zero] * n
    for pattern in itertools.product((0, 1), repeat=n):
        weight = one
        for bit, tau in zip(pattern, taus):
            weight *= tau if bit else (one - tau)
        transmitters = sum(pattern)
        if transmitters == 0:
            p_idle += weight
        elif transmitters == 1:
            p_success[pattern.index(1)] += weight
        else:
            p_collision += weight
        if transmitters == 1:
            for i in range(n):
                if pattern[i] == 0:
                    p_busy[i] += weight
    return p_idle, p_success, p_collision, p_busy


def pure_payoff_oracle(i, actions_transmit, ages, sigma_idle, sigma_success, sigma_collision):
    """Independent pure-payoff case analysis from a boolean transmit vector."""
    transmitters = sum(actions_transmit)
    if actions_transmit[i]:
        if transmitters == 1:
            return -sigma_success
        return -(ages[i] + sigma_collision)
    if transmitters == 0:
        return -(ages[i] + sigma_idle)
    if transmitters == 1:
        return -(ages[i] + sigma_success)
    return -(ages[i] + sigma_collision)


def age_pmf_oracle(i, taus, age, lengths):
    """Node i's end-of-slot age masses, by age, from all 2^n transmit patterns.

    Each pattern's Bernoulli weight goes to minus its `pure_payoff_oracle`
    for node i, so ages that coincide share one entry. Zero masses are dropped.
    """
    ages = (age,) * len(taus)
    masses = {}
    for pattern in itertools.product((0, 1), repeat=len(taus)):
        weight = 1.0
        for bit, tau in zip(pattern, taus):
            weight *= tau if bit else 1.0 - tau
        value = -pure_payoff_oracle(
            i, pattern, ages, lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision
        )
        masses[value] = masses.get(value, 0.0) + weight
    return {value: mass for value, mass in masses.items() if mass != 0.0}


def expected_age_oracle(i, taus, age, lengths):
    """Node i's expected end-of-slot age: the mean of `age_pmf_oracle`."""
    return math.fsum(value * mass for value, mass in age_pmf_oracle(i, taus, age, lengths).items())


def support_mean(support):
    """The mean of an ``age_pmf`` support, summed as ``mixed_payoff`` sums it."""
    return math.fsum(value * mass for value, mass in support)


def _game_payoff_oracle(game, i, transmit_vector):
    lengths = game.slot_lengths
    return pure_payoff_oracle(
        i, transmit_vector, tuple(game.initial_ages),
        lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision,
    )


def dominance_oracle(game, i, transmit):
    """Brute-force weak dominance of node i's action (transmit if `transmit`).

    Compares it with the other action against all 2^(n-1) opponent profiles.
    Returns ``(weakly_dominant, strictly_better_somewhere)`` in the sense of
    ``DominanceReport``: the second flag also requires the first.
    """
    payoff_pairs = [
        tuple(
            _game_payoff_oracle(game, i, opponents[:i] + (own,) + opponents[i:])
            for own in (transmit, not transmit)
        )
        for opponents in itertools.product((True, False), repeat=game.n - 1)
    ]
    weakly = all(u_mine >= u_other for u_mine, u_other in payoff_pairs)
    strictly = any(u_mine > u_other for u_mine, u_other in payoff_pairs)
    return weakly, weakly and strictly


def pure_nash_oracle(game):
    """Brute-force pure Nash set: every one of the 2^n action profiles in
    which no node gains strictly by flipping its own action."""
    stable = set()
    for bits in itertools.product((True, False), repeat=game.n):
        if all(
            not _game_payoff_oracle(game, i, bits[:i] + (not bits[i],) + bits[i + 1 :])
            > _game_payoff_oracle(game, i, bits)
            for i in range(game.n)
        ):
            stable.add(tuple(Action.TRANSMIT if b else Action.IDLE for b in bits))
    return stable


def sample_slot(profile, slot_lengths, rng):
    """Draw one slot: every node transmits independently with its own probability.

    Consumes one uniform variate per node, in node order. Returns
    ``(kind, duration, successful_node)`` with kind "idle", "success" or
    "collision"; ``successful_node`` is None unless the slot is a success.
    """
    draws = rng.random(len(profile))
    transmitters = [i for i, tau in enumerate(profile) if draws[i] < tau]
    if not transmitters:
        return "idle", slot_lengths.sigma_idle, None
    if len(transmitters) == 1:
        return "success", slot_lengths.sigma_success, transmitters[0]
    return "collision", slot_lengths.sigma_collision, None


def slot_by_slot_counts(profile, slot_lengths, slots, seed):
    """``(idle, collision, successes per node)`` of `slots` `sample_slot`
    draws from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    idle = collision = 0
    successes = [0] * len(profile)
    for _ in range(slots):
        kind, _, winner = sample_slot(profile, slot_lengths, rng)
        if kind == "idle":
            idle += 1
        elif kind == "collision":
            collision += 1
        else:
            successes[winner] += 1
    return idle, collision, tuple(successes)


def slot_outcome_codes(taus, seed, start, stop):
    """Outcome codes of slots `start`..`stop`, decoded from the transmit
    matrix ``default_rng(seed).random((stop, n)) < taus``: 0 for idle,
    j + 1 for a lone success by node j, n + 1 for a collision."""
    n = len(taus)
    transmits = np.random.default_rng(seed).random((stop, n))[start:] < np.asarray(taus)
    counts = transmits.sum(axis=1)
    lone_codes = 1 + transmits.argmax(axis=1)
    return np.where(counts == 0, 0, np.where(counts == 1, lone_codes, n + 1))


def response_payoffs(game, i, opponent_taus, grid_size):
    """Node i's payoff at each grid value of its own transmit probability.

    ``opponent_taus`` lists the other nodes' probabilities in node order,
    skipping node i. The payoff is affine in tau_i, so the grid is only a
    blunt (but independent) instrument: the maximizer is an endpoint unless
    the node is indifferent.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be at least 3, got {grid_size}")
    if len(opponent_taus) != game.n - 1:
        raise ValueError(
            f"expected {game.n - 1} opponent probabilities, got {len(opponent_taus)}"
        )
    out = []
    for k in range(grid_size):
        tau_i = k / (grid_size - 1)
        taus = list(opponent_taus)
        taus.insert(i, tau_i)
        out.append((tau_i, mixed_payoff(i, game, StrategyProfile(tuple(taus)))))
    return tuple(out)


def best_response_oracle(game, i, opponent_taus, grid_size=101):
    """Grid search for node i's best transmit probability against fixed opponents.

    Returns ``(tau, payoff)`` at the maximizing grid point (first maximizer
    on ties).
    """
    return max(response_payoffs(game, i, opponent_taus, grid_size), key=lambda pair: pair[1])


def random_slot_lengths(rng: np.random.Generator, collision_ratio: tuple[float, float]):
    """Random slot lengths with sigma_collision drawn as a ratio of sigma_success."""
    sigma_success = float(rng.uniform(0.5, 2.0))
    sigma_idle = sigma_success * float(rng.uniform(0.005, 0.9))
    sigma_collision = sigma_success * float(rng.uniform(*collision_ratio))
    return SlotLengths(sigma_idle, sigma_success, sigma_collision)


def random_game(rng: np.random.Generator, n: int, lengths: SlotLengths) -> GameInstance:
    """Random instance with ages drawn from [sigma_success, 10 sigma_success]."""
    ages = lengths.sigma_success * (1.0 + 9.0 * rng.random(n))
    return GameInstance(lengths, ages)


def others_transmitting_exact(taus):
    """For every node i, the exact chances that 0, 1 and >= 2 *other* nodes
    transmit, as ``Fraction``s of the double taus, from the product of
    ``(1 - tau_j) + tau_j x`` over j != i, one factor at a time.

    Each double tau is an integer over a power of two, so over the largest
    of those powers every factor is an int: the products are taken in ints
    and each chance becomes a ``Fraction`` once."""
    ratios = [float(tau).as_integer_ratio() for tau in taus]
    scale = max(den for _, den in ratios)
    exact = [num * scale // den for num, den in ratios]
    whole = scale ** (len(exact) - 1)
    rows = []
    for i in range(len(exact)):
        none, one = 1, 0
        for j, tau in enumerate(exact):
            if j != i:
                none, one = none * (scale - tau), one * (scale - tau) + none * tau
        rows.append(
            (Fraction(none, whole), Fraction(one, whole), Fraction(whole - none - one, whole))
        )
    return rows


# 1 - tau and the two powers each round at 60 digits, so q0 and q1 are
# within (n + 2) 10^-59 of exact, and q2, their difference from 1, within
# (n + 4) 10^-59. check_kernel_at_equal_taus requires q2 to exceed 10^20
# times that, so that it keeps at least 20 significant digits.
EQUAL_TAUS_CONTEXT = decimal.Context(
    prec=60,
    Emin=decimal.MIN_EMIN,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Underflow],
)


def others_transmitting_at_equal_taus(n, tau):
    """The chances that 0, 1 and >= 2 of the other n - 1 nodes transmit when
    every node transmits with the double `tau`, as ``Decimal``s from its
    exact value in `EQUAL_TAUS_CONTEXT`: q0 = (1 - tau)^(n - 1),
    q1 = (n - 1) tau (1 - tau)^(n - 2) and q2 = 1 - q0 - q1. Each power
    costs O(log n) multiplications, so any n is cheap."""
    with decimal.localcontext(EQUAL_TAUS_CONTEXT):
        t = Decimal(tau)
        silent = 1 - t
        q0 = silent ** (n - 1)
        q1 = (n - 1) * t * silent ** (n - 2)
        return q0, q1, 1 - q0 - q1


def check_kernel_at_equal_taus(n, tau):
    """Assert that every row of the kernel at n equal taus lies within
    gamma_(3n+1) of `others_transmitting_at_equal_taus`, relatively, plus
    n^2 2^-1072 absolutely: the bound of
    `test_kernel_is_within_its_rounding_bound_of_exact`. Every row has the
    same exact value, so the smallest and largest float of each column are
    the ones to check."""
    rows = others_transmitting([tau] * n)
    exact = others_transmitting_at_equal_taus(n, tau)
    with decimal.localcontext(EQUAL_TAUS_CONTEXT):
        assert exact[2] >= (n + 4) * Decimal("1e-39"), (n, tau, exact[2])
        gamma = Decimal(3 * n + 1) / (2**53 - (3 * n + 1))
        floor = Decimal(n * n) / Decimal(2) ** 1072
        for k, want in enumerate(exact):
            column = [row[k] for row in rows]
            for got in (min(column), max(column)):
                error = abs(Decimal(got) - want)
                assert error <= gamma * want + floor, (n, tau, k, got, want, error / want)


def closed_form_numerators(game: GameInstance):
    """Each node's closed-form numerator in exact arithmetic on the game's
    doubles: sigma_success - sigma_idle + (n - 1) age_i - (sum of the ages).
    Node i's interior condition holds exactly when it is negative."""
    ages = [Fraction(age) for age in game.initial_ages]
    total = sum(ages)
    lengths = game.slot_lengths
    gap = Fraction(lengths.sigma_success) - Fraction(lengths.sigma_idle)
    return [gap + (game.n - 1) * age - total for age in ages]


def closed_form_denominators(game: GameInstance):
    """Each node's closed-form denominator in exact arithmetic on the game's
    doubles: n sigma_success - (n - 1) sigma_collision - sigma_idle +
    (n - 1) age_i - (sum of the ages)."""
    ages = [Fraction(age) for age in game.initial_ages]
    total = sum(ages)
    lengths = game.slot_lengths
    n = game.n
    constant = (
        n * Fraction(lengths.sigma_success)
        - (n - 1) * Fraction(lengths.sigma_collision)
        - Fraction(lengths.sigma_idle)
    )
    return [constant + (n - 1) * age - total for age in ages]


def closed_form_taus_exact(game: GameInstance):
    """Each node's closed-form value, numerator over denominator, as a
    ``Fraction`` (``None`` where the denominator is 0)."""
    return [
        None if denominator == 0 else numerator / denominator
        for numerator, denominator in zip(
            closed_form_numerators(game), closed_form_denominators(game)
        )
    ]


U = Fraction(1, 2**53)  # the unit roundoff


def closed_form_error_bounds(game):
    """Bounds on the rounding errors of each node's computed numerator and
    denominator, as one ``(e_N, e_D)`` pair per node: 8 u times the sum of
    the magnitudes of their terms.

    With m the mean age, node i's shared part s = (n - 1)(a_i - m) - m is
    formed from a mean within 2u |m| of m (a correctly rounded `fsum` and one
    division), which s scales by n, and three more roundings. As n |m| and
    every intermediate are at most T_s = (n - 1)(|a_i| + |m|) + |m| (to
    first order), s is within 5.01 u T_s. The numerator adds sigma_success -
    sigma_idle in two roundings and the denominator the constant n
    sigma_success - (n - 1) sigma_collision - sigma_idle in five, each
    bounded by u times the terms it combines. So the numerator is within
    7.01 u (sigma_success + sigma_idle + T_s) and the denominator within
    6.01 u (n sigma_success + (n - 1) sigma_collision + sigma_idle + T_s).

    The mean is summed once per game, and each distinct age's pair is formed
    once, so a game costs O(n) `Fraction` additions.
    """
    n = game.n
    lengths = game.slot_lengths
    mean = abs(sum(map(Fraction, game.initial_ages)) / n)
    sigma_idle, sigma_success, sigma_collision = (
        Fraction(lengths.sigma_idle),
        Fraction(lengths.sigma_success),
        Fraction(lengths.sigma_collision),
    )
    # The terms of T_s but node i's (n - 1)|a_i|.
    numerator_terms = sigma_success + sigma_idle + n * mean
    denominator_terms = n * sigma_success + (n - 1) * sigma_collision + sigma_idle + n * mean
    bounds = {}
    for age in set(game.initial_ages):
        own = (n - 1) * abs(Fraction(age))
        bounds[age] = (8 * U * (numerator_terms + own), 8 * U * (denominator_terms + own))
    return [bounds[age] for age in game.initial_ages]


def check_closed_form_at_equal_ages(n, age):
    """Assert that with every age the one double `age`, at slot lengths
    0.01 / 1.01 / 2.02, the closed form is feasible, every raw tau is one
    double, bit for bit, and it is within (1 + u) (e_N + tau e_D) / (D -
    e_D) + u tau of (a - sigma_s + sigma_i) / ((n - 1) sigma_c - n sigma_s +
    sigma_i + a), with e_N and e_D the bounds of `closed_form_error_bounds`.

    That is N / D with the mean age equal to a. The computed mean, ``fsum``
    of the n copies of a over n, may round away from a; the bound covers
    that rounding. 3.03 is the age of the CI game."""
    lengths = SlotLengths(0.01, 1.01, 2.02)
    game = GameInstance(lengths, [age] * n)
    result = msne_closed_form(game)
    assert len({tau.hex() for tau in result.raw_taus}) == 1
    assert result.feasible
    a = Fraction(age)
    sigma_idle, sigma_success, sigma_collision = map(
        Fraction, (lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision)
    )
    numerator = a - sigma_success + sigma_idle
    denominator = (n - 1) * sigma_collision - n * sigma_success + sigma_idle + a
    tau = numerator / denominator
    numerator_error, denominator_error = closed_form_error_bounds(game)[0]
    quotient_error = (numerator_error + tau * denominator_error) / (
        denominator - denominator_error
    )
    bound = (1 + U) * quotient_error + U * tau
    got = result.raw_taus[0]
    assert abs(Fraction(got) - tau) <= bound, (n, age, got, float(tau), float(bound))


def indifference_residuals_exact(game: GameInstance, taus):
    """Each node's exact payoff gap between surely transmitting and surely
    idling against the others' double `taus`: with q0 and q1 the exact
    chances that none or exactly one other node transmits, transmitting
    leaves sigma_success, a + sigma_collision and a + sigma_collision, and
    idling a + sigma_idle, a + sigma_success and a + sigma_collision, so the
    gap is q0 (a + sigma_idle - sigma_success) + q1 (sigma_success -
    sigma_collision)."""
    lengths = game.slot_lengths
    sigma_idle, sigma_success, sigma_collision = (
        Fraction(lengths.sigma_idle),
        Fraction(lengths.sigma_success),
        Fraction(lengths.sigma_collision),
    )
    return [
        q0 * (Fraction(age) + sigma_idle - sigma_success) + q1 * (sigma_success - sigma_collision)
        for age, (q0, q1, _) in zip(game.initial_ages, others_transmitting_exact(taus))
    ]


def monotonicity_derivatives_exact(game: GameInstance, i: int, j: int):
    """``(d tau_i / d age_i, d tau_i / d age_j)`` in exact arithmetic, by the
    quotient rule on tau_i = N_i / D_i: age_i enters N_i and D_i with weight
    (n - 1) - 1 through the sum of the ages, and age_j with weight -1."""
    numerator = closed_form_numerators(game)[i]
    denominator = closed_form_denominators(game)[i]
    return tuple(
        (weight * denominator - numerator * weight) / denominator**2
        for weight in (game.n - 2, -1)
    )


def interior_condition_holds(game: GameInstance) -> bool:
    """The interior-region condition on the starting ages in exact arithmetic,
    n mean_age - (n - 1) age_i > sigma_success - sigma_idle, for every node."""
    return all(numerator < 0 for numerator in closed_form_numerators(game))


def random_feasible_game(rng: np.random.Generator, n: int) -> GameInstance:
    """Random instance in the interior-equilibrium region with margin for
    finite-difference perturbations (ages kept strictly above sigma_success).
    """
    lengths = random_slot_lengths(rng, collision_ratio=(1.05, 3.0))
    floor = 1.001 * lengths.sigma_success
    for _ in range(200):
        ages = tuple(float(a) for a in lengths.sigma_success * (1.001 + 9.0 * rng.random(n)))
        game = GameInstance(lengths, ages)
        if interior_condition_holds(game):
            return game
    # Near-equal ages always satisfy the interior condition.
    base = float(rng.uniform(1.1, 10.0)) * lengths.sigma_success
    jitter = 0.001 * lengths.sigma_idle * rng.random(n)
    ages = tuple(float(base + j) for j in jitter)
    game = GameInstance(lengths, ages)
    assert interior_condition_holds(game)
    assert all(a >= floor for a in ages)
    return game


# Frozen-dataclass twins of the package's value types: the same fields in the
# same order with the same defaults, and none of the checks.


@dataclasses.dataclass(frozen=True)
class SlotLengthsTwin:
    sigma_idle: float
    sigma_success: float
    sigma_collision: float


@dataclasses.dataclass(frozen=True)
class StrategyProfileTwin:
    taus: tuple


@dataclasses.dataclass(frozen=True)
class GameInstanceTwin:
    slot_lengths: SlotLengths
    initial_ages: tuple


@dataclasses.dataclass(frozen=True)
class DominanceReportTwin:
    weakly_dominant: bool
    strictly_better_somewhere: bool


@dataclasses.dataclass(frozen=True)
class PureNashSetTwin:
    n: int
    classes: tuple


@dataclasses.dataclass(frozen=True)
class MsneResultTwin:
    raw_taus: tuple
    feasible_per_node: tuple
    indifference_residuals: tuple
    profile: StrategyProfile | None


@dataclasses.dataclass(frozen=True)
class SweepSpecTwin:
    node: int
    start: float
    stop: float
    steps: int


@dataclasses.dataclass(frozen=True)
class ScenarioTwin:
    game: GameInstance
    seed: int
    num_slots: int
    sweep: SweepSpec | None = None
    profile: StrategyProfile | None = None


@dataclasses.dataclass(frozen=True)
class ReferenceRowTwin:
    label: str
    sigma_collision: float
    initial_ages: tuple
    golden_taus: tuple
    golden_pure_nash: frozenset
    golden_feasible: bool


@dataclasses.dataclass(frozen=True)
class SimStatsTwin:
    idle_count: int
    collision_count: int
    success_count_per_node: tuple
    mean_age_after_per_node: tuple


RECORD_TWINS = {
    SlotLengths: SlotLengthsTwin,
    StrategyProfile: StrategyProfileTwin,
    GameInstance: GameInstanceTwin,
    DominanceReport: DominanceReportTwin,
    PureNashSet: PureNashSetTwin,
    MsneResult: MsneResultTwin,
    SweepSpec: SweepSpecTwin,
    Scenario: ScenarioTwin,
    ReferenceRow: ReferenceRowTwin,
    SimStats: SimStatsTwin,
}
