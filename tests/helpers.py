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
oracle multiplies out each node's others one by one in ``Fraction``
arithmetic, and the closed-form oracles state each node's numerator
(whose sign is its interior condition), denominator and value, the
indifference residuals at given taus, and the age derivatives by the
quotient rule. The frozen-dataclass twins of the
value types are the oracle for their record methods.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from aoi_csma_game import (
    Action,
    AgePmf,
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
)
from aoi_csma_game.reference import ReferenceRow


def outcome_probabilities(taus, one=1.0):
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
    n + j for a lone success by node j, 2n for a collision."""
    n = len(taus)
    transmits = np.random.default_rng(seed).random((stop, n))[start:] < np.asarray(taus)
    counts = transmits.sum(axis=1)
    lone_codes = n + transmits.argmax(axis=1)
    return np.where(counts == 0, 0, np.where(counts == 1, lone_codes, 2 * n))


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
    return GameInstance(n, lengths, ages)


def others_transmitting_exact(taus):
    """For every node i, the exact chances that 0, 1 and >= 2 *other* nodes
    transmit, as ``Fraction``s of the double taus, from the product of
    ``(1 - tau_j) + tau_j x`` over j != i, one factor at a time."""
    exact = [Fraction(tau) for tau in taus]
    rows = []
    for i in range(len(exact)):
        none, one = Fraction(1), Fraction(0)
        for j, tau in enumerate(exact):
            if j != i:
                none, one = none * (1 - tau), one * (1 - tau) + none * tau
        rows.append((none, one, 1 - none - one))
    return rows


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
        game = GameInstance(n, lengths, ages)
        if interior_condition_holds(game):
            return game
    # Near-equal ages always satisfy the interior condition.
    base = float(rng.uniform(1.1, 10.0)) * lengths.sigma_success
    jitter = 0.001 * lengths.sigma_idle * rng.random(n)
    ages = tuple(float(base + j) for j in jitter)
    game = GameInstance(n, lengths, ages)
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
    n: int
    slot_lengths: SlotLengths
    initial_ages: tuple


@dataclasses.dataclass(frozen=True)
class AgePmfTwin:
    support: tuple


@dataclasses.dataclass(frozen=True)
class DominanceReportTwin:
    node: int
    strategy: Action
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
    feasible: bool
    indifference_residuals: tuple


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
    slots: int
    idle_count: int
    collision_count: int
    success_count_per_node: tuple
    mean_age_after_per_node: tuple


RECORD_TWINS = {
    SlotLengths: SlotLengthsTwin,
    StrategyProfile: StrategyProfileTwin,
    GameInstance: GameInstanceTwin,
    AgePmf: AgePmfTwin,
    DominanceReport: DominanceReportTwin,
    PureNashSet: PureNashSetTwin,
    MsneResult: MsneResultTwin,
    SweepSpec: SweepSpecTwin,
    Scenario: ScenarioTwin,
    ReferenceRow: ReferenceRowTwin,
    SimStats: SimStatsTwin,
}
