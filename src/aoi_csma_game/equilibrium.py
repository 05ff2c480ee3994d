"""Equilibrium analysis of the one-shot contention game.

A pure payoff depends only on a node's own action and on how many other
nodes transmit, so weak dominance and the pure Nash set are computed
exactly over transmitter-count classes rather than over all 2^n profiles.
Also covers the closed-form interior mixed equilibrium with its
feasibility region, indifference verification, and the sensitivity of the
interior equilibrium to the starting ages.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence

from .game import Action, GameInstance, SlotLengths, StrategyProfile, actions_from_string
from .game import others_transmitting
from .game import _check_action, _check_entries, _check_node_index, _outcome_ages, _record

MAX_ENUMERATION_NODES = 20


class SingularGameError(ValueError):
    """The closed-form equilibrium cannot be evaluated for this instance: a
    denominator vanishes, the starting ages sum past the largest float, or
    an age lies so far above their mean that its term overflows."""


@_record
class DominanceReport:
    """Outcome of comparing one pure strategy against its alternative everywhere.

    ``weakly_dominant`` uses the weak-inequality sense: the strategy's payoff
    is at least the alternative's against every pure opponent profile.
    ``strictly_better_somewhere`` is weak dominance in the textbook sense:
    the strategy is weakly dominant and strictly better against at least one
    opponent profile. A strategy that is strictly better somewhere but not
    weakly dominant has it false.
    """

    weakly_dominant: bool
    strictly_better_somewhere: bool


@_record
class PureNashSet:
    """Pure action profiles that survive the unilateral-deviation test.

    The profiles are held as transmitter-count classes, not one by one. A
    class ``(k, forced, free)`` stands for every profile of the `n` nodes
    whose transmitters number exactly k, include every node in `forced`
    and otherwise come from `free`.
    """

    n: int
    classes: tuple[tuple[int, frozenset[int], tuple[int, ...]], ...]

    def __contains__(self, profile: Sequence[Action]) -> bool:
        if len(profile) != self.n or not all(isinstance(a, Action) for a in profile):
            return False
        transmitters = {i for i, a in enumerate(profile) if a is Action.TRANSMIT}
        for k, forced, free in self.classes:
            if k == len(transmitters):
                return forced <= transmitters and transmitters - forced <= set(free)
        return False

    def __len__(self) -> int:
        return sum(math.comb(len(free), k - len(forced)) for k, forced, free in self.classes)

    def __iter__(self) -> Iterator[tuple[Action, ...]]:
        return map(actions_from_string, self.as_strings())

    def as_strings(self) -> tuple[str, ...]:
        """Every profile as a ``T``/``I`` string, in sorted order."""
        profiles = []
        for k, forced, free in self.classes:
            row = ["I"] * self.n
            for i in forced:
                row[i] = "T"
            for chosen in itertools.combinations(free, k - len(forced)):
                for i in chosen:
                    row[i] = "T"
                profiles.append("".join(row))
                for i in chosen:
                    row[i] = "I"
        profiles.sort()
        return tuple(profiles)


@_record
class MsneResult:
    """Closed-form interior equilibrium values with their feasibility diagnostics.

    ``raw_taus`` are reported unclamped even when they fall outside (0, 1);
    ``feasible_per_node`` holds the per-node interior-region condition,
    which is that the numerator of the node's raw value is negative.
    ``indifference_residuals`` give, per node, the payoff gap between always
    transmitting and always idling against the other nodes' raw values.
    ``profile`` is the equilibrium as a :class:`StrategyProfile` of the raw
    values, or None when there is none: when collisions do not outlast
    successes, some flag is unset or some raw value lies outside [0, 1].
    ``feasible`` is ``profile is not None``.
    """

    raw_taus: tuple[float, ...]
    feasible_per_node: tuple[bool, ...]
    indifference_residuals: tuple[float, ...]
    profile: StrategyProfile | None

    def __post_init__(self) -> None:
        if self.profile is not None and not (
            isinstance(self.profile, StrategyProfile) and self.profile.taus == self.raw_taus
        ):
            raise ValueError("profile must be None or the StrategyProfile of raw_taus")

    @property
    def feasible(self) -> bool:
        """``profile is not None``: the closed form is an equilibrium profile."""
        return self.profile is not None


def _keeps(game: GameInstance, i: int, transmits: bool, others: int) -> bool:
    """Node i gains nothing strictly by flipping its action against `others`
    transmitters, that is, flipping would not leave its update younger."""
    ages = _outcome_ages(game.slot_lengths, game.initial_ages[i])
    return not ages[not transmits][min(others, 2)] < ages[transmits][min(others, 2)]


def check_weak_dominance(game: GameInstance, i: int, strategy: Action) -> DominanceReport:
    """Compare `strategy` vs. the other action for node i over all opponent profiles.

    Payoffs depend only on how many opponents transmit, and every count of
    two or more pays alike, so the counts 0, 1 and 2 cover every profile.
    The end-of-slot ages are compared as the doubles :func:`_outcome_ages`
    computes. So transmit is weakly dominant exactly when ``a + sigma_collision``
    rounds to no more than ``a + sigma_success``, with ``a`` node i's starting
    age. That holds whenever sigma_collision <= sigma_success. It also holds
    with longer collisions once both sums round to the same double: with
    sigma_success = 1.01 and sigma_collision = 2.02, at a = 1e16 but not at
    a = 1e15. While ``ulp(a + sigma_collision) < sigma_collision -
    sigma_success``, the sums never tie.
    """
    _check_node_index(i, game.n)
    _check_action("strategy", strategy)
    transmits = strategy is Action.TRANSMIT
    counts = range(min(game.n - 1, 2) + 1)
    at_least = all(_keeps(game, i, transmits, k) for k in counts)
    strictly_somewhere = any(not _keeps(game, i, not transmits, k) for k in counts)
    return DominanceReport(
        weakly_dominant=at_least, strictly_better_somewhere=at_least and strictly_somewhere
    )


def enumerate_pure_nash(game: GameInstance) -> PureNashSet:
    """Exact pure Nash set, built one transmitter count k at a time.

    A profile survives when no node can strictly improve its payoff by
    flipping only its own action; payoff ties do not disqualify. With k
    transmitters, a transmitter faces k - 1 transmitting others and an
    idler faces k, so each k yields at most one class: the nodes that would
    gain by transmitting are forced to, and the transmitters are those plus
    any nodes that lose nothing either way.
    """
    if game.n > MAX_ENUMERATION_NODES:
        raise ValueError(
            f"exhaustive enumeration capped at {MAX_ENUMERATION_NODES} nodes, got {game.n}"
        )
    nodes = range(game.n)
    classes = []
    for k in range(game.n + 1):
        may_transmit = {i for i in nodes if k > 0 and _keeps(game, i, True, k - 1)}
        may_idle = {i for i in nodes if k < game.n and _keeps(game, i, False, k)}
        forced = frozenset(nodes) - may_idle  # must transmit, so must also be able to
        free = tuple(sorted(may_transmit & may_idle))
        if forced <= may_transmit and len(forced) <= k <= len(forced) + len(free):
            classes.append((k, forced, free))
    return PureNashSet(game.n, tuple(classes))


def _indifference_gaps(
    lengths: SlotLengths, ages: Sequence[float], others: Sequence[tuple[float, float, float]]
) -> tuple[float, ...]:
    """Per-node payoff gap between surely transmitting and surely idling.

    `others` is the :func:`others_transmitting` table of the values. With q0
    and q1 the chances that no / exactly one other node transmits, the gap
    is q0 (a + sigma_idle - sigma_success) + q1 (sigma_success -
    sigma_collision). It is defined even when the values fall outside [0, 1].
    """
    # Differenced by hand: (a + sigma_s) - (a + sigma_c) from _outcome_ages loses about ulp(a).
    collision_gap = lengths.sigma_success - lengths.sigma_collision
    return tuple(
        q0 * (age + lengths.sigma_idle - lengths.sigma_success) + q1 * collision_gap
        for age, (q0, q1, _) in zip(ages, others)
    )


def _closed_form_terms(lengths: SlotLengths, ages: Sequence[float]) -> list[tuple[float, float]]:
    """Every node's numerator and denominator of its closed-form equilibrium value."""
    n = len(ages)
    try:
        mean_age = math.fsum(ages) / n
    except OverflowError:  # fsum's partial sums overflow
        raise SingularGameError(
            "the starting ages sum past the largest float; "
            "the closed form cannot be evaluated for this instance"
        ) from None
    lead = lengths.sigma_success - lengths.sigma_idle
    lag = n * lengths.sigma_success - (n - 1) * lengths.sigma_collision - lengths.sigma_idle
    # (n - 1) a_i - n mean_age, centred: a_i - mean_age is exact while a_i is
    # within a factor of 2 of the mean, where the uncentred form cancels two
    # products and keeps their rounding.
    shifted = [(n - 1) * (age - mean_age) - mean_age for age in ages]
    if not all(map(math.isfinite, shifted)):
        raise SingularGameError(
            "a starting age lies too far above the mean age; "
            "the closed form cannot be evaluated for this instance"
        )
    return [(lead + s, lag + s) for s in shifted]


def _nonzero(denominator: float, i: int) -> float:
    """Node i's closed-form denominator, refused when it vanishes."""
    if denominator == 0.0:
        raise SingularGameError(
            f"equilibrium denominator vanishes for node {i}; "
            "the closed form is undefined for this instance"
        )
    return denominator


def _closed_form(lengths: SlotLengths, ages: Sequence[float]) -> MsneResult:
    """The closed form at already checked `ages`. The residuals read the
    kernel table of the raw values: the one its profile holds when it has one."""
    terms = _closed_form_terms(lengths, ages)
    raw = tuple(numerator / _nonzero(denom, i) for i, (numerator, denom) in enumerate(terms))
    per_node = tuple(numerator < 0.0 for numerator, _ in terms)
    feasible = all(per_node) and not lengths.short_collision and all(0.0 <= t <= 1.0 for t in raw)
    profile = StrategyProfile(raw) if feasible else None
    others = others_transmitting(raw) if profile is None else profile._others
    return MsneResult(raw, per_node, _indifference_gaps(lengths, ages, others), profile)


def msne_closed_form(game: GameInstance) -> MsneResult:
    """Evaluate the closed-form interior mixed equilibrium for every node.

    Raw values are returned even outside (0, 1). The per-node feasibility
    flag is the interior-region condition on the starting ages,

        mean_age - (n - 1)/n * age_i > (sigma_success - sigma_idle) / n,

    which times n says that the numerator of tau_i is negative; the flag is
    the sign of that numerator as computed. The result's ``profile`` is
    the raw values as a :class:`StrategyProfile` when every flag is set,
    sigma_collision > sigma_success (otherwise transmit is weakly dominant
    and no node randomizes) and every raw value lies in [0, 1]; otherwise
    it is None, and ``feasible`` is ``profile is not None``. With longer
    collisions each denominator lies below its numerator, so with every age
    below 2**51 (sigma_collision - sigma_success) a flag is set exactly
    when 0 < tau_i < 1, and the last condition adds nothing. The mean age
    is ``math.fsum(ages) / n``, the same double in any node order.

    The profile is built once, and the residuals read its kernel table.
    """
    return _closed_form(game.slot_lengths, game.initial_ages)


def verify_indifference(game: GameInstance, profile: StrategyProfile) -> tuple[float, ...]:
    """Per-node payoff gap u_i(transmit surely) - u_i(idle surely) at `profile`.

    Zero residuals mean every node is exactly indifferent, the defining
    property of an interior equilibrium.
    """
    _check_entries("profile", profile, game.n)
    return _indifference_gaps(game.slot_lengths, game.initial_ages, profile._others)


def monotonicity_derivatives(game: GameInstance, i: int, j: int) -> tuple[float, float]:
    """Sensitivity of node i's closed-form equilibrium value to starting ages.

    Returns ``(d tau_i / d age_i, d tau_i / d age_j)`` for ``j != i``,
    accounting for the mean age's dependence on every entry. When
    collisions outlast successes the own-age derivative is negative (for
    three or more nodes) and the cross-age derivative positive: an aging
    node turns conservative while its rivals grow aggressive.
    """
    n = game.n
    if i == j:
        raise ValueError("cross derivative requires j != i")
    _check_node_index(i, n)
    _check_node_index(j, n)
    lengths = game.slot_lengths
    ages = game.initial_ages
    denominator = _nonzero(_closed_form_terms(lengths, ages)[i][1], i)
    gap = lengths.sigma_success - lengths.sigma_collision
    own = (n - 1) * (n - 2) * gap / denominator / denominator
    cross = (n - 1) * (-gap) / denominator / denominator
    return own, cross
