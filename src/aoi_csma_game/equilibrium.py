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
    """The closed-form equilibrium denominator vanishes for this instance."""


@_record
class DominanceReport:
    """Outcome of comparing one pure strategy against its alternative everywhere.

    ``weakly_dominant`` uses the weak-inequality sense: the strategy's payoff
    is at least the alternative's against every pure opponent profile.
    ``strictly_better_somewhere`` records whether at least one opponent
    profile makes it strictly better; both together give the textbook sense.
    """

    node: int
    strategy: Action
    weakly_dominant: bool
    strictly_better_somewhere: bool

    @property
    def weakly_dominant_strict_sense(self) -> bool:
        return self.weakly_dominant and self.strictly_better_somewhere


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
    ``feasible_per_node`` holds the per-node interior-region condition and
    ``feasible`` additionally requires collisions to outlast successes.
    ``indifference_residuals`` give, per node, the payoff gap between always
    transmitting and always idling against the other nodes' raw values.
    """

    raw_taus: tuple[float, ...]
    feasible_per_node: tuple[bool, ...]
    feasible: bool
    indifference_residuals: tuple[float, ...]

    def profile(self) -> StrategyProfile:
        """The equilibrium as a strategy profile; only defined when feasible."""
        if not self.feasible:
            raise ValueError(
                "closed-form values lie outside (0, 1); no interior equilibrium profile"
            )
        return StrategyProfile(self.raw_taus)


def _keeps(game: GameInstance, i: int, transmits: bool, others: int) -> bool:
    """Node i gains nothing strictly by flipping its action against `others`
    transmitters, that is, flipping would not leave its update younger."""
    ages = _outcome_ages(game.slot_lengths, game.initial_ages[i])
    return not ages[not transmits][min(others, 2)] < ages[transmits][min(others, 2)]


def check_weak_dominance(game: GameInstance, i: int, strategy: Action) -> DominanceReport:
    """Compare `strategy` vs. the other action for node i over all opponent profiles.

    Payoffs depend only on how many opponents transmit, and every count of
    two or more pays alike, so the counts 0, 1 and 2 cover every profile.
    """
    _check_node_index(i, game.n)
    _check_action("strategy", strategy)
    transmits = strategy is Action.TRANSMIT
    counts = range(min(game.n - 1, 2) + 1)
    at_least = all(_keeps(game, i, transmits, k) for k in counts)
    strictly_somewhere = any(not _keeps(game, i, not transmits, k) for k in counts)
    return DominanceReport(
        node=i,
        strategy=strategy,
        weakly_dominant=at_least,
        strictly_better_somewhere=at_least and strictly_somewhere,
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
    return tuple(
        q0 * (age + lengths.sigma_idle - lengths.sigma_success)
        + q1 * (lengths.sigma_success - lengths.sigma_collision)
        for age, (q0, q1, _) in zip(ages, others)
    )


def _closed_form_terms(
    lengths: SlotLengths, ages: Sequence[float], i: int, mean_age: float
) -> tuple[float, float]:
    """Numerator and denominator of node i's closed-form equilibrium value."""
    n = len(ages)
    shifted = (n - 1) * ages[i] - n * mean_age
    numerator = lengths.sigma_success - lengths.sigma_idle + shifted
    denominator = (
        n * lengths.sigma_success
        - (n - 1) * lengths.sigma_collision
        - lengths.sigma_idle
        + shifted
    )
    if denominator == 0.0:
        raise SingularGameError(
            f"equilibrium denominator vanishes for node {i}; "
            "the closed form is undefined for this instance"
        )
    return numerator, denominator


def _closed_form(
    lengths: SlotLengths, ages: Sequence[float]
) -> tuple[MsneResult, list[tuple[float, float, float]]]:
    """The closed form at already checked `ages`, and the kernel table of its raw values."""
    n = len(ages)
    mean_age = sum(ages) / n
    terms = (_closed_form_terms(lengths, ages, i, mean_age) for i in range(n))
    raw = [numerator / denominator for numerator, denominator in terms]
    threshold = (lengths.sigma_success - lengths.sigma_idle) / n
    per_node = tuple(mean_age - (n - 1) * age / n > threshold for age in ages)
    others = others_transmitting(raw)
    return MsneResult(
        raw_taus=tuple(raw),
        feasible_per_node=per_node,
        feasible=all(per_node) and not lengths.short_collision,
        indifference_residuals=_indifference_gaps(lengths, ages, others),
    ), others


def msne_closed_form(game: GameInstance) -> MsneResult:
    """Evaluate the closed-form interior mixed equilibrium for every node.

    Raw values are returned even outside (0, 1). The per-node feasibility
    flag checks the interior-region condition on the starting ages:

        mean_age - (n - 1)/n * age_i > (sigma_success - sigma_idle) / n

    and the overall flag additionally requires sigma_collision >
    sigma_success (otherwise transmit is weakly dominant and no node
    randomizes).
    """
    return _closed_form(game.slot_lengths, game.initial_ages)[0]


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
    _, denominator = _closed_form_terms(lengths, game.initial_ages, i, sum(game.initial_ages) / n)
    gap = lengths.sigma_success - lengths.sigma_collision
    own = (n - 1) * (n - 2) * gap / denominator**2
    cross = (n - 1) * (-gap) / denominator**2
    return own, cross
