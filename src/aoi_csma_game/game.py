"""Slotted CSMA/CA contention model with age-of-information payoffs.

All nodes sense each other, so a slot has exactly one of three outcomes:
idle (nobody transmits), success (exactly one transmitter), or collision
(two or more). Each node i transmits independently with probability tau_i.
A node's payoff is the negative of its expected update age at the end of
the slot, given the age it carried into the slot.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence, Sized


def _record(cls):
    """Make `cls` a frozen record of its annotated fields, in order.

    Adds an ``__init__`` that takes the fields by position or keyword (a
    class attribute named like a field is its default) and then calls
    ``__post_init__`` if the class has one; ``__eq__`` between instances of
    the same class and ``__hash__``, both over the field tuple; a
    ``Name(field=value, ...)`` repr; and an ``AttributeError`` on any
    assignment or deletion. The methods are closures over the field names,
    so building a class generates no source and imports no module.
    """
    name = cls.__name__
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def values(self):
        return tuple([getattr(self, f) for f in fields])

    def bind(args, kwargs):
        """The field values, in order, from the arguments of a call."""
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        bound = {**defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields or key in fields[: len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            bound[key] = value
        missing = [f for f in fields if f not in bound]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [bound[f] for f in fields]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


class Action(enum.Enum):
    """Pure per-slot choice of a node."""

    TRANSMIT = "T"
    IDLE = "I"

    def __str__(self) -> str:
        return self.value


def _check_action(name: str, action: object) -> None:
    # An action string such as "T" would otherwise read as IDLE, since it is
    # not Action.TRANSMIT.
    if not isinstance(action, Action):
        raise ValueError(f"{name} = {action!r} is not an Action")


def actions_from_string(s: str) -> tuple[Action, ...]:
    """Parse a compact action string like ``"TTI"`` into an action tuple."""
    try:
        return tuple(Action(c.upper()) for c in s)
    except ValueError:
        raise ValueError(f"action string {s!r} may only contain 'T' and 'I'") from None


def actions_to_string(actions: Sequence[Action]) -> str:
    return "".join([a.value for a in actions])


@_record
class SlotLengths:
    """Durations of the three slot types, in one shared abstract time unit."""

    sigma_idle: float
    sigma_success: float
    sigma_collision: float

    def __post_init__(self) -> None:
        for name in ("sigma_idle", "sigma_success", "sigma_collision"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be a positive finite duration, got {value}")
        if not self.sigma_idle < self.sigma_success:
            raise ValueError(
                f"sigma_idle ({self.sigma_idle}) must be shorter than "
                f"sigma_success ({self.sigma_success})"
            )

    @property
    def short_collision(self) -> bool:
        """True when a collision is no longer than a successful transmission."""
        return self.sigma_collision <= self.sigma_success

    def regime(self) -> str:
        return "short_collision" if self.short_collision else "long_collision"


@_record
class StrategyProfile:
    """Per-node transmit probabilities; pure profiles sit at the 0/1 corners.

    ``_others`` holds :func:`others_transmitting` of the taus, computed once
    on construction; it is not a field, so it takes no part in construction,
    equality, hashing or repr.
    """

    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        if not self.taus:
            raise ValueError("profile needs at least one node")
        for i, tau in enumerate(self.taus):
            if not (0.0 <= tau <= 1.0):
                raise ValueError(f"taus[{i}] = {tau} is not a probability in [0, 1]")
        object.__setattr__(self, "_others", tuple(others_transmitting(self.taus)))

    @classmethod
    def from_actions(cls, actions: Sequence[Action]) -> StrategyProfile:
        return cls(tuple(1.0 if a is Action.TRANSMIT else 0.0 for a in actions))

    @property
    def is_pure(self) -> bool:
        return all(t in (0.0, 1.0) for t in self.taus)

    def with_tau(self, i: int, tau: float) -> StrategyProfile:
        """Copy of this profile with node i's transmit probability replaced."""
        taus = list(self.taus)
        taus[i] = tau
        return StrategyProfile(tuple(taus))

    def __len__(self) -> int:
        return len(self.taus)

    def __getitem__(self, i: int) -> float:
        return self.taus[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.taus)


@_record
class GameInstance:
    """One-shot contention game: node count, slot lengths, and starting ages.

    Every starting age must be finite and at least sigma_success, since that
    is the minimum time any delivered update has already aged by the time it
    is received. Single-node "games" are rejected: without contention there is
    nothing to model and the interior equilibrium formula degenerates.
    """

    n: int
    slot_lengths: SlotLengths
    initial_ages: tuple[float, ...]

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an int, got {self.n!r}")
        object.__setattr__(self, "initial_ages", tuple(map(float, self.initial_ages)))
        if self.n < 2:
            raise ValueError(f"need at least 2 contending nodes, got n = {self.n}")
        _check_entries("initial_ages", self.initial_ages, self.n)
        _check_ages(self.initial_ages, self.slot_lengths.sigma_success, "initial_ages[{i}] = {age}")


@_record
class AgePmf:
    """Discrete distribution of a node's age at the end of one slot.

    Support values are distinct (coinciding outcome ages are merged on
    construction by the producing operation) and probabilities sum to one.
    """

    support: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        values = [v for v, _ in self.support]
        if len(set(values)) != len(values):
            raise ValueError("support values must be distinct")
        for value, prob in self.support:
            if not math.isfinite(value):
                raise ValueError(f"age {value} is not finite")
            if prob < 0.0:
                raise ValueError(f"probability {prob} at age {value} is negative")
        mass = math.fsum(p for _, p in self.support)
        # Written so that a nan mass (from a nan probability) is refused too.
        if not abs(mass - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {mass}, expected 1 within 1e-12")

    def total_mass(self) -> float:
        return math.fsum(p for _, p in self.support)

    def mean(self) -> float:
        return math.fsum(v * p for v, p in self.support)

    def as_dict(self) -> dict[float, float]:
        return dict(self.support)


def _check_entries(name: str, entries: Sized, n: int) -> None:
    if len(entries) != n:
        raise ValueError(f"{name} has {len(entries)} entries for n = {n} nodes")


def _check_ages(ages: Iterable[float], sigma_success: float, name: str) -> None:
    """Refuse an age that is not finite or is below sigma_success.

    A delivered update is already sigma_success old when it arrives, so no
    age can be smaller. ``name`` is formatted with the refused age's
    position ``i`` and value ``age`` only when one is refused.
    """
    for i, age in enumerate(ages):
        if not sigma_success <= age < math.inf:  # also refuses nan
            label = name.format(i=i, age=age)
            if not math.isfinite(age):
                raise ValueError(f"{label} is not finite")
            raise ValueError(f"{label} violates age >= sigma_success ({sigma_success})")


def _check_node_index(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise IndexError(f"node index {i} out of range for {n} nodes")


def _times(c: tuple[float, float, float], tau: float) -> tuple[float, float, float]:
    """Multiply a count polynomial truncated at x^2 by ``(1 - tau) + tau x``."""
    return (c[0] * (1.0 - tau), c[1] * (1.0 - tau) + c[0] * tau, c[2] + c[1] * tau)


def others_transmitting(taus: Sequence[float]) -> list[tuple[float, float, float]]:
    """For every node i, the probabilities that 0, 1 and >= 2 *other* nodes transmit.

    Node i's entry is the product of ``(1 - tau_j) + tau_j x`` over j != i,
    with all mass from x^2 up kept in the x^2 term. Prefix and suffix
    products give every entry in O(n), with no division and no subtraction
    of probabilities, so tiny and near-one taus keep their relative
    precision; the algebra also holds for raw values outside [0, 1].
    """
    one = (1.0, 0.0, 0.0)
    prefix = itertools.accumulate(taus[:-1], _times, initial=one)
    suffix = list(itertools.accumulate(reversed(taus[1:]), _times, initial=one))[::-1]
    return [
        (p0 * s0, p0 * s1 + p1 * s0, p2 * (s0 + s1) + p1 * s1 + s2)
        for (p0, p1, p2), (s0, s1, s2) in zip(prefix, suffix)
    ]


def _slot_outcomes(i: int, profile: StrategyProfile) -> tuple[float, float, float, float]:
    """Node i's (idle, own success, busy seen, collision) probabilities."""
    _check_node_index(i, len(profile))
    tau = profile[i]
    q0, q1, q2 = profile._others[i]
    silent = 1.0 - tau
    return silent * q0, tau * q0, silent * q1, silent * q2 + tau * (q1 + q2)


def idle_probability(profile: StrategyProfile) -> float:
    """Probability that no node transmits in the slot."""
    return _slot_outcomes(0, profile)[0]


def success_probability_of(i: int, profile: StrategyProfile) -> float:
    """Probability that node i is the slot's only transmitter."""
    return _slot_outcomes(i, profile)[1]


def total_success_probability(profile: StrategyProfile) -> float:
    """Probability that the slot carries exactly one transmission."""
    _, own, busy, _ = _slot_outcomes(0, profile)
    return own + busy


def busy_seen_probability(i: int, profile: StrategyProfile) -> float:
    """Probability that node i stays silent while exactly one other node transmits."""
    return _slot_outcomes(i, profile)[2]


def collision_probability(profile: StrategyProfile) -> float:
    """Probability that two or more nodes transmit in the slot."""
    return _slot_outcomes(0, profile)[3]


def _outcome_ages(lengths: SlotLengths, age: float) -> tuple[tuple[float, ...], ...]:
    """A node's end-of-slot age, indexed ``[transmits][min(others, 2)]``.

    `age` is its age at the start of the slot and `others` the number of
    other nodes that transmit. A lone transmitter's update is delivered, so
    its age resets to sigma_success; every other outcome adds the slot's
    length to `age`. A node's pure payoff is minus its entry.
    """
    idle, success, collision = lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision
    return (
        (age + idle, age + success, age + collision),
        (success, age + collision, age + collision),
    )


def age_pmf(
    i: int, age_before: float, profile: StrategyProfile, slot_lengths: SlotLengths
) -> AgePmf:
    """Distribution of node i's age at the end of the slot, given its age at the start.

    Each cell of :func:`_outcome_ages` carries the mass of node i's action
    times that of its count of other transmitters. Outcome ages that
    coincide (e.g. collision and busy when sigma_collision == sigma_success)
    are merged into a single support point; zero-probability outcomes are
    dropped.
    """
    _check_ages((age_before,), slot_lengths.sigma_success, "age_before = {age}")
    _check_node_index(i, len(profile))
    tau = profile[i]
    others = profile._others[i]
    # The kernel's rounding drift grows with n (about 1e-12 at n = 1e5 on
    # near-equal taus); rescaling by the row's mass removes its common part.
    mass = math.fsum(others)
    merged: dict[float, float] = {}
    for ages, own in zip(_outcome_ages(slot_lengths, age_before), (1.0 - tau, tau)):
        for value, q in zip(ages, others):
            merged[value] = merged.get(value, 0.0) + own * (q / mass)
    support = tuple(sorted((v, p) for v, p in merged.items() if p != 0.0))
    return AgePmf(support)


def expected_age_after(
    i: int, age_before: float, profile: StrategyProfile, slot_lengths: SlotLengths
) -> float:
    """Expected age of node i's update at the end of the slot: the mean of :func:`age_pmf`."""
    return age_pmf(i, age_before, profile, slot_lengths).mean()


def mixed_payoff(i: int, game: GameInstance, profile: StrategyProfile) -> float:
    """Node i's payoff under a mixed profile: minus its expected end-of-slot age."""
    _check_entries("profile", profile, game.n)
    return -expected_age_after(i, game.initial_ages[i], profile, game.slot_lengths)


def pure_payoff(i: int, game: GameInstance, actions: Sequence[Action]) -> float:
    """Node i's payoff when every node plays a pure transmit/idle action."""
    _check_entries("actions", actions, game.n)
    for k, action in enumerate(actions):
        _check_action(f"actions[{k}]", action)
    _check_node_index(i, game.n)
    transmits = actions[i] is Action.TRANSMIT
    others = sum(1 for a in actions if a is Action.TRANSMIT) - transmits
    return -_outcome_ages(game.slot_lengths, game.initial_ages[i])[transmits][min(others, 2)]
