"""The package's frozen value types behave like frozen dataclasses.

Each type is checked against its ``dataclasses`` twin in helpers.py, both
built from the same hypothesis-drawn field values: repr up to the class
name, equality and inequality, hashing, pickling, refused assignment and
deletion, keyword construction, defaults, and a TypeError on missing,
extra or repeated arguments.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_csma_game import (
    DominanceReport,
    GameInstance,
    MsneResult,
    PureNashSet,
    Scenario,
    SimStats,
    SlotLengths,
    StrategyProfile,
    SweepSpec,
)
from aoi_csma_game.reference import ReferenceRow
from helpers import RECORD_TWINS

positive = st.floats(1e-3, 1e3)
probability = st.floats(0.0, 1.0)
number = st.floats(allow_nan=False)
small_int = st.integers(0, 10**6)


def tuples_of(elements, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=4).map(tuple)


@st.composite
def slot_lengths_args(draw):
    sigma_idle = draw(positive)
    return sigma_idle, sigma_idle + draw(positive), draw(positive)


@st.composite
def game_args(draw):
    lengths = SlotLengths(*draw(slot_lengths_args()))
    n = draw(st.integers(2, 4))
    factors = draw(st.lists(st.floats(1.0, 9.0), min_size=n, max_size=n))
    ages = tuple(lengths.sigma_success * f for f in factors)
    return lengths, ages


@st.composite
def scenario_args(draw):
    game = GameInstance(*draw(game_args()))
    sweep = draw(st.none() | st.builds(SweepSpec, small_int, number, number, small_int))
    profile = draw(st.none() | tuples_of(probability, min_size=1).map(StrategyProfile))
    return game, draw(small_int), draw(small_int), sweep, profile


@st.composite
def msne_result_args(draw):
    raw = draw(tuples_of(number) | tuples_of(probability, min_size=1))
    is_profile = raw and all(0.0 <= tau <= 1.0 for tau in raw)
    profile = StrategyProfile(raw) if is_profile and draw(st.booleans()) else None
    return raw, draw(tuples_of(st.booleans())), draw(tuples_of(number)), profile


@st.composite
def sim_stats_args(draw):
    idle, collision = draw(small_int), draw(small_int)
    return idle, collision, draw(tuples_of(small_int)), draw(tuples_of(number))


# Positional arguments of one valid instance of each type.
ARGS = {
    SlotLengths: slot_lengths_args(),
    StrategyProfile: st.tuples(tuples_of(probability, min_size=1)),
    GameInstance: game_args(),
    DominanceReport: st.tuples(st.booleans(), st.booleans()),
    PureNashSet: st.tuples(
        small_int,
        tuples_of(st.tuples(small_int, st.frozensets(small_int), tuples_of(small_int))),
    ),
    MsneResult: msne_result_args(),
    SweepSpec: st.tuples(small_int, number, number, small_int),
    Scenario: scenario_args(),
    ReferenceRow: st.tuples(
        st.text(max_size=4),
        number,
        tuples_of(number),
        tuples_of(number),
        st.frozensets(st.text("TI", max_size=3)),
        st.booleans(),
    ),
    SimStats: sim_stats_args(),
}

TYPES = pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)


def field_names(cls):
    return [f.name for f in dataclasses.fields(RECORD_TWINS[cls])]


def required_count(cls):
    return sum(f.default is dataclasses.MISSING for f in dataclasses.fields(RECORD_TWINS[cls]))


def refusal(action):
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_every_value_type_has_a_twin():
    assert set(ARGS) == set(RECORD_TWINS)


@TYPES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_methods_match_the_dataclass_twin(cls, data):
    twin_cls = RECORD_TWINS[cls]
    args, other_args = data.draw(ARGS[cls]), data.draw(ARGS[cls])
    record, other = cls(*args), cls(*other_args)
    twin, other_twin = twin_cls(*args), twin_cls(*other_args)

    assert repr(record).removeprefix(cls.__name__) == repr(twin).removeprefix(
        twin_cls.__name__
    )
    assert record == cls(*args)
    assert (record == other) == (twin == other_twin)
    assert (record != other) == (twin != other_twin)
    assert hash(record) == hash(twin)
    assert record != twin and not record == twin
    assert pickle.loads(pickle.dumps(record)) == record
    for name in field_names(cls) + ["_unknown"]:
        assert refusal(lambda: setattr(record, name, None)) == refusal(
            lambda: setattr(twin, name, None)
        )
        assert refusal(lambda: delattr(record, name)) == refusal(lambda: delattr(twin, name))
    assert record == cls(*args)  # the refused changes left it as built


@TYPES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_record_takes_fields_by_keyword(cls, data):
    args = data.draw(ARGS[cls])
    names = field_names(cls)
    record = cls(*args)
    assert cls(**dict(zip(names, args))) == record
    assert cls(args[0], **dict(zip(names[1:], args[1:]))) == record
    assert cls(**dict(reversed(list(zip(names, args))))) == record


@TYPES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_record_fills_defaults_like_the_twin(cls, data):
    args = data.draw(ARGS[cls])[: required_count(cls)]
    record, twin = cls(*args), RECORD_TWINS[cls](*args)
    for name in field_names(cls):
        assert getattr(record, name) == getattr(twin, name)


@TYPES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_refuses_missing_extra_and_repeated_arguments(cls, data):
    args = data.draw(ARGS[cls])
    names = field_names(cls)
    calls = [
        lambda make: make(*args[: required_count(cls) - 1]),
        lambda make: make(*args, args[0]),
        lambda make: make(*args, _unknown=1),
        lambda make: make(*args[: required_count(cls)], **{names[0]: args[0]}),
    ]
    for call in calls:
        for make in (cls, RECORD_TWINS[cls]):
            with pytest.raises(TypeError):
                call(make)
