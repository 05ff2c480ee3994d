"""Scenario file loading and validation."""

import json
import tracemalloc

import pytest

from aoi_csma_game import (
    GameInstance,
    ScenarioError,
    SlotLengths,
    StrategyProfile,
    SweepSpec,
    load_scenario,
    parse_scenario,
)

VALID = {
    "n": 3,
    "sigma_idle": 0.01,
    "sigma_success": 1.01,
    "sigma_collision": 2.02,
    "initial_ages": [
        {"value": 2, "unit": "sigma_s"},
        {"value": 3, "unit": "sigma_s"},
        3.03,
    ],
    "seed": 42,
    "num_slots": 1000,
    "sweep": {
        "node": 3,
        "from": {"value": 3, "unit": "sigma_s"},
        "to": {"value": 4, "unit": "sigma_s"},
        "steps": 5,
    },
    "taus": [0.5, 0.25, 0.75],
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def test_load_valid_scenario(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, VALID))
    lengths = SlotLengths(0.01, 1.01, 2.02)
    assert scenario.game == GameInstance(3, lengths, (2 * 1.01, 3 * 1.01, 3.03))
    assert scenario.seed == 42
    assert scenario.num_slots == 1000
    assert scenario.sweep == SweepSpec(node=3, start=3 * 1.01, stop=4 * 1.01, steps=5)
    assert scenario.profile == StrategyProfile((0.5, 0.25, 0.75))


def test_sweep_values_are_inclusive_linear_grid(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, VALID))
    values = tuple(scenario.sweep.values())
    assert len(values) == 5
    assert values[0] == pytest.approx(3 * 1.01, abs=1e-12)
    assert values[-1] == pytest.approx(4 * 1.01, abs=1e-12)
    steps = [b - a for a, b in zip(values, values[1:])]
    assert all(s == pytest.approx(steps[0], rel=1e-12) for s in steps)


def test_round_trip_without_optional_blocks(tmp_path):
    data = {k: v for k, v in VALID.items() if k not in ("sweep", "taus")}
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.sweep is None
    assert scenario.profile is None


def test_missing_field_is_named(tmp_path):
    data = {k: v for k, v in VALID.items() if k != "sigma_success"}
    with pytest.raises(ScenarioError, match="sigma_success"):
        load_scenario(write_scenario(tmp_path, data))


def test_unknown_field_rejected(tmp_path):
    data = dict(VALID, typo_field=1)
    with pytest.raises(ScenarioError, match="typo_field"):
        load_scenario(write_scenario(tmp_path, data))


def test_wrong_type_is_reported(tmp_path):
    data = dict(VALID, n="three")
    with pytest.raises(ScenarioError, match="'n' must be int"):
        load_scenario(write_scenario(tmp_path, data))


@pytest.mark.parametrize("value", ["1.01", True, None])
def test_slot_length_must_be_a_number(value):
    message = f"field 'sigma_success' must be a number, got {value!r}"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(dict(VALID, sigma_success=value))


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"sigma_collision": 10**400}, "field 'sigma_collision'"),
        (
            {"initial_ages": [{"value": 10**400, "unit": "sigma_s"}, 3.03, 3.03]},
            r"initial_ages\[0\]\.value",
        ),
        ({"initial_ages": [3.03, 10**400, 3.03]}, r"initial_ages\[1\]"),
        ({"sweep": dict(VALID["sweep"], to=10**400)}, "sweep.to"),
        ({"taus": [0.5, 10**400, 0.5]}, r"taus\[1\]"),
    ],
    ids=["sigma_collision", "age-value", "age", "sweep-to", "tau"],
)
def test_integer_too_large_for_a_float_is_named(overrides, field):
    with pytest.raises(ScenarioError, match=f"^{field} is too large to convert to a float$"):
        parse_scenario(dict(VALID, **overrides))


def test_age_below_success_length_names_invariant(tmp_path):
    data = dict(VALID, initial_ages=[0.5, 3.03, 3.03])
    with pytest.raises(ScenarioError, match="sigma_success"):
        load_scenario(write_scenario(tmp_path, data))


def test_age_count_mismatch(tmp_path):
    data = dict(VALID, initial_ages=[3.03, 3.03])
    with pytest.raises(ScenarioError, match="entries for n"):
        load_scenario(write_scenario(tmp_path, data))


def test_bad_unit_rejected(tmp_path):
    data = dict(VALID, initial_ages=[{"value": 2, "unit": "seconds"}, 3.03, 3.03])
    with pytest.raises(ScenarioError, match="sigma_s"):
        load_scenario(write_scenario(tmp_path, data))


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"initial_ages": [{"value": 2}, 3.03, 3.03]},
            r"initial_ages\[0\] must have exactly the keys 'value' and 'unit', got \['value'\]",
        ),
        (
            {"initial_ages": [{"value": 2, "unit": "sigma_s", "scale": 1}, 3.03, 3.03]},
            r"initial_ages\[0\] must have exactly the keys 'value' and 'unit', "
            r"got \['scale', 'unit', 'value'\]",
        ),
        (
            {"initial_ages": ["3.03", 3.03, 3.03]},
            r"initial_ages\[0\] must be a number or a value/unit pair, got '3.03'",
        ),
        ({"sweep": [3, 3.03, 4.04, 5]}, "sweep must be an object"),
        ({"sweep": dict(VALID["sweep"], step=2)}, r"unknown sweep fields: \['step'\]"),
        (
            {"sweep": {k: v for k, v in VALID["sweep"].items() if k != "from"}},
            "sweep requires both 'from' and 'to'",
        ),
        (
            {"sweep": {k: v for k, v in VALID["sweep"].items() if k != "to"}},
            "sweep requires both 'from' and 'to'",
        ),
    ],
    ids=["unit-missing", "extra-key", "string", "sweep-list", "sweep-field", "no-from", "no-to"],
)
def test_malformed_durations_and_sweeps_are_named(overrides, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        parse_scenario(dict(VALID, **overrides))


@pytest.mark.parametrize(
    "document, kind", [([VALID], "list"), ("scenario", "str"), (None, "NoneType")]
)
def test_a_document_that_is_not_an_object_is_refused(document, kind):
    with pytest.raises(ScenarioError, match=f"^scenario must be a JSON object, got {kind}$"):
        parse_scenario(document)


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n": 3,\n  "sigma_idle": ,\n}\n')
    with pytest.raises(ScenarioError, match=r"broken\.json:3:\d+"):
        load_scenario(path)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_sweep_node_out_of_range(tmp_path):
    data = dict(VALID, sweep=dict(VALID["sweep"], node=4))
    with pytest.raises(ScenarioError, match=r"sweep\.node"):
        load_scenario(write_scenario(tmp_path, data))


def test_sweep_needs_at_least_two_steps(tmp_path):
    data = dict(VALID, sweep=dict(VALID["sweep"], steps=1))
    with pytest.raises(ScenarioError, match="steps"):
        load_scenario(write_scenario(tmp_path, data))


def test_sweep_steps_are_capped_where_indices_stay_exact_floats():
    scenario = parse_scenario(dict(VALID, sweep=dict(VALID["sweep"], steps=2**53)))
    assert next(scenario.sweep.values()) == 3 * 1.01
    with pytest.raises(ScenarioError, match="'steps' must be <= 9007199254740992"):
        parse_scenario(dict(VALID, sweep=dict(VALID["sweep"], steps=2**53 + 1)))


def test_sweep_range_below_success_length(tmp_path):
    data = dict(VALID, sweep=dict(VALID["sweep"], **{"from": 0.5}))
    with pytest.raises(ScenarioError, match="sweep value"):
        load_scenario(write_scenario(tmp_path, data))


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"to": float("inf")}, r"sweep value nan \(point 0\) is not finite"),
        ({"from": float("nan")}, r"sweep value nan \(point 0\) is not finite"),
        ({"to": 0.5}, r"sweep value 0\.5 \(point 4\) violates age >= sigma_success"),
    ],
    ids=["to-infinity", "from-nan", "descending-below"],
)
def test_sweep_bounds_are_checked_at_both_endpoints(tmp_path, bounds, message):
    # json writes the literals Infinity and NaN, which json.loads accepts.
    data = dict(VALID, sweep=dict(VALID["sweep"], **bounds))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_scenario(tmp_path, data))


def test_sweep_grid_is_not_held_in_memory_at_load(tmp_path):
    path = write_scenario(tmp_path, dict(VALID, sweep=dict(VALID["sweep"], steps=10**6)))
    tracemalloc.start()
    try:
        load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A tuple of the 10**6 grid points alone would take 32 MB.
    assert peak < 256 * 1024


def test_bad_taus_rejected(tmp_path):
    data = dict(VALID, taus=[0.5, 0.5, 1.5])
    with pytest.raises(ScenarioError, match=r"taus\[2\]"):
        load_scenario(write_scenario(tmp_path, data))
    data = dict(VALID, taus=[0.5, 0.5])
    with pytest.raises(ScenarioError, match="list of 3"):
        load_scenario(write_scenario(tmp_path, data))


def test_single_node_scenario_rejected(tmp_path):
    data = dict(VALID, n=1, initial_ages=[3.03], taus=[0.5])
    data.pop("sweep")
    with pytest.raises(ScenarioError, match="at least 2"):
        load_scenario(write_scenario(tmp_path, data))


def test_num_slots_must_be_positive(tmp_path):
    data = dict(VALID, num_slots=0)
    with pytest.raises(ScenarioError, match="num_slots"):
        load_scenario(write_scenario(tmp_path, data))


def test_negative_seed_is_named(tmp_path):
    data = dict(VALID, seed=-5)
    with pytest.raises(ScenarioError, match="field 'seed' must be >= 0, got -5"):
        load_scenario(write_scenario(tmp_path, data))
