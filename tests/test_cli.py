"""Command-line behavior: exit codes, report contents, and CSV schemas."""

import hashlib
import json
import math
import os
import sys
import tracemalloc
import warnings

import pytest

from aoi_csma_game import (
    StrategyProfile, cli, csv_cells, equilibrium, simulate, simulate_age_trajectory,
)
from aoi_csma_game import game as game_module
from aoi_csma_game.reference import REFERENCE_ROWS, ReferenceRow
from aoi_csma_game.scenario import load_scenario
from helpers import closed_form_error_bounds, closed_form_numerators


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def scenario_dict(**overrides):
    base = {
        "n": 3,
        "sigma_idle": 0.01,
        "sigma_success": 1.01,
        "sigma_collision": 2.02,
        "initial_ages": [
            {"value": 2, "unit": "sigma_s"},
            {"value": 3, "unit": "sigma_s"},
            {"value": 3, "unit": "sigma_s"},
        ],
        "seed": 42,
        "num_slots": 5000,
    }
    base.update(overrides)
    return base


ROW_III = scenario_dict(
    initial_ages=[
        {"value": 1, "unit": "sigma_s"},
        {"value": 2, "unit": "sigma_s"},
        {"value": 3, "unit": "sigma_s"},
    ]
)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_equilibria_and_feasibility(tmp_path, capsys):
    code = cli.main(["analyze", "--scenario", write(tmp_path, ROW_III)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regime: long_collision" in out
    assert "0.6008, 0.3355, -0.9804" in out
    assert "interior condition per node: yes, yes, no" in out
    assert "feasible: no" in out
    assert "pure Nash equilibria (4): IIT, ITI, TII, TTT" in out


def test_zero_numerator_is_outside_the_interior(tmp_path, capsys):
    # Every length and age is dyadic, so node 3's closed-form numerator
    # 1.5 - 0.5 + 2 * 4 - 9 is 0 exactly, in floats and in the exact oracle,
    # and its raw tau is -0.0. The interior condition is strict, so simulate
    # refuses the closed form rather than run a tau of -0.
    data = scenario_dict(
        sigma_idle=0.5, sigma_success=1.5, sigma_collision=3.0, initial_ages=[2, 3, 4]
    )
    path = write(tmp_path, data)
    assert closed_form_numerators(load_scenario(path).game) == [-4, -2, 0]
    assert cli.main(["analyze", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "raw taus: 0.5714, 0.4000, -0.0000" in out
    assert "interior condition per node: yes, yes, no" in out
    assert "feasible: no" in out
    assert cli.main(["simulate", "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "taus" in captured.err


def test_printed_interior_flags_are_the_exact_numerator_signs(tmp_path, capsys):
    # In exact arithmetic on these doubles node 3's numerator is -4.35e-16.
    # Formed as (n - 1) a_i - n mean_age, two products near 8 cancelled,
    # it rounded to 0.0 and the flag printed "no".
    data = scenario_dict(initial_ages=[1.5150000000000001, 3.0300000000000002, 3.545])
    path = write(tmp_path, data)
    numerators = closed_form_numerators(load_scenario(path).game)
    assert -4.36e-16 < numerators[2] < -4.35e-16
    exact = ", ".join("yes" if numerator < 0 else "no" for numerator in numerators)
    assert exact == "yes, yes, yes"
    assert cli.main(["analyze", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert f"interior condition per node: {exact}\n" in out
    assert "feasible: yes" in out


def test_flag_inside_the_rounding_band_prints_the_computed_sign(tmp_path, capsys):
    # Node 3's exact numerator, -2.13e-16, is within its rounding bound and
    # computes as 0.0, so the interior node prints a raw tau of -0.0000 and
    # the flag "no".
    data = scenario_dict(initial_ages=[1.4304652777486766, 2.8808811370123335, 3.31134641476101])
    path = write(tmp_path, data)
    game = load_scenario(path).game
    assert 0 < -closed_form_numerators(game)[2] <= closed_form_error_bounds(game)[2][0]
    assert cli.main(["analyze", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert (
        "mixed equilibrium (closed form):\n"
        "  raw taus: 0.6506, 0.2988, -0.0000\n"
        "  interior condition per node: yes, yes, no\n"
        "  feasible: no\n"
        "  indifference residuals: 1.110e-16, -3.331e-16, -1.110e-16\n"
    ) in out


# Past the age bound of msne_closed_form every numerator is negative, yet
# every raw tau rounds to 1 + 4 ulp: no profile, so not feasible.
PAST_BOUND = scenario_dict(
    n=10,
    sigma_idle=0.2616532086612471,
    sigma_success=0.4956368098890145,
    sigma_collision=math.nextafter(0.4956368098890145, 1.0),
    initial_ages=[0.4956368098890145] * 10,
)


def test_analyze_past_the_age_bound_reports_infeasible(tmp_path, capsys):
    assert cli.main(["analyze", "--scenario", write(tmp_path, PAST_BOUND)]) == 0
    out = capsys.readouterr().out
    assert "  interior condition per node: " + ", ".join(["yes"] * 10) + "\n" in out
    assert "\n  feasible: no\n" in out


def test_simulate_past_the_age_bound_refuses_the_scenario(tmp_path, capsys):
    assert cli.main(["simulate", "--scenario", write(tmp_path, PAST_BOUND)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: closed-form equilibrium is infeasible for this scenario; "
        "provide an explicit 'taus' list to simulate\n"
    )


def test_analyze_short_collision_scenario_reports_dominance(tmp_path, capsys):
    data = scenario_dict(sigma_collision=0.101)
    code = cli.main(["analyze", "--scenario", write(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regime: short_collision" in out
    assert "transmit: weakly dominant=yes" in out


def test_analyze_malformed_json_exits_1_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,,}\n')
    code = cli.main(["analyze", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad.json:1:" in err
    assert "invalid JSON" in err


def test_scenario_that_is_not_utf8_exits_1_naming_the_file(tmp_path):
    import subprocess

    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    result = subprocess.run(
        [sys.executable, "-m", "aoi_csma_game", "analyze", "--scenario", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {path}: ")
    assert result.stderr.count("\n") == 1


def test_scenario_is_decoded_as_utf8_whatever_the_locale(tmp_path):
    # An EncodingWarning marks text read in the locale's encoding.
    import subprocess

    argv = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    result = subprocess.run(
        [sys.executable, *argv, "-m", "aoi_csma_game", "analyze", "--scenario",
         write(tmp_path, scenario_dict())],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_analyze_invariant_violation_exits_1_naming_invariant(tmp_path, capsys):
    data = scenario_dict(initial_ages=[0.5, 3.03, 3.03])
    code = cli.main(["analyze", "--scenario", write(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "sigma_success" in err


def test_analyze_refuses_large_game_fast(tmp_path, capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(cli, "msne_closed_form", solved.append)
    data = scenario_dict(n=21, initial_ages=[3.03] * 21)
    code = cli.main(["analyze", "--scenario", write(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: exhaustive enumeration capped at 20 nodes" in err
    # Refused before the O(n) closed form is evaluated.
    assert solved == []


@pytest.mark.parametrize(
    "data",
    [
        scenario_dict(n=21, initial_ages=[3.03] * 21),
        # The closed-form denominator vanishes for node 1.
        scenario_dict(
            n=2, sigma_idle=0.25, sigma_success=1.0, sigma_collision=0.5,
            initial_ages=[1.25, 1.0],
        ),
    ],
    ids=["enumeration_cap", "singular"],
)
def test_refused_analyze_prints_no_partial_report(tmp_path, capsys, data):
    code = cli.main(["analyze", "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# reference table


def test_table1_prints_all_rows(capsys):
    code = cli.main(["table1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2.4877, -1.2782, 0.3549" in out
    assert "-0.0055, -0.0055, -0.0055" in out
    assert "0.6008, 0.3355, -0.9804" in out
    assert "0.6008, 0.3355, 0.3355" in out
    assert "0.6672, 0.5012, 0.0049" in out


def test_table1_self_check_passes(capsys):
    code = cli.main(["table1", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check: all reference rows match" in out


def test_table1_check_solves_each_reference_row_once(monkeypatch, capsys):
    calls = {"msne_closed_form": 0, "enumerate_pure_nash": 0}
    for name in calls:

        def counted(game, name=name, solve=getattr(cli, name)):
            calls[name] += 1
            return solve(game)

        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["table1", "--check"]) == 0
    assert calls == {"msne_closed_form": 5, "enumerate_pure_nash": 5}


@pytest.mark.parametrize(
    "field, value, err",
    [
        (
            "golden_taus",
            (0.1, 0.2, 0.3),
            "self-check: row I: tau_1 = 2.487725, expected 0.1000 within 5e-05\n"
            "self-check: row I: tau_2 = -1.278195, expected 0.2000 within 5e-05\n"
            "self-check: row I: tau_3 = 0.354862, expected 0.3000 within 5e-05\n",
        ),
        ("golden_feasible", True, "self-check: row I: feasible = False, expected True\n"),
        (
            "golden_pure_nash",
            frozenset({"TTT"}),
            "self-check: row I: pure Nash set ['ITT', 'TIT', 'TTI', 'TTT'], expected ['TTT']\n",
        ),
    ],
    ids=["golden_taus", "golden_feasible", "golden_pure_nash"],
)
def test_table1_self_check_detects_mismatch(monkeypatch, capsys, field, value, err):
    assert cli.main(["table1"]) == 0
    table = capsys.readouterr().out
    row = REFERENCE_ROWS[0]
    goldens = {name: getattr(row, name) for name in ReferenceRow.__match_args__}
    wrong = ReferenceRow(**{**goldens, field: value})
    monkeypatch.setattr(cli, "REFERENCE_ROWS", (wrong,) + REFERENCE_ROWS[1:])
    code = cli.main(["table1", "--check"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == table
    assert captured.err == err


# ---------------------------------------------------------------------------
# sweep


def sweep_scenario(steps=11):
    return scenario_dict(
        sweep={
            "node": 3,
            "from": {"value": 3, "unit": "sigma_s"},
            "to": {"value": 4, "unit": "sigma_s"},
            "steps": steps,
        }
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_sweep_csv_schema_and_endpoints(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--scenario", write(tmp_path, sweep_scenario()), "--out", str(out_path)]
    )
    assert code == 0
    header, rows = read_csv(out_path)
    assert header == [
        "swept_age", "tau_1", "tau_2", "tau_3", "feasible",
        "psucc_1", "psucc_2", "psucc_3",
    ]
    assert len(rows) == 11
    first, last = rows[0], rows[-1]
    assert float(first[0]) == pytest.approx(3 * 1.01, abs=1e-12)
    assert float(last[0]) == pytest.approx(4 * 1.01, abs=1e-12)
    # Endpoints agree with the bundled golden rows IV and V.
    for value, want in zip(first[1:4], (0.6008, 0.3355, 0.3355)):
        assert abs(float(value) - want) <= 5e-5
    for value, want in zip(last[1:4], (0.6672, 0.5012, 0.0049)):
        assert abs(float(value) - want) <= 5e-5
    assert all(row[4] == "true" for row in rows)
    # Full precision: at least 10 significant digits survive the format.
    assert len(first[1].replace("-", "").replace(".", "").lstrip("0")) >= 10


def test_sweep_success_probabilities_cross_monotonically(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert (
        cli.main(
            ["sweep", "--scenario", write(tmp_path, sweep_scenario()), "--out", str(out_path)]
        )
        == 0
    )
    _, rows = read_csv(out_path)
    psucc_1 = [float(r[5]) for r in rows]
    psucc_2 = [float(r[6]) for r in rows]
    psucc_3 = [float(r[7]) for r in rows]
    assert all(b > a for a, b in zip(psucc_1, psucc_1[1:]))
    assert all(b > a for a, b in zip(psucc_2, psucc_2[1:]))
    assert all(b < a for a, b in zip(psucc_3, psucc_3[1:]))


def test_sweep_to_stdout(tmp_path, capsys):
    code = cli.main(["sweep", "--scenario", write(tmp_path, sweep_scenario(steps=3))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("swept_age,tau_1")
    assert len(out.strip().splitlines()) == 4


def test_sweep_requires_sweep_block(tmp_path, capsys):
    code = cli.main(["sweep", "--scenario", write(tmp_path, scenario_dict())])
    err = capsys.readouterr().err
    assert code == 1
    assert "no sweep block" in err


def test_sweep_unwritable_out_exits_1(tmp_path, capsys):
    out_path = tmp_path / "missing" / "sweep.csv"
    code = cli.main(
        ["sweep", "--scenario", write(tmp_path, sweep_scenario()), "--out", str(out_path)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


def test_sweep_singular_point_gets_a_nan_row(tmp_path, capsys):
    # Node 1's closed-form denominator is 1.25 - age_2, so it vanishes mid-grid.
    data = {
        "n": 2,
        "sigma_idle": 0.25,
        "sigma_success": 1.0,
        "sigma_collision": 0.5,
        "initial_ages": [2.0, 1.0],
        "seed": 42,
        "num_slots": 5000,
        "sweep": {"node": 2, "from": 1.0, "to": 1.5, "steps": 3},
    }
    code = cli.main(["sweep", "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    header, *rows = out.splitlines()
    assert header == "swept_age,tau_1,tau_2,feasible,psucc_1,psucc_2"
    assert rows[1] == "1.25,nan,nan,false,nan,nan"
    # Short collisions: no row is a profile, so the taus are finite and
    # every psucc cell is nan.
    for row in (rows[0], rows[2]):
        cells = row.split(",")
        assert all(math.isfinite(float(c)) for c in cells[:3])
        assert cells[3:] == ["false", "nan", "nan"]


def test_sweep_writes_psucc_only_for_a_profile(tmp_path, capsys):
    """Row IV with node 1 swept past the feasible region: the last raw taus
    are no profile, so the row has no success probabilities."""
    data = scenario_dict(
        initial_ages=[2.02, 3.03, 3.03],
        sweep={"node": 1, "from": 1.01, "to": 6.06, "steps": 6},
    )
    assert cli.main(["sweep", "--scenario", write(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["true"] * 5 + ["false"]
    assert rows[5] == "6.06,-0.980392156863,0.714689265537,0.714689265537,false,nan,nan,nan"
    assert sha256(out.encode()) == SWEEP_PAST_FEASIBLE_SHA256


@pytest.mark.parametrize("n, steps", [(3, 11), (40, 7)])
def test_sweep_runs_the_kernel_once_per_point(tmp_path, capsys, monkeypatch, n, steps):
    """psucc comes from the closed form's own kernel table, not a second pass."""
    kernel = game_module.others_transmitting
    calls = []

    def counted(taus):
        calls.append(len(taus))
        return kernel(taus)

    # Every module of the package that binds the kernel by name.
    for module in (game_module, equilibrium, cli):
        if hasattr(module, "others_transmitting"):
            monkeypatch.setattr(module, "others_transmitting", counted)
    data = sweep_scenario(steps=steps)
    data.update(n=n, initial_ages=[3.03] * n)
    assert cli.main(["sweep", "--scenario", write(tmp_path, data)]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == steps
    # nan exactly on the rows whose taus are no profile, in their psucc cells.
    for row in rows:
        assert row[n + 1] in ("true", "false")
        nan_cells = [k for k, cell in enumerate(row) if cell == "nan"]
        assert nan_cells == (list(range(n + 2, 2 * n + 2)) if row[n + 1] == "false" else [])
    assert calls == [n] * steps


def test_sweep_memory_does_not_grow_with_steps(tmp_path, capsys):
    out_path = str(tmp_path / "sweep.csv")
    # Warm up, so that one-off allocations on a first call are not traced.
    warm_up = write(tmp_path, sweep_scenario(steps=3))
    assert cli.main(["sweep", "--scenario", warm_up, "--out", out_path]) == 0
    path = write(tmp_path, sweep_scenario(steps=5000), name="long.json")
    tracemalloc.start()
    try:
        code = cli.main(["sweep", "--scenario", path, "--out", out_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.endswith("(5000 points)\n")
    # Holding the 5000 CSV lines before writing them peaks near 2 MB.
    assert peak < 1024 * 1024


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
@pytest.mark.parametrize(
    "bound", [{"to": float("inf")}, {"from": float("nan")}], ids=["to-infinity", "from-nan"]
)
def test_non_finite_sweep_bound_is_refused_at_load(tmp_path, capsys, command, bound):
    data = sweep_scenario()
    data["sweep"].update(bound)
    data["taus"] = [0.4, 0.3, 0.2]
    code = cli.main([command, "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith(": sweep value nan (point 0) is not finite\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_huge_sweep_steps_is_refused_at_load(tmp_path, capsys, command):
    # json reads 10**400 as an int that no float can hold.
    data = sweep_scenario(steps=10**400)
    data["taus"] = [0.4, 0.3, 0.2]
    code = cli.main([command, "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "field 'steps' must be <= 9007199254740992" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


HUGE_INT = "1" + "0" * 400  # json reads it as an int that no float can hold


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
@pytest.mark.parametrize(
    "literal, replacement",
    [
        ('"sigma_collision": 2.02', f'"sigma_collision": {HUGE_INT}'),
        ('"value": 2,', f'"value": {HUGE_INT},'),
        ('{"value": 2, "unit": "sigma_s"}', HUGE_INT),
        ('"to": {"value": 4, "unit": "sigma_s"}', f'"to": {HUGE_INT}'),
        ("0.2]", f"{HUGE_INT}]"),
        pytest.param(
            '"seed": 42',
            '"seed": ' + "7" * 5000,
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this interpreter has no int/str conversion digit limit",
            ),
        ),
    ],
    ids=["sigma_collision", "age-value", "age", "sweep-to", "tau", "seed-5000-digits"],
)
def test_huge_json_number_is_one_error_line_with_the_path(
    tmp_path, capsys, command, literal, replacement
):
    data = sweep_scenario()
    data["taus"] = [0.4, 0.3, 0.2]
    text = json.dumps(data)
    assert text.count(literal) == 1
    path = tmp_path / "scenario.json"
    path.write_text(text.replace(literal, replacement))
    code = cli.main([command, "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_deeply_nested_json_is_one_error_line_with_the_path(tmp_path, capsys):
    # json.loads raises RecursionError, which is not a ValueError.
    path = tmp_path / "scenario.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = cli.main(["analyze", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: JSON nests too deeply to parse\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_explicit_taus_certain_winner(tmp_path, capsys):
    data = scenario_dict(taus=[1.0, 0.0, 0.0], num_slots=500)
    code = cli.main(["simulate", "--scenario", write(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "profile source: explicit taus" in out
    assert "success=(500, 0, 0)" in out
    assert "idle=0" in out
    assert "all quantities within 3 standard errors: yes" in out


def test_simulate_all_idle_counts(tmp_path, capsys):
    data = scenario_dict(taus=[0.0, 0.0, 0.0], num_slots=250)
    code = cli.main(["simulate", "--scenario", write(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "idle=250" in out
    assert "all quantities within 3 standard errors: yes" in out


@pytest.mark.parametrize("slots", [250, 500, 1000, 2000])
@pytest.mark.parametrize("taus", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
def test_simulate_pure_profile_passes_its_own_verdict(tmp_path, capsys, taus, slots):
    # Every row is certain, so its band is 0 and only rounding separates the
    # analytic and empirical columns (4.44e-16 or 8.88e-16 on a mean age).
    data = scenario_dict(taus=taus, num_slots=slots)
    assert cli.main(["simulate", "--scenario", write(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert " no\n" not in out
    assert "all quantities within 3 standard errors: yes" in out


def test_simulate_uses_feasible_equilibrium_by_default(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--scenario", write(tmp_path, scenario_dict()), "--slots", "2000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profile source: closed-form mixed equilibrium" in out
    assert "slots: 2000" in out


def test_simulate_report_runs_the_kernel_a_fixed_number_of_times(tmp_path, capsys, monkeypatch):
    """The slot-count table is built once per profile, not once per reported row."""
    kernel = game_module.others_transmitting
    calls = []

    def counted(taus):
        calls.append(len(taus))
        return kernel(taus)

    monkeypatch.setattr(game_module, "others_transmitting", counted)
    per_n = []
    for n in (10, 40):
        calls.clear()
        data = scenario_dict(n=n, initial_ages=[3.03] * n, taus=[0.05] * n, num_slots=100)
        assert cli.main(["simulate", "--scenario", write(tmp_path, data)]) == 0
        per_n.append(len(calls))
    capsys.readouterr()
    assert per_n[0] >= 1
    assert per_n[0] == per_n[1]


@pytest.mark.parametrize(
    "command, extra, shown",
    [
        ("simulate", ["--slots", "10"], "profile source: closed-form mixed equilibrium"),
        ("analyze", [], "feasible: yes"),
    ],
    ids=["simulate", "analyze"],
)
def test_a_closed_form_profile_runs_the_kernel_once(
    tmp_path, capsys, monkeypatch, command, extra, shown
):
    """The closed form's residuals and the profile simulate runs share one
    kernel table, on Table I row IV without taus."""
    kernel = game_module.others_transmitting
    calls = []

    def counted(taus):
        calls.append(len(taus))
        return kernel(taus)

    for module in (game_module, equilibrium):
        monkeypatch.setattr(module, "others_transmitting", counted)
    path = write(tmp_path, scenario_dict())
    assert cli.main([command, "--scenario", path, *extra]) == 0
    assert shown in capsys.readouterr().out
    assert calls == [3]


@pytest.mark.parametrize(
    "command, sizes, passes",
    [("simulate", (40, 400), 1), ("sweep", (40, 400), 3), ("analyze", (2, 20), 1)],
)
def test_each_kernel_pass_takes_linear_work(tmp_path, capsys, monkeypatch, command, sizes, passes):
    """A kernel pass makes 2(n - 1) `_times` steps, n - 1 for the prefix
    products and n - 1 for the suffix ones: one pass for the closed-form
    profile simulate runs without taus, one per point of a 3-point sweep
    and one for analyze. The counter changes no byte of stdout."""
    times = game_module._times
    calls = []

    def counted(c, tau):
        calls.append(tau)
        return times(c, tau)

    for n in sizes:
        data = sweep_scenario(steps=3) if command == "sweep" else scenario_dict()
        data.update(n=n, initial_ages=[3.03] * n)
        argv = [command, "--scenario", write(tmp_path, data)]
        argv += ["--slots", "10"] if command == "simulate" else []
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(game_module, "_times", counted)
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == plain
        assert len(calls) == passes * 2 * (n - 1), n


def test_simulate_age_band_of_a_silent_node_does_not_depend_on_its_age(tmp_path, capsys):
    # A node that never transmits ages by one slot length whatever its age, so
    # its band is 3 SE of the slot length alone, at 3 sigma_s as at 1e9 sigma_s.
    bands = []
    for age in (3, 1e9):
        ages = [{"value": age, "unit": "sigma_s"}, 3.03, 3.03]
        data = scenario_dict(initial_ages=ages, taus=[0.0, 0.5, 0.5], seed=5, num_slots=100_000)
        assert cli.main(["simulate", "--scenario", write(tmp_path, data)]) == 0
        out = capsys.readouterr().out
        (row,) = [line for line in out.splitlines() if line.startswith("mean_age_1 ")]
        bands.append(row.split()[-2])
        assert out.endswith("all quantities within 3 standard errors: yes\n")
    assert bands[0] == bands[1]


HUGE_AGES = [1e200, 1e307, sys.float_info.max]


@pytest.mark.parametrize(
    "data",
    [
        *(
            scenario_dict(n=2, initial_ages=[age, age], taus=[0.5, 0.5], seed=0, num_slots=1000)
            for age in HUGE_AGES
        ),
        scenario_dict(
            sigma_collision=1e308,
            initial_ages=[1.01, 2.02, 3.03],
            taus=[0.3] * 3,
            seed=1,
            num_slots=100,
        ),
    ],
    ids=[*map(str, HUGE_AGES), "sigma_collision=1e+308"],
)
def test_simulate_reports_finite_bands_at_huge_ages(tmp_path, capsys, data):
    # Squaring the age deviations overflowed at 1e200, the restart mean's
    # age times the slot count at 1e307, and its total duration at 25
    # collisions of 1e308.
    assert cli.main(["simulate", "--scenario", write(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("mean_age_")]
    assert len(rows) == data["n"]
    for _, analytic, empirical, diff, band, within in rows:
        assert all(math.isfinite(float(cell)) for cell in (analytic, empirical, diff, band))
        assert float(band) > 0.0
        assert within == "yes"
    assert out.endswith("all quantities within 3 standard errors: yes\n")


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_ages_summing_past_the_largest_float_have_no_closed_form(tmp_path, capsys, command):
    """math.fsum of these ages overflows: analyze and simulate refuse the
    scenario, and sweep writes each point's nan row."""
    sweep = {"node": 1, "from": 1e308, "to": 1.5e308, "steps": 3}
    data = scenario_dict(initial_ages=[1e308] * 3, sweep=sweep)
    code = cli.main([command, "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    if command == "sweep":
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            f"{age},nan,nan,nan,false,nan,nan,nan" for age in ("1e+308", "1.25e+308", "1.5e+308")
        ]
    else:
        assert (code, out) == (1, "")
        assert err == (
            "error: the starting ages sum past the largest float; "
            "the closed form cannot be evaluated for this instance\n"
        )


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_an_age_far_above_the_mean_has_no_closed_form(tmp_path, capsys, command):
    """The ages sum to a finite double, but node 1's closed-form term
    9 * (1e308 - 1e307) overflows: analyze and simulate refuse the scenario,
    and sweep writes each point's nan row. Before, analyze printed a raw tau
    of nan and residuals of nan and exited 0."""
    sweep = {"node": 2, "from": 1.01, "to": 3.03, "steps": 3}
    data = scenario_dict(n=10, initial_ages=[1e308] + [1.01] * 9, sweep=sweep)
    code = cli.main([command, "--scenario", write(tmp_path, data)])
    out, err = capsys.readouterr()
    if command == "sweep":
        assert (code, err) == (0, "")
        nan_row = ",".join(["nan"] * 10 + ["false"] + ["nan"] * 10)
        assert out.splitlines()[1:] == [f"{age},{nan_row}" for age in ("1.01", "2.02", "3.03")]
    else:
        assert (code, out) == (1, "")
        assert err == (
            "error: a starting age lies too far above the mean age; "
            "the closed form cannot be evaluated for this instance\n"
        )


def test_simulate_out_refuses_an_age_a_slot_would_overflow(tmp_path, capsys):
    # A collision would age every node to inf, so the game is refused at load.
    data = scenario_dict(sigma_collision=1e308, initial_ages=[1e308] * 3, taus=[0.3] * 3)
    csv_path = tmp_path / "trajectory.csv"
    code = cli.main(["simulate", "--scenario", write(tmp_path, data), "--out", str(csv_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.endswith(
        ": initial_ages[0] = 1e+308 is too large: "
        "a slot of 1e+308 would age it past the largest float\n"
    )
    assert err.count("\n") == 1
    assert not csv_path.exists()


def test_simulate_out_refuses_a_clock_that_could_overflow(tmp_path, capsys):
    # 100 slots of up to 1e308 could run the clock past the largest float:
    # the run is refused before the file is created. Before, it exited 0 with
    # two RuntimeWarnings and 91 of the CSV's 101 rows held nan or inf. The
    # restart report on this scenario is finite and stays.
    data = scenario_dict(
        sigma_collision=1e308, initial_ages=[1.01, 2.02, 3.03], taus=[0.3] * 3, seed=1
    )
    csv_path = tmp_path / "trajectory.csv"
    argv = ["simulate", "--scenario", write(tmp_path, data), "--out", str(csv_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--slots", "100"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "error: 100 slots of up to 1e+308 could run the trajectory's "
        "clock or ages past the largest float\n"
    )
    assert not csv_path.exists()


def test_simulate_infeasible_without_taus_exits_1(tmp_path, capsys):
    code = cli.main(["simulate", "--scenario", write(tmp_path, ROW_III)])
    err = capsys.readouterr().err
    assert code == 1
    assert "taus" in err


@pytest.mark.parametrize(
    "seed, extra, message",
    [
        (-5, [], "field 'seed' must be >= 0, got -5"),
        (42, ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ],
)
def test_simulate_negative_seed_exits_1_naming_seed(tmp_path, capsys, seed, extra, message):
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2], seed=seed))
    out_path = tmp_path / "trajectory.csv"
    code = cli.main(["simulate", "--scenario", path, "--out", str(out_path), *extra])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith(message + "\n")
    assert not out_path.exists()


@pytest.mark.parametrize("slots", [0, -3])
def test_simulate_slots_below_one_exits_1(tmp_path, capsys, slots):
    path = write(tmp_path, scenario_dict())
    out_path = tmp_path / "trajectory.csv"
    code = cli.main(
        ["simulate", "--scenario", path, "--slots", str(slots), "--out", str(out_path)]
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: num_slots must be at least 1, got {slots}\n"
    assert not out_path.exists()


def test_simulate_refuses_slots_past_the_success_counters(tmp_path):
    # In a fresh interpreter with a timeout, so that a run that counts
    # without end fails instead of hanging the suite.
    import subprocess

    path = tmp_path / "scenario.json"
    text = json.dumps(scenario_dict(taus=[0.4, 0.3, 0.2]))
    path.write_text(text.replace('"num_slots": 5000', '"num_slots": 1' + "0" * 400))
    out_path = tmp_path / "trajectory.csv"
    argv = ["simulate", "--scenario", str(path), "--out", str(out_path)]
    script = f"""
import contextlib, io
from aoi_csma_game import cli
for extra in ([], ["--slots", str(2**63)], ["--slots", "1" + "0" * 30]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main({argv!r} + extra) == 1, extra
    assert out.getvalue() == "", extra
"""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root), timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, ""), result.stderr
    assert result.stderr == "error: num_slots must be at most 9223372036854775807\n" * 3
    assert not out_path.exists()


# Slot lengths of about 1e-6 put times and ages below 1e-4, and a first age of
# 2e11 stays above 1e11: both are written by the `%` fallback, in rows whose
# last age (0.5 and up) is not.
TINY_SLOTS = {"sigma_idle": 1e-7, "sigma_success": 1e-6, "sigma_collision": 2e-6}


@pytest.mark.parametrize(
    "taus, overrides",
    [
        ((0.0, 1.0), {}),
        ((1.0, 0.0, 0.4), {}),
        ((0.0, 1.0) + (0.03,) * 38, {}),
        ((0.0, 0.5, 0.3, 0.0), dict(TINY_SLOTS, initial_ages=[2e11, 3e-6, 1e-6, 0.5])),
    ],
    ids=["n2", "n3", "n40", "fallback"],
)
def test_simulate_csv_slices_match_a_per_row_writer(
    tmp_path, capsys, monkeypatch, taus, overrides
):
    # Tables of at most 7 rows written in 10-cell slices: 3, 2, 2 and 1 rows
    # per slice for n = 2, 3, 4 and 40, so several blocks, short last slices
    # and one-row slices.
    n = len(taus)
    monkeypatch.setattr(simulate, "_BLOCK_LANES", 14 * n)
    monkeypatch.setattr(csv_cells, "_SLICE_CELLS", 10)
    ages = [1.01 * (1 + 0.37 * k) for k in range(n)]
    scenario = scenario_dict(n=n, initial_ages=ages, taus=list(taus), seed=11)
    path = write(tmp_path, {**scenario, **overrides})
    out_path = tmp_path / "trajectory.csv"
    argv = ["simulate", "--scenario", path, "--slots", "50", "--out", str(out_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("(51 breakpoints)\n")
    row = ",".join([cli._CELL] * (n + 1)) + "\n"
    expected = [",".join(["time"] + [f"age_{k + 1}" for k in range(n)]) + "\n"]
    blocks = simulate_age_trajectory(load_scenario(path).game, StrategyProfile(taus), 50, 11)
    for block in blocks:
        expected += [row % tuple(cells) for cells in block.tolist()]
    assert out_path.read_text() == "".join(expected)


@pytest.mark.parametrize("chunk", ["7n", "default"])
@pytest.mark.parametrize(
    "taus",
    [(0.3, 0.6), (0.4, 0.3, 0.2), (0.0, 1.0 / 40) + tuple(0.02 + 0.0005 * k for k in range(38))],
    ids=["n2", "n3", "n40"],
)
def test_simulate_out_reports_what_the_restart_spans_report(
    tmp_path, capsys, monkeypatch, taus, chunk
):
    # With --out the report's counts come from the trajectory's own pass;
    # without it, from one restart span per CPU. Two full blocks and a short
    # one give each of up to three spans its own, unaligned, part of the stream.
    n = len(taus)
    if chunk == "7n":
        monkeypatch.setattr(simulate, "_BLOCK_LANES", 7 * n)
    slots = 2 * simulate._block_slots(n) + 5
    ages = [1.01 * (1 + 0.37 * k) for k in range(n)]
    path = write(tmp_path, scenario_dict(n=n, initial_ages=ages, taus=list(taus), seed=5))
    out_path = tmp_path / "trajectory.csv"
    argv = ["simulate", "--scenario", path, "--slots", str(slots)]
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    report, last = capsys.readouterr().out[:-1].rsplit("\n", 1)
    assert last == f"trajectory written to {out_path} ({slots + 1} breakpoints)"
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == report + "\n", cpus


def test_simulate_out_memory_does_not_grow_with_slots(tmp_path, capsys, monkeypatch):
    # 1024-row tables (2048-slot blocks) written in 512-cell slices keep the
    # traced runs short; 2500 and 10000 slots are 3 and 10 tables.
    monkeypatch.setattr(simulate, "_BLOCK_LANES", 2048 * 3)
    monkeypatch.setattr(csv_cells, "_SLICE_CELLS", 512)
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2]))
    argv = ["simulate", "--scenario", path, "--out", str(tmp_path / "trajectory.csv")]
    # Warm up, so that one-off allocations on a first call are not traced.
    assert cli.main(argv + ["--slots", "100"]) == 0
    for slots in (2500, 10000):
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--slots", str(slots)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.endswith(f"({slots + 1} breakpoints)\n")
        # Both peak near 132 KiB (numpy 2.4), and the one-`%`-per-slice writer
        # read 244 KiB. Formatting a whole table at once peaks near 560 KiB.
        assert peak < 270 * 1024


def test_simulate_out_holds_one_trajectory_block_at_a_time(tmp_path, capsys, monkeypatch):
    # With 2048-row tables (4096-slot blocks) a table outweighs the 512-cell
    # slices, so a writer that keeps the last table alive while the next one
    # is built peaks higher once two full tables meet (5000 slots) than with
    # one (2500 slots).
    monkeypatch.setattr(simulate, "_BLOCK_LANES", 4096 * 3)
    monkeypatch.setattr(csv_cells, "_SLICE_CELLS", 512)
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2]))
    argv = ["simulate", "--scenario", path, "--out", str(tmp_path / "trajectory.csv")]
    assert cli.main(argv + ["--slots", "100"]) == 0
    peaks = []
    for slots in (2500, 5000):
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--slots", str(slots)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    # 223 and 224 KiB (numpy 2.4); holding two tables read 328 and 354 KiB.
    assert peaks[1] < peaks[0] + 8 * 1024


def test_simulate_reads_only_the_bit_generators(tmp_path, capsys, monkeypatch):
    # numpy keeps the bit generators' streams stable across releases, but not
    # the output of Generator methods (NEP 19), so no pinned byte may rest
    # on a Generator.
    import numpy as np

    def refused(*args, **kwargs):
        raise AssertionError("numpy.random.Generator constructed")

    monkeypatch.setattr(np.random, "Generator", refused)
    monkeypatch.setattr(np.random, "default_rng", refused)
    out_path = tmp_path / "trajectory.csv"
    path = write(tmp_path, sweep_scenario())
    argv = ["simulate", "--scenario", path, "--slots", "20000", "--seed", "7"]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith(report)
    assert sha256(out_path.read_bytes()) == TRAJECTORY_ROW_IV_SHA256


def test_simulate_seed_override_changes_output(tmp_path, capsys):
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2], num_slots=2000))
    cli.main(["simulate", "--scenario", path, "--seed", "1"])
    first = capsys.readouterr().out
    cli.main(["simulate", "--scenario", path, "--seed", "1"])
    replay = capsys.readouterr().out
    cli.main(["simulate", "--scenario", path, "--seed", "2"])
    other = capsys.readouterr().out
    assert first == replay
    assert "seed: 1" in first
    assert first != other


def test_simulate_trajectory_csv_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2], num_slots=2000))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    header, rows = read_csv(out_a)
    assert header == ["time", "age_1", "age_2", "age_3"]
    assert len(rows) == 2001
    assert rows[0][0] == "0"


def test_simulate_unwritable_out_exits_1(tmp_path, capsys):
    path = write(tmp_path, scenario_dict(taus=[0.4, 0.3, 0.2], num_slots=200))
    out_path = tmp_path / "missing" / "trajectory.csv"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_ctrl_c_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "load_scenario", interrupted)
    try:
        code = cli.main(["simulate", "--scenario", "scenario.json"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: interrupted\n")


def test_module_entry_point_runs(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "aoi_csma_game", "table1", "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "self-check" in result.stdout


def test_cli_import_leaves_out_costly_modules():
    # Every CLI start would pay for these: numpy about 0.1 s, dataclasses
    # (with the inspect it loads) 10-14 ms, and concurrent.futures (with
    # logging) several ms. Only simulate loads numpy, when it runs.
    import subprocess
    import sys

    costly = {"numpy", "dataclasses", "inspect", "concurrent.futures"}
    script = (
        "import sys; before = set(sys.modules); import aoi_csma_game.cli; "
        f"print(sorted({costly!r} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_loads_numpy_only_to_simulate(tmp_path, capsys):
    # Importing numpy takes about 0.1 s, which analyze, table1 and sweep
    # would pay on every start without using it.
    import subprocess
    import sys

    path = write(tmp_path, sweep_scenario())
    out_path = tmp_path / "trajectory.csv"
    simulate = ["simulate", "--scenario", path, "--slots", "20000", "--seed", "7"]
    simulate += ["--out", str(out_path)]
    script = f"""
import contextlib, io, sys
from aoi_csma_game import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in ({["analyze", "--scenario", path]!r}, ["table1", "--check"],
                 {["sweep", "--scenario", path]!r}):
        assert cli.main(argv) == 0, argv
print("numpy" in sys.modules)
assert cli.main({simulate!r}) == 0
print("numpy" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines(keepends=True)
    assert (lines[0], lines[-1]) == ("False\n", "True\n")
    assert sha256(out_path.read_bytes()) == TRAJECTORY_ROW_IV_SHA256
    assert cli.main(simulate) == 0
    assert capsys.readouterr().out == "".join(lines[1:-1])
    assert sha256(out_path.read_bytes()) == TRAJECTORY_ROW_IV_SHA256


# ---------------------------------------------------------------------------
# byte stability: sha256 of reference outputs, so that any change to the
# printed table or the seeded CSVs has to be made on purpose

TABLE1_CHECK_SHA256 = "a9990adfb5aa44816a88ef349d7b7042696e67c074c8b23b2efa9621624bcc76"
SWEEP_ROW_IV_SHA256 = "749af2712e5f660db1d2814c93c9b706e1fe3afec4ac6180f262473b6f200719"
TRAJECTORY_ROW_IV_SHA256 = "7bdd169e68410c85654211ca401a217d8cc6f09d6ff71f252431c90353dd3468"
# `sweep` of row IV's node 1 from sigma_s to 6 sigma_s in 6 steps: the first
# five rows are feasible; the last has raw tau_1 < 0 and nan psucc cells.
SWEEP_PAST_FEASIBLE_SHA256 = "5deedbc567ac1b75e24d9543b3f819d0bcc7f1ca6ce864233a48d21263b0aa68"
SIMULATE_ROW_IV_SHA256 = "443786d2d5039780fc6fd2cdc40c38f1fd77cfeebc917d316d255d9d0c7c4943"
# `simulate` at n = 150 without taus, so at the closed-form profile: near-equal
# ages (the CI wide.json game at a smaller n) with long collisions. The exact
# restart means in eight rows, mean_age_15, _64 and _85 among them, sit
# within 2e-16 of a 7th-decimal tie (4.4846185 in _64), so each printed cell
# follows its correctly rounded double.
SIMULATE_WIDE_N150 = scenario_dict(
    n=150, initial_ages=[3.03 * (1 + 1e-6 * (i % 7)) for i in range(150)]
)
SIMULATE_WIDE_N150_SHA256 = "d046b846a42fcd9bdeda07bb1f265d35f0303da690ce8c7269bafb59e2868bfa"
# `simulate` at explicit taus with sigma_c = sigma_s: the busy and collision
# ages coincide, so each node's age distribution merges them into one value.
SIMULATE_TIED_AGES = scenario_dict(
    sigma_collision=1.01, initial_ages=[2.02, 3.03, 3.03], taus=[0.4, 0.3, 0.2]
)
SIMULATE_TIED_AGES_SHA256 = "f0005c7b89eceab0c405b0807cfcb864b3ad1715f12b727877a4245f986390b7"
# `analyze` at n = 13 with short collisions (sigma_c = sigma_s / 2) and ages
# drawn uniformly from [sigma_s, 4 sigma_s]: 8178 pure Nash profiles. Its
# residuals are those of the centred numerator, (n - 1)(a_i - m) - m.
ANALYZE_SHORT_N13 = scenario_dict(
    n=13,
    sigma_collision=0.505,
    initial_ages=[
        2.434375, 3.216641, 1.930367, 3.698514, 2.252568, 3.181342, 1.81362,
        1.752855, 3.472122, 2.519853, 2.270092, 3.21511, 3.928646,
    ],
)
ANALYZE_SHORT_N13_SHA256 = "8f14fda1b9b28ee0c662260736951569983835487357ac16f65b35679f2d7d8c"
# `analyze` at n = 8 with sigma_c = sigma_s and repeated ages: an idler facing
# one transmitter ties with transmitting, so every pure Nash test is a tie.
ANALYZE_EQUAL_N8 = scenario_dict(
    n=8,
    sigma_collision=1.01,
    initial_ages=[
        {"value": 2, "unit": "sigma_s"},
        {"value": 2, "unit": "sigma_s"},
        {"value": 2, "unit": "sigma_s"},
        {"value": 3, "unit": "sigma_s"},
        {"value": 3, "unit": "sigma_s"},
        {"value": 1.5, "unit": "sigma_s"},
        4.04,
        {"value": 2, "unit": "sigma_s"},
    ],
)
ANALYZE_EQUAL_N8_SHA256 = "d70fe5350de78b7e51a53c4a5cb300d145251d32ba46c0a6db232e9f4537e14d"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_table1_check_output_is_byte_stable(capsys):
    assert cli.main(["table1", "--check"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == TABLE1_CHECK_SHA256


def test_sweep_csv_is_byte_stable(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    path = write(tmp_path, sweep_scenario())
    assert cli.main(["sweep", "--scenario", path, "--out", str(out_path)]) == 0
    assert sha256(out_path.read_bytes()) == SWEEP_ROW_IV_SHA256


def test_simulate_trajectory_csv_is_byte_stable(tmp_path, capsys):
    out_path = tmp_path / "trajectory.csv"
    path = write(tmp_path, sweep_scenario())
    argv = ["simulate", "--scenario", path, "--slots", "20000", "--seed", "7"]
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    assert sha256(out_path.read_bytes()) == TRAJECTORY_ROW_IV_SHA256


@pytest.mark.parametrize(
    "data, digest",
    [
        (scenario_dict(), SIMULATE_ROW_IV_SHA256),
        (SIMULATE_WIDE_N150, SIMULATE_WIDE_N150_SHA256),
        (SIMULATE_TIED_AGES, SIMULATE_TIED_AGES_SHA256),
    ],
    ids=["row-iv", "wide-n150", "tied-ages"],
)
def test_simulate_report_is_byte_stable(tmp_path, capsys, monkeypatch, data, digest):
    # A relative path keeps the report's "scenario:" line fixed.
    write(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--scenario", "scenario.json", "--slots", "20000", "--seed", "7"]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize(
    "data, digest",
    [
        (ANALYZE_SHORT_N13, ANALYZE_SHORT_N13_SHA256),
        (ANALYZE_EQUAL_N8, ANALYZE_EQUAL_N8_SHA256),
    ],
    ids=["short-n13", "equal-n8"],
)
def test_analyze_output_is_byte_stable(tmp_path, capsys, monkeypatch, data, digest):
    # A relative path keeps the report's "scenario:" line fixed.
    write(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "--scenario", "scenario.json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest
