"""Scenario files: JSON descriptions of a game instance plus run settings.

A scenario file looks like::

    {
      "n": 3,
      "sigma_idle": 0.01,
      "sigma_success": 1.01,
      "sigma_collision": 2.02,
      "initial_ages": [{"value": 2, "unit": "sigma_s"}, 3.03, 3.03],
      "seed": 42,
      "num_slots": 1000000,
      "sweep": {"node": 3, "from": {"value": 3, "unit": "sigma_s"},
                "to": {"value": 4, "unit": "sigma_s"}, "steps": 11},
      "taus": [0.5, 0.5, 0.5]
    }

Ages (and sweep bounds) are either absolute durations or
``{"value": v, "unit": "sigma_s"}`` pairs meaning v times sigma_success.
``sweep`` and ``taus`` are optional; ``sweep.node`` is 1-based, matching the
node numbering in printed tables and CSV headers. Loading builds the game
instance and the taus' profile once, checks every model invariant (a sweep
grid at its endpoints) and names the offending field.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from .game import GameInstance, SlotLengths, StrategyProfile, _check_ages, _record


class ScenarioError(ValueError):
    """A scenario file is malformed or violates a model invariant."""


def _float(raw: Any, field: str) -> float:
    """A JSON number as a float; a JSON integer may be too large for one."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{field} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ScenarioError(f"{field} is too large to convert to a float") from None


def _duration(raw: Any, sigma_success: float, field: str) -> float:
    if isinstance(raw, (int, float)):
        return _float(raw, field)
    if isinstance(raw, dict):
        if set(raw) != {"value", "unit"}:
            raise ScenarioError(
                f"{field} must have exactly the keys 'value' and 'unit', got {sorted(raw)}"
            )
        if raw["unit"] != "sigma_s":
            raise ScenarioError(f"{field}.unit must be 'sigma_s', got {raw['unit']!r}")
        return _float(raw["value"], f"{field}.value") * sigma_success
    raise ScenarioError(f"{field} must be a number or a value/unit pair, got {raw!r}")


def _require(
    data: dict,
    field: str,
    kind: type,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> Any:
    if field not in data:
        raise ScenarioError(f"missing required field '{field}'")
    value = data[field]
    if kind is float:
        return _float(value, f"field '{field}'")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(f"field '{field}' must be {kind.__name__}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"field '{field}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:  # not echoed: it may run to 4300 digits
        raise ScenarioError(f"field '{field}' must be <= {maximum}")
    return value


@_record
class SweepSpec:
    """Sweep of one node's starting age over an inclusive linear range."""

    node: int  # 1-based, as printed in tables and CSV headers
    start: float
    stop: float
    steps: int

    def values(self) -> Iterator[float]:
        """Generator of the grid points ``start + k * step``, k = 0 .. steps - 1."""
        step = (self.stop - self.start) / (self.steps - 1)
        return (self.start + k * step for k in range(self.steps))


@_record
class Scenario:
    """A validated scenario: the game, its run settings, sweep and taus."""

    game: GameInstance
    seed: int
    num_slots: int
    sweep: SweepSpec | None = None
    profile: StrategyProfile | None = None


def _parse_sweep(block: Any, n: int, sigma_success: float) -> SweepSpec:
    """Check a sweep block, with its grid's first and last points.

    Rounding keeps the points monotone in k, so the endpoints bound every
    point; the grid itself is never held."""
    if not isinstance(block, dict):
        raise ScenarioError("sweep must be an object")
    extra = set(block) - {"node", "from", "to", "steps"}
    if extra:
        raise ScenarioError(f"unknown sweep fields: {sorted(extra)}")
    node = _require(block, "node", int)
    if not 1 <= node <= n:
        raise ScenarioError(f"sweep.node must be in 1..{n}, got {node}")
    # Up to 2**53 every grid index converts to a float exactly; a larger
    # JSON integer may not convert at all.
    steps = _require(block, "steps", int, minimum=2, maximum=2**53)
    if "from" not in block or "to" not in block:
        raise ScenarioError("sweep requires both 'from' and 'to'")
    start = _duration(block["from"], sigma_success, "sweep.from")
    stop = _duration(block["to"], sigma_success, "sweep.to")
    step = (stop - start) / (steps - 1)
    try:
        for k in (0, steps - 1):  # point 0 is NaN when step is infinite
            _check_ages((start + k * step,), sigma_success, f"sweep value {{age}} (point {k})")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return SweepSpec(node, start, stop, steps)


def parse_scenario(data: Any) -> Scenario:
    """Validate a decoded scenario document and build its game and profile."""
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(data).__name__}")
    known = {
        "n", "sigma_idle", "sigma_success", "sigma_collision",
        "initial_ages", "seed", "num_slots", "sweep", "taus",
    }
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")

    n = _require(data, "n", int)
    sigma_idle, sigma_success, sigma_collision = (
        _require(data, field, float)
        for field in ("sigma_idle", "sigma_success", "sigma_collision")
    )
    ages_raw = _require(data, "initial_ages", list)
    seed = _require(data, "seed", int, minimum=0)
    num_slots = _require(data, "num_slots", int, minimum=1)
    if len(ages_raw) != n:
        raise ScenarioError(f"initial_ages has {len(ages_raw)} entries for n = {n}")
    ages = [
        _duration(raw, sigma_success, f"initial_ages[{i}]") for i, raw in enumerate(ages_raw)
    ]

    taus = None
    if "taus" in data:
        if not isinstance(data["taus"], list) or len(data["taus"]) != n:
            raise ScenarioError(f"taus must be a list of {n} probabilities")
        taus = [_float(t, f"taus[{i}]") for i, t in enumerate(data["taus"])]

    # Every SlotLengths/GameInstance/StrategyProfile invariant.
    try:
        lengths = SlotLengths(sigma_idle, sigma_success, sigma_collision)
        game = GameInstance(n, lengths, ages)
        profile = None if taus is None else StrategyProfile(taus)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    sweep = None if "sweep" not in data else _parse_sweep(data["sweep"], n, sigma_success)
    return Scenario(game, seed, num_slots, sweep, profile)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file, with line/column info on bad JSON."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the int/str conversion digit limit
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        return parse_scenario(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
