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
node numbering in printed tables and CSV headers. Loading re-checks every
model invariant (a sweep grid at its endpoints) and names the offending
field; raw values are kept verbatim so a loaded scenario re-emits exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .game import AgeVector, GameInstance, SlotLengths


class ScenarioError(ValueError):
    """A scenario file is malformed or violates a model invariant."""


def _resolve_duration(raw: Any, sigma_success: float, field: str) -> float:
    if isinstance(raw, bool):
        raise ScenarioError(f"{field} must be a number, got {raw!r}")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, dict):
        extra = set(raw) - {"value", "unit"}
        if extra or set(raw) != {"value", "unit"}:
            raise ScenarioError(
                f"{field} must have exactly the keys 'value' and 'unit', got {sorted(raw)}"
            )
        if raw["unit"] != "sigma_s":
            raise ScenarioError(f"{field}.unit must be 'sigma_s', got {raw['unit']!r}")
        if isinstance(raw["value"], bool) or not isinstance(raw["value"], (int, float)):
            raise ScenarioError(f"{field}.value must be a number, got {raw['value']!r}")
        return float(raw["value"]) * sigma_success
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
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(f"field '{field}' must be {kind.__name__}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"field '{field}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:  # not echoed: it may run to 4300 digits
        raise ScenarioError(f"field '{field}' must be <= {maximum}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Sweep of one node's starting age over an inclusive linear range."""

    node: int  # 1-based, as printed in tables and CSV headers
    start_raw: Any
    stop_raw: Any
    steps: int

    def values(self, sigma_success: float) -> Iterator[float]:
        """Generator of the grid points ``start + k * step``, k = 0 .. steps - 1.

        Checks at the call that the first and last points are finite and at
        least sigma_success; rounding keeps the points monotone in k, so the
        endpoints bound every point."""
        start = _resolve_duration(self.start_raw, sigma_success, "sweep.from")
        stop = _resolve_duration(self.stop_raw, sigma_success, "sweep.to")
        step = (stop - start) / (self.steps - 1)
        for k in (0, self.steps - 1):
            value = start + k * step  # point 0 is NaN when step is infinite
            if not math.isfinite(value):
                raise ScenarioError(f"sweep value {value} (point {k}) is not finite")
            if value < sigma_success:
                raise ScenarioError(
                    f"sweep value {value} (point {k}) violates age >= sigma_success "
                    f"({sigma_success})"
                )
        return (start + k * step for k in range(self.steps))


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; raw age entries are preserved for exact re-emission."""

    n: int
    sigma_idle: float
    sigma_success: float
    sigma_collision: float
    initial_ages_raw: tuple[Any, ...]
    seed: int
    num_slots: int
    sweep: SweepSpec | None = None
    taus: tuple[float, ...] | None = None

    @property
    def slot_lengths(self) -> SlotLengths:
        return SlotLengths(self.sigma_idle, self.sigma_success, self.sigma_collision)

    @property
    def initial_ages(self) -> tuple[float, ...]:
        return tuple(
            _resolve_duration(raw, self.sigma_success, f"initial_ages[{i}]")
            for i, raw in enumerate(self.initial_ages_raw)
        )

    def game(self) -> GameInstance:
        return GameInstance(self.n, self.slot_lengths, AgeVector(self.initial_ages))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "n": self.n,
            "sigma_idle": self.sigma_idle,
            "sigma_success": self.sigma_success,
            "sigma_collision": self.sigma_collision,
            "initial_ages": list(self.initial_ages_raw),
            "seed": self.seed,
            "num_slots": self.num_slots,
        }
        if self.sweep is not None:
            data["sweep"] = {
                "node": self.sweep.node,
                "from": self.sweep.start_raw,
                "to": self.sweep.stop_raw,
                "steps": self.sweep.steps,
            }
        if self.taus is not None:
            data["taus"] = list(self.taus)
        return data

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_scenario(data: Any) -> Scenario:
    """Validate a decoded scenario document and re-check all model invariants."""
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
    sigma_idle = float(_require(data, "sigma_idle", (int, float)))
    sigma_success = float(_require(data, "sigma_success", (int, float)))
    sigma_collision = float(_require(data, "sigma_collision", (int, float)))
    ages_raw = _require(data, "initial_ages", list)
    seed = _require(data, "seed", int, minimum=0)
    num_slots = _require(data, "num_slots", int, minimum=1)
    if len(ages_raw) != n:
        raise ScenarioError(f"initial_ages has {len(ages_raw)} entries for n = {n}")

    sweep = None
    if "sweep" in data:
        block = data["sweep"]
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
        sweep = SweepSpec(node=node, start_raw=block["from"], stop_raw=block["to"], steps=steps)

    taus = None
    if "taus" in data:
        raw_taus = data["taus"]
        if not isinstance(raw_taus, list) or len(raw_taus) != n:
            raise ScenarioError(f"taus must be a list of {n} probabilities")
        for i, t in enumerate(raw_taus):
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t <= 1:
                raise ScenarioError(f"taus[{i}] = {t!r} is not a probability in [0, 1]")
        taus = tuple(float(t) for t in raw_taus)

    scenario = Scenario(
        n=n,
        sigma_idle=sigma_idle,
        sigma_success=sigma_success,
        sigma_collision=sigma_collision,
        initial_ages_raw=tuple(ages_raw),
        seed=seed,
        num_slots=num_slots,
        sweep=sweep,
        taus=taus,
    )
    # Re-check every SlotLengths/AgeVector/GameInstance invariant at load.
    try:
        scenario.game()
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    if sweep is not None:
        sweep.values(sigma_success)
    return scenario


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
    try:
        return parse_scenario(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
