"""Bundled reference scenarios with known-good equilibrium values.

Five three-node instances (labelled I through V) spanning both collision
regimes and both sides of the interior-equilibrium feasibility boundary.
The golden values are pinned at 4-decimal precision and back the CLI's
``table1 --check`` self-check as well as the regression suite.
"""

from __future__ import annotations

from .game import GameInstance, SlotLengths, _record

SIGMA_IDLE = 0.01
SIGMA_SUCCESS = 1.01


@_record
class ReferenceRow:
    label: str
    sigma_collision: float
    initial_ages: tuple[float, ...]
    golden_taus: tuple[float, ...]
    golden_pure_nash: frozenset[str]
    golden_feasible: bool

    def game(self) -> GameInstance:
        lengths = SlotLengths(SIGMA_IDLE, SIGMA_SUCCESS, self.sigma_collision)
        return GameInstance(3, lengths, self.initial_ages)


_PREFER_TRANSMIT = frozenset({"TTT", "TIT", "ITT", "TTI"})
_PREFER_IDLE = frozenset({"TTT", "IIT", "TII", "ITI"})

REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(
        label="I",
        sigma_collision=0.1 * SIGMA_SUCCESS,
        initial_ages=(1 * SIGMA_SUCCESS, 2 * SIGMA_SUCCESS, 3 * SIGMA_SUCCESS),
        golden_taus=(2.4877, -1.2782, 0.3549),
        golden_pure_nash=_PREFER_TRANSMIT,
        golden_feasible=False,
    ),
    ReferenceRow(
        label="II",
        sigma_collision=0.1 * SIGMA_SUCCESS,
        initial_ages=(1 * SIGMA_SUCCESS, 1 * SIGMA_SUCCESS, 1 * SIGMA_SUCCESS),
        golden_taus=(-0.0055, -0.0055, -0.0055),
        golden_pure_nash=_PREFER_TRANSMIT,
        golden_feasible=False,
    ),
    ReferenceRow(
        label="III",
        sigma_collision=2 * SIGMA_SUCCESS,
        initial_ages=(1 * SIGMA_SUCCESS, 2 * SIGMA_SUCCESS, 3 * SIGMA_SUCCESS),
        golden_taus=(0.6008, 0.3355, -0.9804),
        golden_pure_nash=_PREFER_IDLE,
        golden_feasible=False,
    ),
    ReferenceRow(
        label="IV",
        sigma_collision=2 * SIGMA_SUCCESS,
        initial_ages=(2 * SIGMA_SUCCESS, 3 * SIGMA_SUCCESS, 3 * SIGMA_SUCCESS),
        golden_taus=(0.6008, 0.3355, 0.3355),
        golden_pure_nash=_PREFER_IDLE,
        golden_feasible=True,
    ),
    ReferenceRow(
        label="V",
        sigma_collision=2 * SIGMA_SUCCESS,
        initial_ages=(2 * SIGMA_SUCCESS, 3 * SIGMA_SUCCESS, 4 * SIGMA_SUCCESS),
        golden_taus=(0.6672, 0.5012, 0.0049),
        golden_pure_nash=_PREFER_IDLE,
        golden_feasible=True,
    ),
)

# Golden values are printed to four decimals; half a unit in the last place.
GOLDEN_TAU_TOLERANCE = 5e-5
