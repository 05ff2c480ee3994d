"""One-shot multiple-access game for timely updates over slotted CSMA/CA.

Nodes that value the freshness of their status updates contend for a shared
medium; each slot they independently transmit or idle. This package computes
the slot-outcome probabilities, end-of-slot age distributions and expected-age
payoffs for arbitrary mixed profiles, classifies the dominance regime set by
the collision length, enumerates pure Nash equilibria, evaluates the
closed-form interior mixed equilibrium with its feasibility conditions, and
cross-validates everything against a seeded Monte Carlo slot simulator.
"""

from .equilibrium import (
    MAX_ENUMERATION_NODES,
    DominanceReport,
    MsneResult,
    PureNashSet,
    SingularGameError,
    check_weak_dominance,
    enumerate_pure_nash,
    monotonicity_derivatives,
    msne_closed_form,
    verify_indifference,
)
from .game import (
    Action,
    AgePmf,
    GameInstance,
    SlotLengths,
    StrategyProfile,
    actions_from_string,
    actions_to_string,
    age_pmf,
    busy_seen_probability,
    collision_probability,
    expected_age_after,
    idle_probability,
    mixed_payoff,
    pure_payoff,
    success_probability_of,
    total_success_probability,
)
from .scenario import Scenario, ScenarioError, SweepSpec, load_scenario, parse_scenario
from .simulate import (
    SimStats,
    run_monte_carlo,
    simulate_age_trajectory,
)

__all__ = [
    "Action",
    "AgePmf",
    "DominanceReport",
    "GameInstance",
    "MAX_ENUMERATION_NODES",
    "MsneResult",
    "PureNashSet",
    "Scenario",
    "ScenarioError",
    "SimStats",
    "SingularGameError",
    "SlotLengths",
    "StrategyProfile",
    "SweepSpec",
    "actions_from_string",
    "actions_to_string",
    "age_pmf",
    "busy_seen_probability",
    "check_weak_dominance",
    "collision_probability",
    "enumerate_pure_nash",
    "expected_age_after",
    "idle_probability",
    "load_scenario",
    "mixed_payoff",
    "monotonicity_derivatives",
    "msne_closed_form",
    "parse_scenario",
    "pure_payoff",
    "run_monte_carlo",
    "simulate_age_trajectory",
    "success_probability_of",
    "total_success_probability",
    "verify_indifference",
]
