"""Scheduling from demonstration: learn a dispatch policy from expert
playthroughs and use it to warm-start exact makespan optimization."""

from .core import (
    AgentSpec,
    FeasibilityReport,
    InfeasibleActionError,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    SimState,
    StructuralError,
    TaskSpec,
    Violation,
    validate_schedule,
)
from .demonstrator import Demonstration, IncompleteDemonstrationError, demonstrate
from .generator import GenConfig, GenerationError, generate_instance
from .optimizer import (
    BnBResult,
    PerturbationError,
    branch_and_bound,
    brute_force_optimal,
    objective_ratio,
    perturb,
)
from .policy import (
    Metrics,
    PolicyModel,
    cross_validate_min_leaf,
    evaluate,
    split_demos,
    train_policy,
)
from .scheduler import SchedulerConfig, construct_schedule, schedulability_test
from .tree import DecisionTree

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BnBResult",
    "Demonstration",
    "DecisionTree",
    "FeasibilityReport",
    "GenConfig",
    "GenerationError",
    "IncompleteDemonstrationError",
    "InfeasibleActionError",
    "Metrics",
    "PerturbationError",
    "PolicyModel",
    "ProblemInstance",
    "Schedule",
    "ScheduleEntry",
    "SchedulerConfig",
    "SimState",
    "StructuralError",
    "TaskSpec",
    "Violation",
    "branch_and_bound",
    "brute_force_optimal",
    "construct_schedule",
    "cross_validate_min_leaf",
    "demonstrate",
    "evaluate",
    "generate_instance",
    "objective_ratio",
    "perturb",
    "schedulability_test",
    "split_demos",
    "train_policy",
    "validate_schedule",
    "__version__",
]
