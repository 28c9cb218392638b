"""The three expert scheduling rules and the cascade that picks between them.

Each rule scores a task from its recorded task-feature row, the same row the
learned policy sees, so the expert's decision while demonstrating and its
replay against recorded observations are one computation.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import ProblemInstance
from .features import TASK_FEATURE_NAMES

# Fixed weighting constants and contention threshold of the expert rules.
ALPHA1 = 1.0
ALPHA2 = 0.1
ALPHA3 = 0.1
CONTENTION_THRESHOLD = 100
SLOW_SPEED_THRESHOLD = 1.0  # grid units per tick

# the task-feature columns the rules read
_DEADLINE, _SHARE_COUNT, _DISTANCE, _ANGLE = map(TASK_FEATURE_NAMES.index, (
    "deadline", "resource_share_count", "travel_distance", "angular_difference"))


class RuleKind(enum.Enum):
    TRAVEL_DISTANCE = "travel_distance"
    RESOURCE_CONTENTION = "resource_contention"
    TEMPORAL_REQUIREMENTS = "temporal_requirements"


def select_rule(
    problem: ProblemInstance, contention_threshold: int = CONTENTION_THRESHOLD
) -> RuleKind:
    """Cascade: slow agents -> travel rule; heavy resource sharing ->
    contention rule; otherwise deadlines dominate."""
    if min(a.speed for a in problem.agents) <= SLOW_SPEED_THRESHOLD:
        return RuleKind.TRAVEL_DISTANCE
    if problem.contention_degree() >= contention_threshold:
        return RuleKind.RESOURCE_CONTENTION
    return RuleKind.TEMPORAL_REQUIREMENTS


def rule_scores(rule: RuleKind, rows: np.ndarray) -> np.ndarray:
    """One score per task-feature row, such that LOWER is always better
    (contention score negated).

    travel: distance plus angle-weighted routing term; contention: resource
    share count minus deadline-weighted term; temporal: effective deadline.
    Each element takes the same float operations, in the same order, as a
    scalar score would.
    """
    if rule is RuleKind.TRAVEL_DISTANCE:
        d, theta = rows[:, _DISTANCE], rows[:, _ANGLE]
        return d + ALPHA1 * theta + ALPHA2 * d * theta
    if rule is RuleKind.RESOURCE_CONTENTION:
        # recorded share count excludes the task itself; the +1 offset is
        # uniform across candidates and cannot change the argmax
        return -((rows[:, _SHARE_COUNT] + 1.0) - ALPHA3 * rows[:, _DEADLINE])
    return rows[:, _DEADLINE]


def expert_choice(rule: RuleKind, rows: np.ndarray, pool) -> int:
    """The rule's pick from `pool`, positions of rows in `rows`: lowest
    score, ties by lowest position, which is the lowest id."""
    if not pool:
        raise ValueError("empty candidate pool")
    score = rule_scores(rule, rows).tolist()
    return min(pool, key=lambda p: (score[p], p))
