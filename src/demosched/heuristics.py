"""The three expert scheduling rules and the cascade that picks between them.

Each rule scores a task from its recorded TaskFeatures, the same features the
learned policy sees, so the expert's decision while demonstrating and its
replay against recorded observations are one computation.
"""

from __future__ import annotations

import enum

from .core import ProblemInstance
from .features import TaskFeatures

# Fixed weighting constants and contention threshold of the expert rules.
ALPHA1 = 1.0
ALPHA2 = 0.1
ALPHA3 = 0.1
CONTENTION_THRESHOLD = 100
SLOW_SPEED_THRESHOLD = 1.0  # grid units per tick


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


def rule_score_from_features(rule: RuleKind, tf: TaskFeatures) -> float:
    """Score such that LOWER is always better (contention score negated).

    travel: distance plus angle-weighted routing term; contention: resource
    share count minus deadline-weighted term; temporal: effective deadline.
    """
    if rule is RuleKind.TRAVEL_DISTANCE:
        d, theta = tf.travel_distance, tf.angular_difference
        return d + ALPHA1 * theta + ALPHA2 * d * theta
    if rule is RuleKind.RESOURCE_CONTENTION:
        # recorded share count excludes the task itself; the +1 offset is
        # uniform across candidates and cannot change the argmax
        return -((tf.resource_share_count + 1.0) - ALPHA3 * tf.deadline)
    return tf.deadline


def expert_choice(rule: RuleKind, task_features: dict[str, TaskFeatures], pool) -> str:
    """The rule's pick from `pool`: lowest score, ties by lowest id."""
    if not pool:
        raise ValueError("empty candidate pool")
    return min(pool, key=lambda tid: (
        rule_score_from_features(rule, task_features[tid]), tid))
