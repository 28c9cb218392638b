"""Per-task and per-context feature extraction, and the observation record
emitted once per (tick, idle agent) during a demonstration playthrough.

One featurizer serves both the expert, which records every unfinished task,
and the scheduler, which featurizes only its feasible candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import AgentSpec, ProblemInstance, SimState


# Feature rows are tuples in field order: the datasets' row encoders and the
# JSON observation lists read them as plain sequences.
class TaskFeatures(NamedTuple):
    deadline: float
    precedence_satisfied: float
    resource_share_count: float
    resource_available: float
    travel_time_remaining: float
    travel_distance: float
    angular_difference: float


class ContextFeatures(NamedTuple):
    agent_speed: float
    resource_contention_degree: float


TASK_FEATURE_NAMES = TaskFeatures._fields
CONTEXT_FEATURE_NAMES = ContextFeatures._fields


@dataclass(frozen=True)
class Observation:
    tick: int
    context: ContextFeatures
    task_features: dict[str, TaskFeatures]  # unfinished tasks only
    candidates: tuple[str, ...]  # tasks feasible for the agent at this tick
    scheduled: tuple[str, str] | None  # (task id, agent id); None = idle

    def __post_init__(self):
        if self.scheduled is not None and self.scheduled[0] not in self.task_features:
            raise ValueError("scheduled task missing from task_features")


def origin_angle(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Angle in radians between the origin->a and origin->b vectors.

    Zero-length vectors make the angle undefined; treat it as 0.
    """
    na = math.hypot(*a)
    nb = math.hypot(*b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    cos = (a[0] * b[0] + a[1] * b[1]) / (na * nb)
    return math.acos(max(-1.0, min(1.0, cos)))


def extract_features(
    state: SimState, agent: AgentSpec, problem: ProblemInstance, tasks
) -> dict[str, TaskFeatures]:
    """The seven per-task features at the current tick for `agent` and each
    of `tasks`, which must all be unfinished. `problem` is the state's.

    Resource share counts run over every unfinished task, so a task's
    features do not depend on which other tasks are featurized with it.
    Deadlines, distances and travel ticks are read from the compiled tables.
    """
    cp = state.compiled
    share_counts: dict[str, int] = {}
    for t in state.unfinished():
        share_counts[t.resource] = share_counts.get(t.resource, 0) + 1
    a = cp.agent_at(agent.id)
    loc = state.agent_loc[a]
    distance, travel, agent_point = cp.distance[loc], cp.travel[a][loc], cp.location[loc]
    busy, now = state.agent_free[a], state.time
    out: dict[str, TaskFeatures] = {}
    for task in tasks:
        t = cp.task_at(task.id)
        out[task.id] = TaskFeatures(
            deadline=float(cp.deadline[t]),
            precedence_satisfied=1.0 if state.waits_released(t) else 0.0,
            resource_share_count=float(share_counts[task.resource] - 1),
            resource_available=1.0 if state.res_free[cp.resource[t]] <= now else 0.0,
            travel_time_remaining=float(max(0, busy + travel[t] - now)),
            travel_distance=distance[t],
            angular_difference=origin_angle(agent_point, task.location),
        )
    return out


def context_features(problem: ProblemInstance, agent: AgentSpec) -> ContextFeatures:
    return ContextFeatures(
        agent_speed=agent.speed,
        resource_contention_degree=float(problem.contention_degree()),
    )


def observation_to_dict(obs: Observation) -> dict:
    return {
        "tick": obs.tick,
        "context": list(obs.context),
        "task_features": {tid: list(tf) for tid, tf in obs.task_features.items()},
        "candidates": list(obs.candidates),
        "scheduled": list(obs.scheduled) if obs.scheduled else None,
    }


def observation_from_dict(data: dict) -> Observation:
    return Observation(
        tick=int(data["tick"]),
        context=ContextFeatures(*data["context"]),
        task_features={tid: TaskFeatures(*vals) for tid, vals in data["task_features"].items()},
        candidates=tuple(data["candidates"]),
        scheduled=tuple(data["scheduled"]) if data["scheduled"] else None,
    )
