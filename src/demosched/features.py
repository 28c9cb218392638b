"""Per-task and per-context feature extraction, and the observation record
emitted once per (tick, idle agent) during a demonstration playthrough.

One featurizer, over task and agent indices and reading only the compiled
tables and the state, serves both the expert, which records every
unfinished task, and the scheduler, which featurizes only its candidates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import AgentSpec, ProblemInstance, SimState, StructuralError, _number, release


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

# float(i) for the small integers, one object each: the integer-valued
# features (deadline, share count, travel time remaining) are taken from
# here, so the rows a demonstration records share them rather than holding
# a float apiece (72 bytes a row, about 9 MB over 150 20-task demonstrations).
_FLOATS = tuple(map(float, range(4096)))


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


def extract_features(state: SimState, a: int, tasks) -> dict[str, TaskFeatures]:
    """The seven per-task features at the current tick for agent a and each
    of `tasks`, task indices that must all be unfinished, keyed by task id
    in the order given.

    Resource share counts run over every unfinished task, so a task's
    features do not depend on which other tasks are featurized with it.
    Integer-valued features are `_FLOATS`' objects where it holds them.
    """
    cp = state.compiled
    finish, now, res_free = state.finish, state.time, state.res_free
    resource, deadline, task_ids = cp.resource, cp.deadline, cp.task_ids
    floats, size = _FLOATS, len(_FLOATS)
    share_counts = [0] * len(cp.resource_ids)
    for t, f in enumerate(finish):
        if f is None:
            share_counts[resource[t]] += 1
    # a task's share count leaves out the task itself
    shares = [floats[c - 1] if 0 < c <= size else float(c - 1) for c in share_counts]
    loc = state.agent_loc[a]
    distance, angle, travel = cp.distance[loc], cp.angle[loc], cp.travel[a][loc]
    wait = state.agent_free[a] - now  # travel time remaining is wait + travel, at least 0
    row = tuple.__new__  # positional, in TaskFeatures' field order
    out: dict[str, TaskFeatures] = {}
    for t in tasks:
        r, d, left = resource[t], deadline[t], wait + travel[t]
        ready = release(cp, t, finish, 0)
        out[task_ids[t]] = row(TaskFeatures, (
            floats[d] if 0 <= d < size else float(d),
            1.0 if ready is not None and ready <= now else 0.0,
            shares[r],
            1.0 if res_free[r] <= now else 0.0,
            floats[left if left > 0 else 0] if left < size else float(left),
            distance[t],
            angle[t],
        ))
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


def _finite(values, width: int, what: str) -> list:
    """`values` if it is a list of `width` finite numbers."""
    if not isinstance(values, (list, tuple)) or len(values) != width:
        raise StructuralError(f"{what} must be {width} finite numbers, got {values!r}")
    return [_number(v, what) for v in values]


def observation_from_dict(data: dict) -> Observation:
    """Raises StructuralError unless every feature row is finite and of its
    width, every candidate is featurized and `scheduled` names a candidate."""
    task_features = {tid: TaskFeatures(*_finite(vals, len(TASK_FEATURE_NAMES),
                                                f"task {tid!r} features"))
                     for tid, vals in data["task_features"].items()}
    candidates = tuple(data["candidates"])
    missing = [tid for tid in candidates if tid not in task_features]
    if missing:
        raise StructuralError(f"candidates {missing!r} have no task features")
    scheduled = tuple(data["scheduled"]) if data["scheduled"] else None
    if scheduled is not None and (len(scheduled) != 2 or scheduled[0] not in candidates):
        raise StructuralError(f"scheduled must be a [candidate, agent id] pair, "
                              f"got {data['scheduled']!r}")
    return Observation(
        tick=_number(data["tick"], "tick", (int,)),
        context=ContextFeatures(*_finite(data["context"], len(CONTEXT_FEATURE_NAMES),
                                         "context")),
        task_features=task_features,
        candidates=candidates,
        scheduled=scheduled,
    )
