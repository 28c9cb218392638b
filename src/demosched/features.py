"""Per-task and per-context feature extraction, and the observation record
emitted once per (tick, idle agent) during a demonstration playthrough.

One featurizer, over task and agent indices and reading only the compiled
tables and the state, serves both the expert, which records every
unfinished task, and the scheduler, which featurizes only its candidates.
A task-feature block has one form from featurizer to tree: a read-only,
C-contiguous float64 array with one row per task, in ascending task id,
and one column per `TASK_FEATURE_NAMES` entry. A context is a tuple in
`CONTEXT_FEATURE_NAMES` order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AgentSpec, ProblemInstance, SimState, StructuralError, _number, release

TASK_FEATURE_NAMES = ("deadline", "precedence_satisfied", "resource_share_count",
                      "resource_available", "travel_time_remaining", "travel_distance",
                      "angular_difference")
CONTEXT_FEATURE_NAMES = ("agent_speed", "resource_contention_degree")


@dataclass(frozen=True, eq=False)  # compare through observation_to_dict
class Observation:
    tick: int
    context: tuple[float, float]
    task_ids: tuple[str, ...]  # unfinished tasks only, ascending
    rows: np.ndarray  # one task-feature row per task id
    candidates: tuple[str, ...]  # tasks feasible for the agent at this tick
    scheduled: tuple[str, str] | None  # (task id, agent id); None = idle

    def __post_init__(self):
        if self.scheduled is not None and self.scheduled[0] not in self.task_ids:
            raise ValueError("scheduled task missing from task_ids")


def extract_features(state: SimState, a: int, tasks) -> np.ndarray:
    """The task-feature block at the current tick for agent a and `tasks`,
    task indices that must all be unfinished, given in id order.

    Resource share counts run over every unfinished task, so a task's
    features do not depend on which other tasks are featurized with it.
    """
    cp = state.compiled
    finish, now, res_free = state.finish, state.time, state.res_free
    resource, deadline = cp.resource, cp.deadline
    shares = [-1] * len(cp.resource_ids)  # a task's share count leaves out the task itself
    for t, f in enumerate(finish):
        if f is None:
            shares[resource[t]] += 1
    loc = state.agent_loc[a]
    distance, angle, travel = cp.distance[loc], cp.angle[loc], cp.travel[a][loc]
    wait = state.agent_free[a] - now  # travel time remaining is wait + travel, at least 0
    values = []  # row after row, in TASK_FEATURE_NAMES order
    for t in tasks:
        r, left = resource[t], wait + travel[t]
        ready = release(cp, t, finish, 0)
        values += (deadline[t],
                   1.0 if ready is not None and ready <= now else 0.0,
                   shares[r],
                   1.0 if res_free[r] <= now else 0.0,
                   left if left > 0 else 0,
                   distance[t],
                   angle[t])
    return _block(values)


def _block(values: list) -> np.ndarray:
    """The read-only task-feature block of `values`, row after row."""
    rows = np.fromiter(values, float, len(values)).reshape(-1, len(TASK_FEATURE_NAMES))
    rows.flags.writeable = False
    return rows


def context_features(problem: ProblemInstance, agent: AgentSpec) -> tuple[float, float]:
    return (agent.speed, float(problem.contention_degree()))


def observation_to_dict(obs: Observation) -> dict:
    return {
        "tick": obs.tick,
        "context": list(obs.context),
        "task_features": dict(zip(obs.task_ids, obs.rows.tolist())),
        "candidates": list(obs.candidates),
        "scheduled": None if obs.scheduled is None else list(obs.scheduled),
    }


def _finite(values, width: int, what: str) -> list:
    """`values` if it is a list of `width` finite numbers."""
    if not isinstance(values, (list, tuple)) or len(values) != width:
        raise StructuralError(f"{what} must be {width} finite numbers, got {values!r}")
    return [_number(v, what) for v in values]


def observation_from_dict(data: dict) -> Observation:
    """Raises StructuralError unless the tick is an integer >= 0, every
    feature row is finite and of its width, the candidates are distinct
    featurized tasks and `scheduled` is null or a pair naming a candidate."""
    features = data["task_features"]
    if not isinstance(features, dict):
        raise StructuralError(f"task_features must map task ids to feature rows, "
                              f"got {features!r}")
    task_ids = tuple(sorted(features))
    values = []
    for tid in task_ids:
        values += _finite(features[tid], len(TASK_FEATURE_NAMES), f"task {tid!r} features")
    candidates = tuple(data["candidates"])
    missing = [tid for tid in candidates if tid not in task_ids]
    if missing:
        raise StructuralError(f"candidates {missing!r} have no task features")
    if len(set(candidates)) < len(candidates):
        raise StructuralError(f"candidates must be distinct, got {data['candidates']!r}")
    scheduled = data["scheduled"]
    if scheduled is not None and (not isinstance(scheduled, (list, tuple))
                                  or len(scheduled) != 2 or scheduled[0] not in candidates):
        raise StructuralError(f"scheduled must be null or a [candidate, agent id] pair, "
                              f"got {scheduled!r}")
    tick = _number(data["tick"], "tick", (int,))
    if tick < 0:
        raise StructuralError(f"tick must be at least 0, got {tick!r}")
    return Observation(
        tick=tick,
        context=tuple(_finite(data["context"], len(CONTEXT_FEATURE_NAMES), "context")),
        task_ids=task_ids,
        rows=_block(values),
        candidates=candidates,
        scheduled=None if scheduled is None else tuple(scheduled),
    )
