"""Domain types, the compiled problem, simulation state, feasibility
semantics and schedule validation.

Time is discretized to integer ticks. Travel times round up, so feasibility
checks are conservative. All state objects have value semantics: operations
return new states and never mutate their inputs.

`Compiled` turns a problem into index tables, built once per problem on
first use of `ProblemInstance.compiled`: the simulator, the featurizer, the
schedulability test and branch and bound all read those tables, and speak
only indices; the tables keep the ids and refer to no problem, so they
outlive it. Generating, demonstrating and replaying one problem compile it
once. Only `validate_schedule` re-derives travel from the points, on
purpose: it is the independent oracle the other paths are checked against.

A partial schedule is four sequences over those indices (agent release
times and locations, resource release times, task finishes), empty in
`Compiled.empty` and appended to only by `place`, which `SimState`, branch
and bound and the exhaustive oracle share. Every placement finishes after
its agent's release time, so the latest release time is the makespan.
`release` is the one wait rule of every exact form: branch and bound and
the oracle time each append by it, and `SimState.candidates` (exactly the
tasks `apply_action` accepts), `apply_action` and the featurizer test the
clock against it. The search's `lower_bound` and the replay's
schedulability test are relaxations that walk the waits their own way.
"""

from __future__ import annotations

import graphlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

SCHEMA_VERSION = "v1"

Point = tuple[float, float]


class StructuralError(ValueError):
    """A problem or schedule references something that does not exist."""


class InfeasibleActionError(RuntimeError):
    """An action violated a simulation precondition. Names the condition."""


def euclidean(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def origin_angle(a: Point, b: Point) -> float:
    """Angle in radians between the origin->a and origin->b vectors.

    Zero-length vectors make the angle undefined; treat it as 0, and so
    too when the product of the two lengths underflows to 0.
    """
    return _angle(a, b, math.hypot(*a), math.hypot(*b))


def _angle(a: Point, b: Point, na: float, nb: float) -> float:
    """`origin_angle(a, b)` given the norms of a and b. Swapping a and b
    gives the same float: the products and their sum commute exactly."""
    norms = na * nb
    if norms == 0.0:
        return 0.0
    cos = (a[0] * b[0] + a[1] * b[1]) / norms
    return math.acos(max(-1.0, min(1.0, cos)))


def travel_ticks(distance: float, speed: float) -> int:
    """Whole ticks needed to cover `distance` at `speed`, rounded up."""
    if distance <= 0.0:
        return 0
    # guard against float fuzz turning e.g. 3.0000000004 into 4
    return int(math.ceil(round(distance / speed, 9)))


@dataclass(frozen=True)
class TaskSpec:
    id: str
    location: Point
    durations: dict[str, int]  # agent id -> ticks; absent entry = incapable
    resource: str
    abs_deadline: int | None = None
    waits: tuple[tuple[str, int], ...] = ()  # (predecessor id, min gap W)


@dataclass(frozen=True)
class AgentSpec:
    id: str
    start_location: Point
    speed: float


@dataclass(frozen=True)
class ProblemInstance:
    grid_size: tuple[float, float]
    agents: tuple[AgentSpec, ...]
    tasks: tuple[TaskSpec, ...]
    resources: tuple[str, ...]
    horizon: int

    def __post_init__(self):
        self.check()

    @cached_property
    def compiled(self) -> "Compiled":
        """This problem's tables, built on first use and kept with it. A
        problem is immutable, so they never go stale; `dataclasses.replace`
        makes a new problem, which builds its own."""
        return Compiled(self)

    def check(self) -> None:
        agent_ids = [a.id for a in self.agents]
        task_ids = [t.id for t in self.tasks]
        for kind, ids in (("agent", agent_ids), ("task", task_ids), ("resource", self.resources)):
            if len(set(ids)) != len(ids):
                raise StructuralError(f"duplicate {kind} ids")
        if not self.tasks:
            raise StructuralError("problem has no tasks")
        known = set(task_ids)
        # no trip is longer than the diagonal of the points' bounding box
        xs, ys = zip(*[t.location for t in self.tasks], *[a.start_location for a in self.agents])
        span = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        for agent in self.agents:
            if agent.speed <= 0:
                raise StructuralError(f"agent {agent.id!r} has non-positive speed")
            if not math.isfinite(span / agent.speed):
                raise StructuralError(f"agent {agent.id!r} travel is not a finite number of ticks")
        for task in self.tasks:
            if not task.durations:
                raise StructuralError(f"task {task.id!r} has no capable agent")
            for agent_id, dur in task.durations.items():
                if agent_id not in agent_ids:
                    raise StructuralError(
                        f"task {task.id!r} names unknown agent {agent_id!r}"
                    )
                if dur <= 0:
                    raise StructuralError(f"task {task.id!r} has non-positive duration")
            if task.resource not in self.resources:
                raise StructuralError(
                    f"task {task.id!r} requires unknown resource {task.resource!r}"
                )
            for other, gap in task.waits:
                if other not in known:
                    raise StructuralError(
                        f"task {task.id!r} references unknown task {other!r}"
                    )
                if gap < 0:
                    raise StructuralError(
                        f"task {task.id!r} has negative wait gap {gap} after {other!r}"
                    )
        graph = {t.id: [p for p, _ in t.waits] for t in self.tasks}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as exc:
            raise StructuralError("wait-constraint graph has a cycle") from exc
        max_dur_sum = sum(max(t.durations.values()) for t in self.tasks)
        if self.horizon < max_dur_sum:
            raise StructuralError(
                f"horizon {self.horizon} below sum of max durations {max_dur_sum}"
            )

    def contention_degree(self) -> int:
        """Sum over all ordered task pairs (i, j), including i == j, of
        the indicator that they require the same resource."""
        counts: dict[str, int] = {}
        for t in self.tasks:
            counts[t.resource] = counts.get(t.resource, 0) + 1
        return sum(n * n for n in counts.values())


def _argsort(values: list) -> list[int]:
    """The indices of `values` in ascending order of value."""
    return sorted(range(len(values)), key=values.__getitem__)


class Compiled:
    """One problem as tables, built once per problem: read them as
    `ProblemInstance.compiled`, which builds them on first use.

    Tasks, agents and resources are indexed by their position in the
    problem. Locations are indexed too: task t's location is t and agent
    j's start location is num_tasks + j. `distance[loc][t]` is the distance
    from a location to task t, `angle[loc][t]` the angle at the origin
    between the two points and `travel[a][loc][t]` agent a's travel ticks
    over that distance: the one place arrival times are derived.
    `capable[t]` lists the agents able to do t in id order; `duration[t][a]`
    is None where a cannot. `deadline[t]` is the horizon, or t's absolute
    deadline where that is earlier. `task_order` and `agent_order` list the
    indices in id (string) order and `task_rank[t]` is t's position in
    `task_order`. `task_ids`, `agent_ids` and `resource_ids` give each
    index's id, so the tables refer to no problem. `empty` is the partial
    schedule with nothing placed. The search's tables (see `optimizer`),
    `min_duration`, `from_task`, `unit_load`, `topological` and `routes`,
    are None until the problem's first search builds them, for every later
    search to share. Its route tables hold 2·(n+2)·2ⁿ floats, about 0.9 MB
    at 12 tasks. No table changes once built.
    """

    __slots__ = ("task_ids", "agent_ids", "resource_ids", "task_index", "agent_index",
                 "task_order", "agent_order", "task_rank", "resource",
                 "duration", "capable", "deadline", "waits", "start_loc", "empty",
                 "distance", "angle", "travel", "min_duration", "from_task",
                 "unit_load", "topological", "routes")

    def __init__(self, problem: ProblemInstance):
        tasks, agents = problem.tasks, problem.agents
        self.task_ids = [t.id for t in tasks]
        self.agent_ids = [a.id for a in agents]
        self.resource_ids = list(problem.resources)
        self.task_index = {tid: i for i, tid in enumerate(self.task_ids)}
        self.agent_index = {aid: j for j, aid in enumerate(self.agent_ids)}
        self.task_order = _argsort(self.task_ids)
        self.agent_order = _argsort(self.agent_ids)
        self.task_rank = _argsort(self.task_order)  # the inverse permutation
        res_index = {r: k for k, r in enumerate(self.resource_ids)}
        self.resource = [res_index[t.resource] for t in tasks]
        self.duration = [[t.durations.get(a.id) for a in agents] for t in tasks]
        self.capable = [tuple(self.agent_index[a] for a in sorted(t.durations))
                        for t in tasks]
        self.deadline = [problem.horizon if t.abs_deadline is None
                         else min(t.abs_deadline, problem.horizon) for t in tasks]
        self.waits = [tuple((self.task_index[p], gap) for p, gap in t.waits)
                      for t in tasks]
        n = len(tasks)
        self.start_loc = tuple(range(n, n + len(agents)))
        self.empty = ((0,) * len(agents), self.start_loc,
                      (0,) * len(self.resource_ids), (None,) * n)
        location = [t.location for t in tasks] + [a.start_location for a in agents]
        norm = [math.hypot(*p) for p in location]
        self.distance = [[0.0] * n for _ in location]
        self.angle = [[0.0] * n for _ in location]
        for i, p in enumerate(location):
            dist_i, angle_i = self.distance[i], self.angle[i]
            # task-to-task distances and angles are symmetric to the bit, so
            # a task row starts at the diagonal and mirrors into the columns;
            # an agent's start row is filled in full
            for t in range(i if i < n else 0, n):
                q = location[t]
                d, theta = euclidean(p, q), _angle(p, q, norm[i], norm[t])
                dist_i[t], angle_i[t] = d, theta
                if i < n:
                    self.distance[t][i], self.angle[t][i] = d, theta
        # grid points repeat distances (about 90 distinct of 440 at 20
        # tasks), so each agent rounds each distinct distance once
        distinct = {d for row in self.distance for d in row}
        self.travel = []
        for a in agents:
            ticks = {d: travel_ticks(d, a.speed) for d in distinct}
            self.travel.append([[ticks[d] for d in row] for row in self.distance])
        self.min_duration = self.from_task = self.unit_load = None
        self.topological = self.routes = None

    def task_at(self, task_id: str) -> int:
        try:
            return self.task_index[task_id]
        except KeyError:
            raise StructuralError(f"unknown task {task_id!r}") from None

    def agent_at(self, agent_id: str) -> int:
        try:
            return self.agent_index[agent_id]
        except KeyError:
            raise StructuralError(f"unknown agent {agent_id!r}") from None

    def schedule(self, placements) -> Schedule:
        """The Schedule of (task, agent, start, finish) index placements."""
        return Schedule.from_entries(
            [ScheduleEntry(self.task_ids[t], self.agent_ids[a], start, fin)
             for t, a, start, fin in placements],
            self.task_ids,
        )


def release(cp: Compiled, t: int, finish, floor: int) -> int | None:
    """The latest of `floor` and each wait predecessor's finish plus its
    gap, or None while one is unplaced: the earliest tick task t can start.
    Placing passes t's resource's release as `floor`, and t starts on agent
    a at the later of this and a's arrival; a wait test passes 0."""
    ready = floor
    for p, gap in cp.waits[t]:
        if finish[p] is None:
            return None
        ready = max(ready, finish[p] + gap)
    return ready


def place(cp: Compiled, agent_free, agent_loc, res_free, finish, t: int,
          a: int, fin: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The partial schedule's four sequences after task t is placed on agent
    a to finish at `fin`, which releases a (at t) and t's resource."""
    r = cp.resource[t]
    return (agent_free[:a] + (fin,) + agent_free[a + 1:],
            agent_loc[:a] + (t,) + agent_loc[a + 1:],
            res_free[:r] + (fin,) + res_free[r + 1:],
            finish[:t] + (fin,) + finish[t + 1:])


@dataclass(frozen=True)
class SimState:
    """A partial schedule at a tick, over the compiled problem's indices:
    per-agent release times and location indices, per-resource release
    times, per-task finish times (None until started) and the placements
    made so far. A started task has finished once its finish is at or
    before `time` and is pending while it is after.

    Invariant: placements are only appended by `apply_action`, which starts
    a task on an idle agent, so an agent's release time is the finish of
    its last placement (0 before its first) and no placement finishes
    later. Every task has therefore finished once all are placed and no
    agent's release time is after `time`, which is what `all_finished`
    checks.
    """

    compiled: Compiled
    time: int
    agent_free: tuple[int, ...]
    agent_loc: tuple[int, ...]
    res_free: tuple[int, ...]
    finish: tuple[int | None, ...]
    placements: tuple[tuple[int, int, int, int], ...]  # (task, agent, start, finish)

    @classmethod
    def initial(cls, problem: ProblemInstance) -> "SimState":
        cp = problem.compiled
        return cls(cp, 0, *cp.empty, ())

    def unfinished(self) -> list[int]:
        """Tasks not yet started, in problem order."""
        return [t for t, f in enumerate(self.finish) if f is None]

    def all_finished(self) -> bool:
        return (len(self.placements) == len(self.finish)
                and max(self.agent_free, default=0) <= self.time)

    def candidates(self, a: int) -> list[int]:
        """Tasks agent a could start now, in problem order: exactly those
        `apply_action` accepts. Each is unstarted and within a's capability,
        `release` over its resource's release is not after now, and a's
        travel to it fits since a was freed, so a busy agent has none."""
        cp, finish, now = self.compiled, self.finish, self.time
        slack = now - self.agent_free[a]
        travel, res_free = cp.travel[a][self.agent_loc[a]], self.res_free
        duration, resource = cp.duration, cp.resource
        return [t for t, f in enumerate(finish)
                if f is None and duration[t][a] is not None and travel[t] <= slack
                and (ready := release(cp, t, finish, res_free[resource[t]])) is not None
                and ready <= now]

    def advanced_to(self, time: int) -> "SimState":
        """Move the clock forward."""
        if time < self.time:
            raise ValueError("time cannot move backwards")
        return SimState(self.compiled, time, self.agent_free, self.agent_loc,
                        self.res_free, self.finish, self.placements)


def apply_action(state: SimState, t: int, a: int) -> SimState:
    """Start task t on agent a at the current tick.

    Raises StructuralError for an index out of range and
    InfeasibleActionError naming the violated precondition.
    """
    cp, now = state.compiled, state.time
    # a negative index would silently alias a task or agent from the end
    if not (0 <= t < len(cp.task_ids) and 0 <= a < len(cp.agent_ids)):
        raise StructuralError(f"task index {t} or agent index {a} out of range")
    task_id, agent_id = cp.task_ids[t], cp.agent_ids[a]
    if state.finish[t] is not None:
        raise InfeasibleActionError(f"task {task_id!r} already started")
    if state.agent_free[a] > now:
        raise InfeasibleActionError(f"agent {agent_id!r} busy at t={now}")
    ready = release(cp, t, state.finish, 0)
    if ready is None or ready > now:
        raise InfeasibleActionError(f"task {task_id!r} not alive-and-enabled")
    r = cp.resource[t]
    if state.res_free[r] > now:
        raise InfeasibleActionError(f"resource {cp.resource_ids[r]!r} busy")
    if state.agent_free[a] + cp.travel[a][state.agent_loc[a]][t] > now:
        raise InfeasibleActionError(f"agent {agent_id!r} cannot reach {task_id!r}")
    if cp.duration[t][a] is None:
        raise StructuralError(f"agent {agent_id!r} cannot perform task {task_id!r}")
    fin = now + cp.duration[t][a]
    return SimState(cp, now, *place(cp, state.agent_free, state.agent_loc,
                                    state.res_free, state.finish, t, a, fin),
                    state.placements + ((t, a, now, fin),))


@dataclass(frozen=True)
class ScheduleEntry:
    task_id: str
    agent_id: str
    start: int
    finish: int


@dataclass(frozen=True)
class Schedule:
    entries: tuple[ScheduleEntry, ...]
    objective: int
    complete: bool

    @classmethod
    def from_entries(cls, entries: list[ScheduleEntry], task_ids: list[str]) -> "Schedule":
        """Complete iff `entries` place each of `task_ids` exactly once."""
        ordered = tuple(sorted(entries, key=lambda e: (e.start, e.task_id)))
        objective = max((e.finish for e in ordered), default=0)
        complete = sorted(e.task_id for e in ordered) == sorted(task_ids)
        return cls(entries=ordered, objective=objective, complete=complete)


@dataclass(frozen=True)
class Violation:
    kind: str  # assignment | wait | abs_deadline | horizon | resource_overlap |
    #            agent_overlap | reachability | duration | coverage
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations


def validate_schedule(problem: ProblemInstance, schedule: Schedule) -> FeasibilityReport:
    """Replay every constraint against the schedule. Violations are data, never raised."""
    out: list[Violation] = []
    tasks = {t.id: t for t in problem.tasks}
    agents = {a.id: a for a in problem.agents}
    placed = []  # entries the problem can place; only these are checked further
    for e in schedule.entries:
        task = tasks.get(e.task_id)
        if task is not None and e.agent_id in task.durations:
            placed.append(e)
        else:
            why = ("unknown task" if task is None else
                   "unknown agent" if e.agent_id not in agents else "agent cannot perform it")
            out.append(Violation("assignment",
                                 f"task {e.task_id!r} on agent {e.agent_id!r}: {why}"))

    entries = {e.task_id: e for e in placed}
    for tid, n in Counter(e.task_id for e in placed).items():
        if n > 1:
            out.append(Violation("coverage", f"task {tid!r} scheduled {n} times"))

    for e in placed:
        task = tasks[e.task_id]
        expected = task.durations[e.agent_id]
        if e.finish - e.start != expected:
            out.append(Violation(
                "duration",
                f"task {e.task_id!r} has span {e.finish - e.start}, expected {expected}",
            ))
        if task.abs_deadline is not None and e.finish > task.abs_deadline:
            out.append(Violation(
                "abs_deadline",
                f"task {e.task_id!r} finishes {e.finish} > {task.abs_deadline}",
            ))
        if e.finish > problem.horizon:
            out.append(Violation(
                "horizon",
                f"task {e.task_id!r} finishes {e.finish} > horizon {problem.horizon}",
            ))
        for pred, gap in task.waits:
            if pred not in entries:
                out.append(Violation("wait", f"predecessor {pred!r} unscheduled"))
            elif e.start < entries[pred].finish + gap:
                out.append(Violation(
                    "wait",
                    f"task {e.task_id!r} starts {e.start} before "
                    f"{pred!r} finish {entries[pred].finish} + {gap}",
                ))

    # mutual exclusion per resource and per agent
    def overlap(a: ScheduleEntry, b: ScheduleEntry) -> bool:
        return a.start < b.finish and b.start < a.finish

    by_resource: dict[str, list[ScheduleEntry]] = {}
    by_agent: dict[str, list[ScheduleEntry]] = {}
    for e in placed:
        by_resource.setdefault(tasks[e.task_id].resource, []).append(e)
        by_agent.setdefault(e.agent_id, []).append(e)
    for res, group in by_resource.items():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if overlap(a, b):
                    out.append(Violation(
                        "resource_overlap",
                        f"{a.task_id!r} and {b.task_id!r} overlap on {res!r}",
                    ))
    for agent_id, group in by_agent.items():
        agent = agents[agent_id]
        ordered = sorted(group, key=lambda e: e.start)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if overlap(a, b):
                    out.append(Violation(
                        "agent_overlap",
                        f"{a.task_id!r} and {b.task_id!r} overlap on agent {agent_id!r}",
                    ))
        # reachability along the agent's chain of tasks
        loc = agent.start_location
        free = 0
        for e in ordered:
            task = tasks[e.task_id]
            arrival = free + travel_ticks(euclidean(loc, task.location), agent.speed)
            if e.start < arrival:
                out.append(Violation(
                    "reachability",
                    f"agent {agent_id!r} cannot reach {e.task_id!r} by {e.start} "
                    f"(earliest {arrival})",
                ))
            loc = task.location
            free = max(free, e.finish)
    return FeasibilityReport(tuple(out))


# ---------------------------------------------------------------------------
# JSON serialization (stable v1 schema)
# ---------------------------------------------------------------------------

TASK_KEYS = ("id", "location", "durations", "resource", "abs_deadline", "waits")


def problem_to_dict(problem: ProblemInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "grid_size": list(problem.grid_size),
        "agents": [
            {"id": a.id, "start_location": list(a.start_location), "speed": a.speed}
            for a in problem.agents
        ],
        "tasks": [
            {
                "id": t.id,
                "location": list(t.location),
                "durations": dict(t.durations),
                "resource": t.resource,
                "abs_deadline": t.abs_deadline,
                "waits": [list(w) for w in t.waits],
            }
            for t in problem.tasks
        ],
        "resources": list(problem.resources),
        "horizon": problem.horizon,
    }


def _number(value, what: str, kinds=(int, float)):
    """`value` if it is a finite number of a type in `kinds`; a bool never
    is, nor an int too large for a float, as loaded numbers become feature
    values and coordinates."""
    if type(value) not in kinds or not abs(value) < math.inf:
        noun = "an integer" if kinds == (int,) else "a finite number"
        raise StructuralError(f"{what} must be {noun}, got {value!r}")
    if abs(value) > sys.float_info.max:  # only an int gets here
        raise StructuralError(f"{what} must be at most {sys.float_info.max!r} in size, "
                              f"got {value!r}")
    return value


def _id(value, what: str) -> str:
    if not isinstance(value, str):
        raise StructuralError(f"{what} must be a string, got {value!r}")
    return value


def _point(value, what: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise StructuralError(f"{what} must be two finite numbers, got {value!r}")
    return tuple(_number(v, what) for v in value)


def _durations(value, what: str) -> dict[str, int]:
    if not isinstance(value, dict):
        raise StructuralError(f"{what} must be an object of integers, got {value!r}")
    return {k: _number(v, what, (int,)) for k, v in value.items()}


def _wait(value, what: str) -> tuple[str, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not isinstance(value[0], str):
        raise StructuralError(f"{what} must be a [task id, integer] pair, got {value!r}")
    return value[0], _number(value[1], f"{what} gap", (int,))


def problem_from_dict(data: dict) -> ProblemInstance:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema version {data.get('schema_version')!r}")
    for t in data["tasks"]:
        # a constraint nothing enforces is rejected rather than silently
        # dropped; unknown keys that set nothing (e.g. an empty list) load
        unknown = sorted(k for k, v in t.items() if k not in TASK_KEYS and v)
        if unknown:
            raise StructuralError(f"task {t.get('id')!r} sets unsupported {unknown}")
    return ProblemInstance(
        grid_size=_point(data["grid_size"], "grid_size"),
        agents=tuple(
            AgentSpec(_id(a["id"], "agent id"),
                      _point(a["start_location"], f"agent {a['id']!r} start_location"),
                      _number(a["speed"], f"agent {a['id']!r} speed"))
            for a in data["agents"]
        ),
        tasks=tuple(
            TaskSpec(
                id=_id(t["id"], "task id"),
                location=_point(t["location"], f"task {t['id']!r} location"),
                durations=_durations(t["durations"], f"task {t['id']!r} durations"),
                resource=_id(t["resource"], f"task {t['id']!r} resource"),
                abs_deadline=None if t.get("abs_deadline") is None else _number(
                    t["abs_deadline"], f"task {t['id']!r} abs_deadline", (int,)),
                waits=tuple(_wait(w, f"task {t['id']!r} wait") for w in t.get("waits", [])),
            )
            for t in data["tasks"]
        ),
        resources=tuple(_id(r, "resource id") for r in data["resources"]),
        horizon=_number(data["horizon"], "horizon", (int,)),
    )


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "entries": [
            [e.task_id, e.agent_id, e.start, e.finish] for e in schedule.entries
        ],
        "objective": schedule.objective,
        "complete": schedule.complete,
    }


def schedule_from_dict(data: dict) -> Schedule:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema version {data.get('schema_version')!r}")
    if type(data["complete"]) is not bool:
        raise StructuralError(f"schedule complete must be true or false, got {data['complete']!r}")
    return Schedule(
        entries=tuple(_entry(e, k) for k, e in enumerate(data["entries"])),
        objective=_number(data["objective"], "schedule objective", (int,)),
        complete=data["complete"],
    )


def _entry(value, k: int) -> ScheduleEntry:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise StructuralError(
            f"schedule entry {k} must be [task id, agent id, start, finish], got {value!r}")
    task_id, agent_id, start, finish = value
    _id(task_id, f"schedule entry {k} task id")
    what = f"schedule entry {k} (task {task_id!r})"
    return ScheduleEntry(task_id, _id(agent_id, f"{what} agent id"),
                         _number(start, f"{what} start", (int,)),
                         _number(finish, f"{what} finish", (int,)))


def save_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
