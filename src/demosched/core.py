"""Domain types, simulation state, feasibility semantics and schedule validation.

Time is discretized to integer ticks. Travel times round up, so feasibility
checks are conservative. All state objects have value semantics: operations
return new states and never mutate their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = "v1"

Point = tuple[float, float]


class StructuralError(ValueError):
    """A problem or schedule references something that does not exist."""


class InfeasibleActionError(RuntimeError):
    """An action violated a simulation precondition. Names the condition."""


def euclidean(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


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

    def capable_agents(self) -> list[str]:
        return sorted(self.durations)

    def duration_for(self, agent_id: str) -> int:
        try:
            return self.durations[agent_id]
        except KeyError:
            raise StructuralError(
                f"agent {agent_id!r} cannot perform task {self.id!r}"
            ) from None


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

    def check(self) -> None:
        agent_ids = [a.id for a in self.agents]
        task_ids = [t.id for t in self.tasks]
        if len(set(agent_ids)) != len(agent_ids):
            raise StructuralError("duplicate agent ids")
        if len(set(task_ids)) != len(task_ids):
            raise StructuralError("duplicate task ids")
        known = set(task_ids)
        for agent in self.agents:
            if agent.speed <= 0:
                raise StructuralError(f"agent {agent.id!r} has non-positive speed")
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
            for other, _ in task.waits:
                if other not in known:
                    raise StructuralError(
                        f"task {task.id!r} references unknown task {other!r}"
                    )
        self._check_wait_acyclic()
        max_dur_sum = sum(max(t.durations.values()) for t in self.tasks)
        if self.horizon < max_dur_sum:
            raise StructuralError(
                f"horizon {self.horizon} below sum of max durations {max_dur_sum}"
            )

    def _check_wait_acyclic(self) -> None:
        order, stack = {}, set()
        graph = {t.id: [p for p, _ in t.waits] for t in self.tasks}

        def visit(node: str) -> None:
            if node in order:
                return
            if node in stack:
                raise StructuralError("wait-constraint graph has a cycle")
            stack.add(node)
            for pred in graph[node]:
                visit(pred)
            stack.discard(node)
            order[node] = len(order)

        for tid in graph:
            visit(tid)

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise StructuralError(f"unknown task {task_id!r}")

    def agent(self, agent_id: str) -> AgentSpec:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise StructuralError(f"unknown agent {agent_id!r}")

    def effective_deadline(self, task: TaskSpec) -> int:
        """Absolute deadline, or the horizon for deadline-less tasks."""
        return task.abs_deadline if task.abs_deadline is not None else self.horizon

    def contention_degree(self) -> int:
        """Sum over all ordered task pairs (i, j), including i == j, of
        the indicator that they require the same resource."""
        counts: dict[str, int] = {}
        for t in self.tasks:
            counts[t.resource] = counts.get(t.resource, 0) + 1
        return sum(n * n for n in counts.values())


@dataclass(frozen=True)
class SimState:
    time: int
    started: dict[str, tuple[str, int]]  # task id -> (agent id, start)
    finished: dict[str, int]  # task id -> finish tick (finish <= time)
    pending_finish: dict[str, int]  # started, finish tick still in the future
    agent_location: dict[str, Point]
    agent_busy_until: dict[str, int]
    resource_busy_until: dict[str, int]

    @classmethod
    def initial(cls, problem: ProblemInstance) -> "SimState":
        return cls(
            time=0,
            started={},
            finished={},
            pending_finish={},
            agent_location={a.id: a.start_location for a in problem.agents},
            agent_busy_until={a.id: 0 for a in problem.agents},
            resource_busy_until={r: 0 for r in problem.resources},
        )

    def agent_idle(self, agent_id: str) -> bool:
        return self.agent_busy_until[agent_id] <= self.time

    def resource_free(self, resource: str) -> bool:
        return self.resource_busy_until[resource] <= self.time

    def unfinished(self, problem: ProblemInstance) -> list[TaskSpec]:
        return [t for t in problem.tasks if t.id not in self.finished
                and t.id not in self.pending_finish]

    def advanced_to(self, time: int) -> "SimState":
        """Move the clock forward, completing tasks whose finish has passed."""
        if time < self.time:
            raise ValueError("time cannot move backwards")
        finished = dict(self.finished)
        pending = {}
        for tid, f in self.pending_finish.items():
            if f <= time:
                finished[tid] = f
            else:
                pending[tid] = f
        return replace(self, time=time, finished=finished, pending_finish=pending)


def is_alive_enabled(state: SimState, task: TaskSpec) -> bool:
    """True iff every wait predecessor of `task` finished at least W ticks ago."""
    if task.id in state.started:
        raise InfeasibleActionError(f"task {task.id!r} already started")
    for pred, gap in task.waits:
        if pred not in state.finished:
            return False  # unfinished (or merely pending) predecessor
        if state.time < state.finished[pred] + gap:
            return False
    return True


def agent_can_reach(state: SimState, agent: AgentSpec, task: TaskSpec) -> bool:
    """True iff the agent, travelling since it was last freed, is at the task
    location by the current tick."""
    dist = euclidean(state.agent_location[agent.id], task.location)
    arrival = state.agent_busy_until[agent.id] + travel_ticks(dist, agent.speed)
    return state.time >= arrival


def apply_action(
    state: SimState, problem: ProblemInstance, task_id: str, agent_id: str
) -> SimState:
    """Start `task_id` on `agent_id` at the current tick.

    Raises InfeasibleActionError naming the violated precondition.
    """
    task = problem.task(task_id)
    agent = problem.agent(agent_id)
    if task_id in state.started:
        raise InfeasibleActionError(f"task {task_id!r} already started")
    if not state.agent_idle(agent_id):
        raise InfeasibleActionError(f"agent {agent_id!r} busy at t={state.time}")
    if not is_alive_enabled(state, task):
        raise InfeasibleActionError(f"task {task_id!r} not alive-and-enabled")
    if not state.resource_free(task.resource):
        raise InfeasibleActionError(f"resource {task.resource!r} busy")
    if not agent_can_reach(state, agent, task):
        raise InfeasibleActionError(f"agent {agent_id!r} cannot reach {task_id!r}")
    duration = task.duration_for(agent_id)
    finish = state.time + duration

    started = dict(state.started)
    started[task_id] = (agent_id, state.time)
    pending = dict(state.pending_finish)
    pending[task_id] = finish
    agent_location = dict(state.agent_location)
    agent_location[agent_id] = task.location
    agent_busy = dict(state.agent_busy_until)
    agent_busy[agent_id] = finish
    resource_busy = dict(state.resource_busy_until)
    resource_busy[task.resource] = finish
    return replace(
        state,
        started=started,
        pending_finish=pending,
        agent_location=agent_location,
        agent_busy_until=agent_busy,
        resource_busy_until=resource_busy,
    )


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
    def from_entries(
        cls, entries: list[ScheduleEntry], problem: ProblemInstance | None = None
    ) -> "Schedule":
        ordered = tuple(sorted(entries, key=lambda e: (e.start, e.task_id)))
        objective = max((e.finish for e in ordered), default=0)
        complete = True
        if problem is not None:
            scheduled = [e.task_id for e in ordered]
            complete = sorted(scheduled) == sorted(t.id for t in problem.tasks)
        return cls(entries=ordered, objective=objective, complete=complete)

    def assignment(self) -> dict[str, str]:
        return {e.task_id: e.agent_id for e in self.entries}

    def entry(self, task_id: str) -> ScheduleEntry:
        for e in self.entries:
            if e.task_id == task_id:
                return e
        raise StructuralError(f"task {task_id!r} not in schedule")


def makespan(schedule: Schedule) -> int:
    return max((e.finish for e in schedule.entries), default=0)


@dataclass(frozen=True)
class Violation:
    kind: str  # wait | abs_deadline | resource_overlap | agent_overlap |
    #            reachability | duration | coverage
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations


def validate_schedule(problem: ProblemInstance, schedule: Schedule) -> FeasibilityReport:
    """Replay every constraint against the schedule. Violations are data."""
    out: list[Violation] = []
    entries = {e.task_id: e for e in schedule.entries}
    seen: dict[str, int] = {}
    for e in schedule.entries:
        seen[e.task_id] = seen.get(e.task_id, 0) + 1
    for tid, n in seen.items():
        if n > 1:
            out.append(Violation("coverage", f"task {tid!r} scheduled {n} times"))

    for e in schedule.entries:
        task = problem.task(e.task_id)
        expected = task.duration_for(e.agent_id)
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
    for e in schedule.entries:
        by_resource.setdefault(problem.task(e.task_id).resource, []).append(e)
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
        agent = problem.agent(agent_id)
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
            task = problem.task(e.task_id)
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
        grid_size=tuple(data["grid_size"]),
        agents=tuple(
            AgentSpec(a["id"], tuple(a["start_location"]), a["speed"])
            for a in data["agents"]
        ),
        tasks=tuple(
            TaskSpec(
                id=t["id"],
                location=tuple(t["location"]),
                durations={k: int(v) for k, v in t["durations"].items()},
                resource=t["resource"],
                abs_deadline=t.get("abs_deadline"),
                waits=tuple((w[0], int(w[1])) for w in t.get("waits", [])),
            )
            for t in data["tasks"]
        ),
        resources=tuple(data["resources"]),
        horizon=int(data["horizon"]),
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
    return Schedule(
        entries=tuple(ScheduleEntry(t, a, int(s), int(f)) for t, a, s, f in data["entries"]),
        objective=int(data["objective"]),
        complete=bool(data["complete"]),
    )


def save_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
