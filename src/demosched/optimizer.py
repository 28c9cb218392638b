"""Exact makespan optimization by branch and bound, optionally warm-started
from a policy-built schedule.

Nodes are partial schedules grown by appending one (task, agent) placement
at its earliest feasible start. Appends are restricted to nondecreasing
(start, task id) order, which enumerates each left-shifted schedule exactly
once; for makespan with wait constraints and absolute deadlines that class
always contains an optimum.

The search is depth-first with children visited in fixed lexicographic
(task, agent) order. That order never depends on the incumbent, so a warm
start can only prune subtrees the cold run would have entered, never add
work: the seeded node count is at most the cold one. (A pure best-bound
queue would make seeding worthless for node counts: it pops the identical
node sequence either way, since the nodes an incumbent prunes are exactly
those it would never pop. Likewise, orderings that dive by bound or by
earliest start embed a greedy dispatch heuristic that finds near-optimal
incumbents within a handful of nodes on its own, leaving a seed nothing to
prune.)
"""

from __future__ import annotations

import itertools
import math
import time as _time
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    euclidean,
    travel_ticks,
    validate_schedule,
)
from .scheduler import SchedulerConfig, construct_schedule

GAP_THRESHOLD = 1e-3


@dataclass(frozen=True)
class BnBResult:
    schedule: Schedule | None
    objective: int | None
    lower_bound: float
    gap: float
    nodes_explored: int
    wall_time: float
    seeded: bool
    seed_objective: int | None
    incumbent_trace: tuple[tuple[int, int], ...]  # (nodes explored, objective)
    status: str  # optimal | gap_reached | node_limit | time_limit | infeasible


class _Node:
    __slots__ = ("entries", "agent_free", "agent_loc", "res_free", "finish", "bound")

    def __init__(self, entries, agent_free, agent_loc, res_free, finish, bound):
        self.entries = entries
        self.agent_free = agent_free
        self.agent_loc = agent_loc
        self.res_free = res_free
        self.finish = finish
        self.bound = bound


def _earliest_start(problem: ProblemInstance, task, agent_id: str, agent_free: dict,
                    agent_loc: dict, res_free: dict, finish: dict) -> tuple[int, int]:
    """(start, finish) of `task` on `agent_id` appended after the placements
    summarized by the dicts: the latest of its wait releases, its resource's
    release and the agent's arrival. Every wait predecessor must be placed.
    """
    enable = 0
    for pred, gap in task.waits:
        enable = max(enable, finish[pred] + gap)
    dist = euclidean(agent_loc[agent_id], task.location)
    arrival = agent_free[agent_id] + travel_ticks(dist, problem.agent(agent_id).speed)
    start = max(enable, res_free[task.resource], arrival)
    return start, start + task.duration_for(agent_id)


def _min_duration(task) -> int:
    return min(task.durations.values())


def _make_lower_bound(problem: ProblemInstance):
    """Build a makespan lower bound specialized to one problem.

    Components, each individually admissible:
    - current makespan of the partial schedule;
    - mean agent load: remaining durations plus an incremental travel charge
      per task (the performing agent arrives either from where it stands now
      or from some other task's location, so the cheaper of the two is a
      valid floor on the travel it still owes);
    - per-resource serialization from each resource's release time;
    - wait-chain critical path, floored by how soon any capable agent could
      physically reach each task (direct travel never overestimates a
      detour, by the triangle inequality).
    """
    num_agents = len(problem.agents)
    speed = {a.id: a.speed for a in problem.agents}
    # cheapest hop into each task from any other task's location, using the
    # fastest capable agent: a static floor on incremental travel
    from_task: dict[str, int] = {}
    for t in problem.tasks:
        smax = max(speed[a] for a in t.capable_agents())
        hops = [
            travel_ticks(euclidean(u.location, t.location), smax)
            for u in problem.tasks
            if u.id != t.id
        ]
        from_task[t.id] = min(hops) if hops else 0
    travel_memo: dict[tuple, int] = {}

    def hop(loc, task, agent_id) -> int:
        key = (loc, task.id, agent_id)
        got = travel_memo.get(key)
        if got is None:
            got = travel_ticks(euclidean(loc, task.location), speed[agent_id])
            travel_memo[key] = got
        return got

    def lower_bound(node: _Node, unplaced: list) -> float:
        placed_makespan = max((e.finish for e in node.entries), default=0)
        if not unplaced:
            return float(placed_makespan)
        load = sum(node.agent_free.values())
        per_res: dict[str, int] = {}
        ready: dict[str, int] = {}
        for t in unplaced:
            direct = min(
                node.agent_free[a] + hop(node.agent_loc[a], t, a)
                for a in t.capable_agents()
            )
            ready[t.id] = direct
            incr = min(
                from_task[t.id],
                min(hop(node.agent_loc[a], t, a) for a in t.capable_agents()),
            )
            load += _min_duration(t) + incr
            per_res[t.resource] = per_res.get(t.resource, 0) + _min_duration(t)
        load_bound = math.ceil(load / num_agents)
        res_bound = 0
        for res, work in per_res.items():
            res_bound = max(res_bound, node.res_free[res] + work)

        est: dict[str, int] = {}

        def earliest(task) -> int:
            if task.id in est:
                return est[task.id]
            e = ready.get(task.id, 0)
            for pred, gap in task.waits:
                if pred in node.finish:
                    e = max(e, node.finish[pred] + gap)
                else:
                    p = problem.task(pred)
                    e = max(e, earliest(p) + _min_duration(p) + gap)
            est[task.id] = e
            return e

        chain_bound = max(earliest(t) + _min_duration(t) for t in unplaced)
        return float(max(placed_makespan, load_bound, res_bound, chain_bound))

    return lower_bound


def branch_and_bound(
    problem: ProblemInstance,
    seed: Schedule | None = None,
    gap_threshold: float = GAP_THRESHOLD,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> BnBResult:
    """Minimize makespan exactly, or to within `gap_threshold`.

    An infeasible or incomplete seed is rejected with a warning and the
    search proceeds cold.
    """
    t0 = _time.perf_counter()
    tasks = {t.id: t for t in problem.tasks}

    incumbent: Schedule | None = None
    ub = float("inf")
    seeded = False
    seed_objective = None
    trace: list[tuple[int, int]] = []
    if seed is not None:
        report = validate_schedule(problem, seed)
        if seed.complete and report.feasible:
            incumbent = seed
            ub = float(seed.objective)
            seeded = True
            seed_objective = seed.objective
            trace.append((0, seed.objective))
        else:
            warnings.warn(
                "warm-start schedule rejected: "
                + ("; ".join(v.detail for v in report.violations) or "incomplete"),
                stacklevel=2,
            )

    root = _Node(
        entries=(),
        agent_free={a.id: 0 for a in problem.agents},
        agent_loc={a.id: a.start_location for a in problem.agents},
        res_free={r: 0 for r in problem.resources},
        finish={},
        bound=0.0,
    )
    lower_bound = _make_lower_bound(problem)
    root.bound = lower_bound(root, list(problem.tasks))

    stack: list[_Node] = [root]
    nodes_explored = 0
    status = "optimal"

    def gap_of(lb: float) -> float:
        if not math.isfinite(ub):
            return float("inf")
        if ub <= 0:
            return 0.0
        return max(0.0, (ub - lb) / ub)

    global_lb = root.bound
    while stack:
        open_lb = min(n.bound for n in stack)
        global_lb = min(open_lb, ub)
        if incumbent is not None and gap_of(open_lb) <= gap_threshold:
            status = "gap_reached"
            break
        if node_limit is not None and nodes_explored >= node_limit:
            status = "node_limit"
            break
        if time_limit is not None and _time.perf_counter() - t0 > time_limit:
            status = "time_limit"
            break
        node = stack.pop()
        if node.bound >= ub:
            continue
        nodes_explored += 1

        placed = node.finish.keys()
        unplaced = [t for t in tasks.values() if t.id not in placed]
        last = node.entries[-1] if node.entries else None
        children: list[tuple[tuple, _Node]] = []
        for task in unplaced:
            if any(p not in node.finish for p, _ in task.waits):
                continue
            for agent_id in task.capable_agents():
                start, fin = _earliest_start(problem, task, agent_id, node.agent_free,
                                             node.agent_loc, node.res_free, node.finish)
                if last is not None and (start, task.id) <= (last.start, last.task_id):
                    continue  # canonical append order only
                if fin > problem.effective_deadline(task):
                    continue
                entry = ScheduleEntry(task.id, agent_id, start, fin)
                agent_free = dict(node.agent_free)
                agent_free[agent_id] = fin
                agent_loc = dict(node.agent_loc)
                agent_loc[agent_id] = task.location
                res_free = dict(node.res_free)
                res_free[task.resource] = fin
                finish = dict(node.finish)
                finish[task.id] = fin
                child = _Node(node.entries + (entry,), agent_free, agent_loc,
                              res_free, finish, 0.0)
                remaining = [t for t in unplaced if t.id != task.id]
                if not remaining:
                    # the appended task need not finish last: an earlier
                    # start on another agent can still hold the makespan
                    obj = max(finish.values())
                    if obj < ub:
                        ub = float(obj)
                        incumbent = Schedule.from_entries(list(child.entries), problem)
                        trace.append((nodes_explored, int(obj)))
                    continue
                child.bound = lower_bound(child, remaining)
                if child.bound >= ub:
                    continue
                children.append(((entry.task_id, entry.agent_id), child))
        # depth-first in fixed lexicographic (task, agent) order; the order
        # is incumbent-independent so seeding never reorders the search
        children.sort(key=lambda c: c[0], reverse=True)
        stack.extend(child for _, child in children)
    else:
        global_lb = ub if incumbent is not None else global_lb

    wall = _time.perf_counter() - t0
    if incumbent is None:
        # a limit hit before any incumbent is not proof of infeasibility
        final = status if status in ("node_limit", "time_limit") else "infeasible"
        return BnBResult(None, None, global_lb, float("inf"), nodes_explored, wall,
                         seeded, seed_objective, tuple(trace), final)
    lb = min(global_lb, ub)
    return BnBResult(
        schedule=incumbent,
        objective=incumbent.objective,
        lower_bound=lb,
        gap=gap_of(lb),
        nodes_explored=nodes_explored,
        wall_time=wall,
        seeded=seeded,
        seed_objective=seed_objective,
        incumbent_trace=tuple(trace),
        status=status,
    )


def warm_start_optimize(
    problem: ProblemInstance,
    policy,
    scheduler_config: SchedulerConfig = SchedulerConfig(),
    **bnb_kwargs,
) -> BnBResult:
    """Build a schedule with the policy, then use it to seed the search."""
    seed = construct_schedule(problem, policy, scheduler_config)
    return branch_and_bound(problem, seed=seed, **bnb_kwargs)


# ---------------------------------------------------------------------------
# Serial timing and exhaustive baseline
# ---------------------------------------------------------------------------

def timed_schedule(
    problem: ProblemInstance, order: list[tuple[str, str]]
) -> Schedule | None:
    """Earliest-start timing of tasks in the given (task, agent) order.

    Returns None if the order violates wait precedence, a deadline, or the
    horizon.
    """
    agent_free = {a.id: 0 for a in problem.agents}
    agent_loc = {a.id: a.start_location for a in problem.agents}
    res_free = {r: 0 for r in problem.resources}
    finish: dict[str, int] = {}
    entries: list[ScheduleEntry] = []
    for task_id, agent_id in order:
        task = problem.task(task_id)
        if agent_id not in task.durations:
            return None
        if any(p not in finish for p, _ in task.waits):
            return None
        start, fin = _earliest_start(problem, task, agent_id, agent_free,
                                     agent_loc, res_free, finish)
        if fin > problem.effective_deadline(task):
            return None
        entries.append(ScheduleEntry(task_id, agent_id, start, fin))
        agent_free[agent_id] = fin
        agent_loc[agent_id] = task.location
        res_free[task.resource] = fin
        finish[task_id] = fin
    return Schedule.from_entries(entries, problem)


def brute_force_optimal(problem: ProblemInstance) -> Schedule | None:
    """Exhaustive search over task orders and assignments. Oracle for small
    instances only; cost grows as n! * A^n."""
    task_ids = [t.id for t in problem.tasks]
    capable = {t.id: t.capable_agents() for t in problem.tasks}
    best: Schedule | None = None
    for perm in itertools.permutations(task_ids):
        for combo in itertools.product(*(capable[tid] for tid in perm)):
            schedule = timed_schedule(problem, list(zip(perm, combo)))
            if schedule is None:
                continue
            if best is None or schedule.objective < best.objective:
                best = schedule
    return best


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

PERTURBATION_KINDS = ("swap", "steal", "sequence")


class PerturbationError(RuntimeError):
    """Could not produce a feasible perturbed schedule within the retry budget."""


def _order_of(schedule: Schedule) -> list[tuple[str, str]]:
    return [(e.task_id, e.agent_id) for e in schedule.entries]


def perturb(
    problem: ProblemInstance,
    schedule: Schedule,
    kind: str,
    count: int,
    rng_seed: int = 0,
    max_retries: int = 200,
) -> Schedule:
    """Apply `count` random edits of one kind, then re-time from scratch.

    swap: exchange the agents of two tasks; steal: reassign one task to a
    different capable agent; sequence: exchange two positions in the task
    order. count = 0 returns the schedule unchanged.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return schedule
    rng = np.random.default_rng(rng_seed)
    base = _order_of(schedule)
    n = len(base)
    if n < 2:
        raise PerturbationError("schedule too small to perturb")
    for _ in range(max_retries):
        order = list(base)
        ok = True
        for _ in range(count):
            if kind == "sequence":
                i, j = rng.choice(n, size=2, replace=False)
                order[i], order[j] = order[j], order[i]
            elif kind == "swap":
                i, j = rng.choice(n, size=2, replace=False)
                ti, ai = order[i]
                tj, aj = order[j]
                if (aj not in problem.task(ti).durations
                        or ai not in problem.task(tj).durations or ai == aj):
                    ok = False
                    break
                order[i], order[j] = (ti, aj), (tj, ai)
            else:  # steal
                i = int(rng.integers(n))
                ti, ai = order[i]
                others = [a for a in problem.task(ti).capable_agents() if a != ai]
                if not others:
                    ok = False
                    break
                order[i] = (ti, others[int(rng.integers(len(others)))])
        if not ok:
            continue
        result = timed_schedule(problem, order)
        if result is not None and result.complete:
            return result
    raise PerturbationError(
        f"no feasible {kind} perturbation with count={count} "
        f"after {max_retries} attempts"
    )


def objective_ratio(perturbed: Schedule, baseline: Schedule) -> float:
    if baseline.objective <= 0:
        raise ValueError("baseline objective must be positive")
    return perturbed.objective / baseline.objective
