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

Each call compiles the problem once (`core.Compiled`, the tables the
simulator reads too), and places tasks by the shared `core.earliest_start`
rule. This module adds only what the search alone reads: the lower bound,
its per-task travel floor and a topological task order (`_Compiled`). A
node is a handful of flat tuples over those indices, the fields of a
`core.SimState` without its clock. Where the order above compares ids (the
canonical (start, task id) test and the child order) it compares their
precomputed ranks in string order, so "t10" still precedes "t2" and the
search, and the argument above, are those of the string-keyed form.

Serial timing and perturbations place (task, agent) index pairs with
`_place`; ids are looked up only where an order or a schedule comes in.
"""

from __future__ import annotations

import itertools
import math
import time as _time
import warnings
from dataclasses import dataclass, field
from operator import add, itemgetter

import numpy as np

from .core import (
    Compiled,
    ProblemInstance,
    Schedule,
    earliest_start,
    validate_schedule,
)

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
    # work counters, deterministic: bound_evals, children_generated (the
    # placements tried at expanded nodes), pruned_canonical, pruned_deadline,
    # pruned_bound (children cut by the incumbent) and peak_open
    stats: dict[str, int] = field(default_factory=dict)


class _Compiled(Compiled):
    """The compiled problem plus what only the search reads: each task's
    cheapest hop in from another task's location, a topological task order
    and the lower bound."""

    def __init__(self, problem: ProblemInstance):
        super().__init__(problem)
        num_tasks = len(self.task_ids)
        # cheapest hop into each task from any other task's location, by
        # its fastest capable agent: a static floor on incremental travel
        self.from_task = []
        for t in range(num_tasks):
            fastest = max(self.capable[t], key=lambda a: problem.agents[a].speed)
            hops = [self.travel[fastest][u][t] for u in range(num_tasks) if u != t]
            self.from_task.append(min(hops) if hops else 0)
        self.min_duration = [min(t.durations.values()) for t in problem.tasks]
        self.topological = [self.task_index[tid] for tid in problem.wait_order()]

    def lower_bound(self, agent_free, agent_loc, res_free, finish, unplaced,
                    makespan: int) -> float:
        """Makespan lower bound of a node: its per-agent release times and
        location indices, per-resource release times, per-task finish times
        (None where unplaced), its unplaced tasks in topological order and
        its latest finish.

        Components, each individually admissible:
        - current makespan of the partial schedule;
        - mean agent load: remaining durations plus an incremental travel
          charge per task (the performing agent arrives either from where it
          stands now or from some other task's location, so the cheaper of
          the two is a valid floor on the travel it still owes);
        - per-resource serialization from each resource's release time;
        - wait-chain critical path, floored by how soon any capable agent
          could physically reach each task (direct travel never
          overestimates a detour, by the triangle inequality).
        """
        if not unplaced:
            return float(makespan)
        capable, mind, waits = self.capable, self.min_duration, self.waits
        from_task, resource = self.from_task, self.resource
        rows = [table[loc] for table, loc in zip(self.travel, agent_loc)]
        load = sum(agent_free)
        work = [0] * len(res_free)
        # earliest finish of every task: placed ones have theirs, and the
        # topological order fills in each unplaced predecessor before use
        eft = list(finish)
        chain = 0
        for t in unplaced:
            ready = hop = math.inf
            for a in capable[t]:
                x = rows[a][t]
                if x < hop:
                    hop = x
                x += agent_free[a]
                if x < ready:
                    ready = x
            d = mind[t]
            x = from_task[t]
            load += d + (hop if hop < x else x)
            work[resource[t]] += d
            for p, gap in waits[t]:
                x = eft[p] + gap
                if x > ready:
                    ready = x
            ready += d
            eft[t] = ready
            if ready > chain:
                chain = ready
        load_bound = math.ceil(load / len(agent_free))
        # a resource with no unplaced task adds only its release time, which
        # is a placed finish and so at most the makespan
        res_bound = max(map(add, res_free, work))
        return float(max(makespan, load_bound, res_bound, chain))


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

    incumbent: Schedule | None = None
    ub = float("inf")
    seeded = False
    seed_objective = None
    trace: list[tuple[int, int]] = []
    if seed is not None:
        # a seed's objective and coverage are recomputed, never trusted: a
        # loaded file states both and validation checks neither
        seed = Schedule.from_entries(seed.entries, problem)
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

    cp = _Compiled(problem)
    lower_bound = cp.lower_bound
    capable, waits, deadline = cp.capable, cp.waits, cp.deadline
    resource, task_rank, agent_rank = cp.resource, cp.task_rank, cp.agent_rank
    num_agents = len(cp.agent_ids)

    # a node: (placements, agent release times, agent location indices,
    # resource release times, task finish times, unplaced tasks in
    # topological order, makespan)
    root = ((), (0,) * num_agents, cp.start_loc, (0,) * cp.num_resources,
            (None,) * len(cp.task_ids), tuple(cp.topological), 0)
    root_bound = lower_bound(*root[1:])
    # depth-first open list; each entry is (bound, least bound at or below
    # it in the stack, node), so the open bound is read off the top
    stack = [(root_bound, root_bound, root)]
    nodes_explored = 0
    status = "optimal"
    pruned_canonical = pruned_deadline = completed = pushed = pruned_bound = 0
    peak_open = 1

    def gap_of(lb: float) -> float:
        if not math.isfinite(ub):
            return float("inf")
        if ub <= 0:
            return 0.0
        return max(0.0, (ub - lb) / ub)

    global_lb = root_bound
    while stack:
        open_lb = stack[-1][1]
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
        bound, _, node = stack.pop()
        if bound >= ub:
            continue
        nodes_explored += 1

        placed, agent_free, agent_loc, res_free, finish, unplaced, makespan = node
        if placed:
            last_task, _, last_start, _ = placed[-1]
            last = (last_start, task_rank[last_task])
        children = []
        for i, t in enumerate(unplaced):
            if any(finish[p] is None for p, _ in waits[t]):
                continue
            remaining = unplaced[:i] + unplaced[i + 1:]
            for a in capable[t]:
                start, fin = earliest_start(cp, t, a, agent_free, agent_loc,
                                             res_free, finish)
                if placed and (start, task_rank[t]) <= last:
                    pruned_canonical += 1
                    continue  # canonical append order only
                if fin > deadline[t]:
                    pruned_deadline += 1
                    continue
                child_makespan = max(makespan, fin)
                if not remaining:
                    completed += 1
                    # the appended task need not finish last: an earlier
                    # start on another agent can still hold the makespan
                    if child_makespan < ub:
                        ub = float(child_makespan)
                        incumbent = cp.schedule(placed + ((t, a, start, fin),))
                        trace.append((nodes_explored, child_makespan))
                    continue
                r = resource[t]
                child = (agent_free[:a] + (fin,) + agent_free[a + 1:],
                         agent_loc[:a] + (t,) + agent_loc[a + 1:],
                         res_free[:r] + (fin,) + res_free[r + 1:],
                         finish[:t] + (fin,) + finish[t + 1:],
                         remaining, child_makespan)
                child_bound = lower_bound(*child)
                if child_bound >= ub:
                    pruned_bound += 1
                    continue
                children.append((task_rank[t] * num_agents + agent_rank[a],
                                 child_bound, (placed + ((t, a, start, fin),),) + child))
        # depth-first in fixed lexicographic (task, agent) order; the order
        # is incumbent-independent so seeding never reorders the search
        children.sort(key=itemgetter(0), reverse=True)
        pushed += len(children)
        for _, child_bound, child in children:
            below = stack[-1][1] if stack else child_bound
            stack.append((child_bound, min(child_bound, below), child))
        peak_open = max(peak_open, len(stack))
    else:
        global_lb = ub if incumbent is not None else global_lb

    wall = _time.perf_counter() - t0
    # every child generated was pruned by canonical order or by deadline,
    # completed a schedule, or had its bound evaluated (and was then pruned
    # or pushed); the root's bound is evaluated too
    bounded = pruned_bound + pushed
    stats = {
        "bound_evals": 1 + bounded,
        "children_generated": pruned_canonical + pruned_deadline + completed + bounded,
        "pruned_canonical": pruned_canonical,
        "pruned_deadline": pruned_deadline,
        "pruned_bound": pruned_bound,
        "peak_open": peak_open,
    }
    if incumbent is None and status == "optimal":
        # a limit hit before any incumbent is not proof of infeasibility
        status = "infeasible"
    lb = min(global_lb, ub)
    return BnBResult(
        schedule=incumbent,
        objective=None if incumbent is None else incumbent.objective,
        lower_bound=lb,
        gap=gap_of(lb),
        nodes_explored=nodes_explored,
        wall_time=wall,
        seeded=seeded,
        seed_objective=seed_objective,
        incumbent_trace=tuple(trace),
        status=status,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Serial timing and exhaustive baseline
# ---------------------------------------------------------------------------

def _place(cp: Compiled, order) -> list[tuple[int, int, int, int]] | None:
    """Earliest-start timing of (task, agent) index pairs in the given order,
    as (task, agent, start, finish) placements. None if an agent cannot do
    its task (an agent of None is an unknown id), or if the order violates
    wait precedence or a deadline."""
    agent_free = [0] * len(cp.agent_ids)
    agent_loc = list(cp.start_loc)
    res_free = [0] * cp.num_resources
    finish: list[int | None] = [None] * len(cp.task_ids)
    placements = []
    for t, a in order:
        if a is None or cp.duration[t][a] is None:
            return None
        if any(finish[p] is None for p, _ in cp.waits[t]):
            return None
        start, fin = earliest_start(cp, t, a, agent_free, agent_loc,
                                     res_free, finish)
        if fin > cp.deadline[t]:
            return None
        placements.append((t, a, start, fin))
        agent_free[a] = fin
        agent_loc[a] = t
        res_free[cp.resource[t]] = fin
        finish[t] = fin
    return placements


def timed_schedule(
    problem: ProblemInstance, order: list[tuple[str, str]]
) -> Schedule | None:
    """Earliest-start timing of tasks in the given (task, agent) order.

    Returns None if the order violates wait precedence, a deadline, or the
    horizon.
    """
    cp = Compiled(problem)
    # ids are looked up as the order is placed, so an unknown task raises
    # only if no earlier step fails
    placements = _place(cp, ((cp.task_at(task_id), cp.agent_index.get(agent_id))
                             for task_id, agent_id in order))
    return None if placements is None else cp.schedule(placements)


def brute_force_optimal(problem: ProblemInstance) -> Schedule | None:
    """Exhaustive search over task orders and assignments. Oracle for small
    instances only; cost grows as n! * A^n."""
    cp = Compiled(problem)
    best, best_objective = None, None
    for perm in itertools.permutations(range(len(cp.task_ids))):
        for combo in itertools.product(*(cp.capable[t] for t in perm)):
            placements = _place(cp, zip(perm, combo))
            if placements is None:
                continue
            objective = max((fin for *_, fin in placements), default=0)
            if best is None or objective < best_objective:
                best, best_objective = placements, objective
    return None if best is None else cp.schedule(best)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

PERTURBATION_KINDS = ("swap", "steal", "sequence")
_PERTURB_RETRIES = 200  # edit draws before perturb gives up


class PerturbationError(RuntimeError):
    """Could not produce a feasible perturbed schedule within the retry budget."""


def perturb(
    problem: ProblemInstance,
    schedule: Schedule,
    kind: str,
    count: int,
    rng_seed: int = 0,
) -> Schedule:
    """Apply `count` random edits of one kind, then re-time from scratch.

    swap: exchange the agents of two tasks; steal: reassign one task to a
    different capable agent; sequence: exchange two positions in the task
    order. count = 0 returns the schedule unchanged. An unknown task raises
    StructuralError; an unknown agent fails timing unless an edit replaces it.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return schedule
    cp = Compiled(problem)
    rng = np.random.default_rng(rng_seed)
    base = [(cp.task_at(e.task_id), cp.agent_index.get(e.agent_id))
            for e in schedule.entries]
    n = len(base)
    if n < 2:
        raise PerturbationError("schedule too small to perturb")
    for _ in range(_PERTURB_RETRIES):
        order = list(base)
        for _ in range(count):
            if kind == "sequence":
                i, j = rng.choice(n, size=2, replace=False)
                order[i], order[j] = order[j], order[i]
            elif kind == "swap":
                i, j = rng.choice(n, size=2, replace=False)
                ti, ai = order[i]
                tj, aj = order[j]
                if (ai == aj or ai is None or aj is None
                        or cp.duration[ti][aj] is None or cp.duration[tj][ai] is None):
                    break
                order[i], order[j] = (ti, aj), (tj, ai)
            else:  # steal
                i = int(rng.integers(n))
                ti, ai = order[i]
                # capable agents in id order, so the draw matches the ids'
                others = [a for a in cp.capable[ti] if a != ai]
                if not others:
                    break
                order[i] = (ti, others[int(rng.integers(len(others)))])
        else:  # every edit applied
            placements = _place(cp, order)
            result = None if placements is None else cp.schedule(placements)
            if result is not None and result.complete:
                return result
    raise PerturbationError(
        f"no feasible {kind} perturbation with count={count} "
        f"after {_PERTURB_RETRIES} attempts"
    )


def objective_ratio(perturbed: Schedule, baseline: Schedule) -> float:
    if baseline.objective <= 0:
        raise ValueError("baseline objective must be positive")
    return perturbed.objective / baseline.objective
