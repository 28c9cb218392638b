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

The search reads the problem's own tables (`ProblemInstance.compiled`) and
places tasks by the shared `core.release` rule. `_search_tables` adds
what only the search reads, from those tables alone, on the problem's first
search, for later searches to share: each task's shortest duration and
travel floor (read by `lower_bound`), its least added load (read by the
screen a child passes before its full bound), a `graphlib` order of the
waits and, for two agents and at most `ROUTE_CAP` tasks, the route tables.
A node is exactly a `core.SimState`'s fields without its clock, grown from
`Compiled.empty` by `core.place`: its unplaced tasks are its `None` finishes
and its makespan its latest agent release time. Its children come out in
ascending (task id, agent id) order, unplaced tasks taken in
`Compiled.task_order` and capable agents in id order, and are pushed in
reverse, so the first is popped first. The incumbent changes only at a node
with one unplaced task, where no child is pushed, so generation order
decides push order and nothing else. The canonical (start, task id) test
compares `Compiled.task_rank`, so "t10" still precedes "t2" and the search,
and the argument above, are those of the string-keyed form.

The route tables `W[a][loc][S]` hold the least ticks for agent a to go from
location `loc` through every task of the set S, travel plus durations, and
are ∞ where a cannot do a task of S; they are built by subset dynamic
programming (Held & Karp 1962). A node's route component is the least, over
subsets S of its unplaced set U, of the later of agent 0 doing S and agent 1
doing U ∖ S from their release times and locations: the exact two-agent
split with waits, deadlines and resources relaxed. Each agent's finish in a
completion is at least its release time plus the hops and durations along
its own order, and those hops are exactly the `travel` ticks a placement
charges, so the component is admissible with no triangle inequality on the
rounded ticks. It runs only at the root and on children
that pass the screen and whose full bound stays below the incumbent, so
every pushed bound is the larger of the two, as if it always ran. The
tables grow as 2^n, so above `ROUTE_CAP` tasks, and for one or three or
more agents, nothing is built and the bound is the four components alone.

The exhaustive oracle and perturbations read the problem's own tables
(`ProblemInstance.compiled`) and place (task, agent) index pairs with
`_place`, by the same rule; ids are looked up only where a schedule comes in.
"""

from __future__ import annotations

import graphlib
import itertools
import math
import time as _time
import warnings
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .core import (
    Compiled,
    ProblemInstance,
    Schedule,
    _number,
    place,
    release,
    validate_schedule,
)

GAP_THRESHOLD = 1e-3
ROUTE_CAP = 12  # most tasks a two-agent search builds route tables for


@dataclass(frozen=True)
class BnBResult:
    schedule: Schedule | None
    objective: int | None
    lower_bound: float
    gap: float
    nodes_explored: int
    wall_time: float
    seeded: bool
    incumbent_trace: tuple[tuple[int, int], ...]  # (nodes explored, objective)
    status: str  # optimal | gap_reached | node_limit | time_limit | infeasible
    # work counters, deterministic: bound_evals (full bounds only),
    # children_generated (the placements tried at expanded nodes),
    # pruned_canonical, pruned_deadline, pruned_screen, pruned_bound and
    # pruned_route (children cut by canonical order, by deadline, or by the
    # incumbent against the O(1) screen, the full bound or the route
    # component) and peak_open
    stats: dict[str, int] = field(default_factory=dict)


def _search_tables(cp: Compiled) -> None:
    """Fill the search's tables of `cp`, the problem's compiled tables; a
    problem's first search calls this, and no table changes afterwards."""
    n = len(cp.task_ids)
    cp.min_duration = [min(d for d in row if d is not None) for row in cp.duration]
    # cheapest hop into each task from any other task's location, a static
    # floor on incremental travel: task-to-task travel is symmetric, so it is
    # read off the task's own rows, and ticks never rise with speed, so the
    # least over capable agents is the fastest one's
    cp.from_task = [min((cp.travel[a][t][u] for a in cp.capable[t]
                         for u in range(n) if u != t), default=0)
                    for t in range(n)]
    # least each task adds to the agents' summed load wherever it goes
    # next: its shortest duration plus the cheaper of a hop in from
    # another task and a capable agent's trip from its start
    cp.unit_load = [
        d + min(hop, *(cp.travel[a][cp.start_loc[a]][t] for a in cp.capable[t]))
        for t, (d, hop) in enumerate(zip(cp.min_duration, cp.from_task))]
    cp.topological = list(graphlib.TopologicalSorter(
        {t: [p for p, _ in waits] for t, waits in enumerate(cp.waits)}).static_order())
    cp.routes = (_route_tables(cp) if len(cp.agent_ids) == 2 and n <= ROUTE_CAP
                 else None)


def _route_tables(cp: Compiled) -> list[np.ndarray]:
    """`W[a][loc][S]` for both agents, by subset dynamic programming
    (Held & Karp 1962) over one popcount layer at a time. A task set S is
    the bit mask of its task indices. An agent stands at a task only once
    it has done it, so a task's row is read only at sets without it; at a
    set with it, the row holds the value of the set without."""
    n = len(cp.task_ids)
    sets = np.arange(1 << n)
    tasks = np.arange(n)
    bits = 1 << tasks
    member = (sets[:, None] & bits) != 0
    size = member.sum(axis=1)
    # (S, j) for every task j of every set S of two or more tasks, one
    # popcount layer at a time
    layers = []
    for k in range(2, n + 1):
        layer = sets[size == k]
        row, first = np.nonzero(member[layer])
        layers.append((layer[row], first, layer[row] ^ bits[first]))
    tables = []
    for a in range(2):
        travel = np.array(cp.travel[a], dtype=float)
        duration = np.array([math.inf if row[a] is None else row[a]
                             for row in cp.duration])
        # head[S, j]: least ticks to do every task of S, starting with j at
        # j's location; ∞ unless j is in S
        head = np.full((1 << n, n), math.inf)
        head[bits, tasks] = duration
        for done, first, rest in layers:
            head[done, first] = (duration[first] + (
                head[rest] + travel[first, :n]).min(axis=1))
        table = np.empty((n + 2, 1 << n))
        # from task t's location through S is head[S + t, t] less t's own
        # duration (a row never read where a cannot do t)
        table[:n] = (head[sets | bits[:, None], tasks[:, None]]
                     - np.where(duration < math.inf, duration, 0)[:, None])
        table[n:] = (travel[n:, None, :] + head).min(axis=2)
        table[:, 0] = 0.0
        tables.append(table)
    return tables


def route_bound(cp: Compiled, agent_free, agent_loc, left: int,
                subsets: dict) -> float:
    """The least, over subsets S of the task set `left`, of the later of
    agent 0 doing S and agent 1 doing the rest, from their release times and
    locations: `max(free0 + W[0][loc0][S], free1 + W[1][loc1][left ∖ S])`.
    Only a problem with route tables has it; `subsets` is the search's memo
    of each task set's subsets, ascending."""
    ascending = subsets.get(left)
    if ascending is None:
        ascending = [0]
        for t in range(len(cp.task_ids)):
            if left >> t & 1:
                ascending += [s | 1 << t for s in ascending]
        ascending = subsets[left] = np.array(ascending)
    # the subsets ascend, so their complements in `left` descend
    mine = cp.routes[0][agent_loc[0], ascending]
    theirs = cp.routes[1][agent_loc[1], ascending[::-1]]
    theirs += agent_free[1] - agent_free[0]
    return agent_free[0] + float(np.maximum(mine, theirs, out=mine).min())


def lower_bound(cp: Compiled, agent_free, agent_loc, res_free, finish) -> float:
    """Makespan lower bound of a node: its per-agent release times and
    location indices, per-resource release times and per-task finish times
    (None where unplaced). It walks the unplaced tasks in topological order.

    Components, each individually admissible:
    - current makespan, the latest agent release time (see `core`);
    - mean agent load: remaining durations plus an incremental travel
      charge per task (the performing agent arrives either from where it
      stands now or from some other task's location, so the cheaper of the
      two is a valid floor on the travel it still owes);
    - per-resource serialization from each resource's release time;
    - wait-chain critical path, floored by how soon any capable agent could
      physically reach each task (direct travel never overestimates a
      detour, by the triangle inequality).
    """
    capable, mind, waits = cp.capable, cp.min_duration, cp.waits
    from_task, resource = cp.from_task, cp.resource
    rows = [table[loc] for table, loc in zip(cp.travel, agent_loc)]
    load = sum(agent_free)
    work = [0] * len(res_free)
    # earliest finish of every task: placed ones have theirs, and the
    # topological order fills in each unplaced predecessor before use
    eft = list(finish)
    chain = 0
    for t in cp.topological:
        if finish[t] is not None:
            continue
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
    # a resource with no unplaced task adds only its release time, which is
    # a placed finish and so at most the makespan
    res_bound = max(map(add, res_free, work))
    return float(max(max(agent_free), load_bound, res_bound, chain))


def _nonnegative(value, name: str) -> None:
    """Raises ValueError naming `name` unless `value` is an int or float
    >= 0: infinity is, NaN and a bool are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")


def branch_and_bound(
    problem: ProblemInstance,
    seed: Schedule | None = None,
    gap_threshold: float = GAP_THRESHOLD,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> BnBResult:
    """Minimize makespan exactly, or to within `gap_threshold`.

    A seed naming a task or agent the problem lacks raises StructuralError.
    An infeasible or incomplete seed, or one giving a task to an agent that
    cannot do it, is rejected with a warning and the search proceeds cold.
    Raises ValueError naming the argument on a negative or NaN limit or
    threshold, a `node_limit` that is not an integer or a threshold or
    `time_limit` that is not a number (a bool is neither).
    """
    if node_limit is not None and (type(node_limit) is not int or node_limit < 0):
        raise ValueError(f"node_limit must be an integer >= 0, got {node_limit!r}")
    _nonnegative(gap_threshold, "gap_threshold")
    if time_limit is not None:
        _nonnegative(time_limit, "time_limit")
    t0 = _time.perf_counter()

    cp = problem.compiled
    if cp.topological is None:
        _search_tables(cp)
    incumbent: Schedule | None = None
    ub = float("inf")
    seeded = False
    trace: list[tuple[int, int]] = []
    if seed is not None:
        for e in seed.entries:
            cp.task_at(e.task_id)
            cp.agent_at(e.agent_id)
        # a seed's objective and coverage are recomputed, never trusted: a
        # loaded file states both and validation checks neither
        seed = Schedule.from_entries(seed.entries, cp.task_ids)
        report = validate_schedule(problem, seed)
        if seed.complete and report.feasible:
            incumbent = seed
            ub = float(seed.objective)
            seeded = True
            trace.append((0, seed.objective))
        else:
            warnings.warn(
                "warm-start schedule rejected: "
                + ("; ".join(v.detail for v in report.violations) or "incomplete"),
                stacklevel=2,
            )

    routing = cp.routes is not None
    subsets = {}  # task set -> its subsets, ascending, for route_bound
    capable, duration, deadline = cp.capable, cp.duration, cp.deadline
    resource, task_rank, task_order = cp.resource, cp.task_rank, cp.task_order
    unit_load, mind = cp.unit_load, cp.min_duration
    num_agents = len(cp.agent_ids)

    # a node: (placements, agent release times, agent location indices,
    # resource release times, task finish times)
    root = ((),) + cp.empty
    root_bound = lower_bound(cp, *cp.empty)
    if routing:
        root_bound = max(root_bound, route_bound(cp, cp.empty[0], cp.empty[1],
                                                 (1 << len(cp.task_ids)) - 1,
                                                 subsets))
    # depth-first open list; each entry is (bound, least bound at or below
    # it in the stack, node), so the open bound is read off the top
    stack = [(root_bound, root_bound, root)]
    nodes_explored = 0
    status = "optimal"
    pruned_canonical = pruned_deadline = completed = pushed = 0
    pruned_screen = pruned_bound = pruned_route = 0
    peak_open = 1

    def gap_of(lb: float) -> float:
        if not math.isfinite(ub):
            return float("inf")
        return max(0.0, (ub - lb) / ub)

    while stack:
        open_lb = stack[-1][1]
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

        placed, agent_free, agent_loc, res_free, finish = node
        unplaced = [t for t in task_order if finish[t] is None]
        completing = len(unplaced) == 1
        # every start and rank is at least 0, so the root admits any child
        last = (placed[-1][2], task_rank[placed[-1][0]]) if placed else (-1, -1)
        rows = [table[loc] for table, loc in zip(cp.travel, agent_loc)]
        # With an incumbent, a child (t on agent a, finishing at fin on
        # resource r) is screened in O(1) before its tuples and full bound
        # are built. The screen is the larger of
        #   ceil((sum(agent_free) - agent_free[a] + fin + U - unit_load[t]) / m)
        #   fin + W[r] - min_duration[t]
        # where U sums `unit_load` and W[r] sums `min_duration` over the
        # node's unplaced tasks (on r). Each is at most the full bound's load
        # or resource component, since an agent stands at its start or at a
        # placed task, so a child the screen prunes is one the full bound
        # would prune and the search is unchanged. The second term is at
        # least fin, and the node's makespan is below its bound and so below
        # ub, which covers the makespan component. The rooms move the node's
        # share of each term to ub's side.
        screening = ub < math.inf
        if screening:
            cap = int(ub)
            load_room = (cap - 1) * num_agents - sum(agent_free)
            res_room = [cap] * len(cp.resource_ids)
            for t in unplaced:
                load_room -= unit_load[t]
                res_room[resource[t]] -= mind[t]
        if routing:
            left = sum(1 << t for t in unplaced)
        children = []
        for t in unplaced:
            ready = release(cp, t, finish, res_free[resource[t]])
            if ready is None:
                continue
            for a in capable[t]:
                start = agent_free[a] + rows[a][t]
                if start < ready:
                    start = ready
                fin = start + duration[t][a]
                if (start, task_rank[t]) <= last:
                    pruned_canonical += 1
                    continue  # canonical append order only
                if fin > deadline[t]:
                    pruned_deadline += 1
                    continue
                if completing:
                    completed += 1
                    # the appended task need not finish last: an earlier
                    # start on another agent can still hold the makespan
                    objective = max(fin, *agent_free)
                    if objective < ub:
                        ub = float(objective)
                        incumbent = cp.schedule(placed + ((t, a, start, fin),))
                        trace.append((nodes_explored, objective))
                    continue
                if screening and (fin - agent_free[a] - unit_load[t] > load_room
                                  or fin - mind[t] >= res_room[resource[t]]):
                    pruned_screen += 1
                    continue
                child = place(cp, agent_free, agent_loc, res_free, finish, t, a, fin)
                child_bound = lower_bound(cp, *child)
                if child_bound >= ub:
                    pruned_bound += 1
                    continue
                # the route component runs only on children the full bound
                # leaves open, so every pushed bound is what it would be if
                # the component always ran
                if routing:
                    route = route_bound(cp, child[0], child[1], left ^ 1 << t, subsets)
                    if route >= ub:
                        pruned_route += 1
                        continue
                    if route > child_bound:
                        child_bound = route
                children.append((child_bound, (placed + ((t, a, start, fin),),) + child))
        # children come out in ascending (task id, agent id) order; pushed
        # in reverse, the first is popped first
        pushed += len(children)
        for child_bound, child in reversed(children):
            below = stack[-1][1] if stack else child_bound
            stack.append((child_bound, min(child_bound, below), child))
        peak_open = max(peak_open, len(stack))

    wall = _time.perf_counter() - t0
    # every child generated was pruned by canonical order, by deadline or by
    # the screen, completed a schedule, or had its full bound evaluated (and
    # was then pruned by it or by the route component, or pushed); the
    # root's bound is evaluated too
    bounded = pruned_bound + pruned_route + pushed
    stats = {
        "bound_evals": 1 + bounded,
        "children_generated": (pruned_canonical + pruned_deadline + pruned_screen
                               + completed + bounded),
        "pruned_canonical": pruned_canonical,
        "pruned_deadline": pruned_deadline,
        "pruned_screen": pruned_screen,
        "pruned_bound": pruned_bound,
        "pruned_route": pruned_route,
        "peak_open": peak_open,
    }
    if incumbent is None and status == "optimal":
        # a limit hit before any incumbent is not proof of infeasibility
        status = "infeasible"
    # a limit leaves open nodes whose least bound caps the gap; an exhausted
    # search has proven its incumbent, or infeasibility (ub stays inf)
    lb = min(stack[-1][1], ub) if stack else ub
    return BnBResult(
        schedule=incumbent,
        objective=None if incumbent is None else incumbent.objective,
        lower_bound=lb,
        gap=gap_of(lb),
        nodes_explored=nodes_explored,
        wall_time=wall,
        seeded=seeded,
        incumbent_trace=tuple(trace),
        status=status,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Exhaustive baseline
# ---------------------------------------------------------------------------

def _place(cp: Compiled, order) -> list[tuple[int, int, int, int]] | None:
    """Earliest-start timing of (task, agent) index pairs in the given order,
    as (task, agent, start, finish) placements. None if an agent cannot do
    its task, or if the order violates wait precedence or a deadline."""
    state = cp.empty  # agent release times, locations, resource releases, finishes
    placements = []
    for t, a in order:
        ready = (None if cp.duration[t][a] is None
                 else release(cp, t, state[3], state[2][cp.resource[t]]))
        if ready is None:
            return None
        start = max(ready, state[0][a] + cp.travel[a][state[1][a]][t])
        fin = start + cp.duration[t][a]
        if fin > cp.deadline[t]:
            return None
        placements.append((t, a, start, fin))
        state = place(cp, *state, t, a, fin)
    return placements


def brute_force_optimal(problem: ProblemInstance) -> Schedule | None:
    """Exhaustive search over task orders and assignments. Oracle for small
    instances only; cost grows as n! * A^n."""
    cp = problem.compiled
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
    order. count = 0 returns the schedule unchanged. At any count, an unknown
    id raises StructuralError and an incomplete schedule ValueError.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if _number(count, "count", (int,)) < 0:
        raise ValueError("count must be >= 0")
    cp = problem.compiled
    base = [(cp.task_at(e.task_id), cp.agent_at(e.agent_id)) for e in schedule.entries]
    if not Schedule.from_entries(schedule.entries, cp.task_ids).complete:
        raise ValueError("schedule must place every task exactly once")
    if count == 0:
        return schedule
    rng = np.random.default_rng(rng_seed)
    n = len(base)
    if n < 2 and kind != "steal":  # a steal needs one task, the others two
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
                if ai == aj or cp.duration[ti][aj] is None or cp.duration[tj][ai] is None:
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
            if placements is not None:  # every task once, as in the schedule
                return cp.schedule(placements)
    raise PerturbationError(
        f"no feasible {kind} perturbation with count={count} "
        f"after {_PERTURB_RETRIES} attempts"
    )


def objective_ratio(perturbed: Schedule, baseline: Schedule) -> float:
    if baseline.objective <= 0:
        raise ValueError("baseline objective must be positive")
    return perturbed.objective / baseline.objective
