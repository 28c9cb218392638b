import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HeuristicPolicy, timed_schedule
from demosched import optimizer
from demosched.core import (
    AgentSpec,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    StructuralError,
    TaskSpec,
    Violation,
    euclidean,
    place,
    release,
    schedule_from_dict,
    schedule_to_dict,
    travel_ticks,
    validate_schedule,
)
from demosched.demonstrator import demonstrate
from demosched.experiments import PROBLEM_KINDS, make_config
from demosched.generator import KIND_FIELDS, generate_instance
from demosched.optimizer import (
    PERTURBATION_KINDS,
    PerturbationError,
    branch_and_bound,
    brute_force_optimal,
    objective_ratio,
    perturb,
)
from demosched.heuristics import RuleKind
from demosched.scheduler import construct_schedule


@pytest.fixture(scope="module")
def serial_problem():
    """One agent, two tasks on one resource: optimum is forced serial."""
    return ProblemInstance(
        grid_size=(10.0, 10.0),
        agents=(AgentSpec("a0", (0.0, 0.0), 2.0),),
        tasks=(
            TaskSpec("t0", (0.0, 0.0), {"a0": 3}, "r0"),
            TaskSpec("t1", (4.0, 0.0), {"a0": 2}, "r0"),
        ),
        resources=("r0",),
        horizon=30,
    )


class TestTimedSchedule:
    def test_hand_timing(self, serial_problem):
        schedule = timed_schedule(serial_problem, [("t0", "a0"), ("t1", "a0")])
        entry = {e.task_id: e for e in schedule.entries}
        assert entry["t0"].start == 0
        assert entry["t0"].finish == 3
        # two travel ticks after t0 finishes
        assert entry["t1"].start == 5
        assert schedule.objective == 7

    def test_wait_order_violation(self, tiny_problem):
        assert timed_schedule(tiny_problem, [("tB", "a0"), ("tA", "a0"),
                                             ("tC", "a1")]) is None

    def test_deadline_violation(self, tiny_problem):
        # keep a1 busy so tC starts too late
        order = [("tA", "a1"), ("tB", "a1"), ("tC", "a1")]
        assert timed_schedule(tiny_problem, order) is None

    def test_incapable_agent(self, serial_problem):
        """An agent of the problem that cannot do its task is a timing
        failure."""
        problem = replace(serial_problem, agents=serial_problem.agents + (
            AgentSpec("a1", (0.0, 0.0), 2.0),))
        assert timed_schedule(problem, [("t0", "a1")]) is None


class TestBranchAndBound:
    def test_serial_optimum(self, serial_problem):
        result = branch_and_bound(serial_problem, gap_threshold=0.0)
        assert result.objective == 7
        assert result.gap == 0.0
        assert result.status in ("optimal", "gap_reached")
        assert validate_schedule(serial_problem,
                                 result.schedule).feasible

    def test_matches_brute_force(self):
        for kind, seed in [("temporal", 0), ("travel", 1), ("contention", 2),
                           ("temporal", 3), ("travel", 4)]:
            problem = generate_instance(make_config(kind, num_tasks=4, num_agents=2,
                                                    rng_seed=seed))
            exact = branch_and_bound(problem, gap_threshold=0.0)
            oracle = brute_force_optimal(problem)
            assert exact.objective == oracle.objective

    def test_infeasible_instance(self):
        problem = ProblemInstance(
            grid_size=(20.0, 20.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (15.0, 0.0), {"a0": 2}, "r0",
                            abs_deadline=5),),
            resources=("r0",),
            horizon=30,
        )
        result = branch_and_bound(problem)
        assert result.status == "infeasible"
        assert result.schedule is None
        assert result.objective is None

    def test_exhausted_search_without_incumbent_has_no_finite_bound(self):
        """A search that empties its open list with no incumbent has proven
        infeasibility, so it reports an infinite bound, not the last open
        node's."""
        problem = ProblemInstance(
            grid_size=(20.0, 20.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (15.0, 0.0), {"a0": 2}, "r0",
                            abs_deadline=5),),
            resources=("r0",),
            horizon=30,
        )
        result = branch_and_bound(problem)
        assert result.status == "infeasible"
        assert result.lower_bound == math.inf
        assert result.gap == math.inf

    def test_deadline_past_horizon_is_clamped(self):
        """A deadline after the horizon does not extend it: the only
        schedule, t0 running 10-12, finishes past horizon 2, so the search
        finds none."""
        problem = ProblemInstance(
            grid_size=(20.0, 20.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (10.0, 0.0), {"a0": 2}, "r0",
                            abs_deadline=20),),
            resources=("r0",),
            horizon=2,
        )
        only = Schedule.from_entries([ScheduleEntry("t0", "a0", 10, 12)],
                                     problem.compiled.task_ids)
        assert validate_schedule(problem, only).violations == (
            Violation("horizon", "task 't0' finishes 12 > horizon 2"),)
        result = branch_and_bound(problem)
        assert result.status == "infeasible"
        assert result.objective is None

    def test_node_limit(self, temporal_problem):
        result = branch_and_bound(temporal_problem, node_limit=1,
                                  gap_threshold=0.0)
        assert result.status == "node_limit"
        assert result.nodes_explored <= 1

    def test_time_limit(self, temporal_problem):
        result = branch_and_bound(temporal_problem, time_limit=0.0)
        assert result.status == "time_limit"
        assert branch_and_bound(temporal_problem, time_limit=math.inf).status != "time_limit"

    @pytest.mark.parametrize("argument, value", [
        ("node_limit", -1), ("node_limit", True), ("node_limit", 2.0),
        ("node_limit", float("nan")), ("time_limit", -1.0), ("time_limit", float("nan")),
        ("gap_threshold", -0.5), ("gap_threshold", float("nan")),
        ("time_limit", True), ("time_limit", "1"), ("gap_threshold", True),
        ("gap_threshold", "0.1"), ("gap_threshold", None),
    ])
    def test_bad_limit_refused(self, temporal_problem, argument, value):
        """A negative or NaN limit or threshold, a non-integer node limit, or
        a threshold or time limit that is not a number (a bool is not), is
        refused before any node is explored, not read as a stop."""
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            branch_and_bound(temporal_problem, **{argument: value})

    def test_incumbent_trace_monotone(self, temporal_problem):
        result = branch_and_bound(temporal_problem, gap_threshold=0.0)
        objectives = [obj for _, obj in result.incumbent_trace]
        assert objectives == sorted(objectives, reverse=True)
        assert objectives[-1] == result.objective


class TestWarmStart:
    def test_valid_seed_prunes(self, serial_problem):
        seed = timed_schedule(serial_problem, [("t0", "a0"), ("t1", "a0")])
        cold = branch_and_bound(serial_problem, gap_threshold=0.0)
        warm = branch_and_bound(serial_problem, seed=seed, gap_threshold=0.0)
        assert warm.seeded
        assert warm.objective == cold.objective
        assert warm.nodes_explored <= cold.nodes_explored
        assert warm.incumbent_trace[0] == (0, seed.objective)

    def test_seeded_never_explores_more(self):
        for seed_idx in range(5):
            problem = generate_instance(make_config("temporal", num_tasks=6,
                                                    rng_seed=200 + seed_idx))
            greedy = branch_and_bound(problem, seed=construct_schedule(
                problem, HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)))
            cold = branch_and_bound(problem)
            assert greedy.seeded
            assert greedy.nodes_explored <= cold.nodes_explored
            assert greedy.objective == cold.objective

    def test_infeasible_seed_rejected_with_warning(self, serial_problem):
        bad = Schedule.from_entries(
            [ScheduleEntry("t0", "a0", 0, 3), ScheduleEntry("t1", "a0", 0, 2)],
            serial_problem.compiled.task_ids)
        with pytest.warns(UserWarning, match="rejected"):
            result = branch_and_bound(serial_problem, seed=bad)
        assert not result.seeded
        assert result.objective == 7

    @pytest.mark.parametrize("field,message", [("task_id", "unknown task 'zz'"),
                                               ("agent_id", "unknown agent 'zz'")])
    def test_seed_naming_unknown_id_raises(self, serial_problem, field, message):
        seed = timed_schedule(serial_problem, [("t0", "a0"), ("t1", "a0")])
        entries = (replace(seed.entries[0], **{field: "zz"}),) + seed.entries[1:]
        with pytest.raises(StructuralError, match=message):
            branch_and_bound(serial_problem, seed=replace(seed, entries=entries))

    def test_incapable_agent_seed_rejected_with_warning(self):
        """A seed giving t0 to a1, which cannot do it, is a poor warm start,
        not an error: the search warns and runs cold."""
        problem = ProblemInstance(
            grid_size=(10.0, 10.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 2.0), AgentSpec("a1", (0.0, 0.0), 2.0)),
            tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 3}, "r0"),
                   TaskSpec("t1", (4.0, 0.0), {"a0": 2, "a1": 2}, "r1")),
            resources=("r0", "r1"),
            horizon=30,
        )
        seed = Schedule.from_entries(
            [ScheduleEntry("t0", "a1", 0, 3), ScheduleEntry("t1", "a0", 2, 4)],
            problem.compiled.task_ids)
        with pytest.warns(UserWarning, match="'t0' on agent 'a1': agent cannot perform it"):
            result = branch_and_bound(problem, seed=seed)
        assert not result.seeded
        assert result.objective == branch_and_bound(problem).objective == 4

    def test_seed_past_horizon_rejected_with_warning(self, tiny_problem):
        """tB running 100-103 breaks no other rule, but the horizon is 40:
        the seed is reported and refused, not taken as a 103 incumbent."""
        late = Schedule.from_entries(
            [ScheduleEntry("tA", "a0", 0, 2), ScheduleEntry("tC", "a1", 2, 4),
             ScheduleEntry("tB", "a0", 100, 103)], tiny_problem.compiled.task_ids)
        assert validate_schedule(tiny_problem, late).violations == (
            Violation("horizon", "task 'tB' finishes 103 > horizon 40"),)
        with pytest.warns(UserWarning, match="rejected: task 'tB' finishes 103 > horizon 40"):
            result = branch_and_bound(tiny_problem, seed=late, node_limit=0)
        assert not result.seeded
        assert result.objective is None

    def test_incomplete_seed_rejected(self, serial_problem):
        partial = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 3)],
                                        serial_problem.compiled.task_ids)
        with pytest.warns(UserWarning, match="incomplete"):
            result = branch_and_bound(serial_problem, seed=partial)
        assert not result.seeded

    def test_seed_file_objective_not_trusted(self, temporal_problem):
        """A loaded seed's stated objective is recomputed from its entries."""
        seed = construct_schedule(temporal_problem,
                                  HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
        data = schedule_to_dict(seed)
        data["objective"] = 1
        result = branch_and_bound(temporal_problem, seed=schedule_from_dict(data))
        assert result.seeded
        assert result.incumbent_trace[0] == (0, seed.objective)
        assert result.objective == branch_and_bound(temporal_problem).objective
        assert result.schedule.objective == max(e.finish for e in result.schedule.entries)

    def test_seed_file_coverage_not_trusted(self, temporal_problem):
        """A loaded seed cut short but still marked complete is rejected."""
        seed = construct_schedule(temporal_problem,
                                  HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
        data = schedule_to_dict(seed)
        data["entries"] = data["entries"][:2]
        assert data["complete"]
        with pytest.warns(UserWarning, match="incomplete"):
            result = branch_and_bound(temporal_problem, seed=schedule_from_dict(data))
        assert not result.seeded
        assert result.schedule.complete
        assert len(result.schedule.entries) == len(temporal_problem.tasks)


class TestPerturb:
    @pytest.fixture(scope="class")
    @staticmethod
    def optimal():
        problem = generate_instance(make_config(
            "temporal", num_tasks=5, num_agents=2,
            fraction_with_deadlines=0.0, rng_seed=77))
        return problem, branch_and_bound(problem, gap_threshold=0.0).schedule

    def test_count_zero_is_identity(self, optimal):
        """count=0 returns the schedule itself, once its ids resolve."""
        problem, schedule = optimal
        assert perturb(problem, schedule, "swap", 0) is schedule
        for field, unknown in (("task_id", "zz"), ("agent_id", "aX")):
            entries = (replace(schedule.entries[0], **{field: unknown}),) + schedule.entries[1:]
            with pytest.raises(StructuralError, match=unknown):
                perturb(problem, replace(schedule, entries=entries), "swap", 0)

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_output_feasible_and_covering(self, optimal, kind):
        problem, schedule = optimal
        for count in (1, 2, 3):
            result = perturb(problem, schedule, kind, count, rng_seed=count)
            assert result.complete
            assert validate_schedule(problem, result).feasible
            assert sorted(e.task_id for e in result.entries) == sorted(
                e.task_id for e in schedule.entries)
            assert result.objective >= schedule.objective  # optimum is a floor

    def test_steal_changes_assignment(self, optimal):
        problem, schedule = optimal
        result = perturb(problem, schedule, "steal", 1, rng_seed=0)
        def assignment(sched):
            return {e.task_id: e.agent_id for e in sched.entries}
        assert assignment(result) != assignment(schedule)

    def test_deterministic(self, optimal):
        problem, schedule = optimal
        a = perturb(problem, schedule, "sequence", 2, rng_seed=4)
        b = perturb(problem, schedule, "sequence", 2, rng_seed=4)
        assert a == b

    def test_single_agent_steal_impossible(self, serial_problem):
        schedule = timed_schedule(serial_problem, [("t0", "a0"), ("t1", "a0")])
        with pytest.raises(PerturbationError):
            perturb(serial_problem, schedule, "steal", 1)

    def test_validation(self, optimal):
        problem, schedule = optimal
        with pytest.raises(ValueError):
            perturb(problem, schedule, "teleport", 1)
        with pytest.raises(ValueError):
            perturb(problem, schedule, "swap", -1)

    @pytest.mark.parametrize("count", [True, 1.5])
    def test_count_must_be_an_integer(self, optimal, count):
        """A bool is no count of edits, and a fraction is refused by name
        rather than failing inside `range`."""
        problem, schedule = optimal
        with pytest.raises(StructuralError, match="count must be an integer"):
            perturb(problem, schedule, "swap", count)

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_unknown_task_raises(self, optimal, kind):
        problem, schedule = optimal
        entries = (replace(schedule.entries[0], task_id="zz"),) + schedule.entries[1:]
        with pytest.raises(StructuralError, match="zz"):
            perturb(problem, replace(schedule, entries=entries), kind, 1)

    def test_too_small(self, serial_problem):
        problem = replace(serial_problem, tasks=serial_problem.tasks[:1])
        schedule = timed_schedule(problem, [("t0", "a0")])
        with pytest.raises(PerturbationError, match="too small"):
            perturb(problem, schedule, "sequence", 1)

    def test_one_task_steal(self, serial_problem):
        """A one-task schedule has no second position to swap or reorder,
        but its task can still move to another capable agent."""
        problem = replace(
            serial_problem,
            agents=serial_problem.agents + (AgentSpec("a1", (4.0, 0.0), 2.0),),
            tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 3, "a1": 3}, "r0"),))
        schedule = timed_schedule(problem, [("t0", "a0")])
        stolen = perturb(problem, schedule, "steal", 1)
        assert [(e.task_id, e.agent_id) for e in stolen.entries] == [("t0", "a1")]
        assert validate_schedule(problem, stolen).feasible
        for kind in ("sequence", "swap"):
            with pytest.raises(PerturbationError, match="too small"):
                perturb(problem, schedule, kind, 1)

    @pytest.mark.parametrize("flaw", ["missing", "repeated"])
    def test_schedule_must_place_every_task_once(self, optimal, flaw):
        """A schedule that leaves out a task, or places one twice in place
        of another, is refused before any draw, at every count."""
        problem, schedule = optimal
        entries = schedule.entries[:-1]
        if flaw == "repeated":
            entries += schedule.entries[:1]
        for kind in PERTURBATION_KINDS:
            for count in (0, 1, 3):
                with pytest.raises(ValueError, match="every task exactly once"):
                    perturb(problem, replace(schedule, entries=entries), kind, count)


def _perturbation_outcome(problem, schedule, kind, count, rng_seed):
    try:
        return schedule_to_dict(perturb(problem, schedule, kind, count,
                                        rng_seed=rng_seed))
    except PerturbationError as exc:
        return f"PerturbationError: {exc}"


def _golden_perturbation_corpus():
    """(label, problem, expert schedule) on homogeneous and heterogeneous
    6-8-task instances."""
    for kind, homogeneous, num_tasks, rng_seed in (
            ("temporal", True, 6, 801), ("contention", False, 7, 802),
            ("dense", False, 8, 803), ("travel", True, 8, 804)):
        problem = generate_instance(make_config(
            kind, num_agents=2, num_tasks=num_tasks, homogeneous=homogeneous,
            rng_seed=rng_seed))
        yield f"{kind}-{num_tasks}-{rng_seed}", problem, demonstrate(problem).schedule


# SHA-256 of the outcomes (a schedule, or a PerturbationError's message) of
# each kind at counts 1-3 and seeds 0-1, recorded with the id-keyed
# perturbations this module's index form replaced
GOLDEN_PERTURBATIONS = {
    "temporal-6-801 swap":
        "23ea2bcd5cfdcdb2f607bd2066dbda8add6d256782f560374c44c4d31492e000",
    "temporal-6-801 steal":
        "882ad978c3aed94fbfe253792cc77d9bb83a9e508edd9eece3763f808c7f5be3",
    "temporal-6-801 sequence":
        "5e30282e50093510d57a5b7202c761e9f86da29fd2d543aaf2363c7b58576e8c",
    "contention-7-802 swap":
        "5ecba6f4fdfbce60101276ac160002b2ae59fda498ae8e1dc01f6276e24bb40e",
    "contention-7-802 steal":
        "02b12b05169df8c1acada6448e8774f3a10fedcaae3ae50bd924e394675b0c4d",
    "contention-7-802 sequence":
        "01f0ce153edb838a4830d76184019b9bed19bfcb77cd93110bad2d039932ff94",
    "dense-8-803 swap":
        "f25e1315c69943ca28f8185c56094132f7e114b2434abb323bdf43f46fb31995",
    "dense-8-803 steal":
        "0a6fa4bba2275b4135f8db3b680cfbfa86c33c1b7970f08e45f071e58ebac83c",
    "dense-8-803 sequence":
        "132a16992bfe611d2377a45f93bd86b1fe6bb0a7a774ee27a832dfa9d5cda76e",
    "travel-8-804 swap":
        "9e0e269b8bc7cefaa52ec2dabeb4dba37554cbac06364e3926fb94a206b851cd",
    "travel-8-804 steal":
        "7b6be83d16910d52c3c0f8382e0735cb11e11bb7264d17bb4d71f7d4c7558186",
    "travel-8-804 sequence":
        "0b2c0282529226cc1a7e2b734fa11288031d3f5e6475b5682e4d6c37d76bba16",
}


def test_golden_perturbations():
    def digest(outcomes):
        return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()

    got = {}
    for label, problem, schedule in _golden_perturbation_corpus():
        for kind in PERTURBATION_KINDS:
            got[f"{label} {kind}"] = digest([
                _perturbation_outcome(problem, schedule, kind, count, rng_seed)
                for count in (1, 2, 3) for rng_seed in (0, 1)])
        # an unknown agent is refused up front, as an unknown task is
        renamed = (replace(schedule.entries[0], agent_id="aX"),) + schedule.entries[1:]
        for kind in PERTURBATION_KINDS:
            with pytest.raises(StructuralError, match="unknown agent 'aX'"):
                perturb(problem, replace(schedule, entries=renamed), kind, 1)
    assert got == GOLDEN_PERTURBATIONS


def test_objective_ratio(serial_problem):
    task_ids = serial_problem.compiled.task_ids
    worse = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 12)], task_ids)
    base = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 10)], task_ids)
    assert objective_ratio(worse, base) == pytest.approx(1.2)
    empty = Schedule.from_entries([], task_ids)
    with pytest.raises(ValueError):
        objective_ratio(worse, empty)


# ---------------------------------------------------------------------------
# Compiled search against the string-keyed reference
# ---------------------------------------------------------------------------

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
        smax = max(speed[a] for a in sorted(t.durations))
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

    def lower_bound(node, unplaced: list) -> float:
        placed_makespan = max((e.finish for e in node.entries), default=0)
        if not unplaced:
            return float(placed_makespan)
        load = sum(node.agent_free.values())
        per_res: dict[str, int] = {}
        ready: dict[str, int] = {}
        for t in unplaced:
            direct = min(
                node.agent_free[a] + hop(node.agent_loc[a], t, a)
                for a in sorted(t.durations)
            )
            ready[t.id] = direct
            incr = min(
                from_task[t.id],
                min(hop(node.agent_loc[a], t, a) for a in sorted(t.durations)),
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
                    p = next(u for u in problem.tasks if u.id == pred)
                    e = max(e, earliest(p) + _min_duration(p) + gap)
            est[task.id] = e
            return e

        chain_bound = max(earliest(t) + _min_duration(t) for t in unplaced)
        return float(max(placed_makespan, load_bound, res_bound, chain_bound))

    return lower_bound


def _reference_node(problem, agent_free, agent_loc, res_free, finish):
    """The string-keyed node of the compiled node's tables. Location index
    t is task t's location; num_tasks + j is agent j's start location."""
    points = ([t.location for t in problem.tasks]
              + [a.start_location for a in problem.agents])
    placed = {t.id: f for t, f in zip(problem.tasks, finish) if f is not None}
    return SimpleNamespace(
        entries=tuple(ScheduleEntry(tid, "", 0, f) for tid, f in placed.items()),
        agent_free={a.id: f for a, f in zip(problem.agents, agent_free)},
        agent_loc={a.id: points[loc] for a, loc in zip(problem.agents, agent_loc)},
        res_free=dict(zip(problem.resources, res_free)),
        finish=placed,
    )


def _relabel(problem: ProblemInstance, rng_seed: int) -> ProblemInstance:
    """The same instance with unpadded task ids ("t10" sorts before "t2")
    listed in shuffled order, and agents listed against their id order."""
    rng = np.random.default_rng(rng_seed)
    n = len(problem.tasks)
    new_id = {t.id: f"t{int(k)}" for t, k in zip(problem.tasks, rng.permutation(n))}
    m = len(problem.agents)
    agent_id = {a.id: f"a{m - 1 - j}" for j, a in enumerate(problem.agents)}
    tasks = tuple(
        TaskSpec(new_id[t.id], t.location,
                 {agent_id[a]: d for a, d in t.durations.items()}, t.resource,
                 t.abs_deadline, tuple((new_id[p], w) for p, w in t.waits))
        for t in (problem.tasks[int(i)] for i in rng.permutation(n)))
    agents = tuple(AgentSpec(agent_id[a.id], a.start_location, a.speed)
                   for a in problem.agents)
    return ProblemInstance(problem.grid_size, agents, tasks, problem.resources,
                           problem.horizon)


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       shape=st.sampled_from([(6, 2, False), (11, 2, True), (12, 3, True),
                              (12, 2, False)]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=24, deadline=None)
def test_compiled_bound_matches_reference(kind, homogeneous, shape, seed):
    """At every node a capped cold and seeded search bounds, the compiled
    bound equals the string-keyed reference, on instances whose task and
    agent ids order differently as strings and as positions."""
    num_tasks, num_agents, relabel = shape
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    reference = _make_lower_bound(problem)
    compiled_bound = optimizer.lower_bound
    checked = []

    def checking_bound(cp, agent_free, agent_loc, res_free, finish):
        got = compiled_bound(cp, agent_free, agent_loc, res_free, finish)
        node = _reference_node(problem, agent_free, agent_loc, res_free, finish)
        want = reference(node, [t for t, f in zip(problem.tasks, finish) if f is None])
        assert got == want
        assert max(agent_free) == max(node.finish.values(), default=0)
        checked.append(got)
        return got

    seed_schedule = construct_schedule(
        problem, HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
    if not (seed_schedule.complete
            and validate_schedule(problem, seed_schedule).feasible):
        seed_schedule = None
    evaluated = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "lower_bound", checking_bound)
        for warm in (None, seed_schedule):
            evaluated += branch_and_bound(problem, seed=warm,
                                          node_limit=25).stats["bound_evals"]
    assert len(checked) == evaluated


def _replace_at(values: tuple, i: int, value) -> tuple:
    return values[:i] + (value,) + values[i + 1:]


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       shape=st.sampled_from([(6, 2, False), (9, 3, True), (10, 2, True),
                              (12, 3, False)]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=24, deadline=None)
def test_screen_never_exceeds_full_bound(kind, homogeneous, shape, seed):
    """At every child of every node a capped cold and seeded search bounds,
    which covers every child the searches generate, the O(1) screen,
    recomputed here from `unit_load` and `min_duration`, is at most the
    child's full bound, so a child it prunes is one the full bound would."""
    num_tasks, num_agents, relabel = shape
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    full_bound = optimizer.lower_bound
    checked = []

    def checking_bound(cp, agent_free, agent_loc, res_free, finish):
        """The node's full bound, after checking the screen against the full
        bound of each child it could generate: every wait-released unplaced
        task on every capable agent, timed by the reference rule."""
        unplaced = [u for u in cp.topological if finish[u] is None]
        for t in unplaced:
            if any(finish[p] is None for p, _ in cp.waits[t]):
                continue
            r = cp.resource[t]
            for a in cp.capable[t]:
                _, fin = _earliest_start(cp, t, a, agent_free, agent_loc,
                                         res_free, finish)
                makespan = max([fin, *(f for f in finish if f is not None)])
                screen = max(
                    makespan,
                    math.ceil((sum(agent_free) - agent_free[a] + fin
                               + sum(cp.unit_load[u] for u in unplaced if u != t))
                              / len(agent_free)),
                    fin + sum(cp.min_duration[u] for u in unplaced
                              if u != t and cp.resource[u] == r))
                child = (_replace_at(agent_free, a, fin), _replace_at(agent_loc, a, t),
                         _replace_at(res_free, r, fin), _replace_at(finish, t, fin))
                assert screen <= full_bound(cp, *child)
                checked.append(screen)
        return full_bound(cp, agent_free, agent_loc, res_free, finish)

    seed_schedule = construct_schedule(
        problem, HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
    if not (seed_schedule.complete
            and validate_schedule(problem, seed_schedule).feasible):
        seed_schedule = None
    generated = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "lower_bound", checking_bound)
        for warm in (None, seed_schedule):
            generated += branch_and_bound(problem, seed=warm,
                                          node_limit=25).stats["children_generated"]
    # every expanded node was bounded first, so its children are among those
    # checked
    assert len(checked) >= generated


def _earliest_start(cp, t, a, agent_free, agent_loc, res_free, finish):
    """(start, finish) of task t on agent a appended after the placements
    summarized by the sequences: the latest of its wait releases, its
    resource's release and the agent's arrival. Every wait predecessor must
    be placed and a must be able to do t. The reference that `core.release`,
    met with the agent's arrival, is checked against."""
    enable = 0
    for p, gap in cp.waits[t]:
        enable = max(enable, finish[p] + gap)
    arrival = agent_free[a] + cp.travel[a][agent_loc[a]][t]
    start = max(enable, res_free[cp.resource[t]], arrival)
    return start, start + cp.duration[t][a]


def _release_mismatches(cp, rng_seed: int, rule) -> int:
    """Checks a release rule fails along one random placement order: at
    every step, for every unplaced task and capable agent, `rule` must be
    None exactly when a wait predecessor is unplaced, and otherwise its
    later of itself and the agent's arrival, with the duration added, must
    be the reference's start and finish."""
    rng = np.random.default_rng(rng_seed)
    state = cp.empty
    failed = 0
    for _ in range(len(cp.task_ids)):
        agent_free, agent_loc, res_free, finish = state
        ready = []
        for t in [u for u, f in enumerate(finish) if f is None]:
            got = rule(cp, t, finish, res_free[cp.resource[t]])
            blocked = any(finish[p] is None for p, _ in cp.waits[t])
            failed += (got is None) != blocked
            if blocked:
                continue
            ready.append(t)
            if got is None:
                continue  # counted above
            for a in cp.capable[t]:
                start = max(got, agent_free[a] + cp.travel[a][agent_loc[a]][t])
                failed += ((start, start + cp.duration[t][a])
                           != _earliest_start(cp, t, a, *state))
        t = ready[int(rng.integers(len(ready)))]
        a = cp.capable[t][int(rng.integers(len(cp.capable[t])))]
        _, fin = _earliest_start(cp, t, a, *state)
        state = place(cp, *state, t, a, fin)
    return failed


@given(kind=st.sampled_from(sorted(KIND_FIELDS)), homogeneous=st.booleans(),
       num_agents=st.integers(min_value=1, max_value=3),
       num_tasks=st.integers(min_value=1, max_value=12), relabel=st.booleans(),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_release_matches_the_reference_rule(kind, homogeneous, num_agents,
                                            num_tasks, relabel, seed):
    """Along a random placement order, `core.release` met with each capable
    agent's arrival gives the reference rule's start and finish, and is None
    exactly while a wait predecessor is unplaced."""
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    assert _release_mismatches(problem.compiled, seed, release) == 0


def _release_without_gap(cp, t, finish, floor):
    """`core.release` with every wait gap dropped: a mutant that waits for
    each predecessor's finish but not its gap."""
    ready = floor
    for p, _ in cp.waits[t]:
        if finish[p] is None:
            return None
        ready = max(ready, finish[p])
    return ready


def test_release_check_catches_a_dropped_wait_gap():
    """Mutation check of the property above: `_release_without_gap`
    disagrees with the reference on these fixed problems with waits."""
    failed = 0
    for seed in range(6):
        cp = generate_instance(make_config("temporal", num_agents=1 + seed % 3,
                                           num_tasks=10, rng_seed=seed)).compiled
        assert _release_mismatches(cp, seed, release) == 0
        failed += _release_mismatches(cp, seed, _release_without_gap)
    assert failed > 0


def _least_completion(cp, agent_free, agent_loc, res_free, finish) -> int:
    """The least makespan over every order and assignment of a node's
    unplaced tasks, each placed at its earliest start once its wait
    predecessors are placed. Deadlines are not enforced."""
    if None not in finish:
        return max(finish)
    best = math.inf
    for t, f in enumerate(finish):
        if f is not None or any(finish[p] is None for p, _ in cp.waits[t]):
            continue
        r = cp.resource[t]
        for a in cp.capable[t]:
            _, fin = _earliest_start(cp, t, a, agent_free, agent_loc,
                                     res_free, finish)
            best = min(best, _least_completion(
                cp, _replace_at(agent_free, a, fin), _replace_at(agent_loc, a, t),
                _replace_at(res_free, r, fin), _replace_at(finish, t, fin)))
    return best


ROUTE_CHECK_LEFT = 5  # most unplaced tasks a node is enumerated at


def _searched(problem: ProblemInstance):
    """The problem's compiled tables after a search, which builds the
    search's own tables into them."""
    branch_and_bound(problem, node_limit=0)
    return problem.compiled


def _route_and_completion(cp, rng_seed: int):
    """(route component, least completion) at the root and at every node of
    one random placement order that has at most ROUTE_CHECK_LEFT tasks
    left, agents drawn among each task's capable ones."""
    rng = np.random.default_rng(rng_seed)
    subsets = {}
    n = len(cp.task_ids)
    agent_free, agent_loc = (0, 0), cp.start_loc
    res_free, finish = (0,) * len(cp.resource_ids), (None,) * n
    for _ in range(n):
        left = [t for t in range(n) if finish[t] is None]
        if len(left) <= ROUTE_CHECK_LEFT:
            route = optimizer.route_bound(cp, agent_free, agent_loc,
                                          sum(1 << t for t in left), subsets)
            yield route, _least_completion(cp, agent_free, agent_loc,
                                           res_free, finish)
        ready = [t for t in left if all(finish[p] is not None for p, _ in cp.waits[t])]
        t = ready[int(rng.integers(len(ready)))]
        a = cp.capable[t][int(rng.integers(len(cp.capable[t])))]
        _, fin = _earliest_start(cp, t, a, agent_free, agent_loc, res_free, finish)
        agent_free, agent_loc = _replace_at(agent_free, a, fin), _replace_at(agent_loc, a, t)
        res_free = _replace_at(res_free, cp.resource[t], fin)
        finish = _replace_at(finish, t, fin)


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       num_tasks=st.integers(min_value=1, max_value=7),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_route_component_never_exceeds_a_completion(kind, homogeneous,
                                                    num_tasks, seed):
    """At the root of a small two-agent problem and at the nodes of a random
    placement order, the route component is at most the least makespan of
    any completion, found by enumerating every order and assignment."""
    problem = generate_instance(make_config(
        kind, num_agents=2, num_tasks=num_tasks, homogeneous=homogeneous,
        rng_seed=seed))
    pairs = list(_route_and_completion(_searched(problem), seed))
    assert pairs
    for route, least in pairs:
        assert route <= least


def test_route_check_catches_one_tick_too_many():
    """Mutation check of the property above: with one tick added to every
    entry of the tables, the route component exceeds a completion on
    these fixed problems. The tables are the problem's own, so each
    mutated problem is one nothing searches afterwards."""
    exceeded = 0
    for seed in range(6):
        problem = generate_instance(make_config(
            PROBLEM_KINDS[seed % len(PROBLEM_KINDS)], num_agents=2,
            num_tasks=5, rng_seed=seed))
        cp = _searched(problem)
        pairs = list(_route_and_completion(cp, seed))
        assert all(route <= least for route, least in pairs)
        cp.routes = [table + 1 for table in cp.routes]
        exceeded += sum(route > least for route, least in
                        _route_and_completion(cp, seed))
    assert exceeded > 0


@pytest.mark.parametrize("num_tasks, num_agents, built", [
    (optimizer.ROUTE_CAP, 2, True), (optimizer.ROUTE_CAP + 1, 2, False),
    (20, 2, False), (6, 1, False), (6, 3, False)])
def test_route_tables_only_for_two_agents_up_to_the_cap(monkeypatch, num_tasks,
                                                        num_agents, built):
    problem = generate_instance(make_config(
        "temporal", num_agents=num_agents, num_tasks=num_tasks, rng_seed=3))
    assert (_searched(problem).routes is not None) == built
    if not built:
        def unbuilt(*args):
            raise AssertionError("route component taken without tables")

        monkeypatch.setattr(optimizer, "route_bound", unbuilt)
        result = branch_and_bound(problem, node_limit=200)
        assert result.stats["pruned_route"] == 0


def test_search_shares_the_problems_tables(monkeypatch):
    """A search reads the problem's own tables, not a copy, and they stay
    slots: reading a table's `__dict__` would make every later attribute
    read a dictionary lookup. It takes each task's release at most once per
    node it expands, where one call per (task, agent) would take more."""
    problem = generate_instance(make_config("temporal", num_agents=3,
                                            num_tasks=6, rng_seed=11))
    read = []

    def recording_release(cp, *args):
        read.append(cp)
        return release(cp, *args)

    monkeypatch.setattr(optimizer, "release", recording_release)
    result = branch_and_bound(problem, node_limit=200)
    assert read and all(cp is problem.compiled for cp in read)
    assert not hasattr(problem.compiled, "__dict__")
    most = result.nodes_explored * len(problem.tasks)
    assert len(read) <= most < result.stats["children_generated"]


def test_each_problem_builds_its_search_tables_once(monkeypatch):
    """A seeded and a cold search of one two-agent 7-task problem build the
    search's tables, route tables included, once between them."""
    problem = generate_instance(make_config("temporal", num_agents=2,
                                            num_tasks=7, rng_seed=503))
    seed = construct_schedule(problem, HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
    builds = {"_search_tables": 0, "_route_tables": 0}
    for name in builds:
        def counting(*args, build=getattr(optimizer, name), name=name):
            builds[name] += 1
            return build(*args)

        monkeypatch.setattr(optimizer, name, counting)
    seeded = branch_and_bound(problem, seed=seed)
    cold = branch_and_bound(problem)
    assert seeded.seeded and not cold.seeded
    assert seeded.stats["pruned_route"] + cold.stats["pruned_route"] > 0
    assert builds == {"_search_tables": 1, "_route_tables": 1}


@given(kind=st.sampled_from(PROBLEM_KINDS),
       shape=st.sampled_from([(1, 1, False), (1, 3, True), (6, 2, False),
                              (9, 3, False), (12, 3, True), (14, 2, True)]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_search_tables_match_their_definitions(kind, shape, seed):
    """The search's tables, built from the compiled tables, equal their
    definitions over the raw problem: `min_duration` the least of a task's
    durations, `from_task` the least hop in from another task by the
    fastest capable agent, and `unit_load` the shortest duration plus the
    cheaper of that hop and a capable agent's trip from its start. The
    problems are heterogeneous (speeds vary and capabilities drop), and
    some are relabeled so ids order differently as strings and positions."""
    num_tasks, num_agents, relabel = shape
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks, homogeneous=False,
        rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    cp = _searched(problem)
    speed = {a.id: a.speed for a in problem.agents}
    start = {a.id: a.start_location for a in problem.agents}
    for t, task in enumerate(problem.tasks):
        fastest = max(sorted(task.durations), key=speed.get)
        hops = [travel_ticks(euclidean(u.location, task.location), speed[fastest])
                for u in problem.tasks if u.id != task.id]
        from_task = min(hops) if hops else 0
        least = min(task.durations.values())
        trip = min(travel_ticks(euclidean(start[a], task.location), speed[a])
                   for a in task.durations)
        assert cp.min_duration[t] == least
        assert cp.from_task[t] == from_task
        assert cp.unit_load[t] == least + min(from_task, trip)


def _golden_corpus():
    """(label, problem, node limit) of the pinned searches; the last two
    are relabeled, so a wrong id order changes their node sequence."""
    for kind, homogeneous, num_tasks, num_agents, rng_seed, node_limit in (
            ("travel", True, 7, 2, 501, None),
            ("contention", False, 7, 2, 502, None),
            ("temporal", True, 7, 2, 503, None),
            ("temporal", True, 20, 2, 601, 2000),
            ("temporal", True, 20, 2, 602, 2000),
            ("travel", False, 12, 3, 701, 300),
            ("temporal", True, 12, 3, 702, 300)):
        problem = generate_instance(make_config(
            kind, num_agents=num_agents, num_tasks=num_tasks,
            homogeneous=homogeneous, rng_seed=rng_seed))
        if num_agents == 3:
            problem = _relabel(problem, rng_seed)
        yield f"{kind}-{num_tasks}-{rng_seed}", problem, node_limit


def _reversed_kahn_order(cp) -> list[int]:
    """A predecessor-first order of the compiled waits by Kahn's algorithm
    that starts the last-listed ready task first, where `graphlib` tends to
    start the first."""
    waiting = {t: {p for p, _ in waits} for t, waits in enumerate(cp.waits)}
    order = []
    while waiting:
        t = [u for u, preds in waiting.items() if not preds][-1]
        order.append(t)
        del waiting[t]
        for preds in waiting.values():
            preds.discard(t)
    return order


def _assert_predecessors_first(problem: ProblemInstance, order: list[int]) -> None:
    """`order`, task indices, lists every task once and each wait
    predecessor, as the problem names it by id, before its successor."""
    ids = [problem.compiled.task_ids[t] for t in order]
    assert sorted(ids) == sorted(t.id for t in problem.tasks)
    position = {tid: i for i, tid in enumerate(ids)}
    for task in problem.tasks:
        for p, _ in task.waits:
            assert position[p] < position[task.id], (p, task.id)


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       num_tasks=st.integers(min_value=2, max_value=20), relabel=st.booleans(),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_wait_order_puts_every_predecessor_first(kind, homogeneous, num_tasks,
                                                 relabel, seed):
    """The order the search walks, as a search with no node leaves it, and
    the reversed Kahn order both put every predecessor first."""
    problem = generate_instance(make_config(
        kind, num_agents=2, num_tasks=num_tasks, homogeneous=homogeneous,
        rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    cp = _searched(problem)
    _assert_predecessors_first(problem, cp.topological)
    _assert_predecessors_first(problem, _reversed_kahn_order(cp))


# (nodes_explored, objective, lower_bound, gap, status, incumbent_trace) per
# (instance, arm); "seeded" starts from the temporal rule's replay. The
# 20-task and 3-agent entries were recorded with the string-keyed search this
# module replaced; the 7-task two-agent entries with the route component
GOLDEN = {
    ("travel-7-501", "cold"): (
        109, 37, 37.0, 0.0, "gap_reached",
        ((36, 51), (36, 49), (38, 47), (64, 44), (75, 43), (81, 42), (86, 41),
         (89, 40), (99, 38), (109, 37))),
    ("travel-7-501", "seeded"): (0, 37, 37.0, 0.0, "gap_reached", ((0, 37),)),
    ("contention-7-502", "cold"): (
        179, 39, 39.0, 0.0, "optimal",
        ((7, 72), (8, 71), (9, 60), (11, 57), (11, 48), (15, 47), (41, 46),
         (49, 45), (59, 42), (60, 41), (137, 40), (143, 39))),
    ("contention-7-502", "seeded"): (
        89, 39, 39.0, 0.0, "optimal", ((0, 40), (53, 39))),
    ("temporal-7-503", "cold"): (
        165, 31, 31.0, 0.0, "optimal",
        ((42, 63), (42, 61), (75, 40), (75, 38), (76, 37), (85, 33),
         (99, 32), (136, 31))),
    ("temporal-7-503", "seeded"): (
        85, 31, 31.0, 0.0, "optimal", ((0, 33), (19, 32), (56, 31))),
    ("temporal-20-601", "cold"): (2000, None, 56.0, math.inf, "node_limit", ()),
    ("temporal-20-601", "seeded"): (
        2000, 75, 56.0, 0.25333333333333335, "node_limit", ((0, 75),)),
    ("temporal-20-602", "cold"): (2000, None, 65.0, math.inf, "node_limit", ()),
    ("temporal-20-602", "seeded"): (
        2000, 78, 65.0, 0.16666666666666666, "node_limit", ((0, 78),)),
    ("travel-12-701", "cold"): (300, None, 24.0, math.inf, "node_limit", ()),
    ("travel-12-701", "seeded"): (
        300, 42, 24.0, 0.42857142857142855, "node_limit", ((0, 42),)),
    ("temporal-12-702", "cold"): (300, None, 25.0, math.inf, "node_limit", ()),
    ("temporal-12-702", "seeded"): (
        300, 41, 25.0, 0.3902439024390244, "node_limit", ((0, 41),)),
}


def test_golden_searches():
    """Closed 7-task, 2000-node 20-task and 300-node relabeled 12-task
    searches, cold and seeded, find what the string-keyed search found."""
    policy = HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)
    for label, problem, node_limit in _golden_corpus():
        seed = construct_schedule(problem, policy)
        for arm, warm in (("cold", None), ("seeded", seed)):
            result = branch_and_bound(problem, seed=warm, node_limit=node_limit)
            assert result.seeded == (arm == "seeded")
            got = (result.nodes_explored, result.objective, result.lower_bound,
                   result.gap, result.status, result.incumbent_trace)
            assert got == GOLDEN[label, arm], (label, arm)
            if result.schedule is not None:
                assert validate_schedule(problem, result.schedule).feasible


def _full_golden_corpus():
    """The golden searches, then a one-agent "dense" problem and a
    relabeled three-agent problem with wait chains, both closed."""
    yield from _golden_corpus()
    for kind, num_tasks, num_agents, rng_seed in (("dense", 7, 1, 905),
                                                  ("temporal", 8, 3, 924)):
        problem = generate_instance(make_config(
            kind, num_agents=num_agents, num_tasks=num_tasks, rng_seed=rng_seed))
        if num_agents == 3:
            problem = _relabel(problem, rng_seed)
        yield f"{kind}-{num_tasks}-{rng_seed}", problem, None


STAT_KEYS = ("bound_evals", "children_generated", "pruned_canonical",
             "pruned_deadline", "pruned_screen", "pruned_bound", "pruned_route",
             "peak_open")

# (stats in STAT_KEYS order, SHA-256 of the schedule's JSON or None) per
# (instance, arm), recorded with the search that called `earliest_start`
# once per (task, agent)
GOLDEN_RESULTS = {
    ("travel-7-501", "cold"): (
        (233, 572, 143, 49, 131, 13, 54, 42),
        "12962615f3f86d12abe243a827a739c1e29701e54baa747a63ae7b3dab3212c5"),
    ("travel-7-501", "seeded"): (
        (1, 0, 0, 0, 0, 0, 0, 1),
        "1a40ec4e42c1f5d8c32c00bb1e11a2e2b2d4b5e67ad6aad069d9ba6479680f37"),
    ("contention-7-502", "cold"): (
        (488, 1108, 190, 0, 405, 78, 188, 40),
        "7ec0d0d5bde0ce4d871ebd505e688806aaeb8a2a0729f0b4c5f1675233eb78cd"),
    ("contention-7-502", "seeded"): (
        (266, 635, 110, 0, 257, 48, 127, 17),
        "7ec0d0d5bde0ce4d871ebd505e688806aaeb8a2a0729f0b4c5f1675233eb78cd"),
    ("temporal-7-503", "cold"): (
        (370, 782, 170, 95, 135, 67, 108, 32),
        "e7af8eb78e9f95bfe01e708e015cf750c35c7c3ce9af43ac8435f5b3ef43f52d"),
    ("temporal-7-503", "seeded"): (
        (276, 498, 96, 1, 121, 66, 115, 19),
        "e7af8eb78e9f95bfe01e708e015cf750c35c7c3ce9af43ac8435f5b3ef43f52d"),
    ("temporal-20-601", "cold"): (
        (2173, 15614, 5797, 7645, 0, 0, 0, 179),
        None),
    ("temporal-20-601", "seeded"): (
        (2239, 43818, 21402, 0, 20178, 131, 0, 125),
        "754579a00a5140f3da84276ccd50b9854a92162179785b76f726449b86dd35e2"),
    ("temporal-20-602", "cold"): (
        (2195, 19826, 7077, 10555, 0, 0, 0, 208),
        None),
    ("temporal-20-602", "seeded"): (
        (2267, 43398, 21310, 1411, 18411, 129, 0, 161),
        "23e4c56a8a24a21020c56f4fab88c4afd77c5e544834101343d170202d2afaf9"),
    ("travel-12-701", "cold"): (
        (384, 1981, 1066, 532, 0, 0, 0, 88),
        None),
    ("travel-12-701", "seeded"): (
        (555, 4514, 1724, 40, 2196, 179, 0, 95),
        "91f2efea682a3e51abad54d72d710f3bd8d72273de18aed40b5b9157fc7d72b4"),
    ("temporal-12-702", "cold"): (
        (386, 3150, 1330, 1435, 0, 0, 0, 89),
        None),
    ("temporal-12-702", "seeded"): (
        (413, 5703, 2113, 468, 2710, 50, 0, 81),
        "f9c3d8b63bcb85dce2a863f4bec46d5a520d9372a33f0fc4d1aa33a87115e909"),
    ("dense-7-905", "cold"): (
        (110, 222, 0, 88, 24, 0, 0, 16),
        "3a5e651fa96cfe0147157471e97229e74bd62d603d10d856763e6bd8724d89a2"),
    ("dense-7-905", "seeded"): (
        (23, 75, 0, 6, 47, 0, 0, 5),
        "26e7b8c1af05c60fb17f828d96df9c8ccfd1b059d8b4dd2a89dfb24318f8bf2e"),
    ("temporal-8-924", "cold"): (
        (465, 1188, 231, 383, 75, 137, 0, 39),
        "b6022db84ec1a2426a22748ace25451c067e526c23944cbb142a9c1598d6053b"),
    ("temporal-8-924", "seeded"): (
        (243, 477, 127, 0, 96, 103, 0, 38),
        "b6022db84ec1a2426a22748ace25451c067e526c23944cbb142a9c1598d6053b"),
}


def test_golden_search_results():
    """Every counter and the whole schedule of each search of the full
    golden corpus, cold and seeded, are those recorded."""
    policy = HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)
    got = {}
    for label, problem, node_limit in _full_golden_corpus():
        seed = construct_schedule(problem, policy)
        assert validate_schedule(problem, seed).feasible, label
        for arm, warm in (("cold", None), ("seeded", seed)):
            result = branch_and_bound(problem, seed=warm, node_limit=node_limit)
            assert list(result.stats) == list(STAT_KEYS)
            got[label, arm] = (tuple(result.stats.values()), None if result.schedule is None
                               else hashlib.sha256(json.dumps(schedule_to_dict(
                                   result.schedule)).encode()).hexdigest())
    assert got == GOLDEN_RESULTS


def test_search_does_not_depend_on_wait_order(monkeypatch):
    """The bound needs only each predecessor before its successor, and
    children are sorted before they are pushed, so another predecessor-first
    order stored by `_search_tables` gives every golden search the same
    result and counters."""
    policy = HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)

    def results():
        """Both arms of every golden search, on problems built afresh, so
        each builds its search tables with the order in force; and, per
        problem, whether it has waits and stores the reversed Kahn order."""
        got, orders = [], []
        for _, problem, node_limit in _golden_corpus():
            seed = construct_schedule(problem, policy)
            got += [replace(branch_and_bound(problem, seed=warm,
                                             node_limit=node_limit),
                            wall_time=0.0) for warm in (None, seed)]
            cp = problem.compiled
            orders.append((any(cp.waits), cp.topological == _reversed_kahn_order(cp)))
        return got, orders

    expected, graphlib_orders = results()
    build = optimizer._search_tables

    def reordering(cp):
        build(cp)
        cp.topological = _reversed_kahn_order(cp)

    monkeypatch.setattr(optimizer, "_search_tables", reordering)
    got, reordered = results()
    assert got == expected
    assert all(same for _, same in reordered)
    assert any(waits and not same for waits, same in graphlib_orders)


# full-bound prunes per golden (instance, arm), recorded with the search
# before it screened children (the 7-task entries with the route component
# and the screen switched off)
UNSCREENED_PRUNES = {
    ("travel-7-501", "cold"): 144, ("travel-7-501", "seeded"): 0,
    ("contention-7-502", "cold"): 483, ("contention-7-502", "seeded"): 305,
    ("temporal-7-503", "cold"): 202, ("temporal-7-503", "seeded"): 187,
    ("temporal-20-601", "cold"): 0, ("temporal-20-601", "seeded"): 20309,
    ("temporal-20-602", "cold"): 0, ("temporal-20-602", "seeded"): 18540,
    ("travel-12-701", "cold"): 0, ("travel-12-701", "seeded"): 2375,
    ("temporal-12-702", "cold"): 0, ("temporal-12-702", "seeded"): 2760,
}


class TestStats:
    def test_counters_account_for_children(self, temporal_problem):
        for warm in (None, branch_and_bound(temporal_problem).schedule):
            a = branch_and_bound(temporal_problem, seed=warm).stats
            assert a == branch_and_bound(temporal_problem, seed=warm).stats
            # every child bounded was neither a canonical, deadline or
            # screen prune nor a complete schedule; the root is bounded too
            bounded = a["bound_evals"] - 1
            assert a["children_generated"] >= (
                a["pruned_canonical"] + a["pruned_deadline"] + a["pruned_screen"]
                + bounded)
            # the route component runs only on children the full bound
            # leaves open
            assert 0 <= a["pruned_bound"] + a["pruned_route"] <= bounded
            assert a["peak_open"] >= 1

    def test_screen_only_moves_bound_prunes(self):
        """On the golden searches the screen and the full bound together
        prune exactly the children the full bound alone pruned, and the
        screen is live on the seeded 20-task searches. The route component
        prunes on every cold two-agent 7-task search and never on the
        20-task or 3-agent ones, which have no tables."""
        policy = HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)
        for label, problem, node_limit in _golden_corpus():
            seed = construct_schedule(problem, policy)
            for arm, warm in (("cold", None), ("seeded", seed)):
                stats = branch_and_bound(problem, seed=warm,
                                         node_limit=node_limit).stats
                assert (stats["pruned_screen"] + stats["pruned_bound"]
                        == UNSCREENED_PRUNES[label, arm]), (label, arm)
                if label.startswith("temporal-20") and arm == "seeded":
                    assert stats["pruned_screen"] > 0, label
                if "-7-" not in label:
                    assert stats["pruned_route"] == 0, (label, arm)
                elif arm == "cold":
                    assert stats["pruned_route"] > 0, label

    def test_seeding_only_removes_work(self):
        """A node's children do not depend on the incumbent, so a seeded
        search, which expands a subset of the cold search's nodes, bounds
        no more children than the cold one."""
        policy = HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS)
        for label, problem, node_limit in list(_golden_corpus())[:3]:
            cold = branch_and_bound(problem).stats
            warm = branch_and_bound(problem, seed=construct_schedule(problem, policy)).stats
            for key in ("bound_evals", "children_generated"):
                assert warm[key] <= cold[key], (label, key)
