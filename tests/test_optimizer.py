import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosched import optimizer
from demosched.core import (
    AgentSpec,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    StructuralError,
    TaskSpec,
    euclidean,
    schedule_from_dict,
    schedule_to_dict,
    travel_ticks,
    validate_schedule,
)
from demosched.demonstrator import demonstrate
from demosched.experiments import PROBLEM_KINDS, make_config
from demosched.generator import generate_instance
from demosched.optimizer import (
    PERTURBATION_KINDS,
    PerturbationError,
    branch_and_bound,
    brute_force_optimal,
    objective_ratio,
    perturb,
    timed_schedule,
)
from demosched.policy import HeuristicPolicy
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
        assert schedule.entry("t0").start == 0
        assert schedule.entry("t0").finish == 3
        # two travel ticks after t0 finishes
        assert schedule.entry("t1").start == 5
        assert schedule.objective == 7

    def test_wait_order_violation(self, tiny_problem):
        assert timed_schedule(tiny_problem, [("tB", "a0"), ("tA", "a0"),
                                             ("tC", "a1")]) is None

    def test_deadline_violation(self, tiny_problem):
        # keep a1 busy so tC starts too late
        order = [("tA", "a1"), ("tB", "a1"), ("tC", "a1")]
        assert timed_schedule(tiny_problem, order) is None

    def test_incapable_agent(self, serial_problem):
        assert timed_schedule(serial_problem, [("t0", "aX")]) is None


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

    def test_node_limit(self, temporal_problem):
        result = branch_and_bound(temporal_problem, node_limit=1,
                                  gap_threshold=0.0)
        assert result.status == "node_limit"
        assert result.nodes_explored <= 1

    def test_time_limit(self, temporal_problem):
        result = branch_and_bound(temporal_problem, time_limit=0.0)
        assert result.status == "time_limit"

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
        assert warm.seed_objective == seed.objective
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
            serial_problem)
        with pytest.warns(UserWarning, match="rejected"):
            result = branch_and_bound(serial_problem, seed=bad)
        assert not result.seeded
        assert result.objective == 7

    def test_incomplete_seed_rejected(self, serial_problem):
        partial = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 3)],
                                        serial_problem)
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
        assert result.seed_objective == seed.objective
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
        problem, schedule = optimal
        assert perturb(problem, schedule, "swap", 0) is schedule

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
        assert result.assignment() != schedule.assignment()

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

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_unknown_task_raises(self, optimal, kind):
        problem, schedule = optimal
        entries = (replace(schedule.entries[0], task_id="zz"),) + schedule.entries[1:]
        with pytest.raises(StructuralError, match="zz"):
            perturb(problem, replace(schedule, entries=entries), kind, 1)

    def test_too_small(self, serial_problem):
        schedule = timed_schedule(serial_problem, [("t0", "a0")])
        with pytest.raises(PerturbationError, match="too small"):
            perturb(serial_problem, schedule, "sequence", 1)


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
# each kind at counts 1-3 and seeds 0-1, and of each kind at count 1 and
# seeds 0-3 from the expert schedule with its first entry's agent renamed to
# an unknown "aX" (only a steal can replace it), recorded with the id-keyed
# perturbations this module's index form replaced
GOLDEN_PERTURBATIONS = {
    "temporal-6-801 swap":
        "23ea2bcd5cfdcdb2f607bd2066dbda8add6d256782f560374c44c4d31492e000",
    "temporal-6-801 steal":
        "882ad978c3aed94fbfe253792cc77d9bb83a9e508edd9eece3763f808c7f5be3",
    "temporal-6-801 sequence":
        "5e30282e50093510d57a5b7202c761e9f86da29fd2d543aaf2363c7b58576e8c",
    "temporal-6-801 unknown-agent":
        "7606601b0ab005727dff265c30e126ce83828254e4bd6a3496c529fa30fac577",
    "contention-7-802 swap":
        "5ecba6f4fdfbce60101276ac160002b2ae59fda498ae8e1dc01f6276e24bb40e",
    "contention-7-802 steal":
        "02b12b05169df8c1acada6448e8774f3a10fedcaae3ae50bd924e394675b0c4d",
    "contention-7-802 sequence":
        "01f0ce153edb838a4830d76184019b9bed19bfcb77cd93110bad2d039932ff94",
    "contention-7-802 unknown-agent":
        "713efb07f8ec4ecd9eb354611dc6342b83a25a155dd321488d16afa8aabd3265",
    "dense-8-803 swap":
        "f25e1315c69943ca28f8185c56094132f7e114b2434abb323bdf43f46fb31995",
    "dense-8-803 steal":
        "0a6fa4bba2275b4135f8db3b680cfbfa86c33c1b7970f08e45f071e58ebac83c",
    "dense-8-803 sequence":
        "132a16992bfe611d2377a45f93bd86b1fe6bb0a7a774ee27a832dfa9d5cda76e",
    "dense-8-803 unknown-agent":
        "124e3c1584178ba49bf6e8fb67a0b780570bdf2dc30a03b7d4d929cca0d2a2e0",
    "travel-8-804 swap":
        "9e0e269b8bc7cefaa52ec2dabeb4dba37554cbac06364e3926fb94a206b851cd",
    "travel-8-804 steal":
        "7b6be83d16910d52c3c0f8382e0735cb11e11bb7264d17bb4d71f7d4c7558186",
    "travel-8-804 sequence":
        "0b2c0282529226cc1a7e2b734fa11288031d3f5e6475b5682e4d6c37d76bba16",
    "travel-8-804 unknown-agent":
        "6cc95e787821b1488f93443b138910971356427bbc41b3b35df7af4a846cc927",
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
        renamed = (replace(schedule.entries[0], agent_id="aX"),) + schedule.entries[1:]
        unknown = replace(schedule, entries=renamed)
        got[f"{label} unknown-agent"] = digest([
            _perturbation_outcome(problem, unknown, kind, 1, rng_seed)
            for kind in PERTURBATION_KINDS for rng_seed in range(4)])
    assert got == GOLDEN_PERTURBATIONS


def test_objective_ratio():
    worse = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 12)])
    base = Schedule.from_entries([ScheduleEntry("t0", "a0", 0, 10)])
    assert objective_ratio(worse, base) == pytest.approx(1.2)
    empty = Schedule.from_entries([])
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
    compiled_bound = optimizer._Compiled.lower_bound
    checked = []

    def checking_bound(cp, agent_free, agent_loc, res_free, finish, unplaced,
                       makespan):
        got = compiled_bound(cp, agent_free, agent_loc, res_free, finish,
                             unplaced, makespan)
        node = _reference_node(problem, agent_free, agent_loc, res_free, finish)
        want = reference(node, [problem.tasks[t] for t in unplaced])
        assert got == want
        assert makespan == max(node.finish.values(), default=0)
        checked.append(got)
        return got

    seed_schedule = construct_schedule(
        problem, HeuristicPolicy(RuleKind.TEMPORAL_REQUIREMENTS))
    if not (seed_schedule.complete
            and validate_schedule(problem, seed_schedule).feasible):
        seed_schedule = None
    evaluated = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer._Compiled, "lower_bound", checking_bound)
        for warm in (None, seed_schedule):
            evaluated += branch_and_bound(problem, seed=warm,
                                          node_limit=25).stats["bound_evals"]
    assert len(checked) == evaluated


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


# (nodes_explored, objective, lower_bound, gap, status, incumbent_trace) per
# (instance, arm), recorded with the string-keyed search this module
# replaced; "seeded" starts from the temporal rule's replay
GOLDEN = {
    ("travel-7-501", "cold"): (
        456, 37, 37.0, 0.0, "optimal",
        ((36, 51), (36, 49), (38, 47), (112, 44), (160, 43), (188, 42),
         (197, 41), (201, 40), (258, 38), (347, 37))),
    ("travel-7-501", "seeded"): (208, 37, 37.0, 0.0, "optimal", ((0, 37),)),
    ("contention-7-502", "cold"): (
        945, 39, 39.0, 0.0, "optimal",
        ((7, 72), (8, 71), (9, 60), (11, 57), (11, 48), (20, 47), (90, 46),
         (120, 45), (153, 42), (154, 41), (658, 40), (687, 39))),
    ("contention-7-502", "seeded"): (
        689, 39, 39.0, 0.0, "optimal", ((0, 40), (431, 39))),
    ("temporal-7-503", "cold"): (
        650, 31, 31.0, 0.0, "optimal",
        ((42, 63), (42, 61), (75, 40), (75, 38), (76, 37), (86, 33),
         (182, 32), (452, 31))),
    ("temporal-7-503", "seeded"): (
        573, 31, 31.0, 0.0, "optimal", ((0, 33), (105, 32), (375, 31))),
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


class TestStats:
    def test_counters_account_for_children(self, temporal_problem):
        for warm in (None, branch_and_bound(temporal_problem).schedule):
            a = branch_and_bound(temporal_problem, seed=warm).stats
            assert a == branch_and_bound(temporal_problem, seed=warm).stats
            # every child bounded was neither a canonical nor a deadline
            # prune nor a complete schedule; the root is bounded too
            bounded = a["bound_evals"] - 1
            assert a["children_generated"] >= (
                a["pruned_canonical"] + a["pruned_deadline"] + bounded)
            assert 0 <= a["pruned_bound"] <= bounded
            assert a["peak_open"] >= 1

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
