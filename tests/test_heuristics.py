import numpy as np
import pytest

from demosched.core import (
    AgentSpec,
    ProblemInstance,
    SimState,
    TaskSpec,
    euclidean,
    origin_angle,
)
from demosched.features import extract_features
from demosched.heuristics import (
    ALPHA1,
    ALPHA2,
    ALPHA3,
    CONTENTION_THRESHOLD,
    RuleKind,
    expert_choice,
    select_rule,
)
from demosched.simulate import run_simulation


def build_problem(agent_speed=2.0, resources=("r0", "r1", "r2"), tasks=None):
    if tasks is None:
        tasks = (
            TaskSpec("t0", (1.0, 0.0), {"a0": 2}, "r0", abs_deadline=20),
            TaskSpec("t1", (3.0, 0.0), {"a0": 2}, "r1", abs_deadline=10),
            TaskSpec("t2", (0.0, 5.0), {"a0": 2}, "r2"),
        )
    return ProblemInstance(
        grid_size=(10.0, 10.0),
        agents=(AgentSpec("a0", (0.0, 0.0), agent_speed),),
        tasks=tasks,
        resources=resources,
        horizon=100,
    )


class TestSelectRule:
    def test_slow_agent_routes(self):
        assert select_rule(build_problem(agent_speed=0.5)) is RuleKind.TRAVEL_DISTANCE
        assert select_rule(build_problem(agent_speed=1.0)) is RuleKind.TRAVEL_DISTANCE

    def test_contention_threshold_boundary(self):
        problem = build_problem()  # three singleton resources: degree 3
        assert select_rule(problem, contention_threshold=4) is RuleKind.TEMPORAL_REQUIREMENTS
        assert select_rule(problem, contention_threshold=3) is RuleKind.RESOURCE_CONTENTION

    def test_default_is_temporal(self):
        assert select_rule(build_problem()) is RuleKind.TEMPORAL_REQUIREMENTS
        assert CONTENTION_THRESHOLD == 100


def pick(rule, problem, tasks=None, agent_id="a0"):
    """The rule's choice over `tasks` (default: all) at the initial state."""
    state = SimState.initial(problem)
    cp = state.compiled
    tasks = list(problem.tasks) if tasks is None else tasks
    ids = sorted(t.id for t in tasks)
    rows = extract_features(state, cp.agent_index[agent_id],
                            [cp.task_index[tid] for tid in ids])
    return ids[expert_choice(rule, rows, range(len(ids)))]


class TestVrpPriority:
    def test_prefers_near_task(self):
        problem = build_problem()
        cands = [t for t in problem.tasks if t.id in ("t0", "t1")]
        assert pick(RuleKind.TRAVEL_DISTANCE, problem, cands) == "t0"

    def test_angle_term_breaks_distance_tie(self):
        # t1 and t2 are equidistant; zero agent location makes the angular
        # term vanish, so the tie resolves by id
        tasks = (
            TaskSpec("t1", (5.0, 0.0), {"a0": 1}, "r0"),
            TaskSpec("t2", (0.0, 5.0), {"a0": 1}, "r1"),
        )
        problem = build_problem(tasks=tasks, resources=("r0", "r1"))
        assert pick(RuleKind.TRAVEL_DISTANCE, problem) == "t1"


class TestRcPriority:
    def test_prefers_contended_resource(self):
        tasks = (
            TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0", abs_deadline=50),
            TaskSpec("t1", (0.0, 0.0), {"a0": 1}, "r0", abs_deadline=50),
            TaskSpec("t2", (0.0, 0.0), {"a0": 1}, "r1", abs_deadline=50),
        )
        problem = build_problem(tasks=tasks, resources=("r0", "r1"))
        # t0 shares r0 with t1, ties broken by id
        assert pick(RuleKind.RESOURCE_CONTENTION, problem) == "t0"

    def test_deadline_term(self):
        # equal share counts: the earlier deadline wins (larger score)
        tasks = (
            TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0", abs_deadline=90),
            TaskSpec("t1", (0.0, 0.0), {"a0": 1}, "r1", abs_deadline=10),
        )
        problem = build_problem(tasks=tasks, resources=("r0", "r1"))
        assert pick(RuleKind.RESOURCE_CONTENTION, problem) == "t1"


def test_edf_priority():
    problem = build_problem()
    assert pick(RuleKind.TEMPORAL_REQUIREMENTS, problem) == "t1"  # deadline 10
    # deadline-less tasks fall back to the horizon
    assert pick(RuleKind.TEMPORAL_REQUIREMENTS, problem, [problem.tasks[2]]) == "t2"


def test_rule_choice_dispatch():
    """expert_choice scores by the rule it is given."""
    problem = build_problem()
    assert pick(RuleKind.TEMPORAL_REQUIREMENTS, problem) == "t1"  # earliest deadline
    assert pick(RuleKind.TRAVEL_DISTANCE, problem) == "t0"  # nearest
    # singleton resources: 1 - 0.1 * deadline is largest for deadline 10
    assert pick(RuleKind.RESOURCE_CONTENTION, problem) == "t1"


def test_empty_candidates_raise():
    problem = build_problem()
    with pytest.raises(ValueError):
        pick(RuleKind.TRAVEL_DISTANCE, problem, [])
    with pytest.raises(ValueError):
        expert_choice(RuleKind.TEMPORAL_REQUIREMENTS, np.empty((0, 7)), [])


def live_score(rule, state, agent_id, task, problem):
    """Each rule computed straight from the problem and the simulation state,
    higher-is-better scores negated so that lower always wins."""
    deadline = problem.horizon if task.abs_deadline is None else task.abs_deadline
    if rule is RuleKind.TRAVEL_DISTANCE:
        points = ([t.location for t in problem.tasks]
                  + [a.start_location for a in problem.agents])
        loc = points[state.agent_loc[state.compiled.agent_index[agent_id]]]
        dist = euclidean(loc, task.location)
        theta = origin_angle(loc, task.location)
        return dist + ALPHA1 * theta + ALPHA2 * dist * theta
    if rule is RuleKind.RESOURCE_CONTENTION:
        share = sum(1 for u in state.unfinished()
                    if problem.tasks[u].resource == task.resource)
        return -(share - ALPHA3 * deadline)
    return float(deadline)


@pytest.mark.parametrize("rule", list(RuleKind))
def test_feature_scores_reproduce_live_choice(rule, temporal_problem):
    """At every decision of a demonstration, the rule scored from extracted
    features picks what the rule computed from the live state picks,
    including tie-breaks."""
    problem = temporal_problem
    checked = []

    def decide(state, a, candidates):
        if not candidates:
            return None
        cp = state.compiled
        agent_id = cp.agent_ids[a]
        tasks = [problem.tasks[t] for t in candidates]
        unfinished = state.unfinished()
        rows = extract_features(state, a, unfinished)
        replay = unfinished[expert_choice(rule, rows, [unfinished.index(t) for t in candidates])]
        live = min(tasks, key=lambda t: (
            live_score(rule, state, agent_id, t, problem), t.id)).id
        checked.append(cp.task_ids[replay] == live)
        return replay

    run_simulation(problem, decide)
    assert checked and all(checked)
