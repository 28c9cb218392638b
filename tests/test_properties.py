"""Property suites: dataset symmetry, ranking invariances, oracle
self-consistency, perturbation safety and determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HeuristicPolicy, positions, timed_schedule
from demosched.core import Schedule, travel_ticks, validate_schedule
from demosched.datasets import build_pairwise_dataset, pair_rows
from demosched.demonstrator import demonstrate, demonstration_to_dict
from demosched.experiments import PROBLEM_KINDS, make_config
from demosched.generator import generate_instance
from demosched.heuristics import select_rule
from demosched.optimizer import (
    PerturbationError,
    branch_and_bound,
    perturb,
)
from demosched.policy import PolicyModel, evaluate, train_policy
from demosched.scheduler import construct_schedule
from demosched.tree import DecisionTree

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
feature_tuples = st.tuples(*([finite] * 7))


def as_tf(values):
    return np.array(values, dtype=float)


class _RowRecorder:
    """Stands in for a priority tree and keeps the rows it is asked about."""

    def predict_proba(self, X):
        self.rows = np.array(X)
        return np.zeros(len(self.rows))


@given(ctx=st.tuples(finite, finite), a=feature_tuples, b=feature_tuples)
def test_pair_rows_antisymmetry(ctx, a, b):
    context = ctx
    ab = pair_rows(context, as_tf(a), as_tf(b)).tolist()
    ba = pair_rows(context, as_tf(b), as_tf(a)).tolist()
    assert ab[:2] == ba[:2]
    assert ab[2:] == [-x for x in ba[2:]]
    # self-comparison always yields a zero delta
    aa = pair_rows(context, as_tf(a), as_tf(a)).tolist()
    assert aa[2:] == [0.0] * 7
    # scoring a pool encodes its pair matrix's entry [i, j] as the single
    # pair (i, j)
    feats = {"tA": as_tf(a), "tB": as_tf(b)}
    recorder = _RowRecorder()
    PolicyModel(priority_tree=recorder, act_tree=recorder).pool_scores(
        [(context, tuple(feats), np.array(list(feats.values())), [0, 1])])
    rows = recorder.rows.reshape(2, 2, -1)
    for i, first in enumerate(feats):
        for j, second in enumerate(feats):
            assert rows[i, j].tolist() == pair_rows(
                context, feats[first], feats[second]).tolist()


@given(dist=st.floats(min_value=0.0, max_value=1e6),
       speed=st.floats(min_value=1e-3, max_value=1e3))
def test_travel_ticks_bounds(dist, speed):
    ticks = travel_ticks(dist, speed)
    assert ticks >= 0
    assert ticks * speed >= dist - 1e-5 * max(1.0, dist)
    if ticks > 0:
        assert (ticks - 1) * speed < dist + 1e-6


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_pairwise_dataset_balance_and_mirror(seed):
    problem = generate_instance(make_config("temporal", num_tasks=4,
                                            rng_seed=seed))
    demo = demonstrate(problem, epsilon=0.3, rng_seed=seed)
    ds = build_pairwise_dataset([demo])
    if len(ds) == 0:
        return
    assert 2 * int(ds.y.sum()) == len(ds)
    assert np.array_equal(ds.X[0::2, 2:], -ds.X[1::2, 2:])


@given(pool_perm=st.permutations(["tA", "tB", "tC", "tD"]),
       offsets=st.lists(st.floats(min_value=0.5, max_value=20.0,
                                  allow_nan=False), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_select_task_pool_order_invariance(pool_perm, offsets):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 9))
    y = (X[:, 2] < 0).astype(int)
    model = PolicyModel(priority_tree=DecisionTree(min_leaf=2).fit(X, y),
                        act_tree=DecisionTree(min_leaf=2).fit(X, y))
    ctx = (1.0, 1.0)
    ids = tuple(sorted(pool_perm))
    rows = np.array([(off, 1.0, 0.0, 1.0, 0.0, off, 0.0) for off in offsets])
    pool = positions(ids, pool_perm)
    baseline = model.select_tasks([(ctx, ids, rows, sorted(pool))])[0]
    assert model.select_tasks([(ctx, ids, rows, pool)])[0] == baseline


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=10, deadline=None)
def test_oracle_self_consistency(seed):
    """Replaying the generating rule against its own demonstration scores a
    perfect 1.0 on both metrics."""
    problem = generate_instance(make_config("temporal", num_tasks=5,
                                            rng_seed=seed))
    demo = demonstrate(problem, epsilon=0.0, rng_seed=0)
    metrics = evaluate(HeuristicPolicy(demo.rule_used), [demo])
    assert metrics.sensitivity == 1.0
    assert metrics.specificity == 1.0


@given(kind=st.sampled_from(["swap", "steal", "sequence"]),
       count=st.integers(min_value=1, max_value=3),
       rng_seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=25, deadline=None)
def test_perturbation_feasible_and_covering(kind, count, rng_seed,
                                            perturb_base):
    problem, schedule = perturb_base
    try:
        result = perturb(problem, schedule, kind, count, rng_seed=rng_seed)
    except PerturbationError:
        return  # the retry budget may legitimately run out
    assert result.complete
    assert validate_schedule(problem, result).feasible
    assert sorted(e.task_id for e in result.entries) == sorted(
        e.task_id for e in schedule.entries)


@pytest.fixture(scope="module")
def perturb_base():
    problem = generate_instance(make_config("temporal", num_tasks=5, num_agents=2,
                                            fraction_with_deadlines=0.0,
                                            rng_seed=13))
    return problem, branch_and_bound(problem, gap_threshold=0.0).schedule


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       node_limit=st.sampled_from([None, 300]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_timed_schedule_reproduces_bnb(kind, homogeneous, node_limit, seed):
    """Branch and bound and serial timing share one placement rule, so
    re-timing the search's schedule in its own order reproduces it."""
    num_tasks = 6 if node_limit is None else 10
    problem = generate_instance(make_config(
        kind, num_agents=2, num_tasks=num_tasks, homogeneous=homogeneous,
        rng_seed=seed))
    result = branch_and_bound(problem, node_limit=node_limit)
    if result.schedule is None:
        return  # a node limit may stop the search before any incumbent
    order = [(e.task_id, e.agent_id) for e in result.schedule.entries]
    assert timed_schedule(problem, order) == result.schedule


def violation_kinds(problem, schedule) -> set[str]:
    return {v.kind for v in validate_schedule(problem, schedule).violations}


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       num_agents=st.integers(min_value=2, max_value=3),
       num_tasks=st.integers(min_value=4, max_value=8),
       epsilon=st.sampled_from([0.0, 0.2]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_every_returned_schedule_is_valid(kind, homogeneous, num_agents,
                                          num_tasks, epsilon, seed):
    """Schedules from search, timing and perturbation violate nothing. The
    expert and the replayed policy place greedily, so they may miss an
    absolute deadline, but violate nothing else."""
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    demo = demonstrate(problem, epsilon=epsilon, rng_seed=seed)
    assert violation_kinds(problem, demo.schedule) <= {"abs_deadline"}
    replay = construct_schedule(problem, train_policy([demo], min_leaf=1))
    assert violation_kinds(problem, replay) <= {"abs_deadline"}

    search = branch_and_bound(problem, node_limit=200)
    schedules = [timed_schedule(problem, [(e.task_id, e.agent_id)
                                          for e in demo.schedule.entries])]
    if search.schedule is not None:
        schedules.append(search.schedule)
        for edit in ("swap", "steal", "sequence"):
            try:
                schedules.append(perturb(problem, search.schedule, edit, 2,
                                         rng_seed=seed))
            except PerturbationError:
                pass  # the retry budget may legitimately run out
    for schedule in schedules:
        if schedule is not None:
            assert violation_kinds(problem, schedule) == set()


@given(kind=st.sampled_from(PROBLEM_KINDS), homogeneous=st.booleans(),
       num_agents=st.integers(min_value=2, max_value=3),
       num_tasks=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=10_000),
       edit=st.sampled_from(["unknown task", "unknown agent", "incapable agent"]),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_misassigned_entry_is_one_violation(kind, homogeneous, num_agents, num_tasks,
                                            seed, edit, data):
    """Editing one entry of a program-built schedule to name an unknown task,
    an unknown agent or an agent that cannot do the task gives exactly one
    "assignment" violation naming both ids, followed by the report of the
    schedule without that entry: the oracle returns and never raises."""
    # only heterogeneous problems have agents that cannot do some task
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous and edit != "incapable agent", rng_seed=seed))
    entries = demonstrate(problem).schedule.entries
    agents = [a.id for a in problem.agents]
    durations = {t.id: t.durations for t in problem.tasks}
    if edit == "incapable agent":
        edits = [(i, a) for i, e in enumerate(entries)
                 for a in agents if a not in durations[e.task_id]]
        assume(edits)
        i, agent = data.draw(st.sampled_from(edits))
        bad = replace(entries[i], agent_id=agent)
    else:
        i = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
        field = "task_id" if edit == "unknown task" else "agent_id"
        bad = replace(entries[i], **{field: "zz"})
    schedule = Schedule(entries[:i] + (bad,) + entries[i + 1:], 0, False)
    rest = Schedule(entries[:i] + entries[i + 1:], 0, False)
    first, *others = validate_schedule(problem, schedule).violations
    assert first.kind == "assignment"
    assert f"task {bad.task_id!r} on agent {bad.agent_id!r}: " in first.detail
    assert tuple(others) == validate_schedule(problem, rest).violations


@given(seed=st.integers(min_value=0, max_value=1000),
       epsilon=st.sampled_from([0.0, 0.2, 1.0]))
@settings(max_examples=15, deadline=None)
def test_demonstration_determinism(seed, epsilon, temporal_problem):
    a = demonstrate(temporal_problem, epsilon=epsilon, rng_seed=seed)
    b = demonstrate(temporal_problem, epsilon=epsilon, rng_seed=seed)
    assert demonstration_to_dict(a) == demonstration_to_dict(b)


def test_noise_rate_matches_uniform_model():
    """With epsilon=1 every decision is uniform over the k feasible
    candidates, so the expected rate of agreeing with the rule's own pick
    for the same state is mean(1/k)."""
    problem = generate_instance(make_config("dense", num_tasks=8, rng_seed=21))
    rule = select_rule(problem)
    oracle = HeuristicPolicy(rule)
    expected_terms = []
    hits = []
    for s in range(150):
        demo = demonstrate(problem, epsilon=1.0, rng_seed=s)
        for obs in demo.observations:
            if not obs.scheduled or len(obs.candidates) < 2:
                continue
            expert_pick = oracle.select_tasks([(obs.context, obs.task_ids, obs.rows,
                                                positions(obs.task_ids, obs.candidates))])[0]
            expected_terms.append(1.0 / len(obs.candidates))
            hits.append(1.0 if obs.scheduled[0] == obs.task_ids[expert_pick] else 0.0)
        if len(hits) >= 500:
            break
    observed = float(np.mean(hits))
    expected = float(np.mean(expected_terms))
    # three-sigma binomial tolerance around the analytic rate
    sigma = float(np.sqrt(max(expected * (1 - expected), 0.01) / len(hits)))
    assert abs(observed - expected) <= 3 * sigma
