"""The table-driven simulator against the string-keyed one it replaced and
against the search's placement rule, and golden demonstrations and replays.

The reference below is the string-keyed simulation state and its checks,
kept verbatim apart from the state class's name; `RefState.of` builds it
from a table-driven state, so both read the same partial schedule.
"""

import gc
import hashlib
import json
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HeuristicPolicy
from demosched import core
from demosched.core import (
    AgentSpec,
    Compiled,
    InfeasibleActionError,
    ProblemInstance,
    SimState,
    TaskSpec,
    apply_action,
    euclidean,
    origin_angle,
    schedule_to_dict,
    travel_ticks,
)
from demosched.demonstrator import demonstrate, demonstration_to_dict
from demosched.features import TaskFeatures, extract_features
from demosched.generator import KIND_FIELDS, generate_instance, make_config
from demosched.heuristics import RuleKind, expert_choice, select_rule
from demosched.optimizer import branch_and_bound
from demosched.policy import train_policy
from demosched.scheduler import SchedulerConfig, construct_schedule, schedulability_test
from demosched.simulate import run_simulation
from test_optimizer import _earliest_start, _relabel, _release_without_gap

Point = tuple[float, float]


@dataclass(frozen=True)
class RefState:
    time: int
    started: dict[str, tuple[str, int]]  # task id -> (agent id, start)
    finished: dict[str, int]  # task id -> finish tick (finish <= time)
    pending_finish: dict[str, int]  # started, finish tick still in the future
    agent_location: dict[str, Point]
    agent_busy_until: dict[str, int]
    resource_busy_until: dict[str, int]

    @classmethod
    def of(cls, state, problem: ProblemInstance) -> "RefState":
        cp = state.compiled
        finish = [(tid, f) for tid, f in zip(cp.task_ids, state.finish) if f is not None]
        points = ([t.location for t in problem.tasks]
                  + [a.start_location for a in problem.agents])
        return cls(
            time=state.time,
            started={cp.task_ids[t]: (cp.agent_ids[a], start)
                     for t, a, start, _ in state.placements},
            finished={tid: f for tid, f in finish if f <= state.time},
            pending_finish={tid: f for tid, f in finish if f > state.time},
            agent_location={aid: points[loc]
                            for aid, loc in zip(cp.agent_ids, state.agent_loc)},
            agent_busy_until=dict(zip(cp.agent_ids, state.agent_free)),
            resource_busy_until=dict(zip(problem.resources, state.res_free)),
        )

    def agent_idle(self, agent_id: str) -> bool:
        return self.agent_busy_until[agent_id] <= self.time

    def resource_free(self, resource: str) -> bool:
        return self.resource_busy_until[resource] <= self.time

    def unfinished(self, problem: ProblemInstance) -> list[TaskSpec]:
        return [t for t in problem.tasks if t.id not in self.finished
                and t.id not in self.pending_finish]


def is_alive_enabled(state: RefState, task: TaskSpec) -> bool:
    """True iff every wait predecessor of `task` finished at least W ticks ago."""
    if task.id in state.started:
        raise InfeasibleActionError(f"task {task.id!r} already started")
    for pred, gap in task.waits:
        if pred not in state.finished:
            return False  # unfinished (or merely pending) predecessor
        if state.time < state.finished[pred] + gap:
            return False
    return True


def agent_can_reach(state: RefState, agent: AgentSpec, task: TaskSpec) -> bool:
    """True iff the agent, travelling since it was last freed, is at the task
    location by the current tick."""
    dist = euclidean(state.agent_location[agent.id], task.location)
    arrival = state.agent_busy_until[agent.id] + travel_ticks(dist, agent.speed)
    return state.time >= arrival


def feasible_candidates(state: RefState, agent_id: str, problem: ProblemInstance) -> list:
    """Tasks the given idle agent could start at the current tick."""
    agent = next(a for a in problem.agents if a.id == agent_id)
    out = []
    for task in state.unfinished(problem):
        if (
            agent_id in task.durations  # capable agents only
            and is_alive_enabled(state, task)
            and state.resource_free(task.resource)
            and agent_can_reach(state, agent, task)
        ):
            out.append(task)
    return out


def reference_features(
    state: RefState, agent: AgentSpec, problem: ProblemInstance, tasks
) -> dict[str, TaskFeatures]:
    share_counts: dict[str, int] = {}
    for t in state.unfinished(problem):
        share_counts[t.resource] = share_counts.get(t.resource, 0) + 1
    agent_loc = state.agent_location[agent.id]
    busy = state.agent_busy_until[agent.id]
    out: dict[str, TaskFeatures] = {}
    for t in tasks:
        dist = euclidean(agent_loc, t.location)
        arrival = busy + travel_ticks(dist, agent.speed)
        out[t.id] = TaskFeatures(
            deadline=float(problem.horizon if t.abs_deadline is None
                           else min(t.abs_deadline, problem.horizon)),
            precedence_satisfied=1.0 if is_alive_enabled(state, t) else 0.0,
            resource_share_count=float(share_counts[t.resource] - 1),
            resource_available=1.0 if state.resource_free(t.resource) else 0.0,
            travel_time_remaining=float(max(0, arrival - state.time)),
            travel_distance=dist,
            angular_difference=origin_angle(agent_loc, t.location),
        )
    return out


def reference_schedulability_test(state: RefState, problem: ProblemInstance) -> bool:
    """Optimistic check that no task is already doomed to miss its deadline.

    Uses lower bounds (ignores resource contention and future congestion),
    so a False answer is a certain miss while True is only a maybe. Every
    task is held to its effective deadline: the horizon, or its absolute
    deadline where that is earlier.
    """
    def effective_deadline(task):
        if task.abs_deadline is None:
            return problem.horizon
        return min(task.abs_deadline, problem.horizon)

    for tid, finish in state.pending_finish.items():
        task = next(t for t in problem.tasks if t.id == tid)
        if finish > effective_deadline(task):
            return False
    for task in state.unfinished(problem):
        enable = state.time
        for pred, gap in task.waits:
            f = state.finished.get(pred)
            if f is None:
                f = state.pending_finish.get(pred)
            if f is not None:
                enable = max(enable, f + gap)
        deadline = effective_deadline(task)
        ok = False
        for agent_id in sorted(task.durations):
            agent = next(a for a in problem.agents if a.id == agent_id)
            dist = euclidean(state.agent_location[agent_id], task.location)
            ready = state.agent_busy_until[agent_id] + travel_ticks(dist, agent.speed)
            start = max(enable, ready)
            if start + task.durations[agent_id] <= deadline:
                ok = True
                break
        if not ok:
            return False
    return True


# playthroughs on instances whose task and agent ids order differently as
# strings and positions when `shape` says to relabel
_PLAYTHROUGHS = dict(
    kind=st.sampled_from(list(KIND_FIELDS)), homogeneous=st.booleans(),
    shape=st.sampled_from([(6, 2, False), (10, 2, True), (12, 3, True), (12, 2, False)]),
    epsilon=st.sampled_from([0.2, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000))


def _playthrough_problem(kind, homogeneous, shape, seed) -> ProblemInstance:
    num_tasks, num_agents, relabel = shape
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    return _relabel(problem, seed) if relabel else problem


@given(**_PLAYTHROUGHS)
@settings(max_examples=30, deadline=None)
def test_tables_match_reference(kind, homogeneous, shape, epsilon, seed):
    """At every decision of an epsilon-noisy playthrough, which sometimes
    idles, the candidates, the features of every unstarted task and the
    schedulability verdict on the state and on each candidate's
    hypothetical state equal the string-keyed reference's, on instances
    whose task and agent ids order differently as strings and positions."""
    problem = _playthrough_problem(kind, homogeneous, shape, seed)
    rule = select_rule(problem)
    rng = np.random.default_rng(seed)
    checked = []

    def decide(state, a, candidates):
        cp = state.compiled
        agent_id = cp.agent_ids[a]
        ref = RefState.of(state, problem)
        agent = problem.agents[a]
        assert [cp.task_ids[t] for t in candidates] == [
            t.id for t in feasible_candidates(ref, agent_id, problem)]
        unfinished = state.unfinished()
        ref_unfinished = ref.unfinished(problem)
        assert [cp.task_ids[t] for t in unfinished] == [t.id for t in ref_unfinished]
        features = extract_features(state, a, unfinished)
        assert list(features.items()) == list(
            reference_features(ref, agent, problem, ref_unfinished).items())
        assert schedulability_test(state) == \
            reference_schedulability_test(ref, problem)
        for t in candidates:
            hypothetical = apply_action(state, t, a)
            assert schedulability_test(hypothetical) == \
                reference_schedulability_test(RefState.of(hypothetical, problem),
                                              problem)
        checked.append(len(candidates))
        ids = sorted(cp.task_ids[t] for t in candidates)
        if not ids or rng.random() < 0.1:
            return None
        if rng.random() < epsilon:
            return cp.task_index[ids[int(rng.integers(len(ids)))]]
        return cp.task_index[expert_choice(rule, features, ids)]

    run_simulation(problem, decide)
    assert sum(checked) > 0


@given(**_PLAYTHROUGHS)
@settings(max_examples=30, deadline=None)
def test_every_tick_matches_reference(kind, homogeneous, shape, epsilon, seed):
    """After every clock move and every action of an epsilon-noisy
    playthrough, including ticks where no agent is idle, `all_finished`
    equals the reference's "every task finished", and every agent's
    candidates equal the reference's; a busy agent has none."""
    problem = _playthrough_problem(kind, homogeneous, shape, seed)
    rule = select_rule(problem)
    rng = np.random.default_rng(seed)
    state = SimState.initial(problem)
    cp = state.compiled
    busy_checked = 0

    def check(state) -> bool:
        nonlocal busy_checked
        ref = RefState.of(state, problem)
        done = len(ref.finished) == len(problem.tasks)
        assert state.all_finished() == done
        for a, agent_id in enumerate(cp.agent_ids):
            candidates = [cp.task_ids[t] for t in state.candidates(a)]
            assert candidates == [
                t.id for t in feasible_candidates(ref, agent_id, problem)]
            if not ref.agent_idle(agent_id):
                assert candidates == []
                busy_checked += 1
        return done

    for tick in range(problem.horizon + 1):
        state = state.advanced_to(tick)
        if check(state):
            break
        for a in range(len(cp.agent_ids)):
            ids = sorted(cp.task_ids[t] for t in state.candidates(a))
            if not ids or rng.random() < 0.1:
                continue
            if rng.random() < epsilon:
                chosen = ids[int(rng.integers(len(ids)))]
            else:
                chosen = expert_choice(rule, extract_features(
                    state, a, [cp.task_index[tid] for tid in ids]), ids)
            state = apply_action(state, cp.task_index[chosen], a)
            check(state)
    assert busy_checked > 0


def _tick_rule_mismatches(problem: ProblemInstance, epsilon: float, seed: int):
    """(mismatches, decisions) of an epsilon-noisy expert playthrough. At
    every decision, agent a's candidates must be the unplaced tasks a can do
    whose wait predecessors are all placed and whose start by the search's
    reference rule (`_earliest_start`) is at or before now; `apply_action`
    must accept each candidate and refuse every other such unplaced task."""
    rule = select_rule(problem)
    rng = np.random.default_rng(seed)
    mismatches = decisions = 0

    def decide(state, a, candidates):
        nonlocal mismatches, decisions
        cp, finish = state.compiled, state.finish
        sequences = (state.agent_free, state.agent_loc, state.res_free, finish)
        doable = [t for t in state.unfinished() if cp.duration[t][a] is not None]
        allowed = [t for t in doable
                   if all(finish[p] is not None for p, _ in cp.waits[t])
                   and _earliest_start(cp, t, a, *sequences)[0] <= state.time]
        mismatches += candidates != allowed
        for t in doable:
            try:
                apply_action(state, t, a)
                mismatches += t not in candidates
            except InfeasibleActionError:
                mismatches += t in candidates
        decisions += 1
        ids = sorted(cp.task_ids[t] for t in candidates)
        if not ids:
            return None
        if rng.random() < epsilon:
            return cp.task_index[ids[int(rng.integers(len(ids)))]]
        return cp.task_index[expert_choice(
            rule, extract_features(state, a, candidates), ids)]

    run_simulation(problem, decide)
    return mismatches, decisions


@given(kind=st.sampled_from(sorted(KIND_FIELDS)), homogeneous=st.booleans(),
       num_agents=st.integers(min_value=1, max_value=3),
       num_tasks=st.integers(min_value=1, max_value=12), relabel=st.booleans(),
       epsilon=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_tick_form_starts_what_the_search_rule_allows(kind, homogeneous, num_agents,
                                                     num_tasks, relabel, epsilon, seed):
    """The tick loop and the search agree on when a task may start: at every
    decision of a playthrough, the candidates are exactly the tasks the
    search's reference rule would start now, and `apply_action` accepts
    exactly those."""
    problem = generate_instance(make_config(
        kind, num_agents=num_agents, num_tasks=num_tasks,
        homogeneous=homogeneous, rng_seed=seed))
    if relabel:
        problem = _relabel(problem, seed)
    mismatches, decisions = _tick_rule_mismatches(problem, epsilon, seed)
    assert decisions > 0
    assert mismatches == 0


def test_tick_form_check_catches_a_dropped_wait_gap(monkeypatch):
    """Mutation check of the property above: with `core.release` replaced by
    a copy that drops the wait gap, the tick form disagrees with the
    reference on these fixed problems with waits."""
    problems = [generate_instance(make_config("temporal", num_agents=1 + seed % 3,
                                              num_tasks=10, rng_seed=seed))
                for seed in range(6)]
    assert all(_tick_rule_mismatches(p, 0.2, seed)[0] == 0
               for seed, p in enumerate(problems))
    monkeypatch.setattr(core, "release", _release_without_gap)
    assert sum(_tick_rule_mismatches(p, 0.2, seed)[0]
               for seed, p in enumerate(problems)) > 0


_COORD = st.one_of(st.integers(-2, 2).map(float),
                   st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False))
_POINT = st.tuples(_COORD, _COORD)


@given(task_points=st.lists(_POINT, min_size=1, max_size=7),
       agent_points=st.lists(_POINT, min_size=1, max_size=3),
       speeds=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3))
@example(task_points=[(3.0, 4.0), (3.0, 4.0), (0.0, 0.0), (-3.0, -4.0)],
         agent_points=[(1.0, 1.0), (3.0, 4.0)], speeds=[1.5, 0.7, 2.0])
@example(task_points=[(2.0, 0.0), (0.0, 5.0), (2.0, 0.0)],
         agent_points=[(0.0, 0.0), (-0.0, 0.0)], speeds=[1.0, 2.5, 1.0])
@settings(max_examples=100, deadline=None)
def test_compiled_tables_match_formulas(task_points, agent_points, speeds):
    """Every entry of `Compiled.distance`, `angle` and `travel`, mirrored
    task-to-task halves and agent-start rows alike, equals `euclidean`,
    `origin_angle` and `travel_ticks` on the points, as floats compared
    with ==; repeated points and points at the origin included."""
    agents = tuple(AgentSpec(f"a{j}", p, speeds[j])
                   for j, p in enumerate(agent_points))
    tasks = tuple(TaskSpec(f"t{i}", p, {a.id: 1 for a in agents}, "r")
                  for i, p in enumerate(task_points))
    problem = ProblemInstance((30.0, 30.0), agents, tasks, ("r",), len(tasks))
    cp = Compiled(problem)
    points = list(task_points) + list(agent_points)
    for loc, p in enumerate(points):
        for t, q in enumerate(task_points):
            assert cp.distance[loc][t] == euclidean(p, q)
            assert cp.angle[loc][t] == origin_angle(p, q)
            for a, agent in enumerate(agents):
                assert cp.travel[a][loc][t] == travel_ticks(euclidean(p, q), agent.speed)


def test_deadline_feature_is_capped_by_the_horizon():
    """A task whose absolute deadline is past the horizon reads the horizon
    as its deadline feature, in the featurizer and in the reference."""
    problem = generate_instance(make_config("temporal", num_tasks=4,
                                            num_agents=1, rng_seed=7))
    task = next(t for t in problem.tasks if t.id == "t01")
    assert (task.abs_deadline, problem.horizon) == (73, 72)
    state = SimState.initial(problem)
    ref = RefState.of(state, problem)
    got = extract_features(state, 0, state.unfinished())
    want = reference_features(ref, problem.agents[0], problem,
                              ref.unfinished(problem))
    assert got["t01"].deadline == want["t01"].deadline == 72.0


# ---------------------------------------------------------------------------
# One compiled problem per problem
# ---------------------------------------------------------------------------

def test_simulation_reads_the_problems_tables(tiny_problem):
    assert SimState.initial(tiny_problem).compiled is tiny_problem.compiled


def test_generate_demonstrate_replay_compile_once(monkeypatch):
    """Generating, demonstrating, replaying and searching a problem build
    its tables once; each rejected draw builds its own, once."""
    built = []
    build = Compiled.__init__

    def counted(self, problem):
        built.append(problem)
        build(self, problem)

    monkeypatch.setattr(Compiled, "__init__", counted)
    cfg = make_config("dense", num_agents=1, num_tasks=5, rng_seed=11)
    problem = generate_instance(cfg)
    demo = demonstrate(problem, contention_threshold=cfg.contention_threshold)
    construct_schedule(problem, HeuristicPolicy(demo.rule_used))
    branch_and_bound(problem)
    assert len(built) > 1  # the first draw of this stream is rejected
    assert built[-1] is problem
    assert len({id(p) for p in built}) == len(built)


def test_replaced_problem_gets_fresh_tables(tiny_problem):
    tables = tiny_problem.compiled
    same = replace(tiny_problem)
    later = replace(tiny_problem, horizon=45)
    assert same == tiny_problem and same.compiled is not tables
    assert tiny_problem.compiled is tables
    assert (tables.deadline, later.compiled.deadline) == ([40, 40, 15], [45, 45, 15])


def test_a_played_problem_is_freed_by_reference_counting():
    """A problem whose tables were built and played through is freed as soon
    as its last reference goes, with the garbage collector off: neither its
    tables nor a rejected draw's error tie it into a cycle."""
    cfg = make_config("dense", num_agents=1, num_tasks=5, rng_seed=11)
    problem = generate_instance(cfg)
    demo = demonstrate(problem, contention_threshold=cfg.contention_threshold)
    construct_schedule(problem, HeuristicPolicy(demo.rule_used))
    assert "compiled" in vars(problem)
    freed = weakref.ref(problem)
    gc.disable()
    try:
        del problem, demo
        assert freed() is None
    finally:
        gc.enable()


def test_a_state_outlives_its_problem():
    """A state built from a problem nothing else holds still writes its
    schedule and names a busy resource once the problem is freed, with the
    garbage collector off: the compiled tables refer to no problem."""
    gc.disable()
    try:
        problem = generate_instance(make_config("contention", num_tasks=6, rng_seed=3))
        freed, resources = weakref.ref(problem), problem.resources
        state = SimState.initial(problem)
        del problem
        assert freed() is None
        cp = state.compiled
        state = state.advanced_to(10_000)  # every agent can reach every task
        t = state.candidates(0)[0]
        state = apply_action(state, t, 0)
        busy = [u for u in state.unfinished() if cp.resource[u] == cp.resource[t]
                and cp.duration[u][1] is not None
                and all(state.finish[p] is not None and state.finish[p] + gap <= state.time
                        for p, gap in cp.waits[u])]
        assert busy
        resource_id = resources[cp.resource[t]]
        with pytest.raises(InfeasibleActionError, match=f"resource '{resource_id}' busy"):
            apply_action(state, busy[0], 1)
        schedule = cp.schedule(state.placements)
        assert [(e.task_id, e.agent_id) for e in schedule.entries] == [
            (cp.task_ids[t], cp.agent_ids[0])]
        assert not schedule.complete
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Golden demonstrations and replays
# ---------------------------------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _golden_demos():
    for kind in KIND_FIELDS:
        for homogeneous in (True, False):
            problem = generate_instance(make_config(
                kind, num_agents=2, num_tasks=8, homogeneous=homogeneous,
                rng_seed=31))
            for epsilon in (0.0, 0.2):
                label = f"{kind}-{'hom' if homogeneous else 'het'}-{epsilon}"
                yield label, demonstrate(problem, epsilon=epsilon, rng_seed=17)


# SHA-256 of `demonstration_to_dict` and of the replays' schedules, recorded
# with the string-keyed simulator this module's tables replaced. The travel
# rule's replays on "dense" instances are where the schedulability test
# changes picks, so the three configs replay differently there.
GOLDEN_DEMOS = {
    "contention-het-0.0":
        "1bd88e19e6633e10f42f436a10953ef0117d1835cc9744cc161772a2dca8b27e",
    "contention-het-0.2":
        "8694f22611e2ce92bd72a0cdc2ac6ae31fe8b00ffcc2e847d23f8b7360c0055f",
    "contention-hom-0.0":
        "05c20c32881927e7533f399c07889188282b7b9bb83cef56266ea93de7f25ac2",
    "contention-hom-0.2":
        "15498c2e555aba3d38e87255ed1bd76eb32d01e9f1aef75a1cc072589fe6c796",
    "dense-het-0.0":
        "2ecc1b0a19a87ad6d05f655bae7ab4570a351f57fb033f15fb942c97c286c504",
    "dense-het-0.2":
        "0f46e978bee6885f81bf202030d88a0916b13f7ba440c5475bc1becf8e5238db",
    "dense-hom-0.0":
        "8b497b223fcf229dcd712c793d60f8056015a91bb491a3f1ba4cf4e70fcaf78b",
    "dense-hom-0.2":
        "b8ef9582ebc5bfa3c0b942170c6726e01b6ba4c295c14edcb1ed350b6d054bcf",
    "temporal-het-0.0":
        "ac6a49b0d4f12ed69df169f2a66314eb06176e6798909b47af435e59fe95bf59",
    "temporal-het-0.2":
        "ffa0b397918f1f1077e86951274c75b4d7fb51ea0491c3e27e4518e20bc3fc4c",
    "temporal-hom-0.0":
        "cdb80b7149a237ecca2c97ed0a74dc6c6e6465e341b8a4a21391aaab151929bd",
    "temporal-hom-0.2":
        "935011ac0866c284338d2f3b308c08af2d2ef929fda4871d8aa0925d988f8e8b",
    "travel-het-0.0":
        "cbf0430cb8f7e9d7ffe4139925c0879ac60da2ceaad10b41d075e627bb9ea3ea",
    "travel-het-0.2":
        "d595ed215f82619516bc97e0053e8068f36e02d96272b282f341e05465caa1e0",
    "travel-hom-0.0":
        "f6be94159caeb438be80453a14e7c9c56e51464d61fc323020ba5c161eaee96b",
    "travel-hom-0.2":
        "47ca2313eb2e2f35d25c7b745f94f0a3517de67c62ba2d910dffaa3025db6797",
}
GOLDEN_REPLAYS = {
    "trained default":
        "fa2072367084fb3522a4935212ec36e258bad8a52c754d9c484e02b4acba0f09",
    "trained depth-1":
        "fa2072367084fb3522a4935212ec36e258bad8a52c754d9c484e02b4acba0f09",
    "travel default":
        "880080e3671e32e9948a12efcdc0f07383a4bdc87d68afda0556bd59e622e749",
    "travel depth-1":
        "28cf41d6dc0ce1479be22a5d58a1ac3f2d2e9f170c0c8f68d687e8bf85ef057a",
}


def test_golden_demonstrations_and_replays():
    demos = dict(_golden_demos())
    assert {label: _digest(demonstration_to_dict(d))
            for label, d in demos.items()} == GOLDEN_DEMOS
    trained = train_policy([d for d in demos.values() if d.epsilon == 0.0],
                           min_leaf=5)
    travel = HeuristicPolicy(RuleKind.TRAVEL_DISTANCE)
    configs = {"default": SchedulerConfig(),
               "depth-1": SchedulerConfig(fallback_depth=1)}
    problems = [d.problem for d in demos.values() if d.epsilon == 0.0]
    replays = {
        f"{name} {config}": _digest([
            schedule_to_dict(construct_schedule(p, policy, cfg)) for p in problems])
        for name, policy in (("trained", trained), ("travel", travel))
        for config, cfg in configs.items()}
    assert replays == GOLDEN_REPLAYS
