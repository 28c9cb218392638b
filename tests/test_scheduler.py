import pytest

from demosched.core import (
    AgentSpec,
    ProblemInstance,
    SimState,
    TaskSpec,
    apply_action,
    validate_schedule,
)
from demosched.generator import generate_instance, make_config
from demosched.heuristics import select_rule
from demosched.policy import HeuristicPolicy, train_policy
from demosched.scheduler import SchedulerConfig, construct_schedule, schedulability_test


class TestSchedulabilityTest:
    def _problem(self, deadline):
        return ProblemInstance(
            grid_size=(10.0, 10.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (8.0, 0.0), {"a0": 2}, "r0",
                            abs_deadline=deadline),),
            resources=("r0",),
            horizon=50,
        )

    def test_fresh_feasible_state(self):
        problem = self._problem(deadline=15)
        assert schedulability_test(SimState.initial(problem))

    def test_unreachable_deadline(self):
        # travel 8 + duration 2 > deadline 9
        problem = self._problem(deadline=9)
        assert not schedulability_test(SimState.initial(problem))

    def test_pending_task_past_deadline(self, tiny_problem):
        tC, a1 = 2, 1
        state = SimState.initial(tiny_problem).advanced_to(5)
        state = apply_action(state, tC, a1)
        # pretend time slipped: restart tC late enough to bust its deadline
        late = SimState.initial(tiny_problem).advanced_to(14)
        late = apply_action(late, tC, a1)
        assert not schedulability_test(late)
        assert schedulability_test(state)

    def test_wait_chain_pushes_start(self):
        problem = ProblemInstance(
            grid_size=(5.0, 5.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 5.0),),
            tasks=(
                TaskSpec("t0", (0.0, 0.0), {"a0": 4}, "r0"),
                TaskSpec("t1", (0.0, 0.0), {"a0": 2}, "r1",
                         abs_deadline=5, waits=(("t0", 0),)),
            ),
            resources=("r0", "r1"),
            horizon=20,
        )
        state = apply_action(SimState.initial(problem), 0, 0)  # t0 on a0
        # t0 finishes at 4, so t1 cannot finish before 6 > deadline 5
        assert not schedulability_test(state)


class TestConstructSchedule:
    @pytest.mark.parametrize("kind,seed", [("temporal", 0), ("travel", 1),
                                           ("contention", 2)])
    def test_heuristic_policy_reproduces_expert(self, kind, seed):
        from demosched.demonstrator import demonstrate
        from demosched.heuristics import select_rule

        problem = generate_instance(make_config(kind, num_tasks=6, rng_seed=seed))
        rule = select_rule(problem)
        expert = demonstrate(problem, epsilon=0.0, rng_seed=0)
        rebuilt = construct_schedule(problem, HeuristicPolicy(rule),
                                     SchedulerConfig(use_schedulability_test=False))
        assert rebuilt.entries == expert.schedule.entries

    def test_trained_policy_completes(self, small_demos):
        model = train_policy(small_demos, min_leaf=5)
        for demo in small_demos[:2]:
            schedule = construct_schedule(demo.problem, model)
            assert schedule.complete
            assert validate_schedule(demo.problem, schedule).feasible

    def test_schedulability_test_can_be_disabled(self, small_demos):
        model = train_policy(small_demos, min_leaf=5)
        problem = small_demos[0].problem
        a = construct_schedule(problem, model,
                               SchedulerConfig(use_schedulability_test=False))
        b = construct_schedule(problem, model,
                               SchedulerConfig(fallback_depth=1))
        assert a.complete and b.complete

    @pytest.mark.parametrize("depth", [0, -3])
    def test_fallback_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="fallback_depth"):
            SchedulerConfig(fallback_depth=depth)

    def test_stalling_policy_returns_incomplete(self, temporal_problem):
        class NeverAct:
            def select_task(self, context, task_features, pool):
                return sorted(pool)[0]

            def predict_act(self, context, tf):
                return False

        schedule = construct_schedule(temporal_problem, NeverAct())
        assert not schedule.complete
        assert schedule.entries == ()


class _CountingPolicy:
    """Wraps a policy, records the pool of every `select_task` call and,
    at each `predict_act`, how many calls came before it. Always acts."""

    def __init__(self, inner):
        self.inner = inner
        self.pools = []
        self.acts = []

    def select_task(self, context, task_features, pool):
        self.pools.append(list(pool))
        return self.inner.select_task(context, task_features, pool)

    def predict_act(self, context, tf):
        self.acts.append(len(self.pools))
        return True


class TestLazyFallback:
    @pytest.fixture
    def counting(self):
        problem = generate_instance(make_config("temporal", num_tasks=6, rng_seed=7))
        return problem, _CountingPolicy(HeuristicPolicy(select_rule(problem)))

    def test_passing_top_pick_is_ranked_once(self, monkeypatch, counting):
        monkeypatch.setattr("demosched.scheduler.schedulability_test",
                            lambda state: True)
        problem, policy = counting
        schedule = construct_schedule(problem, policy)
        assert schedule.complete
        assert len(policy.acts) == len(schedule.entries)
        assert len(policy.pools) == len(policy.acts)  # one call per decision

    @pytest.mark.parametrize("depth", [1, 3])
    def test_vetoes_rank_only_the_fallbacks_tried(self, monkeypatch, counting,
                                                  depth):
        monkeypatch.setattr("demosched.scheduler.schedulability_test",
                            lambda state: False)
        problem, policy = counting
        construct_schedule(problem, policy, SchedulerConfig(fallback_depth=depth))
        assert policy.acts
        # after a decision's act check, each fallback ranks the pool less
        # the picks already vetoed; the next decision's top pick follows
        ends = [m - 1 for m in policy.acts[1:]] + [len(policy.pools)]
        for mark, end in zip(policy.acts, ends):
            top_pool = policy.pools[mark - 1]
            fallbacks = policy.pools[mark:end]
            assert len(fallbacks) == min(depth, len(top_pool)) - 1
            assert [len(p) for p in fallbacks] == list(
                range(len(top_pool) - 1, len(top_pool) - 1 - len(fallbacks), -1))
