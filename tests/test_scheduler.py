import pytest

from conftest import HeuristicPolicy, tied_problem
from demosched import scheduler
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
from demosched.policy import train_policy
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

    @pytest.mark.parametrize("deadline", [None, 10])
    def test_running_task_past_horizon(self, deadline):
        """A running task is held to its effective deadline: t0 running 2-5
        finishes past horizon 4, whether it has no deadline of its own or
        a later one, so the state is doomed; running 1-4 is not."""
        problem = ProblemInstance(
            grid_size=(5.0, 5.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 3}, "r0",
                            abs_deadline=deadline),),
            resources=("r0",),
            horizon=4,
        )
        initial = SimState.initial(problem)
        assert not schedulability_test(apply_action(initial.advanced_to(2), 0, 0))
        assert schedulability_test(apply_action(initial.advanced_to(1), 0, 0))

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
                                           ("contention", 2), ("tied", None)])
    def test_heuristic_policy_reproduces_expert(self, kind, seed):
        """The replay breaks the rule's ties as the expert does, by lowest
        id: on the tied problem "t10" goes first, though listed after "t2"."""
        from demosched.demonstrator import demonstrate
        from demosched.heuristics import select_rule

        problem = (tied_problem() if kind == "tied"
                   else generate_instance(make_config(kind, num_tasks=6, rng_seed=seed)))
        rule = select_rule(problem)
        expert = demonstrate(problem, epsilon=0.0, rng_seed=0)
        rebuilt = construct_schedule(problem, HeuristicPolicy(rule),
                                     SchedulerConfig(fallback_depth=1))
        assert rebuilt.entries == expert.schedule.entries
        if kind == "tied":
            assert [e.task_id for e in rebuilt.entries] == ["t10", "t2", "t3"]

    def test_trained_policy_completes(self, small_demos):
        model = train_policy(small_demos, min_leaf=5)
        for demo in small_demos[:2]:
            schedule = construct_schedule(demo.problem, model)
            assert schedule.complete
            assert validate_schedule(demo.problem, schedule).feasible

    def test_schedulability_test_can_be_disabled(self, small_demos, monkeypatch):
        """At depth 1 the top pick is committed to and the test never runs."""
        model = train_policy(small_demos, min_leaf=5)
        problem = small_demos[0].problem

        def never(state):
            raise AssertionError("schedulability_test called at depth 1")

        monkeypatch.setattr(scheduler, "schedulability_test", never)
        assert construct_schedule(problem, model, SchedulerConfig(fallback_depth=1)).complete

    @pytest.mark.parametrize("depth", [0, -3])
    def test_fallback_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="fallback_depth"):
            SchedulerConfig(fallback_depth=depth)

    def test_stalling_policy_returns_incomplete(self, temporal_problem):
        class NeverAct:
            def select_tasks(self, queries):
                return [sorted(pool)[0] for *_, pool in queries]

            def predict_acts(self, asks):
                return [False] * len(asks)

        schedule = construct_schedule(temporal_problem, NeverAct())
        assert not schedule.complete
        assert schedule.entries == ()


class _CountingPolicy:
    """Wraps a policy, records the pool of every query `select_tasks` is
    asked and, at each query to `predict_acts`, how many pools came before
    it. Always acts."""

    def __init__(self, inner):
        self.inner = inner
        self.pools = []
        self.acts = []

    def select_tasks(self, queries):
        self.pools.extend(list(pool) for *_, pool in queries)
        return self.inner.select_tasks(queries)

    def predict_acts(self, asks):
        self.acts.extend(len(self.pools) for _ in asks)
        return [True] * len(asks)


class TestLazyFallback:
    @pytest.fixture
    def counting(self):
        """A problem whose decisions rank pools of six tasks down to one, so
        a veto has fallbacks to rank."""
        problem = generate_instance(make_config("dense", num_tasks=6, rng_seed=8))
        return problem, _CountingPolicy(HeuristicPolicy(select_rule(problem)))

    def test_passing_top_pick_is_ranked_once(self, monkeypatch, counting):
        monkeypatch.setattr("demosched.scheduler.schedulability_test",
                            lambda state: True)
        problem, policy = counting
        schedule = construct_schedule(problem, policy)
        assert schedule.complete
        assert len(policy.acts) == len(schedule.entries)
        assert len(policy.pools) == len(policy.acts)  # one ranked pool per decision

    @pytest.mark.parametrize("depth", [1, 3])
    def test_vetoes_rank_only_the_fallbacks_tried(self, monkeypatch, counting,
                                                  depth):
        monkeypatch.setattr("demosched.scheduler.schedulability_test",
                            lambda state: False)
        problem, policy = counting
        construct_schedule(problem, policy, SchedulerConfig(fallback_depth=depth))
        assert max(len(policy.pools[mark - 1]) for mark in policy.acts) > depth
        # after a decision's act check, each fallback ranks the pool less
        # the picks already vetoed; the next decision's top pick follows
        ends = [m - 1 for m in policy.acts[1:]] + [len(policy.pools)]
        for mark, end in zip(policy.acts, ends):
            top_pool = policy.pools[mark - 1]
            fallbacks = policy.pools[mark:end]
            assert len(fallbacks) == min(depth, len(top_pool)) - 1
            assert [len(p) for p in fallbacks] == list(
                range(len(top_pool) - 1, len(top_pool) - 1 - len(fallbacks), -1))

    def test_one_candidate_decision_runs_no_test(self, monkeypatch):
        """A pool of one has no fallback, so its pick is committed to
        without the hypothetical action and the test."""
        problem = generate_instance(make_config("temporal", num_tasks=6, rng_seed=8))
        policy = _CountingPolicy(HeuristicPolicy(select_rule(problem)))
        test = scheduler.schedulability_test
        tested = []

        def counting_test(state):
            tested.append(len(policy.pools[policy.acts[-1] - 1]))
            return test(state)

        monkeypatch.setattr(scheduler, "schedulability_test", counting_test)
        assert construct_schedule(problem, policy).complete
        top_pools = [len(policy.pools[mark - 1]) for mark in policy.acts]
        assert 1 in top_pools and tested
        assert min(tested) > 1
