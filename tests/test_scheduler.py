import pytest

from demosched.core import (
    AgentSpec,
    ProblemInstance,
    SimState,
    TaskSpec,
    apply_action,
    validate_schedule,
)
from demosched.generator import generate_instance, preset
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
        assert schedulability_test(SimState.initial(problem), problem)

    def test_unreachable_deadline(self):
        # travel 8 + duration 2 > deadline 9
        problem = self._problem(deadline=9)
        assert not schedulability_test(SimState.initial(problem), problem)

    def test_pending_task_past_deadline(self, tiny_problem):
        state = SimState.initial(tiny_problem).advanced_to(5)
        state = apply_action(state, "tC", "a1")
        # pretend time slipped: restart tC late enough to bust its deadline
        late = SimState.initial(tiny_problem).advanced_to(14)
        late = apply_action(late, "tC", "a1")
        assert not schedulability_test(late, tiny_problem)
        assert schedulability_test(state, tiny_problem)

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
        state = apply_action(SimState.initial(problem), "t0", "a0")
        # t0 finishes at 4, so t1 cannot finish before 6 > deadline 5
        assert not schedulability_test(state, problem)


class TestConstructSchedule:
    @pytest.mark.parametrize("kind,seed", [("temporal", 0), ("travel", 1),
                                           ("contention", 2)])
    def test_heuristic_policy_reproduces_expert(self, kind, seed):
        from demosched.demonstrator import demonstrate
        from demosched.heuristics import select_rule

        problem = generate_instance(preset(kind, num_tasks=6, rng_seed=seed))
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

    def test_stalling_policy_returns_incomplete(self, temporal_problem):
        class NeverAct:
            def select_task(self, context, task_features, pool):
                return sorted(pool)[0]

            def predict_act(self, context, tf):
                return False

        schedule = construct_schedule(temporal_problem, NeverAct())
        assert not schedule.complete
        assert schedule.entries == ()
