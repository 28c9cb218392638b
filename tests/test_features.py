import math

import pytest

from demosched.core import SimState, apply_action
from demosched.simulate import run_simulation
from demosched.features import (
    CONTEXT_FEATURE_NAMES,
    TASK_FEATURE_NAMES,
    ContextFeatures,
    Observation,
    TaskFeatures,
    context_features,
    extract_features,
    observation_from_dict,
    observation_to_dict,
    origin_angle,
)


def test_feature_name_counts():
    assert len(TASK_FEATURE_NAMES) == 7
    assert len(CONTEXT_FEATURE_NAMES) == 2


class TestOriginAngle:
    def test_right_angle(self):
        assert origin_angle((1.0, 0.0), (0.0, 1.0)) == pytest.approx(math.pi / 2)

    def test_same_direction(self):
        assert origin_angle((2.0, 0.0), (5.0, 0.0)) == pytest.approx(0.0)

    def test_opposite(self):
        assert origin_angle((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(math.pi)

    def test_zero_vector(self):
        assert origin_angle((0.0, 0.0), (1.0, 1.0)) == 0.0


def one(state, agent, problem, task_id):
    return extract_features(state, agent, problem, [problem.task(task_id)])[task_id]


class TestExtractFeatures:
    def test_initial_state_values(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        a1 = tiny_problem.agent("a1")
        tf = one(state, a1, tiny_problem, "tC")
        assert tf.deadline == 15.0
        assert tf.precedence_satisfied == 1.0
        assert tf.resource_share_count == 1.0  # tA shares r0, self excluded
        assert tf.resource_available == 1.0
        assert tf.travel_time_remaining == 0.0  # a1 starts on tC
        assert tf.travel_distance == 0.0

    def test_travel_time(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        a0 = tiny_problem.agent("a0")
        tf = one(state, a0, tiny_problem, "tB")
        assert tf.travel_distance == 4.0
        assert tf.travel_time_remaining == 2.0  # 4 units at speed 2
        assert tf.precedence_satisfied == 0.0  # waits on tA

    def test_default_deadline_is_horizon(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        a0 = tiny_problem.agent("a0")
        tf = one(state, a0, tiny_problem, "tA")
        assert tf.deadline == float(tiny_problem.horizon)

    def test_after_start_resource_blocked(self, tiny_problem):
        state = apply_action(SimState.initial(tiny_problem), "tA", "a0")
        a1 = tiny_problem.agent("a1")
        tf = one(state, a1, tiny_problem, "tC")
        assert tf.resource_available == 0.0
        assert tf.resource_share_count == 0.0  # tA no longer unfinished


def test_batch_matches_single(temporal_demo):
    """Mid-run, featurizing one task gives exactly its entry from featurizing
    every unfinished task: share counts always run over the unfinished set."""
    problem = temporal_demo.problem
    state = SimState.initial(problem)
    for entry in temporal_demo.schedule.entries[:3]:
        state = apply_action(state.advanced_to(entry.start), entry.task_id,
                             entry.agent_id)
    unfinished = state.unfinished()
    assert len(unfinished) < len(problem.tasks)
    for agent in problem.agents:
        batch = extract_features(state, agent, problem, unfinished)
        assert set(batch) == {t.id for t in unfinished}
        for task in unfinished:
            assert extract_features(state, agent, problem, [task]) == {
                task.id: batch[task.id]}


def test_batch_matches_single_during_demo(temporal_demo):
    """At every recorded decision, featurizing only the feasible candidates
    (as the scheduler does) reproduces those entries of the recorded
    features of all unfinished tasks (as the expert records them)."""
    problem = temporal_demo.problem
    recorded = iter(temporal_demo.observations)
    checked = 0

    def replay(state, agent_id, candidates):
        nonlocal checked
        obs = next(recorded)
        subset = extract_features(state, problem.agent(agent_id), problem, candidates)
        assert subset == {t.id: obs.task_features[t.id] for t in candidates}
        checked += len(subset)
        return obs.scheduled[0] if obs.scheduled else None

    run_simulation(problem, replay)
    assert checked > 0


def test_context_features(tiny_problem):
    ctx = context_features(tiny_problem, tiny_problem.agent("a0"))
    assert ctx.agent_speed == 2.0
    assert ctx.resource_contention_degree == 5.0
    assert ctx.as_tuple() == (2.0, 5.0)


class TestObservation:
    def _obs(self):
        tf = TaskFeatures(10.0, 1.0, 0.0, 1.0, 2.0, 4.0, 0.5)
        return Observation(
            tick=3,
            context=ContextFeatures(2.0, 5.0),
            task_features={"tA": tf},
            candidates=("tA",),
            scheduled=("tA", "a0"),
        )

    def test_roundtrip(self):
        obs = self._obs()
        assert observation_from_dict(observation_to_dict(obs)) == obs

    def test_idle_roundtrip(self):
        tf = TaskFeatures(10.0, 0.0, 0.0, 1.0, 2.0, 4.0, 0.5)
        obs = Observation(tick=0, context=ContextFeatures(1.0, 1.0),
                          task_features={"tA": tf}, candidates=(),
                          scheduled=None)
        assert observation_from_dict(observation_to_dict(obs)) == obs

    def test_scheduled_must_have_features(self):
        with pytest.raises(ValueError):
            Observation(tick=0, context=ContextFeatures(1.0, 1.0),
                        task_features={}, candidates=(),
                        scheduled=("tX", "a0"))
