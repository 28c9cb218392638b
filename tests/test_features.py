import dataclasses
import math

import pytest

from demosched.core import AgentSpec, SimState, apply_action, origin_angle
from demosched.demonstrator import demonstrate
from demosched.experiments import PROBLEM_KINDS
from demosched.generator import generate_instance, make_config
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

    def test_lengths_whose_product_underflows(self):
        # 1e-200 squared is below the smallest float: no division by zero
        assert origin_angle((0.0, 1e-200), (1e-200, 0.0)) == 0.0


def one(state, agent_id, task_id):
    cp = state.compiled
    return extract_features(state, cp.agent_index[agent_id],
                            [cp.task_index[task_id]])[task_id]


class TestExtractFeatures:
    def test_initial_state_values(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        tf = one(state, "a1", "tC")
        assert tf.deadline == 15.0
        assert tf.precedence_satisfied == 1.0
        assert tf.resource_share_count == 1.0  # tA shares r0, self excluded
        assert tf.resource_available == 1.0
        assert tf.travel_time_remaining == 0.0  # a1 starts on tC
        assert tf.travel_distance == 0.0

    def test_travel_time(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        tf = one(state, "a0", "tB")
        assert tf.travel_distance == 4.0
        assert tf.travel_time_remaining == 2.0  # 4 units at speed 2
        assert tf.precedence_satisfied == 0.0  # waits on tA

    def test_default_deadline_is_horizon(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        tf = one(state, "a0", "tA")
        assert tf.deadline == float(tiny_problem.horizon)

    def test_after_start_resource_blocked(self, tiny_problem):
        state = apply_action(SimState.initial(tiny_problem), 0, 0)  # tA on a0
        tf = one(state, "a1", "tC")
        assert tf.resource_available == 0.0
        assert tf.resource_share_count == 0.0  # tA no longer unfinished


def test_batch_matches_single(temporal_demo):
    """Mid-run, featurizing one task gives exactly its entry from featurizing
    every unfinished task: share counts always run over the unfinished set."""
    problem = temporal_demo.problem
    state = SimState.initial(problem)
    cp = state.compiled
    for entry in temporal_demo.schedule.entries[:3]:
        state = apply_action(state.advanced_to(entry.start),
                             cp.task_index[entry.task_id],
                             cp.agent_index[entry.agent_id])
    unfinished = state.unfinished()
    assert len(unfinished) < len(problem.tasks)
    for a in range(len(problem.agents)):
        batch = extract_features(state, a, unfinished)
        assert set(batch) == {cp.task_ids[t] for t in unfinished}
        for t in unfinished:
            assert extract_features(state, a, [t]) == {
                cp.task_ids[t]: batch[cp.task_ids[t]]}


def test_batch_matches_single_during_demo(temporal_demo):
    """At every recorded decision, featurizing only the feasible candidates
    (as the scheduler does) reproduces those entries of the recorded
    features of all unfinished tasks (as the expert records them)."""
    problem = temporal_demo.problem
    recorded = iter(temporal_demo.observations)
    checked = 0

    def replay(state, a, candidates):
        nonlocal checked
        cp = state.compiled
        obs = next(recorded)
        subset = extract_features(state, a, candidates)
        ids = [cp.task_ids[t] for t in candidates]
        assert subset == {tid: obs.task_features[tid] for tid in ids}
        checked += len(subset)
        return cp.task_index[obs.scheduled[0]] if obs.scheduled else None

    run_simulation(problem, replay)
    assert checked > 0


_INTEGER_VALUED = ("deadline", "resource_share_count", "travel_time_remaining")


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_recorded_rows_share_integer_values(kind):
    """Every value of a recorded row is a float, and within one
    demonstration the integer-valued entries of equal value, whichever
    feature holds them, are one object."""
    demo = demonstrate(generate_instance(make_config(kind, num_tasks=10, rng_seed=3)),
                       0.2, 3)
    first = {}  # value -> the first object recorded with it
    for obs in demo.observations:
        for tf in obs.task_features.values():
            assert all(type(v) is float for v in tf), tf
            for name in _INTEGER_VALUED:
                value = getattr(tf, name)
                assert first.setdefault(value, value) is value, (name, value)
    assert len(first) > 3


def test_integer_values_past_the_shared_floats_are_exact(tiny_problem):
    """A deadline or a travel time too large for the shared floats is
    still float(i)."""
    problem = dataclasses.replace(
        tiny_problem, horizon=10**6,
        agents=(AgentSpec("a0", (0.0, 0.0), 1e-4), tiny_problem.agents[1]))
    state = SimState.initial(problem)
    cp = state.compiled
    tf = one(state, "a0", "tB")
    assert cp.deadline[cp.task_index["tB"]] == 10**6
    assert (tf.deadline, type(tf.deadline)) == (1e6, float)
    travel = cp.travel[0][cp.start_loc[0]][cp.task_index["tB"]]
    assert travel > 10**4
    assert (tf.travel_time_remaining, type(tf.travel_time_remaining)) == (float(travel), float)


def test_context_features(tiny_problem):
    ctx = context_features(tiny_problem, tiny_problem.agents[0])
    assert ctx.agent_speed == 2.0
    assert ctx.resource_contention_degree == 5.0
    assert tuple(ctx) == (2.0, 5.0)


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
