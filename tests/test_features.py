import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosched.core import AgentSpec, SimState, apply_action, origin_angle
from demosched.demonstrator import demonstration_from_dict, demonstration_to_dict
from demosched.experiments import PROBLEM_KINDS, collect_demos
from demosched.simulate import run_simulation
from demosched.features import (
    CONTEXT_FEATURE_NAMES,
    TASK_FEATURE_NAMES,
    Observation,
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
    """The task's features, by name, for the agent at the state's tick."""
    cp = state.compiled
    rows = extract_features(state, cp.agent_index[agent_id], [cp.task_index[task_id]])
    return SimpleNamespace(**dict(zip(TASK_FEATURE_NAMES, rows[0].tolist())))


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
    """Mid-run, featurizing one task gives exactly its row from featurizing
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
        assert batch.shape == (len(unfinished), len(TASK_FEATURE_NAMES))
        for t, row in zip(unfinished, batch):
            assert extract_features(state, a, [t]).tobytes() == row.tobytes()


def test_batch_matches_single_during_demo(temporal_demo):
    """At every recorded decision, featurizing only the feasible candidates
    (as the scheduler does) reproduces those rows of the recorded features
    of all unfinished tasks (as the expert records them)."""
    problem = temporal_demo.problem
    recorded = iter(temporal_demo.observations)
    checked = 0

    def replay(state, a, candidates):
        nonlocal checked
        cp = state.compiled
        obs = next(recorded)
        ids = sorted(cp.task_ids[t] for t in candidates)
        subset = extract_features(state, a, [cp.task_index[tid] for tid in ids])
        want = obs.rows[[obs.task_ids.index(tid) for tid in ids]]
        assert subset.tobytes() == want.tobytes()
        checked += len(subset)
        return cp.task_index[obs.scheduled[0]] if obs.scheduled else None

    run_simulation(problem, replay)
    assert checked > 0


def _assert_block(obs):
    """The observation's rows are its block: read-only, C-contiguous
    float64, one row per task id, with the ids ascending."""
    rows = obs.rows
    assert (rows.dtype, rows.shape) == (np.float64, (len(obs.task_ids), len(TASK_FEATURE_NAMES)))
    assert not rows.flags.writeable and rows.flags.c_contiguous
    assert list(obs.task_ids) == sorted(set(obs.task_ids))


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@given(seed=st.integers(0, 2**16), epsilon=st.sampled_from([0.0, 0.3]),
       num_tasks=st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_rows_are_readonly_float64_blocks(kind, seed, epsilon, num_tasks):
    """Recorded and JSON-reloaded, noise-free and noisy, every observation
    holds its rows as a block, and the reloaded block equals the recorded
    one bit for bit. A recorded or reloaded demonstration's blocks are views
    of one buffer."""
    demo, = collect_demos([kind], 1, epsilon, seed, num_tasks=num_tasks)
    assert len({id(o.rows.base) for o in demo.observations}) == 1
    reloaded = demonstration_from_dict(json.loads(json.dumps(demonstration_to_dict(demo))))
    assert len(reloaded.observations) == len(demo.observations) > 0
    assert len({id(o.rows.base) for o in reloaded.observations}) == 1
    for recorded, loaded in zip(demo.observations, reloaded.observations):
        _assert_block(recorded)
        _assert_block(loaded)
        assert loaded.task_ids == recorded.task_ids
        assert loaded.rows.tobytes() == recorded.rows.tobytes()


def test_large_integer_values_are_exact(tiny_problem):
    """A deadline or a travel time far past any small integer is float(i)."""
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
    assert dict(zip(CONTEXT_FEATURE_NAMES, ctx)) == {
        "agent_speed": 2.0, "resource_contention_degree": 5.0}
    assert ctx == (2.0, 5.0)


def _block(*rows):
    out = np.array(rows, dtype=float).reshape(len(rows), len(TASK_FEATURE_NAMES))
    out.flags.writeable = False
    return out


class TestObservation:
    def _obs(self):
        return Observation(
            tick=3,
            context=(2.0, 5.0),
            task_ids=("tA",),
            rows=_block([10.0, 1.0, 0.0, 1.0, 2.0, 4.0, 0.5]),
            candidates=("tA",),
            scheduled=("tA", "a0"),
        )

    def test_roundtrip(self):
        data = observation_to_dict(self._obs())
        assert observation_to_dict(observation_from_dict(data)) == data

    def test_idle_roundtrip(self):
        obs = Observation(tick=0, context=(1.0, 1.0), task_ids=("tA",),
                          rows=_block([10.0, 0.0, 0.0, 1.0, 2.0, 4.0, 0.5]),
                          candidates=(), scheduled=None)
        data = observation_to_dict(obs)
        assert observation_to_dict(observation_from_dict(data)) == data

    def test_scheduled_must_have_features(self):
        with pytest.raises(ValueError):
            Observation(tick=0, context=(1.0, 1.0), task_ids=(), rows=_block(),
                        candidates=(), scheduled=("tX", "a0"))

    def test_integer_features_are_written_back_as_floats(self):
        """A row is float64, so a hand-written integer feature loads as a
        float and is written back as one; the context keeps what it read."""
        data = {"tick": 2, "context": [1, 3.0], "candidates": ["tA"],
                "task_features": {"tB": [3, 0, 1, 1, 0, 2.5, 0.25],
                                  "tA": [7, 1, 0, 1, 2, 4.0, 0.5]},
                "scheduled": ["tA", "a0"]}
        obs = observation_from_dict(data)
        assert obs.task_ids == ("tA", "tB")
        written = observation_to_dict(obs)
        assert written["task_features"] == {"tA": [7.0, 1.0, 0.0, 1.0, 2.0, 4.0, 0.5],
                                            "tB": [3.0, 0.0, 1.0, 1.0, 0.0, 2.5, 0.25]}
        assert [type(v) for v in written["task_features"]["tA"]] == [float] * 7
        assert list(written["task_features"]) == ["tA", "tB"]  # id order
        assert json.dumps(written["task_features"]["tA"]).startswith("[7.0, 1.0, 0.0")
        assert written["context"] == [1, 3.0] and type(written["context"][0]) is int
