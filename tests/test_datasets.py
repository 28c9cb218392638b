from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosched.datasets import (
    PAIRWISE_FEATURE_NAMES,
    POINTWISE_FEATURE_NAMES,
    HeterogeneousTaskCountError,
    build_act_dataset,
    build_naive_dataset,
    build_pairwise_dataset,
    build_pointwise_dataset,
    pair_rows,
    point_vector,
    wide_vector,
)
from demosched.demonstrator import demonstrate
from demosched.experiments import PROBLEM_KINDS, collect_demos
from demosched.features import ContextFeatures, Observation, TaskFeatures
from demosched.generator import generate_instance, make_config
from test_optimizer import _relabel


def test_feature_name_layout():
    assert len(PAIRWISE_FEATURE_NAMES) == 9
    assert len(POINTWISE_FEATURE_NAMES) == 9
    assert PAIRWISE_FEATURE_NAMES[:2] == ("agent_speed", "resource_contention_degree")
    assert all(n.startswith("delta_") for n in PAIRWISE_FEATURE_NAMES[2:])


def test_pair_rows_antisymmetric_delta():
    ctx = ContextFeatures(2.0, 5.0)
    a = TaskFeatures(10.0, 1.0, 2.0, 1.0, 3.0, 6.0, 0.5)
    b = TaskFeatures(4.0, 0.0, 1.0, 1.0, 0.0, 2.0, 0.1)
    ab = pair_rows(ctx, a, b).tolist()
    ba = pair_rows(ctx, b, a).tolist()
    assert ab[:2] == ba[:2] == [2.0, 5.0]
    assert ab[2:] == [-x for x in ba[2:]]


def test_point_vector_concatenates():
    ctx = ContextFeatures(2.0, 5.0)
    a = TaskFeatures(10.0, 1.0, 2.0, 1.0, 3.0, 6.0, 0.5)
    assert point_vector(ctx, a) == [2.0, 5.0, 10.0, 1.0, 2.0, 1.0, 3.0, 6.0, 0.5]


def test_wide_vector_blocks_by_index():
    ctx = ContextFeatures(2.0, 5.0)
    a = TaskFeatures(10.0, 1.0, 2.0, 1.0, 3.0, 6.0, 0.5)
    vec = wide_vector(ctx, {"tB": a}, {"tA": 0, "tB": 1, "tC": 2})
    assert vec == [2.0, 5.0] + [0.0] * 7 + list(a) + [0.0] * 7


class TestPairwiseDataset:
    def test_balanced_and_mirrored(self, temporal_demo):
        ds = build_pairwise_dataset([temporal_demo])
        assert ds.X.shape[1] == 9
        assert ds.y.sum() * 2 == len(ds.y)
        # rows come in (positive, mirrored negative) pairs
        pos = ds.X[0::2]
        neg = ds.X[1::2]
        assert np.array_equal(pos[:, :2], neg[:, :2])
        assert np.array_equal(pos[:, 2:], -neg[:, 2:])
        assert np.array_equal(ds.y[0::2], np.ones(len(pos), dtype=int))

    def test_row_count(self, temporal_demo):
        expected = 0
        for obs in temporal_demo.observations:
            if obs.scheduled is not None:
                expected += 2 * (len(obs.task_features) - 1)
        assert len(build_pairwise_dataset([temporal_demo])) == expected

    def test_idle_observations_ignored(self, temporal_demo):
        only_idle = [o for o in temporal_demo.observations if o.scheduled is None]
        demo = temporal_demo.__class__(
            problem=temporal_demo.problem,
            observations=tuple(only_idle),
            rule_used=temporal_demo.rule_used,
            epsilon=0.0,
            rng_seed=0,
            schedule=temporal_demo.schedule,
        )
        assert len(build_pairwise_dataset([demo])) == 0


class TestActDataset:
    def test_counts(self, temporal_demo):
        ds = build_act_dataset([temporal_demo])
        pos = sum(1 for o in temporal_demo.observations if o.scheduled)
        neg = sum(len(o.task_features) for o in temporal_demo.observations
                  if o.scheduled is None)
        assert int(ds.y.sum()) == pos
        assert len(ds) == pos + neg
        assert ds.X.shape[1] == 9


class TestPointwiseDataset:
    def test_one_positive_per_decision(self, temporal_demo):
        ds = build_pointwise_dataset([temporal_demo])
        sched_obs = [o for o in temporal_demo.observations if o.scheduled]
        assert int(ds.y.sum()) == len(sched_obs)
        assert len(ds) == sum(len(o.task_features) for o in sched_obs)


class TestNaiveDataset:
    def test_layout(self, temporal_demo):
        n = len(temporal_demo.problem.tasks)
        ds = build_naive_dataset([temporal_demo])
        assert ds.X.shape[1] == 2 + 7 * n
        assert set(ds.y) <= set(range(n))

    def test_finished_blocks_zeroed(self, temporal_demo):
        ds = build_naive_dataset([temporal_demo])
        sched_obs = [o for o in temporal_demo.observations if o.scheduled]
        # the last decision has only a few unfinished tasks left
        last = sched_obs[-1]
        row = ds.X[len(sched_obs) - 1]
        task_ids = sorted(t.id for t in temporal_demo.problem.tasks)
        for k, tid in enumerate(task_ids):
            block = row[2 + 7 * k : 2 + 7 * (k + 1)]
            if tid not in last.task_features:
                assert np.all(block == 0.0)

    def test_rejects_mixed_task_counts(self, temporal_demo):
        other = generate_instance(make_config("temporal", num_tasks=4, rng_seed=55))
        small = demonstrate(other, epsilon=0.0, rng_seed=0)
        with pytest.raises(HeterogeneousTaskCountError):
            build_naive_dataset([temporal_demo, small])



# The three per-builder loops the shared walk replaced, kept as references.

def _reference_pairwise(demos):
    contexts, firsts, seconds = [], [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is None:
                continue
            sched_id = obs.scheduled[0]
            gamma_i = obs.task_features[sched_id]
            for other_id in sorted(obs.task_features):
                if other_id == sched_id:
                    continue
                gamma_j = obs.task_features[other_id]
                contexts += (obs.context, obs.context)
                firsts += (gamma_i, gamma_j)
                seconds += (gamma_j, gamma_i)
    rows = pair_rows(contexts, firsts, seconds)
    return (rows.reshape(len(contexts), len(PAIRWISE_FEATURE_NAMES)),
            np.tile(np.array([1, 0], dtype=int), len(contexts) // 2))


def _reference_act(demos):
    rows, labels = [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is not None:
                rows.append(point_vector(obs.context, obs.task_features[obs.scheduled[0]]))
                labels.append(1)
            else:
                for tid in sorted(obs.task_features):
                    rows.append(point_vector(obs.context, obs.task_features[tid]))
                    labels.append(0)
    return (np.array(rows, dtype=float).reshape(len(rows), len(POINTWISE_FEATURE_NAMES)),
            np.array(labels, dtype=int))


def _reference_pointwise(demos):
    rows, labels = [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is None:
                continue
            sched_id = obs.scheduled[0]
            for tid in sorted(obs.task_features):
                rows.append(point_vector(obs.context, obs.task_features[tid]))
                labels.append(1 if tid == sched_id else 0)
    return (np.array(rows, dtype=float).reshape(len(rows), len(POINTWISE_FEATURE_NAMES)),
            np.array(labels, dtype=int))


def _assert_builders_match_references(demos):
    for build, reference in [(build_pairwise_dataset, _reference_pairwise),
                             (build_act_dataset, _reference_act),
                             (build_pointwise_dataset, _reference_pointwise)]:
        ds, (X, y) = build(demos), reference(demos)
        for got, want in [(ds.X, X), (ds.y, y)]:
            assert (got.shape, got.dtype) == (want.shape, want.dtype), build.__name__
            assert got.tobytes() == want.tobytes(), build.__name__


_value = st.floats(-50, 50, allow_nan=False).map(float)


@st.composite
def _observation(draw):
    # ids drawn in any order, so insertion order and id order differ
    ids = draw(st.lists(st.sampled_from(["t2", "t10", "t0", "b", "a7"]),
                        unique=True, max_size=5))
    features = {tid: TaskFeatures(*draw(st.lists(_value, min_size=7, max_size=7)))
                for tid in ids}
    pick = draw(st.sampled_from([None, *ids]))
    return Observation(tick=0, context=ContextFeatures(draw(_value), draw(_value)),
                       task_features=features, candidates=tuple(ids),
                       scheduled=None if pick is None else (pick, "a0"))


@given(st.lists(st.lists(_observation(), max_size=6), max_size=4))
@settings(max_examples=200, deadline=None)
def test_builders_match_reference_loops(observations):
    """The shared walk gives each builder the reference loop's X and y, byte
    for byte: pair order, row order and labels, including no demos, demos
    without observations and idle-only demos."""
    _assert_builders_match_references(
        [SimpleNamespace(observations=tuple(obs)) for obs in observations])


@pytest.mark.parametrize("corpus", ["noisy-dense", "relabeled"])
def test_builders_match_reference_loops_on_demos(corpus):
    """The same on recorded demonstrations: noisy 8-task "dense" ones, and
    ones on problems whose task id order differs from problem order."""
    if corpus == "noisy-dense":
        demos = collect_demos(["dense"], 6, 0.2, 5, num_tasks=8)
    else:
        demos = [demonstrate(_relabel(generate_instance(make_config(
            kind, num_tasks=9, rng_seed=seed)), seed), 0.1, seed)
            for kind in PROBLEM_KINDS for seed in range(2)]
    _assert_builders_match_references(demos)
