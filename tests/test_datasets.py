import numpy as np
import pytest

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
from demosched.features import ContextFeatures, TaskFeatures
from demosched.generator import generate_instance, preset


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
        assert len(ds.class_names) == n
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
        other = generate_instance(preset("temporal", num_tasks=4, rng_seed=55))
        small = demonstrate(other, epsilon=0.0, rng_seed=0)
        with pytest.raises(HeterogeneousTaskCountError):
            build_naive_dataset([temporal_demo, small])

