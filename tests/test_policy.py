import numpy as np
import pytest

from demosched.datasets import build_pairwise_dataset
from demosched.features import ContextFeatures, TaskFeatures
from demosched.policy import (
    MIN_LEAF_GRID,
    HeuristicPolicy,
    PolicyModel,
    cross_validate_min_leaf,
    detect_anomalies,
    evaluate,
    split_demos,
    train_naive,
    train_pointwise,
    train_policy,
)
from demosched.datasets import Dataset
from demosched.tree import DecisionTree


def tf(deadline, travel=0.0):
    return TaskFeatures(
        deadline=float(deadline),
        precedence_satisfied=1.0,
        resource_share_count=0.0,
        resource_available=1.0,
        travel_time_remaining=float(travel),
        travel_distance=float(travel),
        angular_difference=0.0,
    )


CTX = ContextFeatures(2.0, 5.0)


def edf_model() -> PolicyModel:
    """Priority tree trained to prefer the smaller deadline, act tree that
    always schedules."""
    rows, labels = [], []
    for da, db in [(1, 2), (1, 3), (2, 5), (4, 9)]:
        from demosched.datasets import pair_vector

        rows.append(pair_vector(CTX, tf(da), tf(db)))
        labels.append(1)
        rows.append(pair_vector(CTX, tf(db), tf(da)))
        labels.append(0)
    priority = DecisionTree(min_leaf=1).fit(np.array(rows), np.array(labels))
    act = DecisionTree(min_leaf=1).fit(np.zeros((2, 9)), np.array([1, 1]))
    return PolicyModel(priority_tree=priority, act_tree=act)


class TestPolicyModel:
    def test_select_earliest_deadline(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5)}
        assert model.select_task(CTX, feats, ["tA", "tB", "tC"]) == "tB"

    def test_pool_restricts_choice(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5)}
        assert model.select_task(CTX, feats, ["tA", "tC"]) == "tC"

    def test_tie_breaks_by_id(self):
        model = edf_model()
        feats = {"tB": tf(3), "tA": tf(3)}
        assert model.select_task(CTX, feats, ["tB", "tA"]) == "tA"

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            edf_model().select_task(CTX, {}, [])

    def test_order_invariance(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5), "tD": tf(7)}
        pools = (["tA", "tB", "tC", "tD"], ["tD", "tC", "tB", "tA"],
                 ["tB", "tD", "tA", "tC"])
        picks = {model.select_task(CTX, feats, p) for p in pools}
        assert picks == {"tB"}

    def test_scores_include_pool_only(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5)}
        scores = model.scores(CTX, feats, ["tA", "tB"])
        assert set(scores) == {"tA", "tB"}
        assert scores["tB"] > scores["tA"]

    def test_roundtrip(self):
        model = edf_model()
        clone = PolicyModel.from_dict(model.to_dict())
        feats = {"tA": tf(9), "tB": tf(2)}
        assert clone.select_task(CTX, feats, ["tA", "tB"]) == "tB"
        assert model.to_dict() == clone.to_dict()

    def test_feature_schema_check(self):
        data = edf_model().to_dict()
        data["feature_schema"] = "v9"
        with pytest.raises(ValueError, match="feature schema"):
            PolicyModel.from_dict(data)


class TestHeuristicPolicy:
    def test_oracle_on_clean_demo(self, temporal_demo):
        policy = HeuristicPolicy(temporal_demo.rule_used)
        metrics = evaluate(policy, [temporal_demo])
        assert metrics.sensitivity == 1.0
        assert metrics.specificity == 1.0

    def test_act_rule(self):
        policy = HeuristicPolicy(None)
        assert policy.predict_act(CTX, tf(5, travel=0.0))
        assert not policy.predict_act(CTX, tf(5, travel=2.0))


class TestBaselinePolicies:
    def test_pointwise_smoke(self, small_demos):
        policy = train_pointwise(small_demos, min_leaf=5)
        obs = next(o for o in small_demos[0].observations if o.scheduled)
        pick = policy.select_task(obs.context, obs.task_features,
                                  list(obs.candidates))
        assert pick in obs.candidates
        assert isinstance(policy.predict_act(obs.context,
                                             obs.task_features[pick]), bool)

    def test_naive_smoke(self, small_demos):
        # the fixed-width model needs a uniform task count; restrict to one
        policy = train_naive(small_demos[:1], min_leaf=1)
        obs = next(o for o in small_demos[0].observations if o.scheduled)
        pick = policy.select_task(obs.context, obs.task_features,
                                  list(obs.candidates))
        assert pick in obs.candidates


    @pytest.mark.parametrize("train", [train_policy, train_pointwise, train_naive])
    def test_select_task_takes_the_best_score(self, small_demos, train):
        policy = train(small_demos[:1], min_leaf=1)
        for obs in small_demos[0].observations:
            pool = sorted(obs.task_features)
            if not pool:
                continue
            scores = policy.scores(obs.context, obs.task_features, pool)
            best = max(scores.values())
            expected = min(tid for tid in pool if scores[tid] == best)
            assert policy.select_task(obs.context, obs.task_features,
                                      pool[::-1]) == expected
        with pytest.raises(ValueError):
            policy.select_task(CTX, {}, [])


class TestCrossValidation:
    def test_noisy_labels_prefer_regularization(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(400, 1))
        y = (X[:, 0] > 0.5).astype(int)
        flip = rng.random(400) < 0.3
        y[flip] = 1 - y[flip]
        ds = Dataset(X=X, y=y, feature_names=("x",))
        assert cross_validate_min_leaf(ds) > 1

    def test_clean_ties_go_to_larger_leaf(self):
        # constant labels: every leaf size scores 1.0, the largest wins
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = np.ones(50, dtype=int)
        ds = Dataset(X=X, y=y, feature_names=("x",))
        assert cross_validate_min_leaf(ds) == MIN_LEAF_GRID[-1]

    def test_too_few_examples(self):
        ds = Dataset(X=np.zeros((3, 1)), y=np.zeros(3, dtype=int),
                     feature_names=("x",))
        with pytest.raises(ValueError):
            cross_validate_min_leaf(ds)


class TestEvaluate:
    def test_trained_policy_fits_training_demos(self, small_demos):
        model = train_policy(small_demos, min_leaf=1)
        metrics = evaluate(model, small_demos)
        assert metrics.sensitivity >= 0.9
        assert metrics.specificity >= 0.9
        assert metrics.num_scheduling_obs == sum(
            len(d.problem.tasks) for d in small_demos)

    def test_absent_metrics_are_none(self, temporal_demo):
        sched_only = [o for o in temporal_demo.observations if o.scheduled]
        demo = temporal_demo.__class__(
            problem=temporal_demo.problem,
            observations=tuple(sched_only),
            rule_used=temporal_demo.rule_used,
            epsilon=0.0, rng_seed=0,
            schedule=temporal_demo.schedule,
        )
        metrics = evaluate(HeuristicPolicy(temporal_demo.rule_used), [demo])
        assert metrics.specificity is None
        assert metrics.num_idle_obs == 0
        assert metrics.sensitivity == 1.0


class TestSplitDemos:
    def test_partition(self, small_demos):
        train, test = split_demos(small_demos, 0.85, rng_seed=1)
        assert len(train) + len(test) == len(small_demos)
        assert len(test) >= 1
        ids = {id(d) for d in small_demos}
        assert {id(d) for d in train} | {id(d) for d in test} == ids

    def test_deterministic(self, small_demos):
        a = split_demos(small_demos, 0.6, rng_seed=3)
        b = split_demos(small_demos, 0.6, rng_seed=3)
        assert [id(d) for d in a[0]] == [id(d) for d in b[0]]

    def test_single_demo(self, temporal_demo):
        train, test = split_demos([temporal_demo], 0.85, rng_seed=0)
        assert len(train) == 1 and len(test) == 0


class TestAnomalies:
    def _cyclic_model(self):
        """Pairwise tree with rock-paper-scissors preferences: a task wins
        when its deadline is one lower, or three higher (wrap-around)."""
        col = 2  # delta_deadline position in the pair vector
        rows = np.zeros((6, 9))
        rows[:, col] = [-2.0, -1.0, -1.0, -1.0, 1.0, 2.0]
        y = np.array([0, 1, 1, 0, 0, 1])
        priority = DecisionTree(min_leaf=1).fit(rows, y)
        act = DecisionTree(min_leaf=1).fit(np.zeros((2, 9)), np.array([1, 1]))
        return PolicyModel(priority_tree=priority, act_tree=act)

    def test_detects_cycle_and_disagreement(self):
        model = self._cyclic_model()
        feats = {"tA": tf(1), "tB": tf(2), "tC": tf(3)}
        report = detect_anomalies(model, CTX, feats)
        assert not report.clean
        assert ("tA", "tB", "tC") in report.cycles
        # B beats C pairwise but C outscores B cumulatively
        assert ("tB", "tC") in report.disagreements

    def test_wins_read_the_pair_matrix(self):
        model = self._cyclic_model()
        feats = {"tA": tf(1), "tB": tf(2), "tC": tf(3), "tD": tf(5)}
        ids = sorted(feats)
        probs = model.pair_matrix(CTX, feats, ids)
        assert probs.shape == (4, 4)
        scores = model.scores(CTX, feats, ids)
        assert [scores[tid] for tid in ids] == probs.sum(axis=1).tolist()
        report = detect_anomalies(model, CTX, feats)
        assert report.disagreements == (("tB", "tC"),)
        for i, j in report.disagreements:
            assert probs[ids.index(i), ids.index(j)] > 0.5
            assert scores[j] > scores[i]

    def test_monotone_model_is_clean(self):
        model = edf_model()
        feats = {"tA": tf(1), "tB": tf(4), "tC": tf(7), "tD": tf(9)}
        report = detect_anomalies(model, CTX, feats)
        assert report.clean

    def test_single_task_trivially_clean(self):
        report = detect_anomalies(edf_model(), CTX, {"tA": tf(1)})
        assert report.clean

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            detect_anomalies(edf_model(), CTX, {})
