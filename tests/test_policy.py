import hashlib
import json

import numpy as np
import pytest

from demosched.datasets import build_pairwise_dataset
from demosched.demonstrator import demonstrate
from demosched.experiments import KIND_PRESETS, make_config
from demosched.features import ContextFeatures, TaskFeatures
from demosched.generator import generate_instance
from demosched.policy import (
    MIN_LEAF_GRID,
    HeuristicPolicy,
    Metrics,
    PolicyModel,
    cross_validate_min_leaf,
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
        from demosched.datasets import pair_rows

        rows.append(pair_rows(CTX, tf(da), tf(db)))
        labels.append(1)
        rows.append(pair_rows(CTX, tf(db), tf(da)))
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

    def test_scores_sum_the_pair_matrix(self):
        """On an intransitive tree (a task wins when its deadline is one
        lower, or three higher) each score is its pair-matrix row sum."""
        rows = np.zeros((6, 9))
        rows[:, 2] = [-2.0, -1.0, -1.0, -1.0, 1.0, 2.0]  # delta_deadline
        priority = DecisionTree(min_leaf=1).fit(rows, np.array([0, 1, 1, 0, 0, 1]))
        act = DecisionTree(min_leaf=1).fit(np.zeros((2, 9)), np.array([1, 1]))
        model = PolicyModel(priority_tree=priority, act_tree=act)
        feats = {"tA": tf(1), "tB": tf(2), "tC": tf(3), "tD": tf(5)}
        ids = sorted(feats)
        probs = model.pair_matrix(CTX, feats, ids)
        assert probs.shape == (4, 4)
        scores = model.scores(CTX, feats, ids)
        assert [scores[tid] for tid in ids] == probs.sum(axis=1).tolist()

    def test_roundtrip(self):
        model = edf_model()
        clone = PolicyModel.from_dict(model.to_dict())
        feats = {"tA": tf(9), "tB": tf(2)}
        assert clone.select_task(CTX, feats, ["tA", "tB"]) == "tB"
        assert model.to_dict() == clone.to_dict()

    @pytest.mark.parametrize("tree_key", ["priority_tree", "act_tree"])
    def test_out_of_range_feature_rejected(self, tree_key):
        """Both trees read 9-wide rows; a split on column 9 or beyond is
        refused at load, not at the first prediction."""
        model = edf_model()
        model.act_tree = DecisionTree(min_leaf=1).fit(np.eye(9)[:2], np.array([0, 1]))
        data = model.to_dict()
        assert "feature" in data[tree_key]["nodes"][0]
        PolicyModel.from_dict(data)
        data[tree_key]["nodes"][0]["feature"] = 9
        with pytest.raises(ValueError, match="feature 9 of rows 9 wide"):
            PolicyModel.from_dict(data)

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


# ---------------------------------------------------------------------------
# Golden learner outputs
# ---------------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_learner_demos():
    """Noise-free 20-task demos of every kind, then ε=0.2 "dense" 8-task
    demos."""
    demos = []
    for kind in KIND_PRESETS:
        problem = generate_instance(make_config(kind, num_agents=2, num_tasks=20,
                                                rng_seed=61))
        demos.append(demonstrate(problem, epsilon=0.0, rng_seed=61))
    for seed in range(62, 68):
        problem = generate_instance(make_config("dense", num_agents=2, num_tasks=8,
                                                rng_seed=seed))
        demos.append(demonstrate(problem, epsilon=0.2, rng_seed=seed))
    return demos


def _golden_learner_outputs() -> dict:
    train, test = split_demos(_golden_learner_demos(), 0.75, rng_seed=0)
    data = build_pairwise_dataset(train)
    out = {"pairwise X": _sha(data.X.tobytes()), "pairwise y": _sha(data.y.tobytes()),
           "cv leaf": cross_validate_min_leaf(data)}
    for leaf in (1, 5, out["cv leaf"]):
        model = train_policy(train, min_leaf=leaf)
        out[f"model {leaf}"] = _sha(json.dumps(model.to_dict(), sort_keys=True).encode())
        out[f"evaluate {leaf}"] = evaluate(model, test)
    return out


# recorded with the linked-node tree and the per-pair row encoder that the
# flat node arrays and `pair_rows` replaced
GOLDEN_LEARNER = {
    "pairwise X": "2798020947b6cfd6cb89f6bf911b12c719a69299ca8fd447b828ee8d24c19fb8",
    "pairwise y": "a14b7351aa0eae8bc9e493dbdadbdb259605fbd0877f15e8af6f8ed5e8c5ba10",
    "cv leaf": 10,
    "model 1": "0d1d9085e873c6e3e179a758bee86eb56be245c62066d324ac27e5cd9bf37668",
    "model 5": "0329a0c3bab050c217b23b1818ed9dc45374e007d118c45c50f2d2283744de42",
    "model 10": "98f4d2fab6815bd2044d148ffba848cc5e91bb332e285233139c0c0bb155372f",
    "evaluate 1": Metrics(sensitivity=0.8928571428571429, specificity=1.0,
                          num_scheduling_obs=28, num_idle_obs=88),
    "evaluate 5": Metrics(sensitivity=0.8571428571428571,
                          specificity=0.8295454545454546,
                          num_scheduling_obs=28, num_idle_obs=88),
    "evaluate 10": Metrics(sensitivity=0.9285714285714286,
                           specificity=0.8295454545454546,
                           num_scheduling_obs=28, num_idle_obs=88),
}


def test_golden_learner():
    assert _golden_learner_outputs() == GOLDEN_LEARNER
