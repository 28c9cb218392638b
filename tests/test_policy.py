import hashlib
import json
import math

import numpy as np
import pytest

from conftest import HeuristicPolicy
from demosched import policy as policy_module
from demosched.datasets import (
    build_pairwise_dataset,
    pair_rows,
    point_vector,
    wide_vector,
)
from demosched.demonstrator import demonstrate
from demosched.experiments import collect_demos
from demosched.features import ContextFeatures, TaskFeatures
from demosched.generator import KIND_FIELDS, generate_instance, make_config
from demosched.policy import (
    MIN_LEAF_GRID,
    Metrics,
    NaivePolicy,
    PointwisePolicy,
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
        assert model.select_tasks([(CTX, feats, ["tA", "tB", "tC"])])[0] == "tB"

    def test_pool_restricts_choice(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5)}
        assert model.select_tasks([(CTX, feats, ["tA", "tC"])])[0] == "tC"

    def test_tie_breaks_by_id(self):
        model = edf_model()
        feats = {"tB": tf(3), "tA": tf(3)}
        assert model.select_tasks([(CTX, feats, ["tB", "tA"])])[0] == "tA"

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            edf_model().select_tasks([(CTX, {}, [])])

    def test_order_invariance(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5), "tD": tf(7)}
        pools = (["tA", "tB", "tC", "tD"], ["tD", "tC", "tB", "tA"],
                 ["tB", "tD", "tA", "tC"])
        picks = {model.select_tasks([(CTX, feats, p)])[0] for p in pools}
        assert picks == {"tB"}

    def test_scores_include_pool_only(self):
        model = edf_model()
        feats = {"tA": tf(9), "tB": tf(2), "tC": tf(5)}
        scores = model.pool_scores([(CTX, feats, ["tA", "tB"])])[0]
        assert len(scores) == 2
        assert scores[1] > scores[0]

    def test_scores_sum_the_pair_matrix(self):
        """On an intransitive tree (a task wins when its deadline is one
        lower, or three higher) each score is its pair-matrix row sum, the
        matrix recorded from the tree's own answers."""
        rows = np.zeros((6, 9))
        rows[:, 2] = [-2.0, -1.0, -1.0, -1.0, 1.0, 2.0]  # delta_deadline
        priority = DecisionTree(min_leaf=1).fit(rows, np.array([0, 1, 1, 0, 0, 1]))
        act = DecisionTree(min_leaf=1).fit(np.zeros((2, 9)), np.array([1, 1]))
        model = PolicyModel(priority_tree=priority, act_tree=act)
        feats = {"tA": tf(1), "tB": tf(2), "tC": tf(3), "tD": tf(5)}
        ids = sorted(feats)
        answers = []
        predict = priority.predict_proba

        def recorded(X):
            answers.append(predict(X))
            return answers[-1]

        priority.predict_proba = recorded
        scores = model.pool_scores([(CTX, feats, ids)])[0]
        assert len(answers) == 1 and answers[0].shape == (16,)
        probs = answers[0].reshape(4, 4)
        for i, first in enumerate(ids):
            for j, second in enumerate(ids):
                assert probs[i, j] == predict([pair_rows(CTX, feats[first], feats[second])])[0]
        assert scores == probs.sum(axis=1).tolist()
        assert len(set(probs.sum(axis=1).tolist())) > 1  # the ranking is not flat

    def test_roundtrip(self):
        model = edf_model()
        clone = PolicyModel.from_dict(model.to_dict())
        feats = {"tA": tf(9), "tB": tf(2)}
        assert clone.select_tasks([(CTX, feats, ["tA", "tB"])])[0] == "tB"
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
        assert policy.predict_acts([(CTX, tf(5, travel=0.0)),
                                    (CTX, tf(5, travel=2.0))]) == [True, False]


class TestBaselinePolicies:
    def test_pointwise_smoke(self, small_demos):
        act = train_policy(small_demos, min_leaf=5).act_tree
        policy = train_pointwise(small_demos, min_leaf=5, act_tree=act)
        obs = next(o for o in small_demos[0].observations if o.scheduled)
        pick = policy.select_tasks([(obs.context, obs.task_features,
                                     list(obs.candidates))])[0]
        assert pick in obs.candidates
        assert isinstance(policy.predict_acts([(obs.context,
                                                obs.task_features[pick])])[0], bool)

    def test_naive_smoke(self, small_demos):
        # the fixed-width model needs a uniform task count; restrict to one
        act = train_policy(small_demos[:1], min_leaf=1).act_tree
        policy = train_naive(small_demos[:1], min_leaf=1, act_tree=act)
        obs = next(o for o in small_demos[0].observations if o.scheduled)
        pick = policy.select_tasks([(obs.context, obs.task_features,
                                     list(obs.candidates))])[0]
        assert pick in obs.candidates

    @pytest.mark.parametrize("train", [train_policy, train_pointwise, train_naive])
    def test_select_task_takes_the_best_score(self, small_demos, train):
        # the baselines take the pairwise model's act tree, as in the experiments
        kw = {} if train is train_policy else {
            "act_tree": train_policy(small_demos[:1], min_leaf=1).act_tree}
        policy = train(small_demos[:1], min_leaf=1, **kw)
        for obs in small_demos[0].observations:
            pool = sorted(obs.task_features)
            if not pool:
                continue
            scores = dict(zip(pool, policy.pool_scores(
                [(obs.context, obs.task_features, pool)])[0]))
            best = max(scores.values())
            expected = min(tid for tid in pool if scores[tid] == best)
            assert policy.select_tasks([(obs.context, obs.task_features,
                                         pool[::-1])])[0] == expected
        with pytest.raises(ValueError):
            policy.select_tasks([(CTX, {}, [])])


class TestCrossValidation:
    def test_noisy_labels_prefer_regularization(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(400, 1))
        y = (X[:, 0] > 0.5).astype(int)
        flip = rng.random(400) < 0.3
        y[flip] = 1 - y[flip]
        ds = Dataset(X=X, y=y)
        assert cross_validate_min_leaf(ds) > 1

    def test_clean_ties_go_to_larger_leaf(self):
        # constant labels: every leaf size scores 1.0, the largest wins
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = np.ones(50, dtype=int)
        ds = Dataset(X=X, y=y)
        assert cross_validate_min_leaf(ds) == MIN_LEAF_GRID[-1]

    @pytest.mark.parametrize("candidates, folds, match", [
        ((), 5, "candidates"),
        (MIN_LEAF_GRID, 1, "folds"),
        (MIN_LEAF_GRID, 0, "folds"),
        (MIN_LEAF_GRID, -1, "folds"),
        (MIN_LEAF_GRID, 2.0, "folds"),
        (tuple(np.unique([5, 1])), 5, "min_leaf must be an integer"),
        ((1, 2.5), 5, "min_leaf must be an integer"),
    ])
    def test_arguments_checked(self, candidates, folds, match):
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.uniform(size=(40, 2)), y=rng.integers(0, 2, size=40))
        with pytest.raises(ValueError, match=match):
            cross_validate_min_leaf(ds, candidates, folds)

    def test_picks_a_candidate_as_given(self, small_demos):
        """The pick is the Python int passed in, so the model it trains
        dumps as JSON."""
        ds = build_pairwise_dataset(small_demos)
        candidates = (1, 5, 25)
        leaf = cross_validate_min_leaf(ds, candidates)
        assert type(leaf) is int and leaf in candidates
        model = train_policy(small_demos, None)
        assert type(model.priority_tree.min_leaf) is int
        assert PolicyModel.from_dict(json.loads(json.dumps(model.to_dict()))).to_dict() \
            == model.to_dict()

    def test_too_few_examples(self):
        ds = Dataset(X=np.zeros((3, 1)), y=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            cross_validate_min_leaf(ds)

    def test_train_policy_cross_validates_when_leaf_is_none(self, small_demos):
        """min_leaf=None trains both trees at the leaf size CV picks on the
        pairwise set."""
        leaf = cross_validate_min_leaf(build_pairwise_dataset(small_demos))
        assert (train_policy(small_demos, None).to_dict()
                == train_policy(small_demos, leaf).to_dict())


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
    for kind in KIND_FIELDS:
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


# ---------------------------------------------------------------------------
# Batched scoring
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_demos():
    return _golden_learner_demos()


def _three_kinds(demos, min_leaf=5):
    """The pairwise model and both baselines, on the pairwise act tree."""
    pairwise = train_policy(demos, min_leaf=min_leaf)
    return [pairwise, train_pointwise(demos, min_leaf, pairwise.act_tree),
            train_naive(demos, min_leaf, pairwise.act_tree)]


@pytest.fixture(scope="module")
def twenty_task(golden_demos):
    """The golden 20-task demos, the three learned kinds trained on them,
    and queries over shuffled pools of every size 1-20, three per size, in
    shuffled order."""
    demos = [d for d in golden_demos if len(d.problem.tasks) == 20]
    rng = np.random.default_rng(5)
    observations = [o for d in demos for o in d.observations]
    queries = []
    for k in list(range(1, 21)) * 3:
        obs = rng.choice([o for o in observations if len(o.task_features) >= k])
        pool = [str(t) for t in rng.permutation(sorted(obs.task_features))[:k]]
        queries.append((obs.context, obs.task_features, pool))
    order = rng.permutation(len(queries))
    return demos, _three_kinds(demos), [queries[n] for n in order]


@pytest.mark.parametrize("chunk_rows", [policy_module._CHUNK_ROWS, 50])
@pytest.mark.parametrize("kind", [PolicyModel, PointwisePolicy, NaivePolicy])
def test_batch_matches_one_pool_calls(monkeypatch, twenty_task, kind, chunk_rows):
    """Scores and picks of a batch equal those of one call per pool, bit for
    bit. A 50-row chunk splits the pairwise pools of size 5 two to a pass,
    gives each pool of size 8 or more (64 pair rows) a pass of its own,
    and cuts the baselines' rows mid-pool."""
    monkeypatch.setattr(policy_module, "_CHUNK_ROWS", chunk_rows)
    _, policies, queries = twenty_task
    policy = next(p for p in policies if type(p) is kind)
    scores = policy.pool_scores(queries)
    assert scores == [policy.pool_scores([q])[0] for q in queries]
    if kind is PolicyModel:
        assert scores == [_pair_sums(policy, *q) for q in queries]
    tops = policy.select_tasks(queries)
    assert tops == [policy.select_tasks([q])[0] for q in queries]
    assert tops == [min(pool, key=lambda tid: (-dict(zip(pool, s))[tid], tid))
                    for (_, _, pool), s in zip(queries, scores)]


def test_a_tree_that_ties_everything_picks_the_lowest_id(twenty_task):
    _, policies, queries = twenty_task
    flat = DecisionTree(min_leaf=1).fit(np.zeros((2, 1)), np.array([1, 1]))
    for policy in policies:
        policy = type(policy).__new__(type(policy))
        policy.priority_tree = flat
        policy.class_trees = [flat] * 20
        policy.index = {f"t{k:02d}": k for k in range(20)}
        assert policy.select_tasks(queries) == [min(pool) for _, _, pool in queries]


@pytest.mark.parametrize("kind", [PolicyModel, PointwisePolicy, NaivePolicy])
def test_an_empty_pool_raises(twenty_task, kind):
    _, policies, queries = twenty_task
    policy = next(p for p in policies if type(p) is kind)
    with pytest.raises(ValueError, match="empty candidate pool"):
        policy.select_tasks(queries + [(CTX, {}, [])])
    assert policy.select_tasks([]) == [] and policy.predict_acts([]) == []


def _pair_sums(policy, context, task_features, pool) -> list[float]:
    """The pairwise model's scores of one pool, built by hand: the row sums
    of its pair matrix, in one tree call."""
    F = np.array([task_features[tid] for tid in pool], dtype=float)
    rows = pair_rows(context, F[:, None], F[None, :])
    probs = policy.priority_tree.predict_proba(rows.reshape(-1, rows.shape[-1]))
    return probs.reshape(len(pool), len(pool)).sum(axis=1).tolist()


def _reference_top(policy, context, task_features, pool) -> str:
    """The top of one pool as each policy ranked it before batching, one tree
    call per pool (one per pool task for the naive baseline)."""
    if isinstance(policy, HeuristicPolicy):
        return policy.select_tasks([(context, task_features, pool)])[0]
    if isinstance(policy, PolicyModel):
        sums = _pair_sums(policy, context, task_features, pool)
    elif isinstance(policy, PointwisePolicy):
        rows = np.array([point_vector(context, task_features[tid]) for tid in pool])
        sums = policy.priority_tree.predict_proba(rows).tolist()
    else:
        row = np.array([wide_vector(context, task_features, policy.index)])
        sums = [float(policy.class_trees[policy.index[tid]].predict_proba(row)[0])
                for tid in pool]
    scores = dict(zip(pool, sums))
    return min(pool, key=lambda tid: (-scores[tid], tid))


def _reference_act(policy, context, tf) -> bool:
    if isinstance(policy, HeuristicPolicy):
        return policy.predict_acts([(context, tf)])[0]
    return float(policy.act_tree.predict_proba([point_vector(context, tf)])[0]) >= 0.5


def _reference_evaluate(policy, demos) -> Metrics:
    """`evaluate` as it was before batching: one ranking and one act call
    per observation."""
    sched_hits = sched_total = idle_hits = idle_total = 0
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is not None:
                pool = list(obs.candidates)
                sched_total += 1
                top = _reference_top(policy, obs.context, obs.task_features, pool)
                if top == obs.scheduled[0] and _reference_act(
                    policy, obs.context, obs.task_features[top]
                ):
                    sched_hits += 1
            else:
                idle_total += 1
                pool = list(obs.candidates) or sorted(obs.task_features)
                if not pool:
                    idle_hits += 1
                    continue
                top = _reference_top(policy, obs.context, obs.task_features, pool)
                if not _reference_act(policy, obs.context, obs.task_features[top]):
                    idle_hits += 1
    return Metrics(
        sensitivity=sched_hits / sched_total if sched_total else None,
        specificity=idle_hits / idle_total if idle_total else None,
        num_scheduling_obs=sched_total,
        num_idle_obs=idle_total,
    )


def _golden_corpus(golden_demos):
    """Policies trained on the golden split's training demos (the naive
    baseline on its 20-task ones, the task count it needs), each with the
    demos it is scored on."""
    train, _ = split_demos(golden_demos, 0.75, rng_seed=0)
    twenty = [d for d in golden_demos if len(d.problem.tasks) == 20]
    pairwise = train_policy(train, min_leaf=5)
    pointwise = train_pointwise(train, 5, pairwise.act_tree)
    naive = train_naive([d for d in train if d in twenty], 5, pairwise.act_tree)
    return [(pairwise, golden_demos), (pointwise, golden_demos), (naive, twenty)] + [
        (HeuristicPolicy(d.rule_used), [d]) for d in golden_demos]


def _dense_corpus():
    """The pairwise model and both baselines trained on the first half of an
    ε = 0.2 "dense" 8-task stream, and the stream's own expert rules, each
    scored on the whole stream."""
    demos = collect_demos(("dense",), 12, 0.2, stream_seed=23, num_tasks=8)
    return [(p, demos) for p in _three_kinds(demos[:6], min_leaf=1)] + [
        (HeuristicPolicy(rule), demos) for rule in sorted({d.rule_used for d in demos})]


@pytest.mark.parametrize("corpus", ["golden", "dense"])
def test_evaluate_matches_the_per_observation_loop(golden_demos, corpus):
    pairs = _golden_corpus(golden_demos) if corpus == "golden" else _dense_corpus()
    assert {type(p) for p, _ in pairs} == {PolicyModel, PointwisePolicy, NaivePolicy,
                                           HeuristicPolicy}
    for policy, demos in pairs:
        assert evaluate(policy, demos) == _reference_evaluate(policy, demos)


def test_evaluate_scores_in_batched_tree_passes(monkeypatch, golden_demos):
    """One `evaluate` of the pairwise model makes a tree pass per chunk of
    each pool size and one act pass, however many observations it scores."""
    model = train_policy(golden_demos, min_leaf=5)
    pools = [o.candidates if o.scheduled else o.candidates or tuple(o.task_features)
             for d in golden_demos for o in d.observations]
    ranked = [len(pool) for pool in pools if len(pool) > 1]
    bound = (len(set(ranked)) + math.ceil(sum(k * k for k in ranked)
                                          / policy_module._CHUNK_ROWS) + 1)
    calls = []
    predict = DecisionTree.predict_proba

    def counted(self, X):
        calls.append(len(X))
        return predict(self, X)

    monkeypatch.setattr(DecisionTree, "predict_proba", counted)
    evaluate(model, golden_demos)
    assert len(calls) <= bound < len(pools) / 10
