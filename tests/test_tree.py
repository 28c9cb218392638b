import itertools

import numpy as np
import pytest

from demosched.tree import DecisionTree


def oracle_best_split(X, y, min_leaf):
    """Brute-force reference for the greedy split: try every feature and
    every boundary between distinct sorted values, score by weighted Gini."""

    def gini(labels):
        if len(labels) == 0:
            return 0.0
        p = labels.mean()
        return 2.0 * p * (1.0 - p)

    n = len(y)
    best = (np.inf, None)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        for cut in range(1, n):
            if xs[cut] == xs[cut - 1]:
                continue
            if cut < min_leaf or n - cut < min_leaf:
                continue
            score = (cut * gini(ys[:cut]) + (n - cut) * gini(ys[cut:])) / n
            if score < best[0]:
                best = (score, j)
    return best


class TestFitBasics:
    def test_pure_data_single_leaf(self):
        tree = DecisionTree(min_leaf=1).fit(np.array([[0.0], [1.0], [2.0]]),
                                            np.array([1, 1, 1]))
        assert tree.num_leaves() == 1
        assert tree.depth() == 0
        assert list(tree.predict_proba([[5.0]])) == [1.0]

    def test_linear_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(min_leaf=1).fit(X, y)
        assert list(tree.predict(X)) == [0, 0, 1, 1]
        assert tree.depth() == 1

    def test_xor_needs_zero_gain_splits(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = DecisionTree(min_leaf=1).fit(X, y)
        assert list(tree.predict(X)) == list(y)
        assert tree.depth() >= 2

    def test_min_leaf_blocks_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(min_leaf=4).fit(X, y)
        assert tree.num_leaves() == 1
        # majority tie: leaf probability is exactly 0.5, predicted positive
        assert list(tree.predict(X)) == [1, 1, 1, 1]

    def test_min_leaf_clamped_to_dataset(self):
        tree = DecisionTree(min_leaf=1000).fit(np.array([[0.0], [1.0]]),
                                               np.array([0, 1]))
        assert tree.num_leaves() == 1

    def test_threshold_between_adjacent_floats(self):
        # the midpoint of two adjacent floats rounds up to the larger one;
        # the split must still separate the rows
        a = 1.0
        b = np.nextafter(a, np.inf)
        tree = DecisionTree(min_leaf=1).fit(np.array([[a], [b]]), np.array([0, 1]))
        assert list(tree.predict(np.array([[a], [b]]))) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(min_leaf=0)
        with pytest.raises(ValueError):
            DecisionTree().fit(np.empty((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(RuntimeError):
            DecisionTree().predict_proba([[0.0]])


def test_split_matches_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        X = rng.integers(0, 4, size=(30, 3)).astype(float)
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            continue
        for min_leaf in (1, 3, 8):
            tree = DecisionTree(min_leaf=min_leaf).fit(X, y)
            expected_score, expected_feature = oracle_best_split(X, y, min_leaf)
            root = tree.root
            if expected_feature is None:
                assert root.is_leaf
                continue
            assert not root.is_leaf
            assert root.feature == expected_feature
            mask = X[:, root.feature] <= root.threshold
            got = (mask.sum() * _gini(y[mask]) +
                   (~mask).sum() * _gini(y[~mask])) / len(y)
            assert got == pytest.approx(expected_score)


def _gini(labels):
    if len(labels) == 0:
        return 0.0
    p = labels.mean()
    return 2.0 * p * (1.0 - p)


def test_deterministic_tie_break():
    # features 0 and 1 are copies; the split must use the lower index
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree(min_leaf=1).fit(X, y)
    assert tree.root.feature == 0


class TestSerialization:
    def test_roundtrip_predictions(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        tree = DecisionTree(min_leaf=2).fit(X, y)
        clone = DecisionTree.from_dict(tree.to_dict())
        assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))
        assert clone.min_leaf == tree.min_leaf

    def test_deep_tree_roundtrip(self):
        # contradictory labels force an unbalanced, very deep tree
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(400, 2)).astype(float)
        X += rng.normal(scale=1e-9, size=X.shape)
        y = rng.integers(0, 2, size=400)
        tree = DecisionTree(min_leaf=1).fit(X, y)
        clone = DecisionTree.from_dict(tree.to_dict())
        assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))

    def test_same_data_same_dict(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.array([0, 1] * 5)
        assert (DecisionTree(min_leaf=2).fit(X, y).to_dict() == DecisionTree(min_leaf=2).fit(X, y).to_dict())


def test_predict_proba_shape_and_rows():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree(min_leaf=1).fit(X, y)
    # single unwrapped row is promoted to 2D
    assert tree.predict_proba([0.5]).shape == (1,)
    probs = tree.predict_proba(X)
    assert probs.shape == (4,)
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_exact_half_counts_positive():
    X = np.array([[1.0], [1.0]])
    y = np.array([0, 1])
    tree = DecisionTree(min_leaf=1).fit(X, y)  # identical rows, no split possible
    assert tree.predict_proba([[1.0]])[0] == 0.5
    assert tree.predict([[1.0]])[0] == 1
