import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_unfitted_tree_raises(self):
        tree = DecisionTree()
        for method in (tree.depth, tree.num_leaves, tree.to_dict):
            with pytest.raises(RuntimeError, match="not fitted"):
                method()


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
            if expected_feature is None:
                assert tree.feature[0] < 0
                continue
            assert tree.feature[0] == expected_feature
            mask = X[:, tree.feature[0]] <= tree.threshold[0]
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
    assert tree.feature[0] == 0


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

    @pytest.mark.parametrize("edit", [
        {"left": 0},      # the root is its own child: a walk would never end
        {"right": 9},     # child index out of range
        {"left": 1},      # both children are node 1; node 2 has no parent
        {"feature": -1},  # an internal node without a feature
    ])
    def test_malformed_nodes_rejected(self, edit):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        data = DecisionTree(min_leaf=1).fit(X, np.array([0, 0, 1, 1])).to_dict()
        assert data["nodes"][0] == {"prob": 0.5, "count": 4, "feature": 0,
                                    "threshold": 1.5, "left": 2, "right": 1}
        data["nodes"][0].update(edit)
        with pytest.raises(ValueError, match="malformed tree"):
            DecisionTree.from_dict(data)

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError, match="malformed tree"):
            DecisionTree.from_dict({"min_leaf": 1, "nodes": []})

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


# ---------------------------------------------------------------------------
# Reference: the linked-node tree and router the node arrays replaced, kept
# verbatim and built from `to_dict()` output
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    prob: float | None = None  # positive-class probability at a leaf
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _reference_root(data: dict) -> _Node:
    records = data["nodes"]
    built = [_Node(prob=float(r["prob"]), count=int(r["count"])) for r in records]
    for node, rec in zip(built, records):
        if "feature" in rec:
            node.feature = int(rec["feature"])
            node.threshold = float(rec["threshold"])
            node.left = built[rec["left"]]
            node.right = built[rec["right"]]
    return built[0]


def _route(root: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    stack = [(root, idx)]
    while stack:
        node, ids = stack.pop()
        if node.is_leaf:
            out[ids] = node.prob
            continue
        mask = X[ids, node.feature] <= node.threshold
        if mask.any():
            stack.append((node.left, ids[mask]))
        if not mask.all():
            stack.append((node.right, ids[~mask]))


def _reference_depth(root: _Node) -> int:
    best = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        if node.is_leaf:
            best = max(best, d)
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return best


def _reference_num_leaves(root: _Node) -> int:
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            count += 1
        else:
            stack.extend((node.left, node.right))
    return count


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300),
       width=st.integers(1, 4), levels=st.integers(2, 6),
       near_equal=st.booleans(), min_leaf=st.sampled_from([1, 2, 3, 7, 25]))
@settings(max_examples=60, deadline=None)
def test_arrays_match_reference_router(seed, rows, width, levels, near_equal, min_leaf):
    """Integer-valued columns give ties; tiny noise gives near-equal values,
    and random labels at min_leaf 1 give deep trees. Queries include every
    split threshold, where `<=` decides the branch. Whole batches take the
    vectorized walk and single rows the row-by-row one."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(rows, width)).astype(float)
    if near_equal:
        X += rng.normal(scale=1e-9, size=X.shape)
    y = rng.integers(0, 2, size=rows)
    tree = DecisionTree(min_leaf=min_leaf).fit(X, y)
    root = _reference_root(tree.to_dict())
    assert tree.depth() == _reference_depth(root)
    assert tree.num_leaves() == _reference_num_leaves(root)

    at_thresholds = np.repeat(X[:1], len(tree.feature), axis=0)
    for i, f in enumerate(tree.feature):
        if f >= 0:
            at_thresholds[i, f] = tree.threshold[i]
    queries = np.vstack([X, at_thresholds, rng.uniform(-1, levels, size=(20, width))])
    expected = np.empty(len(queries))
    _route(root, queries, np.arange(len(queries)), expected)
    assert np.array_equal(tree.predict_proba(queries), expected)
    singles = np.concatenate([tree.predict_proba(q) for q in queries])
    assert np.array_equal(singles, expected)
