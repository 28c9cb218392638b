import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosched import policy as policy_module
from demosched.datasets import Dataset
from demosched.policy import cross_validate_min_leaf
from demosched.tree import DecisionTree, RankBins, fit_leaf_sizes


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
        assert list(tree.predict_proba([[5.0]])) == [1.0]

    def test_linear_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(min_leaf=1).fit(X, y)
        assert list(tree.predict(X)) == [0, 0, 1, 1]
        assert tree.num_leaves() == 2

    def test_xor_needs_zero_gain_splits(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = DecisionTree(min_leaf=1).fit(X, y)
        assert list(tree.predict(X)) == list(y)
        assert tree.num_leaves() == 4

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

    @pytest.mark.parametrize("column", [
        [-np.inf, np.inf],           # the midpoint inf + -inf is NaN
        [-1.7e308, -1e308],          # the midpoint overflows to -inf
        [1.0, np.inf],               # the midpoint is inf, so the cut is 1.0
        [-np.inf, -np.inf, 0.0],     # equal infinities share one bin
    ])
    def test_threshold_separates_infinite_and_huge_values(self, column):
        X = np.array(column)[:, None]
        y = (np.arange(len(X)) == len(X) - 1).astype(int)
        tree = DecisionTree(min_leaf=1).fit(X, y)
        assert tree.num_leaves() == 2
        assert list(tree.predict(X)) == list(y)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            DecisionTree().fit(np.array([[0.0], [np.nan]]), np.array([0, 1]))

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            DecisionTree().fit(np.array([[0.0], [1.0]]), np.array([0, 2]))

    @pytest.mark.parametrize("min_leaf", [2.5, True, np.int64(3), "3", float("inf")])
    def test_min_leaf_must_be_an_integer(self, min_leaf):
        """The rule `from_dict` applies: a tree that fits can be reloaded."""
        with pytest.raises(ValueError, match="min_leaf must be an integer"):
            DecisionTree(min_leaf=min_leaf)

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
        for method in (tree.num_leaves, tree.to_dict):
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



def test_histogram_counts_every_row_across_slices():
    """More rows than one bincount call counts: every row and every
    positive row (the first `pos`) lands in its bins once."""
    rng = np.random.default_rng(0)
    bins = RankBins(rng.integers(0, 50, size=(20000, 3)).astype(float))
    rows = rng.permutation(20000)[:19000]
    expected = np.zeros((2, len(bins.values)), dtype=int)
    for counts, counted in zip(expected, (rows, rows[:10000])):
        np.add.at(counts, bins.codes[counted].ravel(), 1)
    assert np.array_equal(bins.histogram(rows, 10000), expected)

class TestSerialization:
    def test_roundtrip_predictions(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        tree = DecisionTree(min_leaf=2).fit(X, y)
        clone = DecisionTree.from_dict(tree.to_dict())
        assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))
        assert clone.min_leaf == tree.min_leaf

    @pytest.mark.parametrize("min_leaf", [1, 3, 1000])
    def test_json_roundtrip(self, min_leaf):
        """Every tree that fits is written as JSON and reloaded as itself."""
        rng = np.random.default_rng(4)
        X = rng.integers(0, 4, size=(60, 2)).astype(float)
        tree = DecisionTree(min_leaf=min_leaf).fit(X, rng.integers(0, 2, size=60))
        data = json.loads(json.dumps(tree.to_dict()))
        assert DecisionTree.from_dict(data).to_dict() == tree.to_dict()

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
        # fields that would otherwise be truncated or silently misread
        {"feature": 0.7},
        {"left": 1.9},
        {"threshold": float("nan")},
        {"prob": float("nan")},
        {"prob": 7.0},
        {"count": -3},
        {"min_leaf": 1.9},
    ])
    def test_malformed_nodes_rejected(self, edit):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        data = DecisionTree(min_leaf=1).fit(X, np.array([0, 0, 1, 1])).to_dict()
        assert data["nodes"][0] == {"prob": 0.5, "count": 4, "feature": 0,
                                    "threshold": 1.5, "left": 2, "right": 1}
        (data if "min_leaf" in edit else data["nodes"][0]).update(edit)
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


# ---------------------------------------------------------------------------
# Reference: the per-node argsort grower the rank-bin histograms replaced,
# kept verbatim
# ---------------------------------------------------------------------------

def _grow(X: np.ndarray, y: np.ndarray, min_leaf: int) -> list[list]:
    """Node records [feature, threshold, left, right, prob, count], appended
    as nodes are popped; each child's index is written into its parent's
    `left` or `right` slot."""
    # explicit stack: unregularized trees can exceed the recursion limit
    nodes: list[list] = []
    stack = [(X, y, None, None)]
    while stack:
        Xn, yn, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        n = len(yn)
        pos = int(yn.sum())
        node = [-1, -1, -1, -1, pos / n, n]
        nodes.append(node)
        if pos == 0 or pos == n or n < 2 * min_leaf:
            continue
        split = _best_split(Xn, yn, min_leaf)
        if split is None:
            continue
        node[0], node[1] = split
        mask = Xn[:, node[0]] <= node[1]
        stack.append((Xn[mask], yn[mask], node, 2))
        stack.append((Xn[~mask], yn[~mask], node, 3))
    return nodes


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest weighted child impurity; ties keep the earliest (feature,
    threshold) encountered. Returns None when min_leaf leaves no valid cut."""
    # zero-gain splits are allowed (a pure-fit tree needs them, e.g. on
    # XOR-style data); recursion still terminates since children shrink
    n = len(y)
    best = (np.inf, None, None)
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs, ys = col[order], y[order]
        # split positions between distinct neighbouring values
        distinct = np.nonzero(np.diff(xs) > 0)[0] + 1
        if len(distinct) == 0:
            continue
        valid = distinct[(distinct >= min_leaf) & (n - distinct >= min_leaf)]
        if len(valid) == 0:
            continue
        cum_pos = np.cumsum(ys)
        left_n = valid.astype(float)
        left_pos = cum_pos[valid - 1].astype(float)
        right_n = n - left_n
        right_pos = cum_pos[-1] - left_pos
        lp = left_pos / left_n
        rp = right_pos / right_n
        weighted = (left_n * 2 * lp * (1 - lp) + right_n * 2 * rp * (1 - rp)) / n
        k = int(np.argmin(weighted))
        if weighted[k] < best[0]:
            lo, hi = xs[valid[k] - 1], xs[valid[k]]
            threshold = 0.5 * (lo + hi)
            if threshold >= hi:  # midpoint of adjacent floats can round up
                threshold = lo
            best = (weighted[k], j, threshold)
    if best[1] is None:
        return None
    return best[1], best[2]


def _reference_fit(X, y, min_leaf: int) -> DecisionTree:
    """The parent-era `DecisionTree.fit`, growing with the reference."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    tree = DecisionTree(min_leaf=min_leaf)
    tree._set_nodes(*zip(*_grow(X, y, min(min_leaf, len(X)))))
    return tree


def _reference_cross_validate(dataset, candidates, folds):
    """The parent-era `cross_validate_min_leaf`, fitting each fold with the
    reference."""
    n = len(dataset)
    splits = np.array_split(np.arange(n), folds)
    best_acc, best_value = -1.0, None
    for value in candidates:
        accs = []
        for fold in splits:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            tree = _reference_fit(dataset.X[mask], dataset.y[mask], value)
            accs.append(float((tree.predict(dataset.X[fold]) == dataset.y[fold]).mean()))
        acc = round(float(np.mean(accs)), 12)
        if acc > best_acc or (acc == best_acc and value > best_value):
            best_acc, best_value = acc, value
    return best_value


def _awkward_matrix(rng, rows, width, levels, signed_zeros, neighbours, constant):
    """Integer-valued columns (ties, and zeros at level 0), optionally with
    zeros of random sign, values nudged to their next float up, and a
    constant column."""
    X = rng.integers(0, levels, size=(rows, width)).astype(float)
    if signed_zeros:
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    if neighbours:
        nudge = rng.random(X.shape) < 0.3
        X[nudge] = np.nextafter(X[nudge], np.inf)
    if constant:
        X[:, rng.integers(width)] = X[0, 0]
    return X


_AWKWARD = dict(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 200),
                width=st.integers(1, 4), levels=st.integers(1, 6),
                signed_zeros=st.booleans(), neighbours=st.booleans(),
                constant=st.booleans())


@given(**_AWKWARD, min_leaf=st.sampled_from([1, 2, 3, 7, 25, "over half"]))
@settings(max_examples=150, deadline=None)
def test_histogram_grower_matches_reference(seed, rows, width, levels, signed_zeros,
                                            neighbours, constant, min_leaf):
    """The same tree as the argsort grower, node for node, on the whole
    matrix and on a random row subset (a fold) of one shared ranking."""
    rng = np.random.default_rng(seed)
    X = _awkward_matrix(rng, rows, width, levels, signed_zeros, neighbours, constant)
    y = rng.integers(0, 2, size=rows)
    if min_leaf == "over half":
        min_leaf = rows // 2 + 1
    assert (DecisionTree(min_leaf=min_leaf).fit(X, y).to_dict()
            == _reference_fit(X, y, min_leaf).to_dict())
    bins = RankBins(X)
    subset = np.flatnonzero(rng.random(rows) < rng.uniform(0.3, 1.0))
    if len(subset):
        assert (fit_leaf_sizes(bins, y, subset, (min_leaf,))[0].to_dict()
                == _reference_fit(X[subset], y[subset], min_leaf).to_dict())


@given(**_AWKWARD, folds=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_cross_validation_matches_reference(seed, rows, width, levels, signed_zeros,
                                            neighbours, constant, folds):
    rng = np.random.default_rng(seed)
    rows = max(rows, folds)
    X = _awkward_matrix(rng, rows, width, levels, signed_zeros, neighbours, constant)
    data = Dataset(X=X, y=rng.integers(0, 2, size=rows))
    candidates = (1, 2, 3, 7, 25, 1000)
    assert (cross_validate_min_leaf(data, candidates, folds)
            == _reference_cross_validate(data, candidates, folds))


def _row_sets(tree: DecisionTree, X: np.ndarray, rows: np.ndarray) -> dict:
    """Each node's row set (sorted, as bytes) mapped to the cut paths, from
    the root, by which the tree reaches it."""
    found: dict = {}
    stack = [(0, (), rows)]
    while stack:
        i, path, part = stack.pop()
        found.setdefault(np.sort(part).tobytes(), set()).add(path)
        if tree.feature[i] >= 0:
            cut = (int(tree.feature[i]), float(tree.threshold[i]))
            go_left = X[part, cut[0]] <= cut[1]
            stack.append((tree.left[i], path + (cut, "left"), part[go_left]))
            stack.append((tree.right[i], path + (cut, "right"), part[~go_left]))
    return found


def test_cross_validation_counts_each_fold_root_once(monkeypatch):
    """One root-sized histogram count per fold, shared by every leaf size;
    any other count is a child's, at most half its parent's rows. Within a
    fold no row set is counted more often than the fold's trees reach it by
    distinct cut paths: a node that several leaf sizes share is counted
    once, and only trees that cut differently on the way (say x <= 4.5 and
    then x <= 1.5, against x <= 1.5 at once) may count the same rows again.
    So the fold's one pass counts fewer histograms than separate fits."""
    rng = np.random.default_rng(5)
    rows, folds = 400, 5
    data = Dataset(X=rng.integers(0, 6, size=(rows, 3)).astype(float),
                   y=rng.integers(0, 2, size=rows))
    counted: list[list[bytes]] = []  # each counted row set, per fit call
    passes = []  # each fold's fitted rows and trees
    histogram, fit_leaf_sizes_ = RankBins.histogram, policy_module.fit_leaf_sizes

    def spy(self, rows, pos):
        counted[-1].append(np.sort(rows).tobytes())
        return histogram(self, rows, pos)

    def one_pass(bins, y, rows, min_leafs):
        counted.append([])
        trees = fit_leaf_sizes_(bins, y, rows, min_leafs)
        passes.append((rows, trees))
        return trees

    monkeypatch.setattr(RankBins, "histogram", spy)
    monkeypatch.setattr(policy_module, "fit_leaf_sizes", one_pass)
    cross_validate_min_leaf(data, folds=folds)
    assert len(passes) == folds
    root = rows - rows // folds
    sizes = [len(row_set) // np.dtype(np.intp).itemsize
             for fold in counted for row_set in fold]
    assert sizes.count(root) == folds
    assert all(n == root or n <= root // 2 for n in sizes)
    for fold, (fold_rows, trees) in zip(counted, passes):
        paths: dict = {}
        for tree in trees:
            for row_set, reached in _row_sets(tree, data.X, fold_rows).items():
                paths.setdefault(row_set, set()).update(reached)
        assert all(fold.count(row_set) <= len(paths[row_set]) for row_set in set(fold))

    bins, shared = RankBins(data.X), sum(map(len, counted))
    for fold_rows, trees in passes:
        for tree in trees:
            counted.append([])
            fit_leaf_sizes(bins, data.y, fold_rows, (tree.min_leaf,))
    assert shared < sum(map(len, counted[folds:]))


def _shared_mismatches(X, y, rows, min_leafs) -> list:
    """The leaf sizes whose tree from the shared grow differs from the
    one-size fit on the same rows of the same ranking."""
    bins = RankBins(X)
    shared = fit_leaf_sizes(bins, y, rows, tuple(min_leafs))
    return [m for m, tree in zip(min_leafs, shared)
            if tree.to_dict() != fit_leaf_sizes(bins, y, rows, (m,))[0].to_dict()]


@given(**_AWKWARD, min_leafs=st.lists(
    st.sampled_from([1, 2, 3, 5, 7, 25, "over half", "all rows"]), min_size=1, max_size=7))
@settings(max_examples=150, deadline=None)
def test_shared_grow_matches_one_size_fits(seed, rows, width, levels, signed_zeros,
                                           neighbours, constant, min_leafs):
    """Each tree of one shared grow is its size's own fit, node for node,
    for leaf-size tuples with repeats, in any order and past half the rows,
    on the whole matrix and on a random row subset."""
    rng = np.random.default_rng(seed)
    X = _awkward_matrix(rng, rows, width, levels, signed_zeros, neighbours, constant)
    y = rng.integers(0, 2, size=rows)
    min_leafs = [rows // 2 + 1 if m == "over half" else rows if m == "all rows" else m
                 for m in min_leafs]
    assert _shared_mismatches(X, y, None, min_leafs) == []
    subset = np.flatnonzero(rng.random(rows) < rng.uniform(0.3, 1.0))
    if len(subset):
        assert _shared_mismatches(X, y, subset, min_leafs) == []


def test_shared_grow_check_catches_sizes_kept_together(monkeypatch):
    """Mutation check for the property above: a grow whose sizes all follow
    the first size's cut, after their own cuts differ, must fail it."""
    rng = np.random.default_rng(8)
    X = rng.integers(0, 6, size=(200, 3)).astype(float)
    y = rng.integers(0, 2, size=200)
    min_leafs = [1, 10, 25]
    assert _shared_mismatches(X, y, None, min_leafs) == []
    best_cuts = RankBins.best_cuts

    def together(self, hist, n, pos, sizes):
        found = best_cuts(self, hist, n, pos, sizes)
        first = next((cut for cut in found if cut is not None), None)
        return [None if cut is None else first for cut in found]

    monkeypatch.setattr(RankBins, "best_cuts", together)
    assert _shared_mismatches(X, y, None, min_leafs) == [10, 25]
